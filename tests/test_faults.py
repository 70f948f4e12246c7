"""Fault injection: plan grammar, invariants and graceful degradation.

The contract under test (``repro.faults``, tentpole of the fault
subsystem):

* plan strings parse or fail loudly (grammar errors name the clause);
* fault handling is part of the backend-equivalence surface: the same
  seed + plan produces a byte-identical ``RunSummary`` on every
  backend, every array compute path, and every repeat run;
* **flit conservation** holds exactly after every faulted run:
  ``injected == ejected + purged + in_flight``;
* degradation is graceful and fully accounted: the network keeps
  delivering, and the shortfall shows up as dropped / suppressed /
  purged, never silently.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, FaultState
from repro.sim.backend import BACKENDS
from repro.sim.records import RunSummary
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.workload import WorkloadSpec

TOPOLOGIES = ("quarc", "spidergon", "mesh", "torus")
ALL_BACKENDS = sorted(BACKENDS)

#: one mid-run multi-clause plan per topology family -- a link wave
#: and a router death, both landing after warmup so the fault-free
#: prefix exercises the install path too
PLAN = "links:down=2@cycle=300;router:node=5@cycle=450"


def run_faulted(kind: str, backend: str, faults: str = PLAN,
                seed: int = 11, rate: float = 0.02,
                cycles: int = 900) -> RunSummary:
    spec = WorkloadSpec(kind=kind, n=16, msg_len=6, beta=0.05, rate=rate,
                        cycles=cycles, warmup=200, seed=seed,
                        faults=faults)
    session = SimulationSession(RunConfig(spec=spec, backend=backend))
    summary = session.run()
    session.backend.detach()
    return summary


def conservation_gap(summary: RunSummary) -> int:
    fb = summary.extra["faults"]
    return (fb["injected_flits"] - fb["ejected_flits"]
            - fb["purged_flits"] - summary.in_flight_at_end)


# ----------------------------------------------------------------------
# plan grammar
# ----------------------------------------------------------------------
class TestPlanGrammar:
    def test_roundtrip(self):
        text = ("link:src=0,dst=1@cycle=200;links:down=3@cycle=500;"
                "router:node=5@cycle=0;routers:down=2@cycle=7")
        plan = FaultPlan.parse(text)
        assert plan.label() == text
        again = FaultPlan.parse(plan.label())
        assert again.label() == plan.label()

    @pytest.mark.parametrize("bad", [
        "link:src=0,dst=1",                    # no @cycle
        "links:down=3@cycle=x",                # non-integer cycle
        "melt:node=1@cycle=5",                 # unknown kind
        "router:node=1,node=2@cycle=5",        # duplicate parameter
        "router:5@cycle=5",                    # positional parameter
        "router:node=1,down=2@cycle=5",        # wrong parameter set
        "links:down=0@cycle=5",                # down < 1
        "router:node=-1@cycle=5",              # negative node
        "",                                    # empty plan
        ";;",                                  # clauses all empty
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_spec_validates_eagerly(self):
        """A bad plan fails at WorkloadSpec construction, not mid-run."""
        with pytest.raises(ValueError):
            WorkloadSpec(kind="quarc", n=16, msg_len=4, beta=0.0,
                         rate=0.01, cycles=100, warmup=0, seed=1,
                         faults="links:down@cycle=5")

    def test_resolution_checks_the_network(self):
        """Node ranges and link existence are checked against the
        concrete network when the session resolves the plan."""
        for plan in ("router:node=99@cycle=0",
                     "link:src=0,dst=9@cycle=0"):    # 0-9 not a ring edge
            with pytest.raises(ValueError):
                run_faulted("quarc", "reference", faults=plan, cycles=50)

    def test_label_and_dict_carry_the_plan(self):
        spec = WorkloadSpec(kind="quarc", n=16, msg_len=4, beta=0.0,
                            rate=0.01, cycles=100, warmup=0, seed=1,
                            faults="router:node=5@cycle=0")
        assert "faults=router:node=5@cycle=0" in spec.label()
        assert spec.to_dict()["faults"] == "router:node=5@cycle=0"
        clean = WorkloadSpec(kind="quarc", n=16, msg_len=4, beta=0.0,
                             rate=0.01, cycles=100, warmup=0, seed=1)
        assert "faults" not in clean.to_dict()
        assert "faults" not in clean.label()


# ----------------------------------------------------------------------
# conservation + equivalence: every topology x every backend
# ----------------------------------------------------------------------
class TestConservationAndEquivalence:
    @pytest.mark.parametrize("kind", TOPOLOGIES)
    def test_flit_conservation_and_backend_equality(self, kind):
        """After a faulted run, every injected flit is ejected, purged
        or still in flight -- exactly -- and all backends agree
        on the entire summary, faults block included."""
        runs = {b: run_faulted(kind, b) for b in ALL_BACKENDS}
        ref = runs["reference"]
        assert conservation_gap(ref) == 0, ref.extra["faults"]
        assert ref.delivered_msgs > 0, "collapse, not degradation"
        for backend in ALL_BACKENDS:
            assert runs[backend] == ref, (
                f"{backend} diverges from reference on faulted {kind}")

    def test_determinism(self):
        """Same seed + plan: byte-identical summaries on repeat runs,
        including the random `links:`/`routers:` target picks."""
        plan = "links:down=3@cycle=250;routers:down=1@cycle=400"
        for backend in ("reference", "array"):
            a = run_faulted("spidergon", backend, faults=plan)
            b = run_faulted("spidergon", backend, faults=plan)
            assert a == b
            assert (a.extra["faults"]["events"]
                    == b.extra["faults"]["events"])

    def test_seed_changes_random_targets(self):
        """The random picks live under the `fault:` RNG namespace keyed
        off the run seed, so different seeds kill different links."""
        a = run_faulted("quarc", "reference", seed=11)
        b = run_faulted("quarc", "reference", seed=12)
        targets = [ev["targets"] for ev in a.extra["faults"]["events"]]
        targets_b = [ev["targets"] for ev in b.extra["faults"]["events"]]
        assert targets != targets_b


# ----------------------------------------------------------------------
# accounting semantics
# ----------------------------------------------------------------------
class TestAccounting:
    def test_dead_source_suppresses_not_drops(self):
        """Messages from a dead node are suppressed at the source --
        never injected, never counted as drops."""
        s = run_faulted("quarc", "reference",
                        faults="router:node=5@cycle=0")
        fb = s.extra["faults"]
        assert fb["suppressed_msgs"] > 0
        assert fb["dead_routers"] == [5]

    def test_mid_run_router_death_purges(self):
        """Killing a busy router mid-run purges resident flits, and the
        purged packets are counted as dropped messages."""
        s = run_faulted("torus", "reference", rate=0.06,
                        faults="routers:down=3@cycle=400")
        fb = s.extra["faults"]
        assert fb["purged_flits"] > 0
        assert fb["dropped_msgs"] > 0
        assert conservation_gap(s) == 0

    def test_a_dying_link_cuts_its_worm(self, engines_built):
        """A worm latched on a link that dies is purged, as one in a dead
        router is.  Left in place it never moves again, and the VCs it
        holds back to its source wedge every packet behind it: this run
        used to end ``saturated`` with 486 flits stranded."""
        spec = WorkloadSpec(kind="torus", n=16, msg_len=8, beta=0.05,
                            rate=0.006, cycles=3000, warmup=600, seed=7,
                            faults="links:down=2@cycle=200")
        ref, arr = (SimulationSession(RunConfig(spec=spec, backend=b)).run()
                    for b in ("reference", "array"))
        assert engines_built == [BACKENDS["reference"], BACKENDS["array"]]
        assert ref == arr
        assert not ref.saturated
        assert ref.extra["faults"]["purged_flits"] > 0
        assert conservation_gap(ref) == 0

    def test_fault_free_run_has_no_faults_block(self):
        spec = WorkloadSpec(kind="quarc", n=16, msg_len=6, beta=0.05,
                            rate=0.02, cycles=400, warmup=100, seed=11)
        session = SimulationSession(
            RunConfig(spec=spec, backend="reference"))
        s = session.run()
        session.backend.detach()
        assert "faults" not in s.extra
        assert "dropped" not in s.row()
        assert session.net.fault_state is None

    def test_row_gains_fault_columns(self):
        s = run_faulted("quarc", "reference")
        row = s.row()
        assert row["dropped"] == s.extra["faults"]["dropped_msgs"]
        assert row["dead_links"] == s.extra["faults"]["dead_links"]
        assert row["dead_routers"] == 1

    def test_drop_split_sums(self):
        """dropped_msgs splits exactly into unicast/collective parts."""
        s = run_faulted("spidergon", "reference", rate=0.04)
        fb = s.extra["faults"]
        assert (fb["dropped_msgs"]
                == fb["dropped_unicasts"] + fb["dropped_collectives"])


# ----------------------------------------------------------------------
# observability under faults
# ----------------------------------------------------------------------
class TestProbesUnderFaults:
    def test_probe_streams_gain_fault_fields(self):
        from repro.obs import ObsSpec, parse_probe
        spec = WorkloadSpec(kind="spidergon", n=16, msg_len=6, beta=0.05,
                            rate=0.02, cycles=900, warmup=200, seed=11,
                            faults=PLAN)
        obs = ObsSpec(probes=tuple(
            parse_probe(t) for t in ("rates:window=100",
                                     "stalls:window=100",
                                     "occupancy:window=100")))
        streams = {}
        for backend in ALL_BACKENDS:
            session = SimulationSession(
                RunConfig(spec=spec, backend=backend, obs=obs))
            summary = session.run()
            session.backend.detach()
            streams[backend] = summary.extra["probes"]
        ref = streams["reference"]["samples"]
        rates = [s for s in ref if s["probe"] == "rates"]
        assert any(s["data"]["dropped"] > 0 for s in rates)
        stalls = [s for s in ref if s["probe"] == "stalls"]
        assert all("dead_lanes" in s["data"] for s in stalls)
        occ = [s for s in ref if s["probe"] == "occupancy"]
        assert any(-1 in s["data"] for s in occ)   # dead router marker
        for backend in ALL_BACKENDS:
            assert streams[backend] == streams["reference"]


# ----------------------------------------------------------------------
# replication
# ----------------------------------------------------------------------
class TestReplication:
    def test_replicated_runs_keep_fault_blocks(self):
        from repro.sim.replication import run_replicated
        spec = WorkloadSpec(kind="quarc", n=16, msg_len=6, beta=0.05,
                            rate=0.02, cycles=600, warmup=150, seed=11,
                            faults="links:down=2@cycle=200")
        rs = run_replicated(
            RunConfig(spec=spec, backend="reference"), 3)
        assert rs.replicates == 3
        for run in rs.runs:
            assert "faults" in run.extra
            assert conservation_gap(run) == 0
        # different seeds -> (usually) different random link picks
        targets = {tuple(ev["targets"])
                   for run in rs.runs
                   for ev in run.extra["faults"]["events"]}
        assert len(targets) > 1


# ----------------------------------------------------------------------
# FaultState unit-level checks
# ----------------------------------------------------------------------
class TestFaultStateUnits:
    def test_distances_become_unreachable(self):
        """Killing every link out of a node makes it unreachable in the
        live-graph distance table (sources then drop eagerly)."""
        from repro.core.api import build_network
        from repro.faults import UNREACHABLE
        net, _ = build_network("quarc", 8)
        plan = FaultPlan.parse("router:node=3@cycle=0")
        fs = FaultState(plan, net, root_seed=1)
        fs.install(net)
        for events in fs.events_by_cycle().values():
            fs.apply(net, events)
        assert 3 in fs.dead_nodes
        assert fs.dist[0][3] >= UNREACHABLE
        assert fs.src_cannot_reach(0, 3)
        assert not fs.src_cannot_reach(0, 1)

    def test_install_is_visible_on_every_router(self):
        from repro.core.api import build_network
        net, _ = build_network("mesh", 16)
        plan = FaultPlan.parse("router:node=0@cycle=5")
        fs = FaultState(plan, net, root_seed=1)
        fs.install(net)
        assert net.fault_state is fs
        assert all(r.fstate is fs for r in net.routers)
