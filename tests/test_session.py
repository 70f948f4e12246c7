"""Tests for the unified SimulationSession / RunConfig layer and its
consumers (run_point, parallel sweeps, the CLI ``--backend`` switch)."""

import inspect
import pathlib
import re

import pytest

import repro
from repro.cli import build_parser, main
from repro.experiments.figures import (run_app_scenarios, run_fig9,
                                       run_fig10, run_fig11)
from repro.experiments.latency import run_point
from repro.experiments.sweep import (compare_networks, sweep_rates,
                                     sweep_scenarios)
from repro.sim.array_backend import ArrayBackend
from repro.sim.backend import BACKENDS, DEFAULT_BACKEND, ReferenceBackend
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.workload import WorkloadSpec


SPEC = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.1,
                    rate=0.02, cycles=1500, warmup=300, seed=2)


class TestRunConfig:
    def test_defaults_and_with_backend(self):
        cfg = RunConfig(spec=SPEC)
        assert cfg.backend == DEFAULT_BACKEND
        assert cfg.with_backend("reference").backend == "reference"
        assert cfg.with_backend("reference").spec is SPEC

    def test_default_backend_is_stated_once(self):
        """``array`` is the engine, ``reference`` the oracle, and the
        choice is spelled in one place every entry point derives from."""
        assert DEFAULT_BACKEND == "array"
        assert sorted(BACKENDS) == ["array", "reference"]
        parse = build_parser().parse_args
        for argv in (["run", "--rate", "0.01"], ["sweep"],
                     ["trace", "record", "--out", "t.jsonl"],
                     ["trace", "replay", "--path", "t.jsonl"], ["fig9"]):
            assert parse(argv).backend == DEFAULT_BACKEND, argv
        for driver in (run_point, sweep_rates, compare_networks,
                       sweep_scenarios, run_fig9, run_fig10, run_fig11,
                       run_app_scenarios):
            default = inspect.signature(driver).parameters["backend"].default
            assert default == DEFAULT_BACKEND, driver.__name__
        # ... and nobody spells their own: no backend-name literal as a
        # parameter / field / argparse default or a call-site override
        # anywhere in the package source
        spelled = re.compile(r"""(backend(:\s*str)?|default)\s*=\s*"""
                             r"""["'](reference|array)["']""")
        src = pathlib.Path(repro.__file__).parent
        sources = {path.relative_to(src).as_posix(): path.read_text()
                   for path in sorted(src.rglob("*.py"))}
        assert [f"{name}: {m.group(0)}" for name, text in sources.items()
                for m in spelled.finditer(text)] == []
        assert [name for name, text in sources.items()
                if re.search(r"^DEFAULT_BACKEND\s*=", text, re.M)] \
            == ["sim/backend.py"]

    def test_run_config_helper(self):
        cfg = RunConfig(spec=SPEC, backend="array", bcast_mode="relay")
        assert (cfg.backend, cfg.bcast_mode) == ("array", "relay")

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            RunConfig(spec=SPEC, backend="nope")


class TestSimulationSession:
    def test_run_matches_run_point(self):
        assert SimulationSession(RunConfig(spec=SPEC)).run() == \
            run_point(SPEC)

    def test_wires_collector_and_backend(self):
        session = SimulationSession(RunConfig(spec=SPEC, backend="array"))
        assert session.backend.name == "array"
        assert session.collector.warmup == SPEC.warmup
        assert session.net.name == "quarc"
        assert session.topo.n == SPEC.n

    def test_drain_after_run(self):
        session = SimulationSession(RunConfig(spec=SPEC, backend="array"))
        summary = session.run()
        session.drain()
        drained = session.summary()
        assert drained.in_flight_at_end == 0
        assert drained.delivered_msgs >= summary.delivered_msgs

    def test_summary_before_run_is_empty(self):
        session = SimulationSession(RunConfig(spec=SPEC))
        s = session.summary()
        assert s.generated_msgs == 0 and s.flits_moved == 0


class TestParallelSweep:
    RATES = [0.01, 0.03, 0.05]

    def test_workers_match_serial(self):
        spec = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.0,
                            rate=0.0, cycles=1200, warmup=300, seed=4)
        serial = sweep_rates(spec, self.RATES)
        parallel = sweep_rates(spec, self.RATES, workers=2)
        assert serial == parallel

    def test_workers_with_array_backend(self):
        spec = WorkloadSpec(kind="spidergon", n=8, msg_len=4, beta=0.0,
                            rate=0.0, cycles=1200, warmup=300, seed=4)
        serial = sweep_rates(spec, self.RATES, backend="array")
        parallel = sweep_rates(spec, self.RATES, backend="array",
                               workers=2)
        assert serial == parallel

    def test_parallel_truncates_saturated_tail_like_serial(self):
        spec = WorkloadSpec(kind="spidergon", n=8, msg_len=16, beta=0.0,
                            rate=0.0, cycles=2500, warmup=500, seed=1)
        rates = [0.3, 0.4, 0.5, 0.6, 0.7]
        serial = sweep_rates(spec, rates)
        parallel = sweep_rates(spec, rates, workers=2)
        assert len(serial) == len(parallel) == 2
        assert serial == parallel


class TestBackendAcrossDrivers:
    def test_compare_networks_backend_equivalence(self, engines_built):
        kw = dict(rates=[0.01], cycles=1200, warmup=300, seed=9)
        ref = compare_networks(8, 4, 0.0, backend="reference", **kw)
        arr = compare_networks(8, 4, 0.0, backend="array", **kw)
        assert ref == arr
        assert set(engines_built) == {ReferenceBackend, ArrayBackend}

    def test_compare_networks_accepts_scenarios(self):
        res = compare_networks(8, 4, 0.0, rates=[0.02], cycles=1200,
                               warmup=300, seed=9, pattern="neighbour",
                               arrival="bursty:on=0.3,len=6")
        for summaries in res.values():
            assert summaries[0].extra["pattern"] == "neighbour"
            assert summaries[0].delivered_msgs > 0


class TestScenarioGrid:
    BASE = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.0,
                        rate=0.02, cycles=1000, warmup=250, seed=6)
    PATTERNS = ["uniform", "neighbour"]
    ARRIVALS = ["bernoulli", "bursty:on=0.3,len=6"]

    def test_grid_order_and_labels(self):
        out = sweep_scenarios(self.BASE, patterns=self.PATTERNS,
                              arrivals=self.ARRIVALS,
                              kinds=["quarc", "spidergon"])
        assert len(out) == 2 * 2 * 2
        got = [(s.noc, s.extra["pattern"], s.extra["arrival"])
               for s in out]
        expect = [(k, p, a) for k in ("quarc", "spidergon")
                  for p in self.PATTERNS for a in self.ARRIVALS]
        assert got == expect

    def test_workers_match_serial(self):
        serial = sweep_scenarios(self.BASE, patterns=self.PATTERNS,
                                 arrivals=self.ARRIVALS)
        parallel = sweep_scenarios(self.BASE, patterns=self.PATTERNS,
                                   arrivals=self.ARRIVALS, workers=2)
        assert serial == parallel

    def test_backend_equivalence_across_grid(self, engines_built):
        ref = sweep_scenarios(self.BASE, patterns=self.PATTERNS,
                              arrivals=self.ARRIVALS, backend="reference")
        arr = sweep_scenarios(self.BASE, patterns=self.PATTERNS,
                              arrivals=self.ARRIVALS, backend="array")
        assert ref == arr
        assert set(engines_built) == {ReferenceBackend, ArrayBackend}


class TestCliBackend:
    def test_parser_accepts_backend_and_workers(self):
        args = build_parser().parse_args(
            ["sweep", "--backend", "array", "--workers", "3"])
        assert args.backend == "array" and args.workers == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--rate", "0.01",
                                       "--backend", "warp"])

    def test_point_with_array_backend(self, capsys):
        rc = main(["run", "--kind", "quarc", "-n", "8", "-M", "4",
                   "--rate", "0.01", "--cycles", "1500",
                   "--warmup", "300", "--backend", "array"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "quarc" in out and "unicast_lat" in out

    def test_sweep_with_array_backend_and_workers(self, capsys, tmp_path):
        csv_path = str(tmp_path / "sweep.csv")
        rc = main(["sweep", "-n", "8", "-M", "4", "--beta", "0.0",
                   "--points", "2", "--cycles", "1200", "--warmup", "300",
                   "--backend", "array", "--workers", "2",
                   "--csv", csv_path])
        assert rc == 0
        with open(csv_path) as fh:
            assert "quarc" in fh.read()

    def test_backend_choice_is_output_invariant(self, capsys,
                                                engines_built):
        argv = ["run", "--kind", "spidergon", "-n", "8", "-M", "4",
                "--rate", "0.02", "--cycles", "1500", "--warmup", "300"]
        outs = []
        for flags in ([], ["--backend", "reference"],
                      ["--backend", "array"]):
            assert main(argv + flags) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert engines_built == [BACKENDS[DEFAULT_BACKEND],
                                 ReferenceBackend, ArrayBackend]
