"""Tests for the observability subsystem (``repro.obs``).

The two load-bearing contracts:

* **Probe-stream equivalence** -- with probes enabled, all backends
  (reference, array with the C kernel on, off, and in fallback
  mode) emit *byte-identical* ``repro-metrics/v1`` streams for the
  same config.
* **Zero perturbation** -- enabling any observability feature (probes,
  histograms, profiler, heartbeat) never changes a single bit of the
  core run summary.
"""

import io
import json
import random

import pytest

from repro.obs import ObsSpec, ProbeSpec, parse_probe, saturation_onset
from repro.obs.hist import HistogramBank, LatencyHistogram, render_histogram
from repro.obs.metrics import (dumps_stream, validate_file,
                               validate_stream, write_csv, write_jsonl)
from repro.sim.backend import BACKENDS
from repro.sim.session import RunConfig, SimulationSession
from repro.sim.stats import quantile
from repro.traffic.workload import WorkloadSpec

ALL_BACKENDS = sorted(BACKENDS)

ALL_PROBES = tuple(ProbeSpec(name, window=32) for name in
                   ("occupancy", "links", "rates", "inflight", "stalls"))

SPEC = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.1,
                    rate=0.02, cycles=800, warmup=200, seed=7)


def _probed_run(spec, backend, obs, **cfg):
    session = SimulationSession(
        RunConfig(spec=spec, backend=backend, obs=obs, **cfg))
    summary = session.run()
    if hasattr(session.backend, "detach"):
        session.backend.detach()
    return session, summary


# ----------------------------------------------------------------------
# probe-stream equivalence
# ----------------------------------------------------------------------
class TestProbeEquivalence:
    @pytest.mark.parametrize("kind,load", [
        ("quarc", dict(beta=0.1, rate=0.02)),
        ("spidergon", dict(beta=0.1, rate=0.02)),
        # the kernel counts the broadcast receipts: the probes' window
        # by window net.deliveries must not lag the reference's
        ("quarc", dict(beta=0.0, rate=1.0,
                       workload="cache_coherence:window=4")),
    ], ids=["quarc", "spidergon", "quarc-closed-coherence"])
    def test_streams_identical_across_backends(self, kind, load):
        spec = WorkloadSpec(kind=kind, n=8, msg_len=4, cycles=800,
                            warmup=200, seed=7, **load)
        obs = ObsSpec(probes=ALL_PROBES, latency_hist=True)
        streams, hists = {}, {}
        for backend in ALL_BACKENDS:
            _, s = _probed_run(spec, backend, obs)
            streams[backend] = dumps_stream(s)
            hists[backend] = s.extra["latency_hist"]
        ref = streams["reference"]
        for backend in ALL_BACKENDS:
            assert streams[backend] == ref, backend
            assert hists[backend] == hists["reference"], backend

    def test_saturated_streams_identical(self):
        """Near saturation every probe reads busy state (occupied
        buffers, latched/blocked lanes) on every backend."""
        spec = WorkloadSpec(kind="spidergon", n=8, msg_len=16, beta=0.0,
                            rate=0.5, cycles=600, warmup=100, seed=3)
        obs = ObsSpec(probes=ALL_PROBES)
        streams = [dumps_stream(_probed_run(spec, b, obs)[1])
                   for b in ALL_BACKENDS]
        assert all(s == streams[0] for s in streams[1:])
        stalls = [json.loads(line) for line in streams[0].splitlines()[1:]
                  if json.loads(line)["probe"] == "stalls"]
        assert any(rec["data"]["blocked"] > 0 for rec in stalls)

    def test_stream_covers_final_cycle(self):
        """Windows that do not divide the horizon still sample the last
        cycle (partial window), so the stream always covers the run."""
        obs = ObsSpec(probes=(ProbeSpec("inflight", window=300),))
        _, s = _probed_run(SPEC, "reference", obs)
        samples = s.extra["probes"]["samples"]
        assert samples[-1]["t"] == SPEC.cycles - 1
        assert samples[-1]["window"] == SPEC.cycles - 2 * 300
        assert [r["window"] for r in samples[:-1]] == [300, 300]


# ----------------------------------------------------------------------
# zero perturbation
# ----------------------------------------------------------------------
class TestZeroPerturbation:
    OBS_KEYS = ("latency_hist", "probes", "sat_onset")

    def _stripped(self, summary):
        extra = {k: v for k, v in summary.extra.items()
                 if k not in self.OBS_KEYS}
        import dataclasses
        d = dataclasses.asdict(summary)
        d["extra"] = extra
        return d

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_probes_do_not_perturb_summary(self, backend):
        _, off = _probed_run(SPEC, backend, None)
        obs = ObsSpec(probes=ALL_PROBES, latency_hist=True)
        _, on = _probed_run(SPEC, backend, obs)
        assert self._stripped(on) == self._stripped(off)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_profiler_does_not_perturb_summary(self, backend):
        _, off = _probed_run(SPEC, backend, None)
        session, on = _probed_run(SPEC, backend, ObsSpec(profile=True))
        assert on == off
        report = session.profiler.report()
        assert report["cycles"] == SPEC.cycles
        assert report["categories"]
        assert session.profiler.render()

    def test_profiler_wrappers_are_removed(self):
        session, _ = _probed_run(SPEC, "reference", ObsSpec(profile=True))
        # finish() must have restored class-level methods (no lingering
        # instance-attribute shadows timing a dead profiler)
        assert "step" not in vars(session.net)
        assert "step" not in vars(session.backend)

    def test_reference_profile_times_the_real_step(self, monkeypatch):
        """The profiler wraps ``backend.step``; it must not run a
        private copy of the loop that bypasses ``Network.step``."""
        from repro.noc.network import Network
        calls = []
        real = Network.step

        def counted(net, now=None):
            calls.append(now)
            return real(net, now)

        monkeypatch.setattr(Network, "step", counted)
        session, _ = _probed_run(SPEC, "reference", ObsSpec(profile=True))
        assert len(calls) == SPEC.cycles
        report = session.profiler.report()
        assert set(report["categories"]) == {"collect", "inject", "step"}
        assert "replay_s" not in report     # array-only: step - kernel - fold

    @pytest.mark.parametrize("backend,load", [
        ("reference", {}),
        ("array", dict(beta=0.0, rate=1.0,
                       workload="cache_coherence:window=4")),
        ("array", {}),
    ], ids=["reference", "array-closed-loop", "array-columns"])
    def test_inject_and_step_never_exceed_the_run(self, backend, load):
        """``inject`` times ``TrafficMix.inject``, with the ``emit`` /
        ``fill_calendar`` calls inside it, and ``step`` the cycles: they
        are disjoint and add up to at most ``run_s``.
        On the column path the block draw is ``inject`` and the window
        of columns is staged under ``fold``, inside ``step``."""
        import dataclasses
        spec = dataclasses.replace(SPEC, **load)
        session, _ = _probed_run(spec, backend, ObsSpec(profile=True))
        report = session.profiler.report()
        cat = report["categories"]
        assert 0 < cat["inject"] + cat["step"] <= report["run_s"]
        if not load and backend == "array":
            kc = report["kernel_counters"]
            mix = session.mix       # a Quarc broadcast: a column per branch
            assert kc["packets_columns"] == (mix.generated_unicasts
                                             + 4 * mix.generated_broadcasts)
            assert 0 < cat["fold"] <= cat["step"]

    def test_array_profile_reports_kernel_counters(self):
        session, _ = _probed_run(SPEC, "array", ObsSpec(profile=True))
        report = session.profiler.report()
        kc = report["kernel_counters"]
        assert kc["calls"] > 0
        assert kc["buffers_scanned"] >= kc["candidates"] > 0
        assert kc["flits_moved"] > 0 and kc["wakes"] > 0
        assert 0 < kc["rescans"] <= kc["calls"]
        assert report["replay_s"] >= 0.0
        assert f"{kc['wakes']} wakes, {kc['rescans']} rescans" in (
            session.profiler.render())

    def test_closed_loop_profile_names_replies_and_feedback(self):
        """A closed loop runs in the kernel: the ``tails:`` line counts
        the replies it sent, the ``packets:`` line the requests it fired,
        and no batch ends for a credit (``0 feedback``), a route or a
        passive tail -- only at a window's end or where its sources ran
        out of interned requests.  Every batch has one reason, and
        deliveries split by path as ever."""
        import dataclasses
        spec = dataclasses.replace(SPEC, n=16, beta=0.0, rate=1.0,
                                   cycles=1500,
                                   workload="cache_coherence:window=4")
        session, summary = _probed_run(spec, "array", ObsSpec(profile=True))
        report = session.profiler.report()
        kc = report["kernel_counters"]
        stops = kc["stops"]
        assert sum(stops.values()) == kc["calls"] < 10
        assert stops["feedback"] == 0
        fill = summary.extra["classes"]["fill"]
        assert kc["requests_kernel"] + kc["replies_kernel"] == (
            fill["generated"])
        assert kc["replies_kernel"] > 50 * kc["calls"]
        assert (kc["tails_kernel"] + kc["tails_unicast"]
                + kc["tails_receive_tail"]) == kc["tails_delivered"]
        text = session.profiler.render()
        assert (f", {kc['packets_late']} late, {kc['requests_kernel']} "
                f"fired by the kernel, table {{slots}} slots of {{slot_bytes}} "
                f"bytes, {{live}} live "
                f"after {{compactions}} compactions, 0 records waiting "
                f"after 0 refills\n".format(
                    **report["packet_table"]) in text)
        assert (f", {kc['tails_receive_tail']} through receive_tail, "
                f"{kc['replies_kernel']} replies sent by the kernel\n"
                in text)
        assert (f"batches ended by {stops['horizon']} horizon, "
                f"0 python_route, 0 delivery, 0 events_full, "
                f"0 feedback, {stops['requests']} requests, 0 records\n"
                in text)
        # every unicast tail is booked with its batch, timed as collect
        assert kc["tails_booked"] == kc["tails_unicast"] > 0
        assert report["categories"]["collect"] > 0
        assert (f", {kc['tails_unicast']} as unicast columns "
                f"({kc['tails_booked']} booked per batch), " in text)

    def test_array_profile_reports_its_footprint(self):
        """One line sizes the engine's static state.  Quarc N = 8: a row
        per buffer position (12), each switch lane a 4-word ring, each of
        the 4 source queues a 16-word window, 2 sentinel words; the
        queue table is a first row per node plus one relative row.  It
        ends with the object graph: a healthy run builds none, a
        ``detach`` builds it at the cycle it ran at."""
        session = SimulationSession(RunConfig(spec=SPEC, backend="array",
                                              obs=ObsSpec(profile=True)))
        session.run()
        assert session.profiler.report()["footprint"] == {
            "route_rows": 12, "route_cols": 8, "ring_words": 770,
            "queue_entries": 16, "objects": "none built"}
        assert ("\n  footprint: route table 12 rows x 8, rings 770 words, "
                "queue table 16 entries; objects: none built"
                ) in session.profiler.render()
        session.backend.detach()
        assert session.profiler.report()["footprint"]["objects"] == (
            f"built at cycle {SPEC.cycles} by detach")

    def test_saturated_kernel_examines_about_its_candidates(self):
        """Phase A walks the ready set: at saturation almost every row
        is blocked, and leaves the set until a wake, so the rows examined
        stay within twice the candidates (a scan of every occupied row
        examines ~19x)."""
        spec = WorkloadSpec(kind="quarc", n=64, msg_len=16, beta=0.0,
                            rate=0.0138, cycles=3000, warmup=500, seed=1)
        session, summary = _probed_run(spec, "array", ObsSpec(profile=True))
        kc = session.profiler.report()["kernel_counters"]
        assert summary.saturated
        assert kc["buffers_scanned"] < 2 * kc["candidates"]

    def test_array_profile_names_tier_and_batch_stops(self):
        """Which tier ran, how many cycles its entries executed and why
        each batch ended -- from the state struct."""
        session, _ = _probed_run(SPEC, "array", ObsSpec(profile=True))
        be = session.backend
        report = session.profiler.report()
        assert report["backend"] == "array" and report["tier"] == "ckernel"
        assert len(report["kernel"]) == 16
        kc = report["kernel_counters"]
        assert set(kc["stops"]) == {"horizon", "python_route",
                                    "delivery", "events_full", "feedback",
                                    "requests", "records"}
        assert sum(kc["stops"].values()) == kc["calls"] < kc["cycles"]
        assert kc["cycles"] <= SPEC.cycles
        assert kc["stops"]["events_full"] == 0
        assert "batches ended by" in session.profiler.render()
        # finish() put the kernel back, not a timing wrapper
        assert not hasattr(be._ck, "__closure__")
        assert "_advance" not in vars(be) and "_stage" not in vars(be)

    def test_profile_names_the_backend_that_ran(self, monkeypatch):
        """Asked for ``array`` on a host whose compile fails, the session
        runs ``reference``, and the profile says so: no ``array`` header
        over an oracle run, no kernel tier."""
        import subprocess
        import warnings

        from repro.sim import ckernel

        def broken():
            raise subprocess.CalledProcessError(1, ["cc"])

        monkeypatch.setattr(ckernel, "_compile_and_load", broken)
        monkeypatch.setattr(ckernel, "_cached", None)
        monkeypatch.setattr(ckernel, "_failed", False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            session, _ = _probed_run(SPEC, "array", ObsSpec(profile=True))
        report = session.profiler.report()
        assert session.config.backend == "array"
        assert report["backend"] == session.backend.name == "reference"
        assert "tier" not in report and "kernel_counters" not in report
        assert session.profiler.render().startswith("profile [reference]")

    def test_heartbeat_does_not_perturb_summary(self, capsys):
        _, off = _probed_run(SPEC, "array", None)
        _, on = _probed_run(SPEC, "array", ObsSpec(progress=True))
        assert on == off
        assert "[run]" in capsys.readouterr().err


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
class TestLatencyHistogram:
    def test_small_values_are_exact(self):
        h = LatencyHistogram()
        values = list(range(1 << LatencyHistogram.SUBBITS))
        for v in values:
            h.add(v)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            exact = quantile(values, q)
            assert h.percentile(q) == pytest.approx(exact, abs=1)
        assert h.n == len(values)
        assert h.min == 0 and h.max == values[-1]
        assert h.total == sum(values)

    def test_bucket_roundtrip_bound(self):
        """Every value falls in its bucket and the bucket's upper bound
        overestimates by at most the documented relative error."""
        rel = 2.0 ** -(LatencyHistogram.SUBBITS - 1)
        rng = random.Random(5)
        values = [rng.randrange(0, 10 ** 7) for _ in range(2000)]
        values += [0, 1, 31, 32, 33, 63, 64, 10 ** 9]
        for v in values:
            idx = LatencyHistogram.bucket_index(v)
            bound = LatencyHistogram.bucket_bound(idx)
            assert bound >= v
            assert bound <= v * (1 + rel) + 1
            if idx > 0:
                assert LatencyHistogram.bucket_bound(idx - 1) < v

    def test_percentiles_match_exact_within_bound(self):
        """Reported percentiles track the exact sample quantiles within
        the 2**-(SUBBITS-1) relative-error bound of the bucket width."""
        rel = 2.0 ** -(LatencyHistogram.SUBBITS - 1)
        rng = random.Random(11)
        values = sorted(int(rng.lognormvariate(4.0, 1.2)) + 1
                        for _ in range(5000))
        h = LatencyHistogram()
        for v in values:
            h.add(v)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = values[min(len(values) - 1,
                               int(q * len(values)))]
            got = h.percentile(q)
            assert abs(got - exact) <= max(exact * (rel + 0.01), 2.0), q
        assert h.percentile(1.0) == h.max == values[-1]

    def test_empty_and_validation(self):
        h = LatencyHistogram()
        assert h.percentile(0.5) == 0
        assert h.to_dict()["n"] == 0
        with pytest.raises(ValueError):
            h.add(-1)
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_bank_per_class_breakdown(self):
        bank = HistogramBank()
        bank.add_unicast(10, "req")
        bank.add_unicast(20, None)
        bank.add_collective(30, "req")
        d = bank.to_dict()
        assert d["unicast"]["n"] == 2
        assert d["collective"]["n"] == 1
        assert d["classes"]["req"]["n"] == 2

    def test_summary_hist_extra_matches_collector_samples(self):
        """The histogram n must equal the measured sample counts of the
        run summary (same warmup filtering)."""
        obs = ObsSpec(latency_hist=True)
        _, s = _probed_run(SPEC, "array", obs)
        hist = s.extra["latency_hist"]
        assert hist["unicast"]["n"] == s.unicast_samples
        assert hist["collective"]["n"] == s.bcast_samples
        assert hist["unicast"]["max"] == int(s.unicast_max)

    def test_render_histogram_lines(self):
        h = LatencyHistogram()
        for v in (3, 3, 4, 100):
            h.add(v)
        lines = render_histogram(h.to_dict(), label="uni")
        assert lines[0].startswith("uni: n=4")
        assert any("#" in line for line in lines[1:])


# ----------------------------------------------------------------------
# metrics stream schema
# ----------------------------------------------------------------------
class TestMetricsStream:
    def _summary(self):
        obs = ObsSpec(probes=(ProbeSpec("inflight", window=200),
                              ProbeSpec("rates", window=400)))
        return _probed_run(SPEC, "array", obs)[1]

    def test_roundtrip_and_validate(self, tmp_path):
        s = self._summary()
        path = write_jsonl(s, str(tmp_path / "run.metrics.jsonl"))
        counts = validate_file(path)
        assert counts["probes"] == 2
        assert counts["samples"] == len(s.extra["probes"]["samples"])
        header = json.loads(open(path).read().splitlines()[0])
        assert header["format"] == "repro-metrics/v1"
        assert header["run"]["noc"] == "quarc"
        assert "backend" not in header["run"]

    def test_profiled_stream_carries_the_objects_line(self, tmp_path,
                                                      capsys):
        """``repro run --profile --metrics-out`` writes the profile's
        object-graph line into the stream header, never the summary; an
        unprofiled stream has none (its bytes stay backend-free)."""
        from repro.cli import main
        path = tmp_path / "run.metrics.jsonl"
        argv = ["run", "--kind", "quarc", "-n", "8", "-M", "4", "--rate",
                "0.01", "--cycles", "800", "--warmup", "200", "--probe",
                "inflight:window=200", "--metrics-out", str(path)]
        assert main(argv + ["--profile"]) == 0
        assert "; objects: none built\n" in capsys.readouterr().out
        header = json.loads(path.read_text().splitlines()[0])
        assert header["objects"] == "none built"
        assert main(argv) == 0
        assert "objects" not in json.loads(path.read_text().splitlines()[0])

    def test_csv_export(self, tmp_path):
        s = self._summary()
        path = write_csv(s, str(tmp_path / "run.metrics.csv"))
        lines = open(path).read().splitlines()
        assert lines[0] == "t,probe,window,key,value"
        assert len(lines) > 1

    def test_rejects_malformed_streams(self):
        s = self._summary()
        good = dumps_stream(s).splitlines()
        with pytest.raises(ValueError, match="empty"):
            validate_stream([])
        with pytest.raises(ValueError, match="format"):
            validate_stream(['{"nope": 1}'])
        with pytest.raises(ValueError, match="bad JSON"):
            validate_stream(["{nope"])
        with pytest.raises(ValueError, match="no samples"):
            validate_stream(good[:1])
        bad = dict(json.loads(good[1]), probe="undeclared")
        with pytest.raises(ValueError, match="undeclared"):
            validate_stream([good[0], json.dumps(bad)])
        bad = dict(json.loads(good[1]), data=True)
        with pytest.raises(ValueError, match="non-integer"):
            validate_stream([good[0], json.dumps(bad)])
        with pytest.raises(ValueError, match="ascending"):
            validate_stream([good[0], good[2], good[1]])

    def test_unprobed_summary_refuses_export(self):
        _, s = _probed_run(SPEC, "array", None)
        with pytest.raises(ValueError, match="no probe data"):
            dumps_stream(s)


# ----------------------------------------------------------------------
# probe specs + saturation onset
# ----------------------------------------------------------------------
class TestProbeSpecs:
    def test_parse_probe(self):
        assert parse_probe("inflight") == ProbeSpec("inflight", 64)
        assert parse_probe("occupancy:window=8") == \
            ProbeSpec("occupancy", 8)

    @pytest.mark.parametrize("text", ["bogus", "inflight:interval=4",
                                      "inflight:window=x",
                                      "inflight:window=0"])
    def test_parse_probe_rejects(self, text):
        with pytest.raises(ValueError):
            parse_probe(text)

    def test_saturation_onset_rules(self):
        assert saturation_onset([], 10) == -1
        assert saturation_onset([(10, 5), (20, 8)], 10) == -1
        assert saturation_onset([(10, 5), (20, 30), (30, 40)], 10) == 20
        # a dip back below the threshold resets the onset
        assert saturation_onset([(10, 30), (20, 5), (30, 40)], 10) == 30

    def test_sat_onset_in_summary(self):
        obs = ObsSpec(probes=(ProbeSpec("inflight", window=64),))
        sat_spec = WorkloadSpec(kind="spidergon", n=8, msg_len=16,
                                beta=0.0, rate=0.5, cycles=600,
                                warmup=100, seed=3)
        _, hot = _probed_run(sat_spec, "array", obs)
        assert hot.extra["sat_onset"] >= 0
        assert hot.row()["sat_onset"] == hot.extra["sat_onset"]
        _, cold = _probed_run(SPEC, "array", obs)
        assert cold.extra["sat_onset"] == -1
        _, unprobed = _probed_run(SPEC, "array", None)
        assert "sat_onset" not in unprobed.row()


# ----------------------------------------------------------------------
# execution-engine progress + sweep plumbing
# ----------------------------------------------------------------------
class TestProgress:
    def test_engine_progress_callback(self):
        from repro.sim.replication import ExecutionEngine
        spec = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.0,
                            rate=0.01, cycles=300, warmup=100, seed=1)
        configs = [RunConfig(spec=spec.with_rate(r), backend="array")
                   for r in (0.005, 0.01, 0.02)]
        ticks = []
        engine = ExecutionEngine(
            workers=1, progress=lambda d, t: ticks.append((d, t)))
        results = engine.run(configs)
        assert len(results) == 3
        assert ticks == [(1, 3), (2, 3), (3, 3)]

    def test_cell_progress_writes_and_clears(self):
        from repro.obs.progress import cell_progress
        buf = io.StringIO()
        tick = cell_progress(label="sweep", stream=buf)
        tick(1, 2)
        tick(2, 2)
        out = buf.getvalue()
        assert "[sweep] 1/2" in out
        assert out.endswith("\r")

    def test_heartbeat_leaves_a_blank_line(self, capsys):
        """Replaying the ``\\r`` rewrites leaves a blank line, however
        wide a tick was (a saturated quarc64 tick is about 90 columns)."""
        spec = WorkloadSpec(kind="quarc", n=64, msg_len=16, beta=0.0,
                            rate=0.0138, cycles=6000, warmup=1500, seed=1)
        _probed_run(spec, "array", ObsSpec(progress=True))
        err = capsys.readouterr().err
        line = ""
        for seg in err.split("\r"):
            line = seg + line[len(seg):]
        assert "[run]" in err and line.strip() == ""

    def test_sweep_rates_accepts_obs(self):
        from repro.experiments.sweep import sweep_rates
        obs = ObsSpec(probes=(ProbeSpec("inflight", window=64),))
        ticks = []
        out = sweep_rates(SPEC, [0.01, 0.02], backend="array",
                          obs=obs,
                          progress=lambda d, t: ticks.append((d, t)))
        assert len(out) == 2
        assert all("sat_onset" in s.row() for s in out)
        assert ticks == [(1, 2), (2, 2)]


# ----------------------------------------------------------------------
# ASCII renderers
# ----------------------------------------------------------------------
class TestRenderers:
    def test_sparkline(self):
        from repro.experiments.ascii_plot import ascii_sparkline
        line = ascii_sparkline([0, 1, 2, 3, 4], width=5, label="x")
        assert line.startswith("x")
        assert "max=4" in line
        assert ascii_sparkline([], label="x").endswith("(no samples)")

    def test_sparkline_pooling_keeps_spikes(self):
        from repro.experiments.ascii_plot import ascii_sparkline
        values = [0] * 100
        values[37] = 50
        line = ascii_sparkline(values, width=10)
        assert "@" in line          # max-pooling preserves the spike

    def test_heatmap(self):
        from repro.experiments.ascii_plot import ascii_heatmap
        rows = [[0, 1, 2], [3, 0, 1]]
        out = ascii_heatmap(rows, width=3, title="occ")
        lines = out.splitlines()
        assert lines[0] == "occ"
        assert len(lines) == 4      # title + legend + 2 rows
        assert ascii_heatmap([], title="x").endswith("(no samples)")


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestObsCli:
    RUN = ["run", "-n", "8", "-M", "4", "--rate", "0.02",
           "--cycles", "600", "--warmup", "150"]

    def test_run_with_probes_and_metrics_out(self, capsys, tmp_path):
        from repro.cli import main
        path = str(tmp_path / "run.metrics.jsonl")
        rc = main(self.RUN + ["--backend", "array",
                              "--probe", "occupancy:window=64",
                              "--probe", "inflight",
                              "--hist", "--profile",
                              "--metrics-out", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sat_onset" in out
        assert "latency distribution" in out
        assert "router occupancy" in out
        assert "profile [array]" in out
        assert validate_file(path)["probes"] == 2

    def test_run_metrics_out_requires_probe(self, capsys, tmp_path):
        from repro.cli import main
        rc = main(self.RUN + ["--metrics-out",
                              str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "--probe" in capsys.readouterr().err

    def test_run_metrics_out_rejects_replicates(self, capsys, tmp_path):
        from repro.cli import main
        rc = main(self.RUN + ["--probe", "inflight", "--replicates", "2",
                              "--metrics-out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "--replicates" in capsys.readouterr().err

    def test_sweep_probe_adds_sat_onset_column(self, capsys):
        from repro.cli import main
        rc = main(["sweep", "-n", "8", "-M", "4", "--beta", "0.0",
                   "--points", "2", "--cycles", "800", "--warmup", "200",
                   "--backend", "array", "--probe", "inflight"])
        assert rc == 0
        assert "sat_onset" in capsys.readouterr().out
