"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.sim.array_backend import ArrayBackend
from repro.sim.backend import ReferenceBackend


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.kind == "quarc"
        assert args.nodes == 16

    def test_point_requires_rate(self, capsys):
        """--rate stays mandatory for single-class runs; only --workload
        (which defaults the multiplier to 1.0) makes it optional."""
        assert main(["run"]) == 2
        assert "--rate is required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--workload", "cache_coherence:window=4",
          "--faults", "links:down=1@cycle=100"],
         "closed-loop workloads cannot be combined with fault injection"),
        (["run", "--rate", "0.01", "--pattern", "nosuch"],
         "unknown scenario 'nosuch'"),
        (["run", "--backend", "reference", "--shard-workers", "2",
          "--rate", "0.01"],
         "--shard-workers requires the array backend (got 'reference')"),
    ])
    def test_rejected_command_lines_are_usage_errors(self, capsys, argv,
                                                     message):
        """What spec parsing, the scenario registry and the session's
        ``_AXIS_RULES`` reject is one ``error:`` line and exit 2 -- the
        rule's own message, no traceback, no CLI-side copy of it."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and message in lines[0]


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--kind", "spidergon", "-n", "16"]) == 0
        out = capsys.readouterr().out
        assert "avg hops" in out
        assert "analytic saturation" in out
        assert "binding" in out

    def test_info_mesh_has_no_model(self, capsys):
        assert main(["info", "--kind", "mesh", "-n", "16"]) == 0
        assert "avg hops" in capsys.readouterr().out

    def test_point(self, capsys):
        rc = main(["run", "--kind", "quarc", "-n", "8", "-M", "4",
                   "--rate", "0.01", "--cycles", "1500",
                   "--warmup", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "quarc" in out
        assert "unicast_lat" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "735" in out and "1453" in out

    def test_fig12(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "1453" in out and "quarc_slices" in out

    def test_sweep_writes_csv(self, capsys, tmp_path):
        csv_path = str(tmp_path / "sweep.csv")
        rc = main(["sweep", "-n", "8", "-M", "4", "--beta", "0.0",
                   "--points", "2", "--cycles", "1500", "--warmup", "300",
                   "--csv", csv_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unicast_lat" in out
        with open(csv_path) as fh:
            assert "quarc" in fh.read()


class TestFigureCommands:
    def test_full_flag_leaves_the_environment_alone(self, monkeypatch,
                                                    tmp_path):
        """``--full`` asks the runner for the paper-size grid by
        argument, and no figure command writes the environment."""
        calls = []

        def runner(**kwargs):
            calls.append(kwargs)
            return [{"noc": "quarc", "rate": 0.01}]

        monkeypatch.setattr("repro.cli.run_fig9", runner)
        before = dict(os.environ)
        csv_path = str(tmp_path / "fig9.csv")
        assert main(["fig9", "--full", "--csv", csv_path]) == 0
        assert main(["fig9", "--csv", csv_path]) == 0
        assert dict(os.environ) == before
        assert [c["fast"] for c in calls] == [False, True]


class TestScenarioCommands:
    RUN = ["-n", "8", "-M", "4", "--cycles", "1200", "--warmup", "300",
           "--rate", "0.02"]

    def test_run_is_point_alias_with_scenarios(self, capsys):
        rc = main(["run", "--kind", "quarc"] + self.RUN
                  + ["--pattern", "hotspot:node=0,p=0.3",
                     "--arrival", "bursty:on=0.25,len=8"])
        assert rc == 0
        assert "unicast_lat" in capsys.readouterr().out

    def test_run_backend_invariant_under_scenarios(self, capsys):
        """The ISSUE acceptance command: array == reference output."""
        argv = (["run", "--kind", "quarc"] + self.RUN
                + ["--pattern", "hotspot:p=0.3",
                   "--arrival", "bursty:on=0.25,len=8"])
        assert main(argv + ["--backend", "reference"]) == 0
        ref_out = capsys.readouterr().out
        assert main(argv + ["--backend", "array"]) == 0
        assert capsys.readouterr().out == ref_out

    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("uniform", "hotspot", "transpose", "bit-complement",
                     "neighbour", "permutation", "bernoulli", "bursty",
                     "trace"):
            assert name in out

    def test_scenarios_show(self, capsys):
        assert main(["scenarios", "show", "bursty"]) == 0
        out = capsys.readouterr().out
        assert "bursty" in out and "on" in out and "len" in out
        assert main(["scenarios", "show"]) == 2

    def test_bad_scenario_spec_fails_loud(self, capsys):
        assert main(["run", "--kind", "quarc"] + self.RUN
                    + ["--pattern", "whirlpool"]) == 2
        assert "error: unknown scenario" in capsys.readouterr().err

    def test_sweep_accepts_scenarios(self, capsys, tmp_path):
        csv_path = str(tmp_path / "s.csv")
        rc = main(["sweep", "-n", "8", "-M", "4", "--beta", "0.0",
                   "--points", "1", "--cycles", "1200", "--warmup", "300",
                   "--pattern", "neighbour", "--arrival",
                   "bursty:on=0.3,len=6", "--csv", csv_path])
        assert rc == 0
        with open(csv_path) as fh:
            assert "quarc" in fh.read()

    def test_trace_record_then_replay_matches(self, capsys, tmp_path,
                                              engines_built):
        path = str(tmp_path / "run.jsonl")
        rc = main(["trace", "record", "--kind", "quarc"] + self.RUN
                  + ["--arrival", "bursty:on=0.3,len=6", "--out", path,
                     "--backend", "array"])
        assert rc == 0
        record_out = capsys.readouterr().out
        assert "[trace]" in record_out

        rc = main(["trace", "replay", "--path", path,
                   "--backend", "reference"])
        assert rc == 0
        replay_out = capsys.readouterr().out
        # identical summary row: the replay reproduces the recorded run
        # (recorded on the engine, replayed on the oracle)
        assert record_out.splitlines()[:3] == replay_out.splitlines()[:3]
        assert "replayed" in replay_out
        assert engines_built == [ArrayBackend, ReferenceBackend]

    def test_trace_replay_refuses_self_addressed_event(self, capsys,
                                                       tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["trace", "record", "--kind", "spidergon"] + self.RUN
                    + ["--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        event = json.loads(lines[1])
        event["dst"] = event["node"]
        lines[1] = json.dumps(event)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for kind in ("quarc", "mesh"):
            assert main(["trace", "replay", "--path", str(path),
                         "--kind", kind]) == 2
            assert "run.jsonl:2: dst" in capsys.readouterr().err

    def test_trace_replay_honours_explicit_flags(self, capsys, tmp_path):
        """Regression: explicit flags must override the recording's
        metadata, not be silently discarded."""
        path = str(tmp_path / "run.jsonl")
        assert main(["trace", "record", "--kind", "quarc"] + self.RUN
                    + ["--out", path]) == 0
        capsys.readouterr()
        assert main(["trace", "replay", "--path", path,
                     "--kind", "spidergon", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "spidergon" in out

    def test_trace_replay_rejects_comma_paths(self, capsys, tmp_path):
        bad_dir = tmp_path / "a,b"
        bad_dir.mkdir()
        path = str(bad_dir / "run.jsonl")
        assert main(["trace", "replay", "--path", path]) == 2
        assert "comma" in capsys.readouterr().err


class TestWorkloadCommands:
    RUN = ["-n", "8", "--cycles", "1200", "--warmup", "300"]

    def test_run_workload_defaults_rate_and_prints_classes(self, capsys):
        rc = main(["run", "--kind", "quarc"] + self.RUN
                  + ["--workload", "cache_coherence:storms=true",
                     "--backend", "array"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-class breakdown" in out
        assert "fill" in out and "inv" in out

    def test_run_raw_classes_spec(self, capsys):
        rc = main(["run", "--kind", "spidergon"] + self.RUN
                  + ["--workload",
                     "classes:inv=broadcast,len=2,rate=0.004;"
                     "fill=uniform,len=9,rate=0.02"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inv" in out and "broadcast" in out

    def test_scenarios_list_shows_workloads(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "Application workloads" in out
        assert "cache_coherence" in out and "allreduce" in out
        assert "Multi-class grammar" in out

    def test_sweep_workload(self, capsys, tmp_path):
        csv_path = str(tmp_path / "wl.csv")
        rc = main(["sweep", "-n", "8", "--points", "1",
                   "--cycles", "1200", "--warmup", "300",
                   "--workload", "allreduce:chunk=4,rate=0.02",
                   "--csv", csv_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-class breakdown" in out
        assert "scatter" in out and "gather" in out

    def test_trace_record_workload_then_replay(self, capsys, tmp_path,
                                               engines_built):
        """Multi-class record/replay round trip via the CLI: the replay
        run (on the oracle) reports the same summary row from the v2
        trace alone as the recording run (on the engine)."""
        path = str(tmp_path / "mc.jsonl")
        rc = main(["trace", "record", "--kind", "quarc"] + self.RUN
                  + ["--workload", "cache_coherence:storms=true",
                     "--out", path, "--backend", "array"])
        assert rc == 0
        record_out = capsys.readouterr().out
        assert "per-class breakdown" in record_out

        rc = main(["trace", "replay", "--path", path, "--seed", "4242",
                   "--backend", "reference"])
        assert rc == 0
        assert engines_built == [ArrayBackend, ReferenceBackend]
        captured = capsys.readouterr()
        replay_out = captured.out
        assert record_out.splitlines()[:3] == replay_out.splitlines()[:3]
        assert "per-class breakdown" in replay_out
        # v2 replays are verbatim: overriding traffic-shaping flags
        # must tell the user they have no effect
        assert "do not change the traffic" in captured.err


class TestReplicationCli:
    SWEEP = ["sweep", "-n", "8", "-M", "4", "--beta", "0.0",
             "--points", "2", "--cycles", "1200", "--warmup", "300"]

    def test_workers_and_replicates_reject_below_one(self, capsys):
        """Satellite regression: a clear usage error (exit 2), not a
        pool/seed-plan traceback from deep inside a run."""
        for flag, value in (("--workers", "0"), ("--workers", "-2"),
                            ("--replicates", "0"),
                            ("--replicates", "-1"),
                            ("--workers", "two")):
            with pytest.raises(SystemExit) as exc:
                main(self.SWEEP + [flag, value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert flag in err
            assert "must be >= 1" in err or "expected an integer" in err

    def test_run_rejects_bad_replicates(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--rate", "0.01", "--replicates", "0"])
        assert exc.value.code == 2
        assert "--replicates" in capsys.readouterr().err

    def test_replicated_run_prints_ci_and_drilldown(self, capsys):
        rc = main(["run", "--kind", "quarc", "-n", "8", "-M", "4",
                   "--rate", "0.02", "--cycles", "1200",
                   "--warmup", "300", "--replicates", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unicast_ci95" in out
        assert "±95% CI over 3 replicates" in out
        assert "per-seed drill-down" in out
        # three per-seed data rows (after the title, header and dash
        # separator lines), none reusing root seed 1 directly
        section = out.split("per-seed")[1].splitlines()
        seeds = [line.split()[0] for line in section[3:6]]
        assert len(seeds) == 3
        assert all(s.isdigit() and s != "1" for s in seeds)

    def test_replicated_sweep_output_identical_across_workers(
            self, capsys):
        """The acceptance contract: --workers must not change a single
        byte of the replicated sweep output."""
        argv = self.SWEEP + ["--replicates", "3"]
        assert main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "4"]) == 0
        sharded = capsys.readouterr().out
        assert serial == sharded
        assert "unicast_ci95" in serial
        assert "95% CI band" in serial

    def test_replicated_sweep_csv_has_ci_columns(self, capsys, tmp_path):
        csv_path = str(tmp_path / "rep.csv")
        rc = main(self.SWEEP + ["--replicates", "2", "--workers", "2",
                                "--csv", csv_path])
        assert rc == 0
        with open(csv_path) as fh:
            header = fh.readline()
        assert "unicast_ci95" in header and "replicates" in header
