"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.isa.trace import read_trace


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gemm"])
        assert args.platform == "StPIM"
        assert args.scale == 1.0

    def test_trace_output_flag(self):
        args = build_parser().parse_args(
            ["trace", "atax", "-o", "out.trace"]
        )
        assert args.output == "out.trace"


class TestCommands:
    def test_run_small_workload(self, capsys):
        assert main(["run", "atax", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "atax" in out
        assert "time" in out
        assert "energy" in out

    def test_run_other_platform(self, capsys):
        assert main(
            ["run", "bicg", "--platform", "CORUSCANT", "--scale", "0.05"]
        ) == 0
        assert "CORUSCANT" in capsys.readouterr().out

    def test_run_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "cholesky"])

    def test_run_unknown_platform(self):
        with pytest.raises(SystemExit):
            main(["run", "gemm", "--platform", "TPU"])

    def test_dnn_rejects_scale(self):
        with pytest.raises(SystemExit):
            main(["run", "mlp", "--scale", "0.5"])

    def test_sweep_small(self, capsys):
        assert main(
            ["sweep", "--workloads", "atax", "bicg", "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "StPIM" in out
        assert "CPU-RM" in out

    def test_counts(self, capsys):
        assert main(["counts"]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out
        assert "4,606,000" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "512" in out  # PIM subarrays
        assert "10.27" in out  # write latency

    def test_trace_roundtrips(self, tmp_path, capsys):
        path = tmp_path / "atax.trace"
        assert main(
            ["trace", "atax", "--scale", "0.01", "-o", str(path)]
        ) == 0
        trace = read_trace(path)
        assert trace.stats.pim_vpcs > 0
        assert trace.stats.move_vpcs > 0

    def test_trace_without_output(self, capsys):
        assert main(["trace", "mvt", "--scale", "0.01"]) == 0
        assert "PIM VPCs" in capsys.readouterr().out


class TestReplay:
    def test_replay_saved_trace(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        assert main(["trace", "atax", "--scale", "0.01", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "time breakdown" in out

    def test_replay_missing_file(self):
        with pytest.raises(FileNotFoundError):
            main(["replay", "/nonexistent/trace.txt"])


class TestFaults:
    def test_run_prints_reliability_report(self, capsys):
        assert main(
            [
                "faults",
                "run",
                "gemm",
                "--scale",
                "0.01",
                "--seed",
                "42",
                "--p-per-step",
                "2e-6",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "injected" in out
        assert "SDC" in out
        assert "policy   : retry" in out

    def test_run_engines_print_identical_reports(self, capsys):
        argv = ["faults", "run", "gemm", "--scale", "0.01",
                "--seed", "3", "--p-per-step", "2e-6"]
        assert main(argv + ["--engine", "scalar"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(argv + ["--engine", "vector"]) == 0
        vector_out = capsys.readouterr().out
        assert scalar_out == vector_out

    def test_campaign_writes_json_report(self, tmp_path, capsys):
        import json

        target = tmp_path / "campaign.json"
        assert main(
            [
                "faults",
                "campaign",
                "gemm",
                "--scale",
                "0.01",
                "--runs",
                "3",
                "--p-per-step",
                "2e-6",
                "-o",
                str(target),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "observed" in out
        payload = json.loads(target.read_text())
        assert payload["n_runs"] == 3
        assert len(payload["runs"]) == 3

    def test_rejects_bad_policy_parameters(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "faults",
                    "run",
                    "gemm",
                    "--scale",
                    "0.01",
                    "--max-retries",
                    "0",
                ]
            )

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["faults", "run", "cholesky"])


class TestWorkloadsListing:
    def test_lists_all_suites(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("gemm", "mvt", "mlp", "bert", "trmm", "power_iter"):
            assert name in out
        for suite in ("polybench", "dnn", "extra"):
            assert suite in out


# ----------------------------------------------------------------------
# sweep robustness: per-cell timeouts and inert-flag warnings
# ----------------------------------------------------------------------
import time as _time

import repro.cli as _cli

_REAL_SWEEP_WORKER = _cli._sweep_worker


def _hang_one_cell_worker(job):
    """Sweep worker that hangs on exactly one (platform, workload) cell.

    Top level so the pool can pickle it by reference; the forked child
    inherits the monkeypatched ``repro.cli._sweep_worker`` binding.
    """
    pname, wname, _scale = job
    if (pname, wname) == ("ELP2IM", "atax"):
        _time.sleep(120.0)
    return _REAL_SWEEP_WORKER(job)


class TestSweepRobustness:
    def test_job_timeout_surfaces_instead_of_hanging(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(_cli, "_sweep_worker", _hang_one_cell_worker)
        rc = main(
            [
                "sweep",
                "--workloads",
                "atax",
                "--scale",
                "0.05",
                "--jobs",
                "2",
                "--job-timeout",
                "3",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1  # a timed-out cell fails the sweep loudly
        assert "JobTimeout: ELP2IM/atax exceeded 3s" in captured.err
        # The stuck platform's row says so; the others still report.
        assert "timeout" in captured.out
        assert "StPIM" in captured.out
        assert "CPU-RM" in captured.out

    def test_generous_timeout_passes_through_the_pool_path(self, capsys):
        rc = main(
            [
                "sweep",
                "--workloads",
                "atax",
                "--scale",
                "0.05",
                "--jobs",
                "2",
                "--job-timeout",
                "300",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "JobTimeout" not in captured.err
        assert "StPIM" in captured.out

    @pytest.mark.parametrize(
        "flags",
        [["--stream"], ["--chunk-vpcs", "512"]],
    )
    def test_inert_stream_flags_warn_on_stderr(self, capsys, flags):
        rc = main(
            ["sweep", "--workloads", "atax", "--scale", "0.05", *flags]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "have no effect here" in captured.err

    def test_no_warning_without_the_inert_flags(self, capsys):
        assert main(["sweep", "--workloads", "atax", "--scale", "0.05"]) == 0
        assert "no effect" not in capsys.readouterr().err
