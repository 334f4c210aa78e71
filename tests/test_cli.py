"""Command-line harness: argument handling, artifacts, exit codes, and
sweep mode. Runs go through main(argv) in-process."""

import csv
import json

import numpy as np
import pytest

from warpcg import QuadraticProblem, RcgConfig, run_rcg
from warpcg.cli import TRACE_COLUMNS, RunSpec, execute, main

FAST = [
    "--max-iters", "40",
    "--tol-df", "0",
    "--tol-grad", "1e-6",
]


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleRun:
    def test_summary_and_trace_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        summary = tmp_path / "run.json"
        code, out, _ = run_main(capsys, [
            "--problem", "quadratic", "--dim", "4", "--method", "rcg",
            "--trace-out", str(trace), "--summary-out", str(summary), *FAST,
        ])
        assert code == 0

        printed = json.loads(out)
        on_disk = json.loads(summary.read_text())
        assert printed == on_disk
        assert printed["problem"] == "quadratic"
        assert printed["dim"] == 4
        assert printed["method"] == "rcg"
        assert printed["stop_reason"] == "small_grad"
        assert printed["basin"] is None
        assert printed["distance_to_maximizer"] < 1e-5
        assert printed["config"]["sigma_sq"] == 1.0

        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRACE_COLUMNS
        assert len(rows) - 1 == printed["iterations"]
        # Float columns round-trip exactly through repr.
        spec = RunSpec(problem="quadratic", dim=4, max_iters=40, tol_df=0.0)
        result, _ = execute(spec)
        assert float(rows[1][1]) == result.trace[0].f

    def test_rosenbrock_reports_basin(self, capsys):
        code, out, _ = run_main(capsys, [
            "--problem", "rosenbrock", "--dim", "2", "--method", "rcg",
            "--max-iters", "4000", "--tol-df", "0", "--tol-grad", "1e-4",
        ])
        assert code == 0
        assert json.loads(out)["basin"] in ("global", "local", "other")

    def test_euclid_method(self, capsys):
        code, out, _ = run_main(capsys, [
            "--problem", "quadratic", "--dim", "3", "--method", "euclid_cg", *FAST,
        ])
        assert code == 0
        summary = json.loads(out)
        assert summary["method"] == "euclid_cg"
        assert summary["final_grad_norm_riem"] == summary["final_grad_norm_eucl"]

    def test_minimize_flips_reported_sign(self, capsys):
        # Under --minimize the harness maximizes the negation and reports
        # the objective back in the user's sign convention. The concave
        # quadratic has no minimum, so the run stops immediately with a
        # failed line search at the start point, where the quadratic's own
        # value is -1/2 sum a_i / 4 = -0.5625 for dim 3.
        code, out, _ = run_main(capsys, [
            "--problem", "quadratic", "--dim", "3", "--minimize", *FAST,
        ])
        assert code == 0
        summary = json.loads(out)
        assert summary["stop_reason"] == "line_search_fail"
        assert summary["final_f"] == -0.5625
        assert summary["distance_to_maximizer"] is None
        assert summary["config"]["minimize"] is True

        spec = RunSpec(problem="quadratic", dim=3, minimize=True,
                       max_iters=40, tol_df=0.0)
        result, exec_summary = execute(spec)
        assert exec_summary["final_f"] == -result.value

    def test_exit_two_on_breakdown(self, capsys, monkeypatch):
        # Force a breakdown summary through the real printing/exit path.
        class Fragile(QuadraticProblem):
            def __init__(self):
                super().__init__(2)
                self.calls = 0

            def hvp(self, theta, v):
                self.calls += 1
                if self.calls > 8:
                    return np.full(2, np.nan)
                return super().hvp(theta, v)

        import warpcg.cli as cli_mod

        real_execute = cli_mod.execute

        def fragile_execute(spec):
            result = run_rcg(Fragile(), np.array([3.0, -2.0]),
                             cfg=RcgConfig(tol_df=0.0, tol_grad=1e-12))
            _, summary = real_execute(spec)
            summary["stop_reason"] = result.stop_reason.value
            return result, summary

        monkeypatch.setattr(cli_mod, "execute", fragile_execute)
        code, out, _ = run_main(capsys, [
            "--problem", "quadratic", "--dim", "2", *FAST,
        ])
        assert code == 2
        assert json.loads(out)["stop_reason"] == "numerical_breakdown"

    def test_determinism(self, capsys):
        argv = ["--problem", "squiggle", "--dim", "5", *FAST]
        _, out_a, _ = run_main(capsys, argv)
        _, out_b, _ = run_main(capsys, argv)
        assert out_a == out_b


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        ["--problem", "banana", "--dim", "3"],
        ["--problem", "quadratic", "--dim", "3", "--method", "sgd"],
        ["--problem", "quadratic"],
        ["--problem", "quadratic", "--dim", "0"],
        ["--problem", "rosenbrock", "--dim", "1"],
        ["--problem", "quadratic", "--dim", "3", "--sigma-sq", "0"],
        ["--problem", "quadratic", "--dim", "3", "--sigma-sq", "-1"],
        ["--problem", "quadratic", "--dim", "3", "--wolfe-c1", "0.5"],
        ["--problem", "quadratic", "--dim", "3", "--fd-step", "0"],
        ["--problem", "quadratic", "--dim", "3", "--method", "rcg,euclid_cg"],
        ["--problem", "quadratic", "--dims", ""],
    ])
    def test_exit_one_with_stderr(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert code == 1
        assert err.startswith("error:")
        assert out == ""


class TestSweep:
    def test_rows_per_method_and_dim(self, tmp_path, capsys):
        summary = tmp_path / "sweep.json"
        code, out, _ = run_main(capsys, [
            "--problem", "quadratic", "--dims", "2,3",
            "--method", "rcg,euclid_cg",
            "--summary-out", str(summary), *FAST,
        ])
        assert code == 0
        data = json.loads(out)
        assert data["sweep"] is True
        assert len(data["rows"]) == 4
        combos = {(r["method"], r["dim"]) for r in data["rows"]}
        assert combos == {("rcg", 2), ("rcg", 3), ("euclid_cg", 2), ("euclid_cg", 3)}
        assert json.loads(summary.read_text()) == data

    def test_per_run_trace_files(self, tmp_path, capsys):
        trace = tmp_path / "sw.csv"
        code, _, _ = run_main(capsys, [
            "--problem", "quadratic", "--dims", "2,3", "--method", "rcg,euclid_cg",
            "--trace-out", str(trace), *FAST,
        ])
        assert code == 0
        for method in ("rcg", "euclid_cg"):
            for dim in (2, 3):
                path = tmp_path / f"sw_{method}_d{dim}.csv"
                assert path.exists()
                with open(path, newline="") as fh:
                    rows = list(csv.reader(fh))
                assert tuple(rows[0]) == TRACE_COLUMNS
                assert len(rows) > 1

    def test_bad_combo_recorded_as_error_row(self, capsys):
        # rosenbrock at dim 1 is invalid; the sweep keeps going and reports
        # the failure inline.
        code, out, _ = run_main(capsys, [
            "--problem", "rosenbrock", "--dims", "1,2", "--method", "rcg",
            "--max-iters", "2000", "--tol-df", "0", "--tol-grad", "1e-4",
        ])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 2
        by_dim = {r["dim"]: r for r in rows}
        assert "error" in by_dim[1]
        assert "error" not in by_dim[2]


class TestRunSpecApi:
    def test_execute_returns_result_and_summary(self):
        spec = RunSpec(problem="quadratic", dim=3, max_iters=30, tol_df=0.0)
        result, summary = execute(spec)
        assert summary["iterations"] == result.iterations
        assert summary["final_f"] == result.value
        assert summary["version"]

    def test_validate_rejects_without_running(self):
        with pytest.raises(ValueError):
            RunSpec(problem="quadratic", dim=3, wolfe_c2=2.0).validate()
