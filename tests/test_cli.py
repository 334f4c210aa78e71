"""Command-line harness: argument handling, artifacts and exit codes.
Runs go through main(argv) in-process."""

import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from warpcg import QuadraticProblem, RcgConfig, WarpConfig, run_rcg
import warpcg.cli as cli_mod
from warpcg.cli import TRACE_COLUMNS, _write_trace, build_parser, execute, main
from warpcg.rcg import IterationTrace

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
        result, _ = execute("quadratic", 4, cfg=RcgConfig(max_iters=40, tol_df=0.0))
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

        real_execute = cli_mod.execute

        def fragile_execute(*args, **kwargs):
            result = run_rcg(Fragile(), np.array([3.0, -2.0]),
                             cfg=RcgConfig(tol_df=0.0, tol_grad=1e-12))
            _, summary = real_execute(*args, **kwargs)
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


class TestTraceCsv:
    def test_bytes_pinned_for_edge_values(self, tmp_path):
        # Expected text is what the writer that repr()'d each float column
        # produced for these rows; csv's own float formatting must match it.
        rows = [
            IterationTrace(f=float("nan"), grad_norm_riem=-0.0,
                           grad_norm_eucl=float("inf"), t=5e-324, beta=-float("inf"),
                           s=0.1, ls_evals=10**20, wall_ns=2**63, restart=1,
                           n_grad=2, n_hvp=3),
            IterationTrace(f=-1.7976931348623157e308,
                           grad_norm_riem=2.2250738585072014e-308, grad_norm_eucl=1e16,
                           t=1.0, beta=-0.0, s=0.30000000000000004, ls_evals=0,
                           wall_ns=-1, restart=0, n_grad=0, n_hvp=0),
        ]
        path = tmp_path / "trace.csv"
        _write_trace(path, rows)
        assert path.read_bytes() == (
            b"iter,f,grad_norm_riem,grad_norm_eucl,t_k,beta_k,s_k,ls_evals,wall_ns,restart\r\n"
            b"0,nan,-0.0,inf,5e-324,-inf,0.1,100000000000000000000,9223372036854775808,1\r\n"
            b"1,-1.7976931348623157e+308,2.2250738585072014e-308,"
            b"1e+16,1.0,-0.0,0.30000000000000004,0,-1,0\r\n"
        )


class TestFlagsFollowConfigs:
    FIELDS = [*fields(WarpConfig), *fields(RcgConfig)]
    OTHER_DESTS = {"help", "problem", "dim", "method", "trace_out", "summary_out"}

    def test_flags_defaults_and_echo_are_the_config_fields(self):
        settings = [a for a in build_parser()._actions if a.dest not in self.OTHER_DESTS]
        assert [a.option_strings for a in settings] == [
            ["--" + f.name.replace("_", "-")] for f in self.FIELDS
        ]
        assert [a.default for a in settings] == [f.default for f in self.FIELDS]
        assert [a.type for a in settings] == [type(f.default) for f in self.FIELDS]
        echo = execute("quadratic", 2)[1]["config"]
        assert list(echo) == [f.name for f in self.FIELDS]
        assert list(echo.values()) == [f.default for f in self.FIELDS]

    def test_each_flag_reaches_its_config(self, capsys):
        values = {"sigma_sq": 2.5, "max_iters": 0, "tol_df": 0.25,
                  "tol_grad": 0.125}
        assert set(values) == {f.name for f in self.FIELDS}
        argv = ["--problem", "quadratic", "--dim", "2"]
        for name, value in values.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        code, out, _ = run_main(capsys, argv)
        assert code == 0
        assert json.loads(out)["config"] == values


# Flags of settings that are gone: each must fail as an unknown flag.
REMOVED_FLAGS = [
    ["--problem", "quadratic", "--dim", "3", "--dims", "2,3"],
    ["--problem", "quadratic", "--dim", "3", "--wolfe-c1", "0.01"],
    ["--problem", "quadratic", "--dim", "3", "--wolfe-c2", "0.5"],
]


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        ["--problem", "banana", "--dim", "3"],
        ["--problem", "quadratic", "--dim", "3", "--method", "sgd"],
        ["--problem", "quadratic"],
        ["--problem", "quadratic", "--dim", "0"],
        ["--problem", "rosenbrock", "--dim", "1"],
        ["--problem", "quadratic", "--dim", "3", "--sigma-sq", "0"],
        ["--problem", "quadratic", "--dim", "3", "--sigma-sq", "-1"],
        ["--problem", "quadratic", "--dim", "3", "--tol-df", "-1"],
        ["--problem", "quadratic", "--dim", "3", "--max-iters", "-1"],
        ["--problem", "quadratic", "--dim", "3", "--method", "rcg,euclid_cg"],
        ["--problem", "quadratic", "--dim", "3", "--tol-grad", "nan"],
        ["--problem", "quadratic", "--dim", "3", "--max-iters", "1e3"],
        ["--problem", "quadratic", "--dim", "3", "--no-such-flag"],
        *REMOVED_FLAGS,
    ])
    def test_exit_one_with_stderr(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("argv", REMOVED_FLAGS)
    def test_removed_flags_are_unknown(self, capsys, argv):
        # Sweeps and Wolfe constants are no longer run settings.
        code, _, err = run_main(capsys, argv)
        assert code == 1
        assert err.startswith(f"error: unrecognized arguments: {argv[-2]}")

    def test_comma_list_method_is_an_unknown_method(self, capsys):
        code, _, err = run_main(capsys, [
            "--problem", "quadratic", "--dim", "3", "--method", "rcg,euclid_cg",
        ])
        assert code == 1
        assert err.startswith("error: unknown method 'rcg,euclid_cg'")

    @pytest.mark.parametrize("flag", ["--trace-out", "--summary-out"])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, flag):
        missing = tmp_path / "no_such_dir" / "out"
        code, _, err = run_main(capsys, [
            "--problem", "quadratic", "--dim", "3", flag, str(missing), *FAST,
        ])
        assert code == 1
        assert err.startswith("error:") and str(missing) in err
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")


class TestRunSpecApi:
    """execute(problem, dim, method, warp, cfg), the CLI's solve from Python."""

    def test_execute_returns_result_and_summary(self):
        result, summary = execute("quadratic", 3, cfg=RcgConfig(max_iters=30, tol_df=0.0))
        assert summary["iterations"] == result.iterations
        assert summary["final_f"] == result.value
        assert summary["version"]

    @pytest.mark.parametrize("method", ["rcg", "euclid_cg"])
    def test_summary_carries_the_evaluation_totals(self, method):
        result, summary = execute("rosenbrock", 4, method,
                                  cfg=RcgConfig(max_iters=30, tol_df=0.0))
        for key in ("n_value", "n_grad", "n_hvp", "failed_attempts"):
            assert summary[key] == getattr(result, key)
        assert summary["n_grad"] > 0
        assert (summary["n_hvp"] > 0) == (method == "rcg")

    @pytest.mark.parametrize("problem, dim, method", [
        ("banana", 3, "rcg"),
        ("quadratic", 3, "sgd"),
        ("rosenbrock", 1, "rcg"),
        ("squiggle", 2.5, "rcg"),
        ("rosenbrock", 2.5, "rcg"),
        ("quadratic", 2.5, "euclid_cg"),
    ])
    def test_execute_rejects_before_evaluating(self, monkeypatch, problem, dim, method):
        def no_run(*args, **kwargs):
            raise AssertionError("a rejected solve must not run")

        monkeypatch.setattr(cli_mod, "run_rcg", no_run)
        monkeypatch.setattr(cli_mod, "run_euclidean_cg", no_run)
        with pytest.raises(ValueError):
            execute(problem, dim, method)
