"""Command-line harness: single runs and (method x dimension) sweeps.

Single run:

    warpcg --problem squiggle --dim 10 --method rcg --sigma-sq 1.0 \\
           --trace-out trace.csv --summary-out run.json

Sweep (comma lists; --dims switches modes):

    warpcg --problem squiggle --dims 2,10,50 --method rcg,euclid_cg \\
           --summary-out sweep.json

Exit codes: 0 on success, 1 for an invalid run specification, 2 when a
single run stops with numerical breakdown. Sweep failures are recorded per
row and do not change the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import run_euclidean_cg
from .geometry import WarpConfig
from .objective import FdConfig, NegatedObjective, DEFAULT_FD_STEP
from .problems import (
    PROBLEM_NAMES,
    classify_rosenbrock_basin,
    initial_point,
    make_problem,
)
from .rcg import IterationTrace, RcgConfig, RcgResult, StopReason, run_rcg

__all__ = ["RunSpec", "run_single", "run_sweep", "main", "TRACE_COLUMNS"]

METHOD_NAMES = ("rcg", "euclid_cg")

#: Pinned trace CSV schema; column order is part of the file format.
TRACE_COLUMNS = (
    "iter",
    "f",
    "grad_norm_riem",
    "grad_norm_eucl",
    "t_k",
    "beta_k",
    "s_k",
    "ls_evals",
    "wall_ns",
    "restart",
)


@dataclass(frozen=True)
class RunSpec:
    """A fully-specified single optimization run."""

    problem: str
    dim: int
    method: str = "rcg"
    sigma_sq: float = 1.0
    max_iters: int = 8000
    tol_df: float = 1e-5
    tol_grad: float = 1e-6
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.1
    fd_step: float = DEFAULT_FD_STEP
    minimize: bool = False

    def validate(self) -> None:
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(f"unknown problem {self.problem!r}; choose from {PROBLEM_NAMES}")
        if self.method not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHOD_NAMES}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.problem == "rosenbrock" and self.dim < 2:
            raise ValueError("rosenbrock needs dim >= 2")
        if not (self.sigma_sq > 0):
            raise ValueError(f"sigma-sq must be > 0, got {self.sigma_sq}")
        if not (0 < self.wolfe_c1 < self.wolfe_c2 < 1):
            raise ValueError("need 0 < wolfe-c1 < wolfe-c2 < 1")
        if not (self.fd_step > 0):
            raise ValueError(f"fd-step must be > 0, got {self.fd_step}")
        if self.max_iters < 0 or self.tol_df < 0 or self.tol_grad < 0:
            raise ValueError("max-iters and tolerances must be >= 0")

    def config_echo(self) -> dict:
        return {
            "sigma_sq": self.sigma_sq,
            "max_iters": self.max_iters,
            "tol_df": self.tol_df,
            "tol_grad": self.tol_grad,
            "wolfe_c1": self.wolfe_c1,
            "wolfe_c2": self.wolfe_c2,
            "fd_step": self.fd_step,
            "minimize": self.minimize,
        }


def _write_trace(path: Path, trace: list[IterationTrace]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in trace:
            writer.writerow(
                [
                    row.k,
                    repr(row.f),
                    repr(row.grad_norm_riem),
                    repr(row.grad_norm_eucl),
                    repr(row.t),
                    repr(row.beta),
                    repr(row.s),
                    row.ls_evals,
                    row.wall_ns,
                    row.restart,
                ]
            )


def execute(spec: RunSpec) -> tuple[RcgResult, dict]:
    """Run one spec and build its summary dict."""
    spec.validate()
    problem = make_problem(spec.problem, spec.dim)
    objective = NegatedObjective(problem) if spec.minimize else problem
    theta0 = initial_point(spec.problem, spec.dim)
    cfg = RcgConfig(
        max_iters=spec.max_iters,
        tol_df=spec.tol_df,
        tol_grad=spec.tol_grad,
        wolfe_c1=spec.wolfe_c1,
        wolfe_c2=spec.wolfe_c2,
    )
    if spec.method == "rcg":
        result = run_rcg(
            objective,
            theta0,
            warp=WarpConfig(sigma_sq=spec.sigma_sq),
            cfg=cfg,
            fd=FdConfig(step=spec.fd_step),
        )
    else:
        result = run_euclidean_cg(objective, theta0, cfg=cfg)

    # Report the user's sign convention: under --minimize the driver
    # maximized -f, so flip the reported objective value back.
    final_f = -result.value if spec.minimize else result.value
    maximizer = problem.maximizer()
    summary = {
        "problem": spec.problem,
        "dim": spec.dim,
        "method": spec.method,
        "stop_reason": result.stop_reason.value,
        "iterations": result.iterations,
        "final_f": final_f,
        "final_grad_norm_riem": result.grad_norm_riem,
        "final_grad_norm_eucl": result.grad_norm_eucl,
        "distance_to_maximizer": (
            None if spec.minimize else float(np.linalg.norm(result.theta - maximizer))
        ),
        "basin": (
            classify_rosenbrock_basin(result.theta) if spec.problem == "rosenbrock" else None
        ),
        "config": spec.config_echo(),
        "version": __version__,
    }
    return result, summary


def run_single(spec: RunSpec, trace_out: Path | None, summary_out: Path | None) -> int:
    result, summary = execute(spec)
    if trace_out is not None:
        _write_trace(trace_out, result.trace)
    text = json.dumps(summary, indent=2)
    if summary_out is not None:
        Path(summary_out).write_text(text + "\n")
    print(text)
    return 2 if result.stop_reason is StopReason.NUMERICAL_BREAKDOWN else 0


@dataclass
class SweepSpec:
    base: RunSpec
    dims: list[int]
    methods: list[str]
    trace_out: Path | None = None


def run_sweep(sweep: SweepSpec, summary_out: Path | None) -> int:
    """One run per (method, dim) pair; failures become rows, not crashes."""
    def one(method: str, dim: int) -> dict:
        spec = RunSpec(
            **{**sweep.base.__dict__, "method": method, "dim": dim}
        )
        try:
            result, summary = execute(spec)
        except Exception as exc:  # recorded, not raised: keep other rows alive
            return {
                "problem": sweep.base.problem,
                "dim": dim,
                "method": method,
                "error": f"{type(exc).__name__}: {exc}",
            }
        if sweep.trace_out is not None:
            stem = sweep.trace_out.with_suffix("")
            path = Path(f"{stem}_{method}_d{dim}{sweep.trace_out.suffix or '.csv'}")
            _write_trace(path, result.trace)
        return summary

    rows = [one(method, dim) for method in sweep.methods for dim in sweep.dims]

    out = {"sweep": True, "rows": rows, "version": __version__}
    text = json.dumps(out, indent=2)
    if summary_out is not None:
        Path(summary_out).write_text(text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpcg",
        description="Warped-manifold conjugate-gradient benchmark harness",
    )
    parser.add_argument("--problem", required=True, help=f"one of {', '.join(PROBLEM_NAMES)}")
    parser.add_argument("--dim", type=int, help="problem dimension (single-run mode)")
    parser.add_argument(
        "--method",
        default="rcg",
        help="rcg or euclid_cg; comma list allowed with --dims",
    )
    parser.add_argument("--sigma-sq", type=float, default=1.0, help="warp parameter sigma^2")
    parser.add_argument("--max-iters", type=int, default=8000)
    parser.add_argument("--tol-df", type=float, default=1e-5)
    parser.add_argument("--tol-grad", type=float, default=1e-6)
    parser.add_argument("--wolfe-c1", type=float, default=1e-4)
    parser.add_argument("--wolfe-c2", type=float, default=0.1)
    parser.add_argument("--fd-step", type=float, default=DEFAULT_FD_STEP)
    parser.add_argument(
        "--minimize",
        action="store_true",
        help="treat the objective as a minimization target (runs on its negation)",
    )
    parser.add_argument("--trace-out", type=Path, help="write per-iteration CSV here")
    parser.add_argument("--summary-out", type=Path, help="write summary JSON here")
    parser.add_argument(
        "--dims",
        help="comma-separated dimensions; presence switches to sweep mode",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sweep = args.dims is not None
        if sweep:
            dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
            if not dims:
                raise ValueError("--dims is empty")
            methods = [tok.strip() for tok in args.method.split(",") if tok.strip()]
            if not methods:
                raise ValueError("--method is empty")
            # Validate shared scalars against the largest dimension so one
            # bad dim degrades to an error row instead of killing the sweep.
            dim, method = max(dims), methods[0]
        else:
            if args.dim is None:
                raise ValueError("either --dim (single run) or --dims (sweep) is required")
            if "," in args.method:
                raise ValueError("comma-separated --method needs sweep mode (--dims)")
            dim, method = args.dim, args.method
        spec = RunSpec(
            problem=args.problem,
            dim=dim,
            method=method,
            sigma_sq=args.sigma_sq,
            max_iters=args.max_iters,
            tol_df=args.tol_df,
            tol_grad=args.tol_grad,
            wolfe_c1=args.wolfe_c1,
            wolfe_c2=args.wolfe_c2,
            fd_step=args.fd_step,
            minimize=args.minimize,
        )
        if not sweep:
            return run_single(spec, args.trace_out, args.summary_out)
        spec.validate()
        for m in methods:
            if m not in METHOD_NAMES:
                raise ValueError(f"unknown method {m!r}; choose from {METHOD_NAMES}")
        return run_sweep(
            SweepSpec(base=spec, dims=dims, methods=methods, trace_out=args.trace_out),
            args.summary_out,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
