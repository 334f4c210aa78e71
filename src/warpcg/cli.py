"""Command-line harness: one solve per call, from the problem's default
start (problems.initial_point).

    warpcg --problem squiggle --dim 10 --method rcg --sigma-sq 1.0 \\
           --trace-out trace.csv --summary-out run.json

From Python, execute(problem, dim, method, warp, cfg) runs the same solve
and returns the result with the summary dict that main prints. For one
trace per dimension, loop over --dim in the shell; tools/cells.py builds
(method x dimension) grids from seeded starts.

The numeric flags are the fields of WarpConfig and RcgConfig, in that
order: the parser makes one flag per field, named after it (--sigma-sq for
sigma_sq), with the field's default and type, and the config checks the
range. A new config field is a new flag with no edit here. The summary
echoes both configs under "config". The finite-difference step
(objective.fd_step) and the strong Wolfe constants (linesearch.C1, C2)
are not settings.

Exit codes: 0 on success (and for --help), 1 for an invalid run
specification (a bad config value, problem, method or dimension, a missing
--dim, an unknown flag or a value of the wrong type) or an output file that
cannot be written, 2 when the run stops with numerical breakdown.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import run_euclidean_cg
from .geometry import WarpConfig
from .problems import PROBLEM_NAMES, classify_rosenbrock_basin, initial_point, make_problem
from .rcg import IterationTrace, RcgConfig, RcgResult, StopReason, run_rcg

__all__ = ["execute", "main", "TRACE_COLUMNS"]

METHOD_NAMES = ("rcg", "euclid_cg")

#: The configs whose fields are the numeric flags, in flag order.
_CONFIGS = (WarpConfig, RcgConfig)

#: Pinned trace CSV schema: after the row's index, "iter", each column and
#: the IterationTrace field it holds. Column order is part of the file format.
_TRACE_FIELDS = {
    "f": "f",
    "grad_norm_riem": "grad_norm_riem",
    "grad_norm_eucl": "grad_norm_eucl",
    "t_k": "t",
    "beta_k": "beta",
    "s_k": "s",
    "ls_evals": "ls_evals",
    "wall_ns": "wall_ns",
    "restart": "restart",
}
TRACE_COLUMNS = ("iter", *_TRACE_FIELDS)


def _write_trace(path: Path, trace: list[IterationTrace]) -> None:
    # csv writes a float as str(), which is repr() in Python 3: round-trip exact.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        row_fields = attrgetter(*_TRACE_FIELDS.values())
        writer.writerows((k, *row_fields(row)) for k, row in enumerate(trace))


def execute(
    problem: str,
    dim: int,
    method: str = "rcg",
    warp: WarpConfig | None = None,
    cfg: RcgConfig | None = None,
) -> tuple[RcgResult, dict]:
    """Run one solve from the problem's default start and build its summary
    dict. An unknown method, problem or dimension raises ValueError before
    any evaluation; make_problem checks the problem and the dimension."""
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}; choose from {METHOD_NAMES}")
    warp = warp or WarpConfig()
    cfg = cfg or RcgConfig()
    objective = make_problem(problem, dim)
    theta0 = initial_point(problem, dim)
    if method == "rcg":
        result = run_rcg(objective, theta0, warp=warp, cfg=cfg)
    else:
        result = run_euclidean_cg(objective, theta0, cfg=cfg)

    summary = {
        "problem": problem,
        "dim": dim,
        "method": method,
        "stop_reason": result.stop_reason.value,
        "iterations": result.iterations,
        "final_f": result.value,
        "final_grad_norm_riem": result.grad_norm_riem,
        "final_grad_norm_eucl": result.grad_norm_eucl,
        "n_value": result.n_value,
        "n_grad": result.n_grad,
        "n_hvp": result.n_hvp,
        "failed_attempts": result.failed_attempts,
        "distance_to_maximizer": float(np.linalg.norm(result.theta - objective.maximizer())),
        "basin": classify_rosenbrock_basin(result.theta) if problem == "rosenbrock" else None,
        "config": {**asdict(warp), **asdict(cfg)},
        "version": __version__,
    }
    return result, summary


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ValueError, which main turns into exit 1,
    instead of argparse's exit 2, the code of a numerical breakdown."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="warpcg",
        description="Warped-manifold conjugate-gradient benchmark harness",
    )
    parser.add_argument("--problem", required=True, help=f"one of {', '.join(PROBLEM_NAMES)}")
    parser.add_argument("--dim", type=int, required=True, help="problem dimension")
    parser.add_argument("--method", default="rcg", help=f"one of {', '.join(METHOD_NAMES)}")
    for config in _CONFIGS:
        for f in fields(config):
            parser.add_argument(
                "--" + f.name.replace("_", "-"),
                type=type(f.default),
                default=f.default,
                help=f"{config.__name__}.{f.name} (default %(default)s)",
            )
    parser.add_argument("--trace-out", type=Path, help="write per-iteration CSV here")
    parser.add_argument("--summary-out", type=Path, help="write summary JSON here")
    return parser


def _from_flags(config, args: argparse.Namespace):
    """config built from the flags named after its fields."""
    return config(**{f.name: getattr(args, f.name) for f in fields(config)})


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Building the configs checks their ranges before the run.
        result, summary = execute(
            args.problem,
            args.dim,
            args.method,
            warp=_from_flags(WarpConfig, args),
            cfg=_from_flags(RcgConfig, args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(summary, indent=2)
    try:
        if args.trace_out is not None:
            _write_trace(args.trace_out, result.trace)
        if args.summary_out is not None:
            args.summary_out.write_text(text + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 2 if result.stop_reason is StopReason.NUMERICAL_BREAKDOWN else 0


if __name__ == "__main__":
    sys.exit(main())
