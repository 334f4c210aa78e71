"""Command-line harness: single runs and (method x dimension) sweeps.

Single run:

    warpcg --problem squiggle --dim 10 --method rcg --sigma-sq 1.0 \\
           --trace-out trace.csv --summary-out run.json

Sweep (comma lists; --dims switches modes):

    warpcg --problem squiggle --dims 2,10,50 --method rcg,euclid_cg \\
           --summary-out sweep.json

The numeric flags are the fields of WarpConfig and RcgConfig, in that
order: the parser makes one flag per field, named after it (--sigma-sq for
sigma_sq), with the field's default and type, and the config checks the
range. A new config field is a new flag with no edit here. Both configs are
built once, before any run, in both modes, and the summary echoes them
under "config". The finite-difference step is objective.fd_step, not a
setting.

Exit codes: 0 on success (and for --help), 1 for an invalid run
specification (also --dim with --dims, an unknown flag or a value of the
wrong type), 2 when a single run stops with numerical breakdown. In a
sweep an invalid shared setting (a config value, the problem or a method
name) exits 1 before any run, while an invalid dimension becomes an error
row. Sweep failures are recorded per row and do not change the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import run_euclidean_cg
from .geometry import WarpConfig
from .problems import (
    PROBLEM_NAMES,
    classify_rosenbrock_basin,
    initial_point,
    make_problem,
)
from .rcg import IterationTrace, RcgConfig, RcgResult, StopReason, run_rcg

__all__ = ["RunSpec", "run_single", "run_sweep", "main", "TRACE_COLUMNS"]

METHOD_NAMES = ("rcg", "euclid_cg")

#: The configs whose fields are the numeric flags, in flag order.
_CONFIGS = (WarpConfig, RcgConfig)

#: Pinned trace CSV schema: each column and the IterationTrace field it
#: holds. Column order is part of the file format.
_TRACE_FIELDS = {
    "iter": "k",
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
TRACE_COLUMNS = tuple(_TRACE_FIELDS)


@dataclass(frozen=True)
class RunSpec:
    """A fully-specified single optimization run. The numeric settings live
    in the library's configs, which check their ranges on construction."""

    problem: str
    dim: int
    method: str = "rcg"
    cfg: RcgConfig = field(default_factory=RcgConfig)
    warp: WarpConfig = field(default_factory=WarpConfig)

    def validate(self) -> None:
        """Check the names; the problem constructors check the dimension."""
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(f"unknown problem {self.problem!r}; choose from {PROBLEM_NAMES}")
        if self.method not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHOD_NAMES}")

    def config_echo(self) -> dict:
        return {**asdict(self.warp), **asdict(self.cfg)}


def _write_trace(path: Path, trace: list[IterationTrace]) -> None:
    # csv writes a float as str(), which is repr() in Python 3: round-trip exact.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(map(attrgetter(*_TRACE_FIELDS.values()), trace))


def execute(spec: RunSpec) -> tuple[RcgResult, dict]:
    """Run one spec and build its summary dict."""
    spec.validate()
    problem = make_problem(spec.problem, spec.dim)
    theta0 = initial_point(spec.problem, spec.dim)
    if spec.method == "rcg":
        result = run_rcg(problem, theta0, warp=spec.warp, cfg=spec.cfg)
    else:
        result = run_euclidean_cg(problem, theta0, cfg=spec.cfg)

    summary = {
        "problem": spec.problem,
        "dim": spec.dim,
        "method": spec.method,
        "stop_reason": result.stop_reason.value,
        "iterations": result.iterations,
        "final_f": result.value,
        "final_grad_norm_riem": result.grad_norm_riem,
        "final_grad_norm_eucl": result.grad_norm_eucl,
        "n_value": result.n_value,
        "n_grad": result.n_grad,
        "n_hvp": result.n_hvp,
        "failed_attempts": result.failed_attempts,
        "distance_to_maximizer": float(np.linalg.norm(result.theta - problem.maximizer())),
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


def run_sweep(base: RunSpec, dims: list[int], methods: list[str],
              trace_out: Path | None, summary_out: Path | None) -> int:
    """One run of base per (method, dim) pair; failures become rows, not crashes."""
    rows = []
    for method in methods:
        for dim in dims:
            try:
                result, summary = execute(replace(base, method=method, dim=dim))
            except Exception as exc:  # recorded, not raised: keep other rows alive
                rows.append({"problem": base.problem, "dim": dim, "method": method,
                             "error": f"{type(exc).__name__}: {exc}"})
                continue
            if trace_out is not None:
                stem = trace_out.with_suffix("")
                path = Path(f"{stem}_{method}_d{dim}{trace_out.suffix or '.csv'}")
                _write_trace(path, result.trace)
            rows.append(summary)

    out = {"sweep": True, "rows": rows, "version": __version__}
    text = json.dumps(out, indent=2)
    if summary_out is not None:
        Path(summary_out).write_text(text + "\n")
    print(text)
    return 0


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
    parser.add_argument("--dim", type=int, help="problem dimension (single-run mode)")
    parser.add_argument(
        "--method",
        default="rcg",
        help="rcg or euclid_cg; comma list allowed with --dims",
    )
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
    parser.add_argument(
        "--dims",
        help="comma-separated dimensions; presence switches to sweep mode",
    )
    return parser


def _from_flags(config, args: argparse.Namespace):
    """config built from the flags named after its fields."""
    return config(**{f.name: getattr(args, f.name) for f in fields(config)})


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Building the configs checks every shared setting before any run.
        spec = RunSpec(
            problem=args.problem,
            dim=args.dim,
            method=args.method,
            cfg=_from_flags(RcgConfig, args),
            warp=_from_flags(WarpConfig, args),
        )
        if args.dims is None:
            if args.dim is None:
                raise ValueError("either --dim (single run) or --dims (sweep) is required")
            if "," in args.method:
                raise ValueError("comma-separated --method needs sweep mode (--dims)")
            return run_single(spec, args.trace_out, args.summary_out)
        if args.dim is not None:
            raise ValueError("--dim and --dims are exclusive: --dim is one run, --dims a sweep")
        dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
        if not dims:
            raise ValueError("--dims is empty")
        methods = [tok.strip() for tok in args.method.split(",") if tok.strip()]
        if not methods:
            raise ValueError("--method is empty")
        for method in methods:
            replace(spec, method=method).validate()
        return run_sweep(spec, dims, methods, args.trace_out, args.summary_out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
