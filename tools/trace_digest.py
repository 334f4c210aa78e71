"""Bitwise fingerprint of every benchmark solve, for refactors that must not
change results.

Usage:

    python3 tools/trace_digest.py <src-tree> <workloads> <seeds> [--solves]

<src-tree> is the root of a warpcg checkout (it holds ``src/`` and
``perfbench/``); <workloads> is a comma-separated list of
``perfbench.workloads.WORKLOADS`` names, ``all`` (every one of them, in
that order, at its place in the list) and ``acceptance``; <seeds> is a
comma-separated list of integers. For each (workload, seed) it runs every
solve of ``perfbench.workloads.build(workload, seed)`` and prints the
trace row count and a sha256 over every ``RcgResult`` field, every
``IterationTrace`` field except ``wall_ns``, and the ``theta`` bytes.
Only dataclass fields enter: ``RcgResult.iterations``, a property, enters
as the trace's length, and a row's index as its place in the trace.
Floats and arrays enter the hash as their raw IEEE bytes, so signed zeros
count. Run it once on each of two trees and compare the lines.

``--solves`` adds, under each batch line, one indented line per solve: its
label (``perfbench.workloads.Solve.label``), its row count and the sha256
of its result alone, so a change that moves a batch names the solves it
moves.

``acceptance`` is the acceptance gate's fixed solves (``ACCEPTANCE``),
which take no seed, so it prints one line whatever <seeds> holds:

    python3 tools/trace_digest.py <src-tree> acceptance 0

Run as a script, it pins BLAS to one thread before numpy is imported, as
``perfbench/run.py`` does: at d = 1e5 threaded dot products and gemv round
differently, so an unpinned run would fingerprint arithmetic the benchmark
never runs, and its lines would depend on the host's core count.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import struct
import sys
from pathlib import Path

#: The BLAS thread settings perfbench/run.py pins to 1.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported

import numpy as np  # noqa: E402

#: Wall-clock time differs between runs of the same arithmetic.
SKIPPED_FIELDS = frozenset({"wall_ns"})

#: The solves of tests/test_acceptance.py's fixtures, as (problem, dims,
#: sigma_sq, tol_grad): each from initial_point with tol_df = 0 and
#: max_iters = 8000, under run_rcg and then under run_euclidean_cg.
ACCEPTANCE = (
    ("squiggle", (2, 10, 50), 1.0, 1e-6),
    ("rosenbrock", (2, 10), 300.0**2, 1e-4),
)


def _feed(h, value) -> None:
    """Add one value to the hash with a type tag, recursing into
    dataclasses and lists."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, np.ndarray):
        h.update(b"A" + value.dtype.str.encode() + repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, enum.Enum):
        h.update(b"E" + str(value.value).encode())
    elif isinstance(value, int):
        h.update(b"I" + str(int(value)).encode() + b";")
    elif isinstance(value, float):
        h.update(b"F" + struct.pack("<d", value))
    elif isinstance(value, list):
        h.update(b"L" + str(len(value)).encode() + b";")
        for item in value:
            _feed(h, item)
    elif dataclasses.is_dataclass(value):
        h.update(b"D" + type(value).__name__.encode())
        for f in dataclasses.fields(value):
            if f.name not in SKIPPED_FIELDS:
                h.update(f.name.encode())
                _feed(h, getattr(value, f.name))
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(results) -> tuple[int, str]:
    """(total trace rows, sha256 hex) over a sequence of RcgResults."""
    h = hashlib.sha256()
    rows = 0
    for result in results:
        rows += len(result.trace)
        _feed(h, result)
    return rows, h.hexdigest()


def acceptance_results(warpcg) -> list:
    """The RcgResults of the ACCEPTANCE solves, run with the given warpcg
    package."""
    results = []
    for name, dims, sigma_sq, tol_grad in ACCEPTANCE:
        cfg = warpcg.RcgConfig(max_iters=8000, tol_df=0.0, tol_grad=tol_grad)
        for dim in dims:
            theta0 = warpcg.initial_point(name, dim)
            warp = warpcg.WarpConfig(sigma_sq)
            results.append(warpcg.run_rcg(warpcg.make_problem(name, dim), theta0, warp, cfg))
            results.append(warpcg.run_euclidean_cg(warpcg.make_problem(name, dim), theta0, cfg))
    return results


def acceptance_labels() -> list[str]:
    """The labels of acceptance_results' solves, in its order."""
    return [
        label
        for name, dims, sigma_sq, _ in ACCEPTANCE
        for dim in dims
        for label in (f"{name} d={dim} rcg sigma_sq={sigma_sq:g}", f"{name} d={dim} euclid_cg")
    ]


def main(argv: list[str]) -> int:
    solves = "--solves" in argv
    argv = [arg for arg in argv if arg != "--solves"]
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]
    import warpcg
    from perfbench import workloads

    print(f"# warpcg from {Path(warpcg.__file__).parent}, workloads from {workloads.__file__}")
    names = [
        name
        for token in argv[1].split(",")
        for name in (workloads.WORKLOADS if token == "all" else (token,))
    ]
    seeds = [int(s) for s in argv[2].split(",")]

    def report(batch: str, labels: list[str], results: list) -> None:
        rows, hexdigest = digest(results)
        print(f"{batch} rows={rows} sha256={hexdigest}")
        if solves:
            for label, result in zip(labels, results, strict=True):
                rows, hexdigest = digest([result])
                print(f"  {label} rows={rows} sha256={hexdigest}")

    for name in names:
        if name == "acceptance":
            report("acceptance", acceptance_labels(), acceptance_results(warpcg))
            continue
        for seed in seeds:
            batch = workloads.build(name, seed)
            results = [solve.run(solve.make()) for solve in batch]
            report(f"{name} seed={seed}", [solve.label for solve in batch], results)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
