"""Bitwise fingerprint of every benchmark solve, for refactors that must not
change results.

Usage:

    python3 tools/trace_digest.py <src-tree> <workloads> <seeds>

<src-tree> is the root of a warpcg checkout (it holds ``src/`` and
``perfbench/``); <workloads> is a comma-separated list of
``perfbench.workloads.WORKLOADS`` names or ``all``; <seeds> is a
comma-separated list of integers. For each (workload, seed) it runs every
solve of ``perfbench.workloads.build(workload, seed)`` and prints the trace
row count and a sha256 over every ``RcgResult`` field, every
``IterationTrace`` field except ``wall_ns``, and the ``theta`` bytes. Floats
and arrays enter the hash as their raw IEEE bytes, so signed zeros count.
Run it once on each of two trees and compare the lines.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import struct
import sys
from pathlib import Path

import numpy as np

#: Wall-clock time differs between runs of the same arithmetic.
SKIPPED_FIELDS = frozenset({"wall_ns"})


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


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]
    import warpcg
    from perfbench import workloads

    print(f"# warpcg from {Path(warpcg.__file__).parent}, workloads from {workloads.__file__}")
    names = workloads.WORKLOADS if argv[1] == "all" else argv[1].split(",")
    seeds = [int(s) for s in argv[2].split(",")]
    for name in names:
        for seed in seeds:
            results = [solve.run(solve.make()) for solve in workloads.build(name, seed)]
            rows, hexdigest = digest(results)
            print(f"{name} seed={seed} rows={rows} sha256={hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
