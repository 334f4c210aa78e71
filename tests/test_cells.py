"""tools/cells.py: one table row per cell, whose counts cover every seed,
with the solved range of its FD_STEP controls."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_row_per_cell_and_counts_cover_the_seeds():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cells.py"), str(ROOT), "0,1", "2",
         "--controls", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    header, rule, *rows = lines
    columns = [c.strip() for c in header.strip("|").split("|")]
    assert rule == "|---" * len(columns) + "|"
    cells = {}
    for line in rows:
        cell = dict(zip(columns, (c.strip() for c in line.strip("|").split("|"))))
        assert cell["d"] == "2"
        cells[(cell["problem"], cell["method"])] = cell
    assert len(cells) == len(rows) == 3 * 4
    assert {problem for problem, _ in cells} == {"squiggle", "rosenbrock", "quadratic"}
    for (problem, method), cell in cells.items():
        counts = [int(cell[k]) for k in ("solved", "unsolved", "local")]
        assert sum(counts) == 2, (problem, method, counts)
        if problem != "rosenbrock":
            assert counts[2] == 0
        median, quartiles = cell["iters median [q1, q3]"].split(" ", 1)
        q1, q3 = (float(x) for x in quartiles.strip("[]").split(","))
        assert 0 <= q1 <= float(median) <= q3
        hvp = float(cell["hvp"])
        # The flat baseline calls no hvp; rcg spends four per iteration
        # whose start point's warp psi^2 ||grad||^2 is at or above
        # FLAT_WARP, and every solve starts above it.
        assert (hvp == 0) == (method == "euclid_cg"), (problem, method, hvp)
        # One control gives one solved count, so its range is a single value.
        low, high = (int(x) for x in cell["controls solved"].split("-"))
        assert 0 <= low == high <= 2, (problem, method, low, high)
    # The concave quadratic is solved from every start by every method,
    # in every control too.
    for (problem, method), cell in cells.items():
        if problem == "quadratic":
            assert cell["solved"] == "2" and cell["controls solved"] == "2-2", method
