"""Seeded outcomes of every problem x dim x method x sigma_sq cell.

Usage:

    python3 tools/cells.py <src-tree> <seeds> [<dims>] [--controls K]

<src-tree> is the root of a warpcg checkout (it holds ``src/`` and
``perfbench/``); <seeds> and <dims> are comma-separated lists of integers,
and <dims> defaults to ``perfbench.workloads.SMALL_DIMS``. Each cell runs
once per seed from the start ``perfbench.workloads.small_starts(seed)``
gives it (the small_warped benchmark's starts), with ``tol_df = 0``,
``tol_grad = 1e-6`` and ``max_iters = MAX_ITERS``: the flat baseline, and
rcg at each of ``SIGMA_SQS``.

A run is "local" when ``classify_rosenbrock_basin`` puts its end point in
the Rosenbrock local basin, "solved" when it ends at most ``GAP`` below
the known maximum, and "unsolved" otherwise. The output is a markdown
table, one row per cell: the three counts, the median iterations with
their quartiles, and the median value, gradient and hvp counts per run.
Lines starting with ``#`` are comments.

Which runs converge is chaotic under rounding, so a cell's solved count
moves with any change to the arithmetic. ``--controls K`` measures that
spread: it reruns each cell's seeds K more times with
``warpcg.objective.FD_STEP`` scaled by 1 + j·1e-9, for j = 1, -1, 2, -2,
…, and adds a column with the controls' lowest and highest solved counts.
A change passes a cell when its solved count is at least the lower of
the parent's own count and its controls' minimum; below that it is a
regression. (Over seeds 0-19, two controls missed the tree's own count in
4 of 36 cells, so the controls alone do not bound a redraw.)
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

from bench_pairs import quartiles

#: Warp strengths of the rcg columns; None is the flat baseline.
SIGMA_SQS = (None, 1.0, 100.0, 1e4)
#: A solved run ends at most this far below max_value().
GAP = 1e-6
MAX_ITERS = 4000
#: Relative size of a control's FD_STEP nudge, per unit of j.
CONTROL_NUDGE = 1e-9

HEADER = (
    "| problem | d | method | solved | unsolved | local "
    "| iters median [q1, q3] | value | grad | hvp |"
)


def control_scales(k: int) -> list[float]:
    """FD_STEP's factor in each of k controls: 1 + j·CONTROL_NUDGE for
    j = 1, -1, 2, -2, …"""
    return [1.0 + (i // 2 + 1) * (-1) ** i * CONTROL_NUDGE for i in range(k)]


def run_cell(warpcg, name, dim, sigma_sq, thetas, cfg) -> list[tuple[str, object]]:
    """(status, result) per start of one cell."""
    runs = []
    for theta0 in thetas:
        problem = warpcg.make_problem(name, dim)
        if sigma_sq is None:
            res = warpcg.run_euclidean_cg(problem, theta0, cfg=cfg)
        else:
            warp = warpcg.WarpConfig(sigma_sq=sigma_sq)
            res = warpcg.run_rcg(problem, theta0, warp=warp, cfg=cfg)
        if name == "rosenbrock" and warpcg.classify_rosenbrock_basin(res.theta) == "local":
            status = "local"
        elif problem.max_value() - res.value <= GAP:
            status = "solved"
        else:
            status = "unsolved"
        runs.append((status, res))
    return runs


def row(name: str, dim: int, sigma_sq: float | None, runs: list[tuple[str, object]]) -> str:
    method = "euclid_cg" if sigma_sq is None else f"rcg sigma_sq={sigma_sq:g}"
    counts = [sum(status == s for status, _ in runs) for s in ("solved", "unsolved", "local")]
    q1, median, q3 = quartiles([res.iterations for _, res in runs])
    evals = [
        statistics.median(getattr(res, field) for _, res in runs)
        for field in ("n_value", "n_grad", "n_hvp")
    ]
    return (
        f"| {name} | {dim} | {method} | {counts[0]} | {counts[1]} | {counts[2]} "
        f"| {median:g} [{q1:g}, {q3:g}] | {evals[0]:g} | {evals[1]:g} | {evals[2]:g} |"
    )


def main(argv: list[str]) -> int:
    controls = 0
    if "--controls" in argv:
        at = argv.index("--controls")
        try:
            controls = int(argv[at + 1])
        except (IndexError, ValueError):
            controls = -1
        argv = argv[:at] + argv[at + 2:]
    if len(argv) not in (2, 3) or controls < 0:
        print(__doc__, file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]
    import warpcg
    import warpcg.objective
    from perfbench import workloads

    seeds = [int(s) for s in argv[1].split(",")]
    dims = [int(d) for d in argv[2].split(",")] if len(argv) == 3 else list(workloads.SMALL_DIMS)
    cfg = warpcg.RcgConfig(tol_df=0.0, tol_grad=1e-6, max_iters=MAX_ITERS)
    # Every seed draws the starts of all the benchmark's dimensions, so a
    # cell's start does not depend on which dimensions are asked for.
    starts = {seed: workloads.small_starts(seed) for seed in seeds}
    fd_step = warpcg.objective.FD_STEP
    scales = control_scales(controls)
    header = HEADER + (" controls solved |" if controls else "")
    print(f"# warpcg from {Path(warpcg.__file__).parent}, starts from {workloads.__file__}")
    print(f"# seeds {argv[1]}; tol_df=0, tol_grad=1e-6, max_iters={MAX_ITERS}; solved: gap <= {GAP:g}")
    if controls:
        print(f"# controls: FD_STEP x {', '.join(f'{s!r}' for s in scales)}")
    print(header)
    print("|---" * (header.count("|") - 1) + "|")
    for name, dim, _ in starts[seeds[0]]:
        if dim not in dims:
            continue
        thetas = [s for seed in seeds for n, d, s in starts[seed] if (n, d) == (name, dim)]
        for sigma_sq in SIGMA_SQS:
            line = row(name, dim, sigma_sq, run_cell(warpcg, name, dim, sigma_sq, thetas, cfg))
            if controls:
                solved = []
                for scale in scales:
                    warpcg.objective.FD_STEP = fd_step * scale
                    try:
                        runs = run_cell(warpcg, name, dim, sigma_sq, thetas, cfg)
                    finally:
                        warpcg.objective.FD_STEP = fd_step
                    solved.append(sum(status == "solved" for status, _ in runs))
                line += f" {min(solved)}-{max(solved)} |"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
