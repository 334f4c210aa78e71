"""Paired benchmark runs of two checkouts, summarised by the gain rule.

Usage:

    python3 tools/bench_pairs.py <parent-tree> <change-tree> <workload> <seed> <pairs>

Each tree is the root of a warpcg checkout. The script runs the benchmark
command of ``BENCHMARK.json`` (``perfbench/run.py``) with ``--workload
<workload> --seed <seed> --trace 0`` for both trees, ``<pairs>`` times each,
alternating which tree runs first, each run as long as the file's
``run_seconds``. Every run's gated figures are printed as it finishes.

Before each run the tree's ``src/``, ``perfbench/`` and ``BENCHMARK.json``
(without ``__pycache__``) are copied to one temporary directory, the same for
every run of the series, and the run starts there. The heap layout follows
the checkout's path, so two trees run from their own paths differ by more
than their code: the flat workload read ``iter_ms`` -7.8 % for identical
code at another path.

Then, for each gated end-to-end metric, it prints each side's median and
quartiles, the pairs the change won (ties count for neither side, and
"better" is the metric's direction in ``BENCHMARK.json``), the change of
the median against the metric's regression bound, and whether the gain
rule holds: at least ten pairs, the change better in at least nine tenths
of them, and the medians apart by more than the parent's interquartile
range.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

#: The gain rule: share of pairs the change must win, and the fewest pairs.
WIN_SHARE = 0.9
MIN_PAIRS = 10

#: What a benchmark run reads from its checkout.
STAGED = ("src", "perfbench", "BENCHMARK.json")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolating linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


@dataclass(frozen=True)
class MetricSummary:
    """One metric over paired runs. gap is the parent's median minus the
    change's for a lower-is-better metric (the reverse otherwise), so a
    positive gap means the change's median is better."""

    pairs: int
    won: int
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    gap: float
    parent_iqr: float
    relative: float

    @property
    def gain_holds(self) -> bool:
        return (
            self.pairs >= MIN_PAIRS
            and self.won >= WIN_SHARE * self.pairs
            and self.gap > self.parent_iqr
        )


def summarize(parent: list[float], change: list[float], better: str) -> MetricSummary:
    """Summarise paired runs: parent[i] and change[i] come from pair i;
    better is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    lower = better == "lower"
    won = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    p_q = quartiles(parent)
    c_q = quartiles(change)
    relative = (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else float("nan")
    return MetricSummary(
        pairs=len(parent),
        won=won,
        parent=p_q,
        change=c_q,
        gap=p_q[1] - c_q[1] if lower else c_q[1] - p_q[1],
        parent_iqr=p_q[2] - p_q[0],
        relative=relative,
    )


def format_summary(name: str, unit: str, better: str, bound: float, s: MetricSummary) -> str:
    worse_by = s.relative if better == "lower" else -s.relative
    verdict = "holds" if s.gain_holds else "does not hold"
    lines = [
        f"{name} ({unit}, {better} is better, bound {bound:g})",
        f"  parent  {s.parent[1]:.6g} [{s.parent[0]:.6g}, {s.parent[2]:.6g}]",
        f"  change  {s.change[1]:.6g} [{s.change[0]:.6g}, {s.change[2]:.6g}]",
        f"  change better in {s.won}/{s.pairs} pairs; median {s.relative:+.1%}"
        f"{' (worse than the bound)' if worse_by > bound else ''}",
        f"  gain rule (>= {MIN_PAIRS} pairs, >= {WIN_SHARE:.0%} won, median gap "
        f"{s.gap:.6g} > parent IQR {s.parent_iqr:.6g}): {verdict}",
    ]
    return "\n".join(lines)


def stage(tree: Path, where: Path) -> None:
    """Make where hold tree's STAGED files and nothing else."""
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir()
    for name in STAGED:
        if (tree / name).is_dir():
            shutil.copytree(
                tree / name, where / name, ignore=shutil.ignore_patterns("__pycache__")
            )
        else:
            shutil.copy2(tree / name, where / name)


def run_once(
    tree: Path, where: Path, command: list[str], workload: str, seed: int, seconds: float
) -> dict:
    """One benchmark run of tree, staged at where; returns its final JSON
    line."""
    stage(tree, where)
    args = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(args, cwd=where, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["correct"] or report["failed"]:
        raise RuntimeError(f"run in {tree} failed its answer check: {report}")
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    workload, seed, pairs = argv[2], int(argv[3]), int(argv[4])
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        where = Path(tmp) / "tree"
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                figures = run_once(trees[side], where, bench["command"], workload, seed, seconds)
                runs[side].append(figures)
                shown = " ".join(f"{m['name']}={figures[m['name']]:.6g}" for m in metrics)
                print(f"pair {i + 1} {side}: {shown}", flush=True)

    print(f"\n{workload} seed={seed}: {pairs} pairs of {seconds:g} s runs")
    for m in metrics:
        s = summarize(
            [r[m["name"]] for r in runs["parent"]],
            [r[m["name"]] for r in runs["change"]],
            m["better"],
        )
        print(format_summary(m["name"], m["unit"], m["better"], m["bound"], s))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
