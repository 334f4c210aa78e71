"""tools/bench_pairs.py: the summary of paired benchmark runs, on canned
numbers, and where each run starts."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
# dataclasses looks the module up by name while building MetricSummary.
sys.modules[_SPEC.name] = bench_pairs
_SPEC.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

PARENT = [0.24, 0.22, 0.25, 0.23, 0.26, 0.24, 0.22, 0.25, 0.23, 0.24]


def test_quartiles_interpolate_linearly():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_on_a_lower_is_better_metric_holds():
    change = [p - 0.04 for p in PARENT]
    s = summarize(PARENT, change, "lower")
    assert s.won == 10 and s.pairs == 10
    assert s.parent == pytest.approx((0.23, 0.24, 0.2475))
    assert s.parent_iqr == pytest.approx(0.0175)
    assert s.gap == pytest.approx(0.04)
    assert s.relative == pytest.approx(-0.04 / 0.24)
    assert s.gain_holds


def test_direction_is_read_from_better():
    change = [p - 0.04 for p in PARENT]
    s = summarize(PARENT, change, "higher")
    assert s.won == 0
    assert s.gap == pytest.approx(-0.04)
    assert not s.gain_holds
    assert summarize(change, PARENT, "higher").gain_holds


def test_ties_count_for_neither_side():
    change = [p - 0.04 for p in PARENT]
    change[0] = PARENT[0]
    s = summarize(PARENT, change, "lower")
    assert s.won == 9
    assert s.gain_holds  # 9 of 10 is exactly the share the rule asks for
    change[1] = PARENT[1] + 0.01
    assert summarize(PARENT, change, "lower").won == 8
    assert not summarize(PARENT, change, "lower").gain_holds


def test_gap_inside_the_parent_spread_does_not_hold():
    change = [p - 0.01 for p in PARENT]  # wins every pair, but by less than the IQR
    s = summarize(PARENT, change, "lower")
    assert s.won == 10
    assert s.gap < s.parent_iqr
    assert not s.gain_holds


def test_fewer_than_ten_pairs_never_hold():
    s = summarize(PARENT[:8], [p - 0.04 for p in PARENT[:8]], "lower")
    assert s.won == 8
    assert not s.gain_holds


def test_rejects_unpaired_or_unknown_direction():
    with pytest.raises(ValueError):
        summarize(PARENT, PARENT[:-1], "lower")
    with pytest.raises(ValueError):
        summarize([], [], "lower")
    with pytest.raises(ValueError):
        summarize(PARENT, PARENT, "faster")


def test_format_names_the_bound_breach():
    s = summarize(PARENT, [p * 1.3 for p in PARENT], "lower")
    text = bench_pairs.format_summary("iter_ms", "ms", "lower", 0.25, s)
    assert "change better in 0/10 pairs" in text
    assert "+30.0% (worse than the bound)" in text
    assert text.endswith("does not hold")


def _tree(root, side):
    """A checkout whose staged files each name side, plus a bytecode cache
    and a file no run reads."""
    (root / "src" / "warpcg" / "__pycache__").mkdir(parents=True)
    (root / "src" / "warpcg" / "__init__.py").write_text(side)
    (root / "src" / "warpcg" / "__pycache__" / "cached.pyc").write_text(side)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(side)
    (root / "README.md").write_text(side)
    bench = {
        "command": ["python3", "perfbench/run.py"],
        "run_seconds": 1,
        "end_to_end": [{"name": "iter_ms", "unit": "ms", "better": "lower", "bound": 0.25}],
        "side": side,
    }
    (root / "BENCHMARK.json").write_text(json.dumps(bench))
    return root


def test_both_sides_run_from_one_path_holding_their_own_files(tmp_path, monkeypatch, capsys):
    parent = _tree(tmp_path / "parent", "parent")
    change = _tree(tmp_path / "some" / "longer" / "change", "change")
    runs = []

    def fake_run(args, cwd, **kwargs):
        cwd = Path(cwd)
        side = (cwd / "perfbench" / "run.py").read_text()
        assert (cwd / "src" / "warpcg" / "__init__.py").read_text() == side
        assert json.loads((cwd / "BENCHMARK.json").read_text())["side"] == side
        assert sorted(p.name for p in cwd.iterdir()) == ["BENCHMARK.json", "perfbench", "src"]
        assert not (cwd / "src" / "warpcg" / "__pycache__").exists()
        runs.append((cwd, side))
        report = {"correct": True, "failed": 0,
                  "metrics": {"iter_ms": {"value": 1.0 if side == "change" else 2.0}}}
        return subprocess.CompletedProcess(args, 0, stdout=json.dumps(report) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main([str(parent), str(change), "flat", "0", "2"]) == 0
    assert [side for _, side in runs] == ["parent", "change", "change", "parent"]
    assert len({cwd for cwd, _ in runs}) == 1
    assert not runs[0][0].exists()  # the stage goes with the series
    assert "change better in 2/2 pairs" in capsys.readouterr().out
