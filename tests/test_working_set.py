"""tools/working_set.py: the per-driver and per-span peaks and the minor
faults per iteration it prints."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = {"run", "build_cache", "taylor_coefficients", "strong_wolfe", "vector_transport"}


def test_every_line_parses_and_no_span_peaks_above_its_run():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "working_set.py"), str(ROOT), "rosenbrock", "2000", "3"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    peaks: dict[str, dict[str, float | None]] = {}
    faults: dict[str, float] = {}
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        driver, span, peak, calls = line.split()
        if span == "faults":
            assert int(calls) == 3, line
            faults[driver] = float(peak)
            continue
        assert span in SPANS
        assert int(calls) >= 0
        # A span the driver never calls prints "-".
        assert (peak == "-") == (int(calls) == 0), line
        peaks.setdefault(driver, {})[span] = None if peak == "-" else float(peak)
    assert set(peaks) == {"run_rcg", "run_euclidean_cg"}
    assert set(faults) == set(peaks)
    assert all(f >= 0 for f in faults.values()), faults
    for driver, by_span in peaks.items():
        assert set(by_span) == SPANS
        run = by_span.pop("run")
        assert run > 0
        for span, peak in by_span.items():
            assert peak is None or 0 < peak <= run, (driver, span, peak, run)
    # The warped driver calls every span; the flat one only the line search.
    assert None not in peaks["run_rcg"].values()
    assert [s for s, p in peaks["run_euclidean_cg"].items() if p is not None] == ["strong_wolfe"]
