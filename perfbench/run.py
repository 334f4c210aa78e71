"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small_warped --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; warpcg is imported from its src/ directory
and nowhere else. The output is a readable report, then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--workload all runs every workload in its own process and adds a table.
The exit code is 0 only when every answer passed the check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("small_warped", "large_warped", "flat")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def import_program():
    """Import warpcg from this checkout's src/, refusing any other copy."""
    package = SRC / "warpcg"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"warpcg source not found at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import warpcg

    if Path(warpcg.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"imported warpcg from {warpcg.__file__}, not from {package}")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup_seconds(args, reference) -> float:
    """Median set-up time of fresh processes (import warpcg, generate the
    seeded inputs, build the problems), each normalised by the reference
    loop timed before and after it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    from harness import REFERENCE_S

    samples = []
    for _ in range(SETUP_PROBES):
        before = reference.seconds()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        reference_s = 0.5 * (before + reference.seconds())
        samples.append(float(proc.stdout.split()[-1]) * REFERENCE_S / reference_s)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def print_table(rows) -> None:
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<42} {shown:>14} {unit:<12} {note}".rstrip())


def print_outcomes(workload, seed, runs) -> None:
    """Say how much ran, and name every solve that is not solved."""
    print(f"{workload}, seed {seed}: {len(runs)} solves, {sum(map(len, runs))} runs of them")
    for outcomes in runs:
        if outcomes[0].status != "solved":
            print(f"  {outcomes[0].status}: {outcomes[0].label} ({outcomes[0].note})")


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    import_program()
    import harness
    import workloads

    solves = workloads.build(args.workload, args.seed)
    problems = [solve.make() for solve in solves]
    if args.setup_probe:
        print(time.perf_counter() - start)
        return 0

    if args.trace:
        tracer, plain_times, traced_times, batches = harness.measure_traced(solves, problems, args.seconds)
        metrics, absent = harness.per_layer(solves, tracer, plain_times, traced_times, batches[1])
        units = harness.PER_LAYER
        runs = [list(outcomes) for outcomes in zip(*batches)]
        print_outcomes(args.workload, args.seed, runs)
        share_ok = metrics["trace.span_share"] >= harness.MIN_SPAN_SHARE
        if not share_ok:
            print(f"  span self times cover only {metrics['trace.span_share']:.3f} of the traced batch time")
        if absent:
            print("  absent (binding no longer exists): " + ", ".join(absent))
        print_table((name, metrics[name], units[name], "") for name in units if name in metrics)
    else:
        setup_s = setup_seconds(args, harness.Reference())
        runs = harness.measure(solves, problems, args.seconds)
        if all(outcomes[0].status == "error" for outcomes in runs):
            print("every solve raised; no metric can be computed", file=sys.stderr)
            return 1
        metrics = harness.end_to_end(runs)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = harness.END_TO_END
        share_ok = True
        batch_s = sum(statistics.median(o.seconds for o in outcomes) for outcomes in runs)
        report = {
            "batch_s": {"value": batch_s, "unit": "s"},
            **{name: {"value": value, "unit": "count"}
               for name, value in harness.batch_totals([outcomes[0] for outcomes in runs]).items()},
            "iter_ms_raw": {"value": metrics["iter_ms_raw"], "unit": "ms"},
            "reference_ms": {"value": 1e3 * statistics.median(
                o.reference_s for outcomes in runs for o in outcomes), "unit": "ms"},
            **{name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        print_outcomes(args.workload, args.seed, runs)
        print_table((name, r["value"], r["unit"], "(gated)" if name in units else "")
                    for name, r in report.items())
        print("report: " + json.dumps(report))

    print("env: " + json.dumps(environment()))
    outcomes = [o for solve_outcomes in runs for o in solve_outcomes]
    wrong = [o for o in outcomes if o.status == "wrong"]
    unrepeatable = harness.unrepeatable(runs)
    for outcome in wrong:
        print(f"WRONG ANSWER: {outcome.note}")
    for label in unrepeatable:
        print(f"NOT REPEATABLE: {label} gave different counts or results across batches")
    correct = share_ok and not wrong and not unrepeatable
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.status == "error" for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results, reports, status = {}, {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
        reports[workload] = next(
            (json.loads(line[len("report: "):]) for line in lines if line.startswith("report: ")), {}
        )
    rows = {w: {**reports[w], **results[w]["metrics"]} for w in results}
    names = list(dict.fromkeys(name for w in rows for name in rows[w]))
    print(f"\n{'metric':<42}{'unit':<14}" + "".join(f"{w:>16}" for w in rows))
    for name in names:
        unit = next(rows[w][name]["unit"] for w in rows if name in rows[w])
        cells = [f"{rows[w][name]['value']:.6g}" if name in rows[w] else "-" for w in rows]
        print(f"{name:<42}{unit:<14}" + "".join(f"{c:>16}" for c in cells))
    print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
