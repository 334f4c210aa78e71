"""The command line as a real process: `python -m warpcg.cli` runs the same
`sys.exit(main())` path as the installed `warpcg` script, so its exit code
and streams are what a shell sees."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    # pytest's pythonpath setting does not reach a child process.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "warpcg.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_process_exit_codes():
    ok = run_cli("--problem", "quadratic", "--dim", "2", "--max-iters", "40", "--tol-df", "0")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["stop_reason"] == "small_grad"

    bad = run_cli("--problem", "quadratic", "--dim", "2", "--sigma-sq", "0")
    assert bad.returncode == 1
    assert bad.stderr.startswith("error:")
    assert bad.stdout == ""

    unknown = run_cli("--problem", "quadratic", "--dim", "2", "--no-such-flag")
    assert unknown.returncode == 1
    assert unknown.stderr.startswith("error:")

    assert run_cli("--help").returncode == 0
