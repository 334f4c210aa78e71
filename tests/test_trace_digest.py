"""tools/trace_digest.py: the bitwise fingerprint used to show that a
refactor leaves every solve unchanged."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from warpcg import (
    QuadraticProblem,
    RcgConfig,
    SquiggleProblem,
    WarpConfig,
    run_euclidean_cg,
    run_rcg,
)
from recording import recorded

_SPEC = importlib.util.spec_from_file_location(
    "trace_digest", Path(__file__).resolve().parents[1] / "tools" / "trace_digest.py"
)
trace_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_digest)

# Two iterations keep a one-ulp change of the start near one ulp in the
# results, so only a digest of the exact bits tells the runs apart.
CFG = RcgConfig(max_iters=2, tol_df=0.0)


def two_solves(theta0):
    """Digest of both drivers' results, and sha256 of the search curves they
    accepted: the flat driver's carry no curvature terms (None)."""
    quad = QuadraticProblem(3, curvatures=np.array([1.0, 4.0, 9.0]), center=np.zeros(3))
    solves = [
        recorded(run_rcg, SquiggleProblem(2), theta0, warp=WarpConfig(1.0), cfg=CFG),
        recorded(run_euclidean_cg, quad, np.append(theta0, 0.5), cfg=CFG),
    ]
    h = hashlib.sha256()
    trace_digest._feed(h, [recording.accepted_jets() for _, recording in solves])
    return trace_digest.digest([res for res, _ in solves]), h.hexdigest()


def test_same_solves_same_digest_and_one_ulp_changes_it():
    theta0 = np.array([3.0, 1.4])
    (rows, first), jets = two_solves(theta0)
    assert rows > 0
    assert two_solves(theta0.copy()) == ((rows, first), jets)

    nudged = theta0.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    (_, nudged_first), nudged_jets = two_solves(nudged)
    assert nudged_first != first
    assert nudged_jets != jets
