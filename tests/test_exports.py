"""The export lists: every name a module's __all__ lists resolves, and the
package root exports what a user calls."""

import importlib
import pkgutil

import pytest

import warpcg

MODULES = sorted(
    f"warpcg.{info.name}" for info in pkgutil.iter_modules(warpcg.__path__)
)

ROOT_EXPORTS = {
    "__version__",
    "WarpcgError",
    "Objective",
    "WarpConfig",
    "StopReason",
    "RcgConfig",
    "IterationTrace",
    "RcgResult",
    "run_rcg",
    "run_euclidean_cg",
    "SquiggleProblem",
    "RosenbrockProblem",
    "QuadraticProblem",
    "make_problem",
    "initial_point",
    "classify_rosenbrock_basin",
}


@pytest.mark.parametrize("name", ["warpcg", *MODULES])
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports), name
    missing = [attr for attr in exports if not hasattr(module, attr)]
    assert missing == [], name


def test_root_exports():
    assert len(warpcg.__all__) == len(ROOT_EXPORTS)
    assert set(warpcg.__all__) == ROOT_EXPORTS
