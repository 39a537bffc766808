"""Each module of divlab imports first in a fresh interpreter, and divlab.consistency keeps the names read from it."""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import divlab
from divlab import consistency

PACKAGE_DIR = Path(divlab.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)]))
# the names that perfbench and the CI's smoke steps read from divlab.consistency
CONSISTENCY_NAMES = (
    "run_trials",
    "describe_trial",
    "counterexample_search",
    "TrialStats",
    "SearchBudget",
    "SearchResult",
    "sample_conditional_instance",
    "consistency_gap",
    "_usable_cores",
)


def run_python(code: str) -> None:
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


@pytest.mark.parametrize("module", MODULES)
def test_a_module_imports_first(module):
    # importing divlab.<module> runs the package's __init__ first, which imports
    # every module in its own order; a stand-in package object on the same
    # directory lets this module be the first one imported, so an import cycle
    # that shows in one import order only fails here
    run_python(
        "import importlib, sys, types\n"
        "package = types.ModuleType('divlab')\n"
        f"package.__path__ = [{str(PACKAGE_DIR)!r}]\n"
        "sys.modules['divlab'] = package\n"
        f"importlib.import_module('divlab.{module}')\n"
    )


def test_the_package_imports():
    run_python(f"import sys\nsys.path.insert(0, {str(PACKAGE_DIR.parent)!r})\nimport divlab\n")


def test_consistency_keeps_the_names_read_from_it():
    assert [name for name in CONSISTENCY_NAMES if not hasattr(consistency, name)] == []
    assert callable(consistency.TrialStats.merge)
