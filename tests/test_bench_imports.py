"""Every ``benchmarks/bench_*.py`` script imports.

``tools/reachability.py`` counts the bench scripts as entry points but
only parses them, so a bench whose imports broke would keep its code
"reached" while nothing could run it.  Importing each one here, with
``benchmarks/`` on ``sys.path`` as ``benchmarks/conftest.py`` puts it,
fails tier-1 instead of a later full bench run.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in BENCHMARKS.glob("bench_*.py"))
)
def test_bench_script_imports(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    try:
        importlib.import_module(name)
    finally:
        sys.modules.pop(name, None)
