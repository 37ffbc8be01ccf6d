"""Every benchmark script imports against the current API.

Most ``benchmarks/bench_*.py`` scripts only run in the slow CI lane, and
some in none; importing each one here makes a removed or renamed name
they use fail tier-1 instead.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
SCRIPTS = sorted(BENCH_DIR.glob("bench_*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 9


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_bench_script_imports(path, monkeypatch):
    # Some scripts import shared harnesses from their sibling modules.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(
        f"_bench_import_check.{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
