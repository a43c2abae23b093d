"""Shared test settings: one hypothesis profile keeps every property test deterministic.

Examples come from a fixed derivation rather than a random seed, nothing is
stored between runs, and there is no per-example deadline (exact linear
algebra on a loaded machine can be slow).  Property tests set only what
differs, such as `max_examples`.  The `workloads` fixture loads the
benchmark's passes from `perfbench/workloads.py`.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("nlgotz", derandomize=True, database=None, deadline=None)
settings.load_profile("nlgotz")


@pytest.fixture
def workloads(monkeypatch):
    """`perfbench/workloads.py`, loaded as a module of its own for one test."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module
