"""Every function the benchmark's tracer wraps still exists under its name.

``bench/tracing.py`` finds its targets by module and attribute name when it
installs its hooks, so a renamed or deleted function would otherwise show
only when ``bench/run.py --trace 1`` runs.  This test resolves the targets
without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING_PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TARGETS = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTS]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_traced_target_resolves(module, attr):
    owner, name = tracing._resolve(importlib.import_module(module), attr)
    assert callable(getattr(owner, name))
