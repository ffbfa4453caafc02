"""The traced benchmark wraps qchanc functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _names():
    tracing = _tracing()
    return [(layer, name) for table in (tracing.SPANS, tracing.COUNTS)
            for layer, names in table.items() for name in names]


@pytest.mark.parametrize("layer, name", _names(), ids=lambda v: v)
def test_traced_name_resolves(layer, name):
    owner = importlib.import_module(f"qchanc.{layer}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
