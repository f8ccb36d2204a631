"""The library attributes that perfbench's tracer wraps must exist.

The tracer patches module attributes by name when a run is traced, so a
rename in the library would otherwise surface only as a crash of a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from eii import gf

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TR = _tracer()


@pytest.mark.parametrize("module, attr", [
    (mod, attr)
    for table in (_TR.SPANS, _TR.MODULE_COUNTERS)
    for mod, attrs in table.items()
    for attr in attrs
])
def test_traced_module_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"eii.{module}"), attr, None))


@pytest.mark.parametrize("attr", _TR.FIELD_COUNTERS)
def test_traced_field_method_exists(attr):
    assert callable(getattr(gf.FieldContext, attr, None))
