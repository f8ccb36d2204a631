"""What perfbench relies on in the library.

The tracer patches module attributes by name when a run is traced, so a
rename in the library would otherwise surface only as a crash of a traced
benchmark run.  `workloads.clear_caches` empties the memo caches of the
modules it walks, so a cache defined elsewhere would silently survive
design-sweep's per-pass clearing.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from eii import gf

ROOT = Path(__file__).resolve().parent.parent

# caches that outlive a pass on purpose: the field tables, and the erasure
# orders, which depend only on (seed, trials, n)
KEPT_CACHES = {"gf.field", "anetf._kept_permutations"}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TR = _load("tracer")


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


def _lru_caches():
    """(module, function) of every function in src/eii decorated with lru_cache."""
    for path in sorted((ROOT / "src" / "eii").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                "lru_cache" in ast.unparse(d) for d in node.decorator_list
            ):
                yield path.stem, node.name


def test_clear_caches_reaches_every_lru_cache():
    # a decode first fills codec's memo, which design-sweep must not carry
    # from one pass into the next
    from eii import codec, codespec

    spec = codespec.spec_from_capability(gf.field(3), "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    codec.decode(spec, codec.encode(spec, [0] * codespec.dimension(spec)).with_erasures([0, 8]))
    assert codec._outcome.cache_info().currsize > 0
    walked = []

    class Library:
        def __getattr__(self, name):
            walked.append(name)
            return importlib.import_module(f"eii.{name}")

    _load("workloads").clear_caches(Library())
    caches = {f"{mod}.{name}" for mod, name in _lru_caches()}
    assert KEPT_CACHES <= caches
    assert {c for c in caches if c.split(".")[0] not in walked} == KEPT_CACHES
    for cache in caches - KEPT_CACHES:
        mod, name = cache.split(".")
        assert importlib.import_module(f"eii.{mod}").__dict__[name].cache_info().currsize == 0, cache

