"""In-memory spans and counters around the public calls of the eii modules.

Tracing works by replacing module attributes with wrappers while it is
installed, so the library itself carries no tracing code:

- coarse calls become spans (name, start, end, parent span, op id, op kind);
- hot scalar calls only bump a counter, keyed by the kind of op in progress.

Wrappers see every call that goes through the module attribute, including
calls the library makes between its own modules (``pcheck`` calls
``mx.kronecker``, ``codec._decode_node`` calls ``correctable``).  Calls
through names bound by ``from x import y`` are not seen.

The workload code says which op is in progress by setting ``op`` and
``kind`` (see :meth:`Tracer.begin`); that costs two attribute stores and is
done whether tracing is installed or not.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (module, attribute) pairs recorded as spans
SPANS = {
    "codespec": ("spec_from_capability", "validate", "capability"),
    "matrix": ("vandermonde", "kronecker", "identity", "stack", "solve_erasures"),
    "pcheck": ("build_parity_check", "density", "pc_decode"),
    "codec": ("encode", "decode", "is_codeword", "min_weight_codeword"),
    "anetf": ("simulate",),
}
# hot scalar calls recorded as counters only
FIELD_COUNTERS = ("mul", "alpha_pow", "inv")
MODULE_COUNTERS = {"codec": ("correctable",)}


class Tracer:
    """Span and counter store for one traced run; also the current op."""

    def __init__(self):
        self.op = -1
        self.kind = "setup"
        self.spans = []   # [name, t0, t1, parent index, op id, op kind]
        self.stack = []
        self.counters = defaultdict(Counter)  # op kind -> counter name -> calls
        self.ops = {}     # op id -> metadata, kept while installed
        self._next_op = -1
        self._saved = []  # (owner, attribute, original value) while installed

    def new_op(self, **meta) -> int:
        """Register one request (a stripe, design or simulate call); returns its id."""
        self._next_op += 1
        if self._saved:
            self.ops[self._next_op] = meta
        return self._next_op

    def begin(self, kind: str, op: int):
        self.kind = kind
        self.op = op

    # -- installing wrappers ------------------------------------------------

    def install(self, lib, numpy_random):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attrs in SPANS.items():
            mod = getattr(lib, mod_name)
            for attr in attrs:
                self._patch(mod, attr, self._span(f"{mod_name}.{attr}", getattr(mod, attr)))
        for mod_name, attrs in MODULE_COUNTERS.items():
            mod = getattr(lib, mod_name)
            for attr in attrs:
                self._patch(mod, attr, self._count(f"{mod_name}.{attr}", getattr(mod, attr)))
        ctx_cls = lib.gf.FieldContext
        for attr in FIELD_COUNTERS:
            self._patch(ctx_cls, attr, self._count(f"gf.{attr}", getattr(ctx_cls, attr)))
        self._patch(numpy_random, "Philox", self._count("numpy.random.Philox", numpy_random.Philox))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, self.op, self.kind]

        return wrapper

    def _count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            counters[self.kind][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reading the trace ------------------------------------------------------

    def self_times(self):
        """Per span: (name, module, parent, op id, op kind, duration, self time)."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _op, _kind in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(name, name.split(".", 1)[0], parent, op, kind, t1 - t0, t1 - t0 - inner)
                for (name, t0, t1, parent, op, kind), inner in zip(self.spans, child)]

    def count(self, name: str, kinds=None) -> int:
        return sum(c[name] for k, c in self.counters.items() if kinds is None or k in kinds)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counters": {k: dict(c) for k, c in self.counters.items()},
            "ops": {str(k): v for k, v in self.ops.items()},
        }
