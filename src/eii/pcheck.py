"""Parity-check matrix synthesis for layered EII codes.

The matrix of a node stacks an identity-Kronecker copy of the weakest
child's matrix over Vandermonde-Kronecker strips, one strip per child
transition.  The strip for the transition from child i-1 to child i uses
the incremental rows B_i that extend the (i-1)-th matrix to the i-th; for
node children those rows recurse through the shared grandchildren.  Dense
as-constructed matrices may carry dependent rows; `reduce` drops the later
dependent ones.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import matrix as mx
from .codespec import (
    CodeSpec,
    LeafSpec,
    NodeSpec,
    block_count,
    dimension,
    length,
    spec_to_json,
    tail_counts,
)
from .matrix import MatrixGF
from .words import SymbolWord


@dataclass(frozen=True)
class ParityCheck:
    h: MatrixGF              # as-constructed stack, possibly rank-deficient
    reduced: MatrixGF        # full-rank variant spanning the same row space
    spec_digest: str

    @property
    def rank(self) -> int:
        return self.reduced.rows


def _leaf_increment(ctx, n: int, u_prev: int, u_next: int) -> MatrixGF:
    return mx.vandermonde(ctx, u_next - u_prev, n, u_prev)


def _increment(prev: CodeSpec, nxt: CodeSpec) -> MatrixGF:
    """Rows extending prev's parity-check matrix to one for nxt (nxt inside prev)."""
    ctx = prev.ctx
    if isinstance(prev, LeafSpec):
        return _leaf_increment(ctx, prev.n, prev.u, nxt.u)
    m = block_count(prev)
    tails_prev = tail_counts(prev)
    tails_next = tail_counts(nxt)
    grandkids = prev.children
    strips = []
    for j in range(1, len(grandkids) + 1):
        delta = tails_next[j] - tails_prev[j]
        if delta == 0:
            continue
        left = mx.vandermonde(ctx, delta, m, tails_prev[j])
        if j < len(grandkids):
            right = _increment(grandkids[j - 1], grandkids[j])
        else:
            right = mx.identity(ctx, length(grandkids[0]))
        strips.append(mx.kronecker(left, right))
    return mx.stack(strips)


def _construct(spec: CodeSpec) -> MatrixGF:
    ctx = spec.ctx
    if isinstance(spec, LeafSpec):
        return mx.vandermonde(ctx, spec.u, spec.n)
    m = block_count(spec)
    tails = tail_counts(spec)
    children = spec.children
    blocks = []
    h0 = _construct(children[0])
    if h0.rows:
        blocks.append(mx.kronecker(mx.identity(ctx, m), h0))
    for i in range(1, len(children)):
        if tails[i] == 0:
            continue
        left = mx.vandermonde(ctx, tails[i], m)
        blocks.append(mx.kronecker(left, _increment(children[i - 1], children[i])))
    if tails[len(children)]:
        left = mx.vandermonde(ctx, tails[len(children)], m)
        blocks.append(mx.kronecker(left, mx.identity(ctx, length(children[0]))))
    return mx.stack(blocks) if blocks else mx.zeros(ctx, 0, length(spec))


@lru_cache(maxsize=None)
def build_parity_check(spec: CodeSpec) -> ParityCheck:
    h = _construct(spec)
    # rows that enlarge the span of the rows above them; the rest are dropped
    kept = [r for r, _ in mx._eliminate(h.data.copy(), spec.ctx)]
    reduced = MatrixGF(spec.ctx, h.data[kept])
    digest = hashlib.sha256(spec_to_json(spec).encode()).hexdigest()[:12]
    pc = ParityCheck(h, reduced, digest)
    if pc.rank != length(spec) - dimension(spec):
        raise AssertionError("parity-check rank disagrees with the code dimension")
    return pc


def reduce(pc: ParityCheck) -> ParityCheck:
    """Full-rank variant; keeps earliest rows, drops later dependent ones."""
    return ParityCheck(pc.reduced, pc.reduced, pc.spec_digest)


def density(pc: ParityCheck) -> float:
    """Fraction of nonzero entries of the as-constructed matrix (0 for no rows)."""
    total = pc.h.rows * pc.h.cols
    return pc.h.nonzero_count() / total if total else 0.0


def pc_decode(pc: ParityCheck, word: SymbolWord):
    """Matrix-based erasure decode: solve the syndrome system on the
    erased columns.  Succeeds on every guaranteed-correctable mask and on
    any extra mask whose erased columns stay independent."""
    return mx.solve_erasures(pc.reduced, word)


def to_alist(pc: ParityCheck, reduced: bool = False) -> str:
    """Sparse export: `rows cols` header, then 1-based column indices per row."""
    m = pc.reduced if reduced else pc.h
    lines = [f"{m.rows} {m.cols}"]
    for row in m.data:
        cols = np.nonzero(row)[0] + 1
        lines.append(" ".join(str(int(c)) for c in cols))
    return "\n".join(lines) + "\n"
