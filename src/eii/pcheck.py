"""Parity-check matrix synthesis for layered EII codes.

The matrix of a node over m blocks is H = I_m (x) H(C_0) stacked over the
increment from C_0^m, the code with every block in the weakest child C_0,
to the node itself.  An increment between two nodes over the same children
is one Vandermonde (x) B_j strip per tail count that grows, where B_j is
the increment from child j-1 to child j (built the same way, down to the
extra Vandermonde rows of a leaf) or the identity for the zero code.
Dense as-constructed matrices may carry dependent rows; `reduce` drops the
later dependent ones.

Erasure repair against a parity-check matrix is linear in the known
symbols: for a fixed mask the erased symbols are X . known, and the known
symbols are consistent iff C . known = 0.  The elimination lives in
`matrix`, and a `matrix.ErasurePlan` holds X and C for one (matrix, mask)
pair.  `_plan` is the package's one table of plans, keyed by the matrix
and the mask's bool bytes: `codec.encode` is one lookup of the systematic
parity mask, the decoder's row repairs look up the row code's mask, and
`pc_decode` solves a mask directly the first time it sees it and replays
its plan from the second time on.  Both the sightings and the plans sit in
bounded caches, so masks that never repeat cost `pc_decode` one direct
solve each and no memory beyond the sightings table.

Every leaf block lies in the weakest leaf code C0 = [n, n - u0], so the
local rows I_M (x) V(u0, n) of the M blocks lie in the reduced row space.
`build_parity_check` records that leaf, and `_local_split` extends the
local rows to a basis [L; Q], once per parity check; eliminating a block's
first u0 erased positions leaves each further column a residual in the
r' = rows - M u0 rows of Q, a Schur complement on the block-diagonal local
rows.  The ANETF pcheck walk decides dependence on these residuals alone,
and `pc_decode` solves a fresh mask's later erasures on them in r'
dimensions, then fills each block's first erasure from its local row.
"""

from __future__ import annotations

import itertools
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
    tail_counts,
)
from .matrix import MatrixGF
from .words import SymbolWord, word_arrays

# (matrix, mask) pairs whose sightings are counted, and plans kept; a
# degraded array cycles through a few failure masks per code and a few
# more per row code
PLAN_SIGHTINGS = 1024
PLAN_CACHE = 4096


@dataclass(frozen=True)
class ParityCheck:
    h: MatrixGF              # as-constructed stack, possibly rank-deficient
    reduced: MatrixGF        # full-rank variant spanning the same row space
    leaf: tuple              # (n, u) of the weakest leaf code, which holds every block

    @property
    def rank(self) -> int:
        return self.reduced.rows


def _increment(prev: CodeSpec, nxt: CodeSpec) -> MatrixGF:
    """Rows extending prev's parity-check matrix to one for nxt (nxt inside prev).

    For nodes, strip j raises tail_j from prev's count to nxt's with
    Vandermonde rows over B_j (see the module docstring).
    """
    ctx = prev.ctx
    if isinstance(prev, LeafSpec):
        return mx.vandermonde(ctx, nxt.u - prev.u, prev.n, prev.u)
    m = block_count(prev)
    kids = prev.children
    strips = []
    for j, (lo, hi) in enumerate(zip(tail_counts(prev)[1:], tail_counts(nxt)[1:]), 1):
        if hi == lo:
            continue
        if j < len(kids):
            right = _increment(kids[j - 1], kids[j])
        else:
            right = mx.identity(ctx, length(kids[0]))
        strips.append(mx.kronecker(mx.vandermonde(ctx, hi - lo, m, lo), right))
    return mx.stack(strips)


def _construct(spec: CodeSpec) -> MatrixGF:
    ctx = spec.ctx
    if isinstance(spec, LeafSpec):
        return mx.vandermonde(ctx, spec.u, spec.n)
    m = block_count(spec)
    top = mx.kronecker(mx.identity(ctx, m), _construct(spec.children[0]))
    base = NodeSpec(ctx, spec.children, (m,) + (0,) * len(spec.children))
    return top if base == spec else mx.stack([top, _increment(base, spec)])


@lru_cache(maxsize=None)
def build_parity_check(spec: CodeSpec) -> ParityCheck:
    h = _construct(spec)
    # rows that enlarge the span of the rows above them; the rest are dropped
    kept = [r for r, _ in mx._eliminate(h.data.copy(), spec.ctx)]
    leaf = spec
    while not isinstance(leaf, LeafSpec):
        leaf = leaf.children[0]
    pc = ParityCheck(h, MatrixGF(spec.ctx, h.data[kept]), (leaf.n, leaf.u))
    if pc.rank != length(spec) - dimension(spec):
        raise AssertionError("parity-check rank disagrees with the code dimension")
    return pc


def reduce(pc: ParityCheck) -> ParityCheck:
    """Full-rank variant; keeps earliest rows, drops later dependent ones."""
    return ParityCheck(pc.reduced, pc.reduced, pc.leaf)


@lru_cache(maxsize=None)
def _local_split(pc: ParityCheck):
    """The local split of the reduced matrix: (u0, n, Q^T).

    Every leaf block lies in the weakest leaf code C0 = [n, n - u0], so the
    local rows L = I_M (x) V(u0, n) of the M blocks lie in the row space of
    the reduced H.  Extending L to a basis [L; Q] of that space leaves Q
    with r' = rows - M u0 rows; Q^T is returned as an (N, r') array.  After
    a block's first u0 erased positions P are eliminated, a later erasure
    e = bn + p of block b leaves the residual Q[:, e] - Q[:, bn + P]
    V_P^-1 V[:, p] in r' dimensions.  For u0 = 1, V is a row of ones, so
    this is Q[:, e] - Q[:, f] for the block's first erasure f; for r' = 0
    it is empty.  Any other u0 would need V_P^-1 V for each of C(n, u0)
    sets P, so it is split as u0 = 0 instead, where Q = H and the residual
    is column e of H.
    """
    h, (n, u) = pc.reduced, pc.leaf
    ctx = h.ctx
    blocks = h.cols // n
    u0 = u if u == 1 or h.rows == blocks * u else 0
    both = np.vstack([mx.kronecker(mx.identity(ctx, blocks), mx.vandermonde(ctx, u0, n)).data,
                      h.data])
    kept = [r for r, _ in mx._eliminate(both.copy(), ctx) if r >= blocks * u0]
    return u0, n, np.ascontiguousarray(both[kept].T)


def density(pc: ParityCheck) -> float:
    """Fraction of nonzero entries of the as-constructed matrix (0 for no rows)."""
    total = pc.h.rows * pc.h.cols
    return pc.h.nonzero_count() / total if total else 0.0


@lru_cache(maxsize=PLAN_SIGHTINGS)
def _sightings(h: MatrixGF, bits: bytes):
    """Counter of the calls for one (matrix, mask bytes) pair, from 0."""
    return itertools.count()


@lru_cache(maxsize=PLAN_CACHE)
def _plan(h: MatrixGF, bits: bytes) -> mx.ErasurePlan:
    """The plan of h for the mask whose bool bytes are `bits`."""
    return mx.ErasurePlan(h, np.frombuffer(bits, dtype=bool))


def pc_decode(pc: ParityCheck, word: SymbolWord):
    """Matrix-based erasure decode: fill the erased positions so that
    H . c = 0 for the reduced parity-check matrix H.

    Succeeds on every guaranteed-correctable mask and on any extra mask
    whose erased columns stay independent; returns None when they are
    dependent.  Raises ValueError for a wrong length or a symbol that is
    not an integer in the field, before the mask counts as seen, then
    InconsistentWordError when no completion exists.  A mask seen before is
    replayed from its cached plan, and a fresh one is solved through the
    local split (`_split_solve`); the result is the same either way.
    """
    h = pc.reduced
    syms, mask = word_arrays(word, h.cols, h.ctx.q)
    bits = mask.tobytes()
    if next(_sightings(h, bits)) == 0:
        return _split_solve(pc, syms, mask)
    return SymbolWord.known(syms.tolist()) if _plan(h, bits).fill(syms) else None


def _split_solve(pc: ParityCheck, syms: np.ndarray, mask: np.ndarray):
    """`pc_decode`'s direct solve of one word in the local split [L; Q].

    [L; Q] spans the rows of H, so the word's completions are those that
    meet L and Q.  With u0 = 1 the local rows say that every block sums to
    0: a block without erasures must already, and a block's first erased
    symbol f is its known sum s plus its later erased symbols.  Put into Q,
    the later erasures e solve (Q[:, e] - Q[:, f]) x = Q_K c_K - Q_F s, a
    system of r' rows instead of H's; each first erasure then follows from
    its block.  With u0 = 0 every erasure is late and Q is H.  A weakest
    leaf with u0 >= 2 leaves no rows to Q, and is solved as u0 = 0 on the
    columns of H.
    """
    u0, n, qt = _local_split(pc)
    if u0 > 1:
        u0, qt = 0, pc.reduced.data.T
    ctx = pc.reduced.ctx
    syms[mask] = 0
    local_fails = False
    if u0:
        hit = mask.reshape(-1, n)
        struck = hit.any(axis=1)
        sums = np.bitwise_xor.reduce(syms.reshape(-1, n), axis=1)
        local_fails = sums[~struck].any()  # a block without erasures must sum to 0
        first = np.arange(0, len(mask), n) + hit.argmax(axis=1)
        heads = first[struck]
        syms[heads] = sums[struck]  # so that Q . syms is the right-hand side
        late = mask.copy()
        late[heads] = False
        erased = np.flatnonzero(late)
        cols = qt[erased] ^ qt[first[erased // n]]
    else:
        erased = np.flatnonzero(mask)
        cols = qt[erased]
    syndrome = np.bitwise_xor.reduce(ctx.mul_table[qt, syms[:, None]], axis=0)
    checks, solution = mx._solve(ctx, cols.T, syndrome[:, None])
    if local_fails or checks.any():
        raise mx.InconsistentWordError("known symbols are inconsistent with the parity checks")
    if solution is None:
        return None
    syms[erased] = solution[:, 0]
    if u0:
        syms[heads] ^= np.bitwise_xor.reduce(syms.reshape(-1, n), axis=1)[struck]
    return SymbolWord.known(syms.tolist())


def to_alist(pc: ParityCheck) -> str:
    """Sparse export of pc.h: `rows cols` header, then 1-based column indices per row."""
    lines = [f"{pc.h.rows} {pc.h.cols}"]
    for row in pc.h.data:
        cols = np.nonzero(row)[0] + 1
        lines.append(" ".join(str(int(c)) for c in cols))
    return "\n".join(lines) + "\n"
