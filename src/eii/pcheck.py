"""Parity-check matrix synthesis for layered EII codes.

The matrix of a node over m blocks is H = I_m (x) H(C_0) stacked over the
increment from C_0^m, the code with every block in the weakest child C_0,
to the node itself.  An increment between two nodes over the same children
is one Vandermonde (x) B_j strip per tail count that grows, where B_j is
the increment from child j-1 to child j (built the same way, down to the
extra Vandermonde rows of a leaf) or the identity for the zero code.
Each row of H is therefore a Kronecker product of one term per layer:
v >= 0, the Vandermonde row alpha^(d v) over the layer's digit d, or
-1 - i, the unit vector e_i.  The recursion yields these terms, and H is
evaluated from them once over each position's digits (its block at each
layer, top first, then its place in the row).  H may carry dependent
rows; a `ParityCheck` keeps it and, as `reduced`, its earliest rows that
span it, which is H itself when none is dependent.

Erasure repair against a parity-check matrix is linear in the known
symbols: for a fixed mask the erased symbols are X . known, and the known
symbols are consistent iff C . known = 0.  The elimination lives in
`matrix`, and a `matrix.ErasurePlan` holds X and C for one (matrix, mask)
pair.  `_plan` is the one table of mask plans, keyed by the matrix and the
mask's bool bytes: `codec.encode` is one lookup of the systematic parity
mask, the recursive decoder's row repairs look up the row code's mask,
membership tests look up the all-known mask, whose plan's checks are the
matrix itself, and `pc_decode` and `codec.decode` each repair a mask their
own way the first time they see it and replay its plan against the
reduced matrix from the second time on.  `pc_decode` counts its
sightings of a mask in `_sightings`, and `codec.decode` keeps its own
record of each mask.  A plan holds its rows as flat offsets into the
multiplication table, so a replay is one gather and one XOR-reduce.  The
sightings, the plans and `codec.decode`'s records sit in bounded caches,
so masks that never repeat cost one first-sighting repair each and no
memory beyond the sightings table and those records.

Each layer of an EII code adds checks on its own blocks, and the sums of
a layer's M blocks of length n are often among them: all M sums, as when
the weakest leaf code has u0 >= 1, or only t < M Vandermonde combinations
L = V(t, M) (x) 1_n of them.  `build_parity_check` records each layer's
block length and u0, and `_local_split` finds, once per parity check and
with one elimination per layer, the layer with the most such checks and
extends its rows L to a basis [L; Q].  The first erasures of t distinct
blocks are then independent, and each further erasure adds one residual
column in the r' = rows - t rows of Q; an MDS leaf, whose rows are all
leaf-local, leaves r' = 0.  The ANETF pcheck walk decides dependence on
these residuals alone, and when every block sum is a check (t = M),
`pc_decode` solves a fresh mask's later erasures on them in r'
dimensions, then fills each block's first erasure from its sum.  Any
other code, with t < M Vandermonde checks or leaf-local rows of u0 >= 2,
has its fresh masks solved on the rows of H, as `matrix.solve_erasures`
solves a word.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import matrix as mx
from .codespec import (
    CodeSpec,
    LeafSpec,
    NodeSpec,
    block_count,
    dimension,
    length,
    spec_lru_cache,
    tail_counts,
    validate,
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
    reduced: MatrixGF        # full-rank variant spanning the same row space (h if full rank)
    layers: tuple            # block length per layer: the code's length first, the row length last
    u0: int                  # redundancy of the weakest leaf code, which holds every row

    @property
    def rank(self) -> int:
        return self.reduced.rows


def _layers(spec: CodeSpec) -> tuple:
    """(widths, leaf): the block count of each layer, top first, then the
    row length; and the weakest leaf code, which holds every row."""
    widths = []
    while isinstance(spec, NodeSpec):
        widths.append(block_count(spec))
        spec = spec.children[0]
    return (*widths, spec.n), spec


@lru_cache(maxsize=None)
def _increment(prev: CodeSpec, nxt: CodeSpec) -> tuple:
    """Rows extending prev's parity-check matrix to one for nxt (nxt inside
    prev), as per-layer terms (see the module docstring).

    For nodes, strip j raises tail_j from prev's count to nxt's with
    Vandermonde rows over B_j, whose rows are unit terms on every layer
    below for the zero code.  Memoized: sibling codes share their chains of
    children, and so their B_j.
    """
    if isinstance(prev, LeafSpec):
        return tuple((v,) for v in range(prev.u, nxt.u))
    kids = prev.children
    rows = []
    for j, (lo, hi) in enumerate(zip(tail_counts(prev)[1:], tail_counts(nxt)[1:]), 1):
        if hi == lo:
            continue
        if j < len(kids):
            right = _increment(kids[j - 1], kids[j])
        else:
            right = list(itertools.product(*(range(-1, -1 - w, -1) for w in _layers(kids[0])[0])))
        rows += [(v, *r) for v in range(lo, hi) for r in right]
    return tuple(rows)


def _construct(spec: CodeSpec) -> tuple:
    """The rows of spec's parity-check matrix as per-layer terms (see `_increment`)."""
    if isinstance(spec, LeafSpec):
        return tuple((v,) for v in range(spec.u))
    m, rows = block_count(spec), _construct(spec.children[0])
    top = tuple((-1 - i, *r) for i in range(m) for r in rows)
    base = NodeSpec(spec.ctx, spec.children, (m,) + (0,) * len(spec.children))
    return top if base == spec else top + _increment(base, spec)


@spec_lru_cache
def build_parity_check(spec: CodeSpec) -> ParityCheck:
    """The parity-check record of a spec; ValidationError when `validate` rejects it."""
    validate(spec)
    ctx = spec.ctx
    widths, leaf = _layers(spec)
    terms = np.array(_construct(spec), dtype=np.int64).reshape(-1, len(widths))
    digits = np.indices(widths).reshape(len(widths), -1)
    # alpha^(sum of v d over the Vandermonde terms) where each unit term's i is its digit d, else 0
    exps = np.where(terms < 0, 0, terms) @ digits % (ctx.q - 1)
    hit = ((terms[:, :, None] >= 0) | (-1 - terms[:, :, None] == digits)).all(axis=1)
    h = MatrixGF(ctx, np.where(hit, ctx.exp_table[exps], 0))
    # rows that enlarge the span of the rows above them; the rest are dropped
    kept = [r for r, _ in mx._eliminate(h.data.copy(), ctx)]
    reduced = h if len(kept) == h.rows else MatrixGF(ctx, h.data[kept])
    layers = tuple(math.prod(widths[i:]) for i in range(len(widths)))
    pc = ParityCheck(h, reduced, layers, leaf.u)
    if pc.rank != length(spec) - dimension(spec):
        raise AssertionError("parity-check rank disagrees with the code dimension")
    return pc


class Split(NamedTuple):
    """A basis [L; Q] of the reduced rows; see `_local_split`."""

    n: int           # block length of the layer whose checks L are
    u0: int          # erasures of each free block that are free
    t: int           # free blocks: L has t u0 rows
    qt: np.ndarray   # Q^T, (N, r') with r' = rows - t u0
    offsets: np.ndarray  # Q^T as FieldContext.offsets
    lanes: np.ndarray  # Q^T packed by FieldContext.pack, (N, words) uint64


def _block_sum_checks(h: MatrixGF, n: int) -> int:
    """How many checks the sums of h's blocks of length n give (see `_local_split`).

    One elimination of [H; G (x) 1_n] with G = V(M, M), or I_M when the M
    blocks outnumber the points alpha^0 ... alpha^(q-2): a row of G (x) 1_n
    lies in the row space of H exactly when it leaves no pivot.  Returns M
    when every row does (then every block sum is a check, V(M, M) being
    invertible), else the longest prefix of Vandermonde rows that does, or
    0 for I_M.
    """
    ctx = h.ctx
    m = h.cols // n
    g = mx.vandermonde(ctx, m, m) if m < ctx.q else mx.identity(ctx, m)
    both = np.vstack([h.data, np.repeat(g.data, n, axis=1)])
    pivots = {r for r, _ in mx._eliminate(both, ctx)}
    inside = [h.rows + i not in pivots for i in range(m)]
    if all(inside):
        return m
    return inside.index(False) if m < ctx.q else 0


@lru_cache(maxsize=None)
def _local_split(pc: ParityCheck) -> Split:
    """The local split of the reduced matrix at the block-sum layer with the
    most checks.

    When every row is leaf-local, I_M (x) V(u0, n) for the M rows of the
    weakest leaf code [n, n - u0], the first u0 erasures of a row are free
    and the next is dependent: t = M and r' = 0.  Otherwise each layer of
    `pc.layers` offers L = I_M (x) 1_n, when each of its M block sums is a
    check (t = M), or the longest prefix L = V(t, M) (x) 1_n of Vandermonde
    combinations of them at the points alpha^b that lies in the row space
    (`_block_sum_checks`).  The layer with the largest t is taken, the
    deepest one on ties unless a higher one has t = M.  Extending L to a
    basis [L; Q] leaves Q with r' = rows - t rows; Q^T is returned as an
    (N, r') array, beside it as `FieldContext.offsets` for `FieldContext.dot`,
    and packed into uint64 lanes (`FieldContext.pack`) for `anetf`'s walk.
    Any t blocks have independent columns in L, so the first erasures of
    t distinct blocks are free.  A later erasure e of a block leaves the
    residual Q[:, e] - Q[:, e'] against an earlier one e' of the same
    block, and the first erasure of a further block is combined with the
    t free ones by the dual weights of V(t, M) (see `anetf._dual_weights`).
    """
    h = pc.reduced
    ctx = h.ctx
    rows = h.cols // pc.layers[-1]
    if h.rows == rows * pc.u0 > 0:
        qt = np.zeros((h.cols, 0), dtype=np.uint8)
        return Split(pc.layers[-1], pc.u0, rows, qt, ctx.offsets(qt), ctx.pack(qt))
    t, full, n = 0, False, h.cols  # no block sum is a check
    for width in reversed(pc.layers):
        checks = _block_sum_checks(h, width)
        if (checks, checks * width == h.cols) > (t, full):
            t, full, n = checks, checks * width == h.cols, width
    g = mx.identity(ctx, t) if full else mx.vandermonde(ctx, t, h.cols // n)
    both = np.vstack([np.repeat(g.data, n, axis=1), h.data])
    kept = [r for r, _ in mx._eliminate(both.copy(), ctx) if r >= t]
    qt = np.ascontiguousarray(both[kept].T)
    return Split(n, 1, t, qt, ctx.offsets(qt), ctx.pack(qt))


def density(pc: ParityCheck) -> float:
    """Fraction of nonzero entries of the as-constructed matrix (0 for no rows)."""
    total = pc.h.rows * pc.h.cols
    return pc.h.nonzero_count() / total if total else 0.0


@lru_cache(maxsize=PLAN_SIGHTINGS)
def _sightings(h: MatrixGF, bits: bytes):
    """Counter of `pc_decode`'s calls for one (reduced matrix, mask bytes)
    pair, from 0."""
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
    replayed from its cached plan.  A fresh one is solved in the local split
    (`_split_solve`) when every block sum of its layer is a check, and on
    the rows of H as by `matrix.solve_erasures` otherwise; the result is
    the same either way.
    """
    h = pc.reduced
    syms, mask = word_arrays(word, h.cols, h.ctx.q)
    bits = mask.tobytes()
    if next(_sightings(h, bits)) == 0:
        split = _local_split(pc)
        if split.u0 == 1 and split.t * split.n == h.cols:
            return _split_solve(h.ctx, split, syms, mask)
        return mx._solve_symbols(h, syms, mask)
    return SymbolWord._from_array(syms) if _plan(h, bits).fill(syms) else None


def _split_solve(ctx, split: Split, syms: np.ndarray, mask: np.ndarray):
    """`pc_decode`'s direct solve of one word in a local split [L; Q] whose
    L holds every block sum of its layer (u0 = 1, t = M).

    [L; Q] spans the rows of H, so the word's completions are those that
    meet L and Q.  A block without erasures must already sum to 0, and a
    block's first erased symbol f is its known sum s plus its later erased
    symbols.  Put into Q, the later erasures e solve (Q[:, e] - Q[:, f]) x
    = Q_K c_K - Q_F s, a system of r' rows instead of H's; each first
    erasure then follows from its block.
    """
    n, qt = split.n, split.qt
    syms[mask] = 0
    hit = mask.reshape(-1, n)
    struck = hit.any(axis=1)
    sums = np.bitwise_xor.reduce(syms.reshape(-1, n), axis=1)
    first = np.arange(0, len(mask), n) + hit.argmax(axis=1)
    heads = first[struck]
    syms[heads] = sums[struck]  # so that Q . syms is the right-hand side
    late = mask.copy()
    late[heads] = False
    erased = np.flatnonzero(late)
    syndrome = ctx.dot(split.offsets, syms[:, None], axis=0)
    checks, solution = mx._solve(ctx, (qt[erased] ^ qt[first[erased // n]]).T, syndrome[:, None])
    # a block without erasures must sum to 0
    if np.count_nonzero(sums[~struck]) or np.count_nonzero(checks):
        raise mx.InconsistentWordError("known symbols are inconsistent with the parity checks")
    if solution is None:
        return None
    syms[erased] = solution[:, 0]
    syms[heads] ^= np.bitwise_xor.reduce(syms.reshape(-1, n), axis=1)[struck]
    return SymbolWord._from_array(syms)
