"""Systematic encoder and recursive erasure decoder for EII codes.

The decoder is one recursion, `_repair`, that follows the constructive
correctability proof: blocks that the weakest child code can already
repair are fixed first; the remaining erased blocks are ordered by the
strength of the child code they need (strongest first, ties by block
index); the weighted-sum constraints are triangulated over that ordering;
and blocks are peeled off the bottom of the triangle, each time combining
the target block with already-known blocks so the result lands in a child
code that can finish the repair.  It fills a block in place and returns
the node's blocks in repair order.  `decode` decides capability before any
repair, from the top node's block levels, which it then hands down.

Guaranteed correctability is one rule, written once per mask as
`_chain_levels`: vectorized over a batch of masks, it gives each mask the
weakest member of a nested chain of sibling codes that can repair it.
`correctable` asks it about one mask, and the decoder about the blocks of
each node it visits (one call per node gives every block's level).
`anetf` applies the same rule along a whole erasure order, through the
tail profiles of `_chain_tails`, as first-rejection times.

Encoding does not use the decoder: data fills the systematic positions,
every parity position is an erasure, and one lookup in the plan table
`pcheck._plan` gives the plan of that mask against the reduced
parity-check matrix, whose product fills them.

The decoder works in place on numpy views of one symbol array: a node
reshapes its word into blocks, a leaf block is filled by the plan of its
row code's mask from the same table, and each peel combines the
known blocks with one multiplication-table gather and an XOR-reduce.  The
block triangulations are precomputed with the elimination kernel in
`matrix`.  Membership is checked by the syndrome H . c against the reduced
parity-check matrix.
"""

from __future__ import annotations

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
    _weakest_term,
    length,
    tail_counts,
    validate,
)
from .gf import FieldContext
from .matrix import InconsistentWordError
from .pcheck import _plan, build_parity_check
from .words import SymbolWord, check_symbols, word_arrays


class NoCodewordsError(ValueError):
    """The code has dimension zero."""


RECOVERED = "recovered"
UNCORRECTABLE = "uncorrectable"


@dataclass(frozen=True)
class DecodeReport:
    outcome: str
    assignment: tuple  # minimal sufficient child level per top-level block
    peel_order: tuple  # top-level block indices in processing order


# -- correctability -----------------------------------------------------------
#
# A pattern is guaranteed correctable iff, with every block assigned the
# weakest child able to repair it (the implicit zero code, level t, accepts
# anything), at most tail_i blocks need level i or deeper, for each i >= 1.


@lru_cache(maxsize=None)
def _chain_tails(chain: tuple) -> np.ndarray:
    """The u of each leaf in a leaf chain; rows tail_1..tail_t of a node chain."""
    if isinstance(chain[0], LeafSpec):
        return np.array([ch.u for ch in chain])
    return np.array([tail_counts(ch)[1:] for ch in chain])


def _over_tails(levels: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Whether more than tail_i blocks sit at level i or deeper, for some i >= 1.

    levels has shape (..., m); tails is (C, t), one profile per chain
    member; the result is (..., C).
    """
    deep = (levels[..., None] >= np.arange(1, tails.shape[-1] + 1)).sum(axis=-2)
    return (deep[..., None, :] > tails).any(axis=-1)


def _chain_levels(chain: tuple, masks: np.ndarray) -> np.ndarray:
    """Index of the weakest spec in `chain` guaranteed to correct each mask.

    `chain` is a strictly nested tuple of siblings sharing their children;
    `masks` is boolean, (..., N).  A mask no member corrects gets
    len(chain).  Nesting makes the tail profiles grow along the chain, so
    the members that reject a mask form a prefix and counting them gives
    the level.
    """
    tails = _chain_tails(chain)
    head = chain[0]
    if isinstance(head, LeafSpec):
        return np.searchsorted(tails, masks.sum(axis=-1))
    blocks = masks.reshape(masks.shape[:-1] + (block_count(head), -1))
    return _over_tails(_chain_levels(head.children, blocks), tails).sum(axis=-1)


def correctable(spec: CodeSpec, mask) -> bool:
    """Guaranteed-correctability test for an erasure mask."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1 or len(mask) != length(spec):
        raise ValueError(f"mask length {len(mask)} != code length {length(spec)}")
    return bool(_chain_levels((spec,), mask) == 0)


# -- membership ----------------------------------------------------------------


def is_codeword(spec: CodeSpec, word: SymbolWord) -> bool:
    """Membership test H . c = 0; the word must be fully known."""
    symbols, erased = word_arrays(word, length(spec), spec.ctx.q)
    if erased.any():
        raise ValueError("membership test needs a fully known word")
    return not any(mx.mat_vec(build_parity_check(spec).reduced, symbols))


# -- systematic layout ----------------------------------------------------------


@lru_cache(maxsize=None)
def parity_mask(spec: CodeSpec) -> tuple:
    """True at parity positions of the systematic layout.

    Leaves keep their u parity symbols last; a node lays out s_i blocks per
    child with that child's own layout, then s_t all-parity blocks.
    """
    if isinstance(spec, LeafSpec):
        return (False,) * (spec.n - spec.u) + (True,) * spec.u
    out = []
    for si, ch in zip(spec.s, spec.children):
        out.extend(parity_mask(ch) * si)
    out.extend((True,) * (length(spec.children[0]) * spec.s[-1]))
    return tuple(out)


# -- recursive erasure decoding ------------------------------------------------------
#
# The word is one uint8 symbol array and one bool erasure array; a node
# works on their (m, n_sub) block views, so every repair lands in place.


@lru_cache(maxsize=4096)
def _triangulate(ctx: FieldContext, col_blocks: tuple, n_rows: int) -> np.ndarray:
    """Unit upper-triangular combination rows for the block ordering.

    Row r of the raw system carries coefficient alpha^(r j) on block j;
    eliminating the first n_rows ordered columns top-down yields rows whose
    leading 1 sits on successive ordered blocks.  Works because every
    leading minor is a Vandermonde determinant on distinct points.
    """
    rows = mx.vandermonde(ctx, n_rows, len(col_blocks)).data[:, list(col_blocks)]
    mx._eliminate(rows, ctx, n_rows)
    rows.setflags(write=False)
    return rows


def _repair(spec: CodeSpec, symbols, erased, levels=None) -> list:
    """Fill the erased symbols of a correctable block in place.

    Returns the node's block indices in repair order (empty for a leaf).
    `levels` gives each block's child level when the caller has them.
    """
    if isinstance(spec, LeafSpec):
        # the block's pattern passed the capability rule: the plan is solvable
        _plan(build_parity_check(spec).reduced, erased.tobytes()).fill(symbols)
        return []
    m = block_count(spec)
    sym, era = symbols.reshape(m, -1), erased.reshape(m, -1)
    if levels is None:
        levels = _chain_levels(spec.children, era).tolist()
    order = [j for j, hit in enumerate(era.any(axis=1).tolist()) if hit and not levels[j]]
    for j in order:
        _repair(spec.children[0], sym[j], era[j])
    pending = sorted((j for j in range(m) if levels[j]), key=lambda j: (-levels[j], j))
    if not pending:
        return order
    cols = pending + [j for j in range(m) if not levels[j]]
    tri = _triangulate(spec.ctx, tuple(cols), len(pending))
    cols = np.array(cols)
    mt = spec.ctx.mul_table
    for k in range(len(pending) - 1, -1, -1):
        j = pending[k]
        combo = np.bitwise_xor.reduce(mt[tri[k, k + 1:, None], sym[cols[k + 1:]]], axis=0)
        mixed = sym[j] ^ combo
        if levels[j] == len(spec.children):
            # the combination lies in the zero code: known part must vanish
            if mixed[~era[j]].any():
                raise InconsistentWordError("zero-code block combination is nonzero")
            sym[j] = combo
        else:
            _repair(spec.children[levels[j]], mixed, era[j])
            sym[j] = mixed ^ combo
        order.append(j)
    return order


def decode(spec: CodeSpec, word: SymbolWord):
    """Erasure decode; returns (word, DecodeReport).

    Every mask accepted by `correctable` is recovered.  On an uncorrectable
    mask the input word is returned unchanged with outcome "uncorrectable",
    and nothing is repaired.  A recovered word always passes a final
    membership check, so InconsistentWordError is raised whenever the known
    symbols cannot belong to any codeword.
    """
    symbols, erased = word_arrays(word, length(spec), spec.ctx.q)
    if isinstance(spec, LeafSpec):
        levels, ok = (), erased.sum() <= spec.u
    else:
        blocks = _chain_levels(spec.children, erased.reshape(block_count(spec), -1))
        levels, ok = tuple(blocks.tolist()), not _over_tails(blocks, _chain_tails((spec,)))[0]
    if not ok:
        return word, DecodeReport(UNCORRECTABLE, levels, ())
    order = _repair(spec, symbols, erased, levels)
    if any(mx.mat_vec(build_parity_check(spec).reduced, symbols)):
        raise InconsistentWordError("known symbols contradict every codeword")
    return SymbolWord.known(symbols.tolist()), DecodeReport(RECOVERED, levels, tuple(order))


# -- encoding --------------------------------------------------------------------


def encode(spec: CodeSpec, data) -> SymbolWord:
    """Systematic encode: the data fills the systematic positions in layout
    order, and the parities come from one lookup in the plan table: the
    plan of `parity_mask(spec)` against the reduced parity-check matrix,
    built on a code's first encode and replayed from then on."""
    data = list(data)
    k = dimension(spec)
    if len(data) != k:
        raise ValueError(f"data length {len(data)} != dimension {k}")
    check_symbols(data, spec.ctx.q)
    bits = bytes(parity_mask(spec))
    syms = np.zeros(len(bits), dtype=np.uint8)
    syms[~np.frombuffer(bits, dtype=bool)] = data
    if not _plan(build_parity_check(spec).reduced, bits).fill(syms):
        raise AssertionError("systematic parity columns are dependent")
    return SymbolWord.known(syms.tolist())


# -- minimum-weight witness ---------------------------------------------------------


def min_weight_codeword(spec: CodeSpec) -> SymbolWord:
    """A codeword whose weight equals min_distance(spec)."""
    if dimension(spec) < 1:
        raise NoCodewordsError("zero-dimensional code")
    return SymbolWord.known(_min_weight_symbols(spec).tolist())


def _min_weight_symbols(spec: CodeSpec) -> np.ndarray:
    ctx = spec.ctx
    if isinstance(spec, LeafSpec):
        # weight-(u+1) codeword supported on positions 0..u: a 1 at position
        # 0, and positions 1..u filled as erasures of the row code
        out = np.zeros(spec.n, dtype=np.uint8)
        out[0] = 1
        mask = np.zeros(spec.n, dtype=bool)
        mask[1:spec.u + 1] = True
        _plan(build_parity_check(spec).reduced, mask.tobytes()).fill(out)
        return out
    _, j = _weakest_term(spec)
    deg = tail_counts(spec)[j + 1]
    witness = _min_weight_symbols(spec.children[j])
    # v(x) = (x + 1)(x + alpha) ... (x + alpha^(deg-1)), lowest degree first;
    # all of its coefficients are nonzero because deg <= m - 1 < order(alpha) + 1
    poly = np.ones(1, dtype=np.uint8)
    for root in ctx.exp_table[:deg]:
        poly = np.append(0, poly) ^ np.append(ctx.mul_table[root, poly], 0)
    out = np.zeros((block_count(spec), len(witness)), dtype=np.uint8)
    out[:deg + 1] = ctx.mul_table[poly[:, None], witness]
    return out.ravel()


# -- brute force (guard rail for tests and the CLI) -----------------------------------


def brute_force_min_weight(spec: CodeSpec, limit: int = 1 << 24) -> int:
    """Minimum nonzero codeword weight by enumerating all q^k data vectors."""
    import itertools

    k = dimension(spec)
    q = spec.ctx.q
    if k < 1:
        raise NoCodewordsError("zero-dimensional code")
    if q ** k > limit:
        raise ValueError(f"refusing brute force: q^k = {q}^{k} exceeds the enumeration guard {limit}")
    n = length(spec)
    gen = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        unit = [0] * k
        unit[i] = 1
        gen[i] = word_arrays(encode(spec, unit), n, q)[0]
    mt = spec.ctx.mul_table
    best = n + 1
    chunk = max(1, (1 << 18) // max(n, 1))
    stream = itertools.product(range(q), repeat=k)
    while True:
        block = list(itertools.islice(stream, chunk))
        if not block:
            break
        arr = np.array(block, dtype=np.uint8)
        words = np.bitwise_xor.reduce(mt[arr[:, :, None], gen[None, :, :]], axis=1)
        weights = np.count_nonzero(words, axis=1)
        nz = weights[np.any(arr != 0, axis=1)]
        if nz.size:
            best = min(best, int(nz.min()))
    return best


__all__ = [
    "DecodeReport",
    "NoCodewordsError",
    "RECOVERED",
    "SymbolWord",
    "UNCORRECTABLE",
    "brute_force_min_weight",
    "correctable",
    "decode",
    "encode",
    "is_codeword",
    "min_weight_codeword",
    "parity_mask",
    "validate",
]
