"""Systematic encoder and recursive erasure decoder for EII codes.

The decoder follows the constructive correctability proof: blocks that the
weakest child code can already repair are fixed first; the remaining erased
blocks are ordered by the strength of the child code they need (strongest
first, ties by block index); the weighted-sum constraints are triangulated
over that ordering; and blocks are peeled off the bottom of the triangle,
each time combining the target block with already-known blocks so the
result lands in a child code that can finish the repair.

Guaranteed correctability is one rule, written once as `_chain_levels`:
vectorized over a batch of masks, it gives each mask the weakest member of
a nested chain of sibling codes that can repair it.  `correctable` asks it
about one mask, the decoder about the blocks of each node it visits (one
call per node gives every block's level), and `anetf` about whole batches
of prefix masks.

Encoding is the same machinery run on a fixed mask: data fills the
systematic positions and every parity position is treated as an erasure.

Membership is checked by the syndrome H . c against the reduced
parity-check matrix from `pcheck`, and the leaf solves and block
triangulations are precomputed with the elimination kernel in `matrix`.
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
    length,
    min_distance,
    tail_counts,
    validate,
)
from .gf import FieldContext
from .matrix import InconsistentWordError
from .pcheck import build_parity_check
from .words import SymbolWord, check_symbols


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
    if len(word) != length(spec):
        raise ValueError(f"word length {len(word)} != code length {length(spec)}")
    if any(word.erased):
        raise ValueError("membership test needs a fully known word")
    check_symbols(word.symbols, spec.ctx.q)
    return not any(mx.mat_vec(build_parity_check(spec).reduced, word.symbols))


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


# -- leaf erasure solving ----------------------------------------------------------


@lru_cache(maxsize=4096)
def _leaf_solver(ctx: FieldContext, n: int, u: int, erased: tuple):
    """Precomputed solve for a leaf erasure pattern.

    Returns (solve_rows, check_rows): with syndrome vector syn of length u
    over the known symbols, the erased values are solve_rows . syn and the
    pattern is consistent iff check_rows . syn == 0.
    """
    e = len(erased)
    columns = mx.vandermonde(ctx, u, n).data[:, list(erased)]
    aug = np.hstack([columns, np.eye(u, dtype=np.uint8)])
    pivots = mx._eliminate(aug, ctx, e)
    if len(pivots) < e:
        return None
    solve_rows = mx._back_substitute(aug, ctx, pivots)[:, e:]
    check_rows = np.delete(aug, [r for r, _ in pivots], axis=0)[:, e:]
    return tuple(map(tuple, solve_rows.tolist())), tuple(map(tuple, check_rows.tolist()))


def _decode_leaf(spec: LeafSpec, symbols, erased):
    """In-place leaf repair; assumes the pattern passed `correctable`."""
    ctx = spec.ctx
    positions = tuple(i for i, e in enumerate(erased) if e)
    if not positions:
        return
    solver = _leaf_solver(ctx, spec.n, spec.u, positions)
    if solver is None:  # cannot happen for <= u erasures of a Vandermonde check
        raise InconsistentWordError("dependent erased columns in MDS row")
    solve_rows, check_rows = solver
    syndrome = []
    for r in range(spec.u):
        acc = 0
        for c in range(spec.n):
            if not erased[c] and symbols[c]:
                acc ^= ctx.mul(ctx.alpha_pow(r * c), symbols[c])
        syndrome.append(acc)
    for row in check_rows:
        acc = 0
        for coef, s in zip(row, syndrome):
            if coef and s:
                acc ^= ctx.mul(coef, s)
        if acc:
            raise InconsistentWordError("known symbols contradict the row code")
    for pos, row in zip(positions, solve_rows):
        acc = 0
        for coef, s in zip(row, syndrome):
            if coef and s:
                acc ^= ctx.mul(coef, s)
        symbols[pos] = acc
        erased[pos] = False


# -- triangulated block system -------------------------------------------------


@lru_cache(maxsize=4096)
def _triangulate(ctx: FieldContext, col_blocks: tuple, n_rows: int) -> tuple:
    """Unit upper-triangular combination rows for the block ordering.

    Row r of the raw system carries coefficient alpha^(r j) on block j;
    eliminating the first n_rows ordered columns top-down yields rows whose
    leading 1 sits on successive ordered blocks.  Works because every
    leading minor is a Vandermonde determinant on distinct points.
    """
    rows = mx.vandermonde(ctx, n_rows, len(col_blocks)).data[:, list(col_blocks)]
    mx._eliminate(rows, ctx, n_rows)
    return tuple(map(tuple, rows.tolist()))


class _Uncorrectable(Exception):
    pass


def _decode_node(spec: NodeSpec, symbols, erased, report_levels=None, report_peel=None):
    ctx = spec.ctx
    m = block_count(spec)
    n_sub = length(spec.children[0])
    t = len(spec.children)
    child0 = spec.children[0]

    def block(j):
        return slice(j * n_sub, (j + 1) * n_sub)

    blocks = np.array(erased, dtype=bool).reshape(m, n_sub)
    level_arr = _chain_levels(spec.children, blocks)
    levels = level_arr.tolist()
    pending = []
    for j, hit in enumerate(blocks.any(axis=1).tolist()):
        if levels[j]:
            pending.append(j)
        elif hit:
            _decode_child(child0, symbols, erased, block(j))
            if report_peel is not None:
                report_peel.append(j)

    if report_levels is not None:
        report_levels.extend(levels)
    if _over_tails(level_arr, _chain_tails((spec,)))[0]:
        raise _Uncorrectable

    if not pending:
        return
    pending.sort(key=lambda j: (-levels[j], j))
    clean = [j for j in range(m) if j not in pending]
    order = pending + clean
    n_pending = len(pending)
    tri = _triangulate(ctx, tuple(order), n_pending)

    for k in range(n_pending - 1, -1, -1):
        j = order[k]
        lv = levels[j]
        row = tri[k]
        combo = [0] * n_sub
        for p in range(k + 1, m):
            coef = row[p]
            if not coef:
                continue
            src = symbols[block(order[p])]
            for x, sym in enumerate(src):
                if sym:
                    combo[x] ^= ctx.mul(coef, sym)
        sl = block(j)
        target = symbols[sl]
        target_erased = erased[sl]
        mixed = [a ^ b for a, b in zip(target, combo)]
        if lv == t:
            # the combination lies in the zero code: known part must vanish
            for x, e in enumerate(target_erased):
                if not e and mixed[x]:
                    raise InconsistentWordError("zero-code block combination is nonzero")
                mixed[x] = 0
        else:
            _decode_child(spec.children[lv], mixed, list(target_erased), slice(0, n_sub))
        symbols[sl] = [a ^ b for a, b in zip(mixed, combo)]
        erased[sl] = [False] * n_sub
        if report_peel is not None:
            report_peel.append(j)


def _decode_child(spec: CodeSpec, symbols, erased, sl):
    sub_sym = symbols[sl]
    sub_era = erased[sl]
    if isinstance(spec, LeafSpec):
        _decode_leaf(spec, sub_sym, sub_era)
    else:
        _decode_node(spec, sub_sym, sub_era)
    symbols[sl] = sub_sym
    erased[sl] = sub_era


def decode(spec: CodeSpec, word: SymbolWord, verify: bool = True):
    """Erasure decode; returns (word, DecodeReport).

    Every mask accepted by `correctable` is recovered.  On an uncorrectable
    mask the input word is returned unchanged with outcome "uncorrectable".
    Raises InconsistentWordError when the known symbols cannot belong to
    any codeword; `verify=False` skips the final membership check for
    inputs already known to be punctured codewords.
    """
    if len(word) != length(spec):
        raise ValueError(f"word length {len(word)} != code length {length(spec)}")
    check_symbols(word.symbols, spec.ctx.q)
    symbols = list(word.symbols)
    erased = list(word.erased)
    peel: list = []
    levels: list = []
    try:
        if isinstance(spec, LeafSpec):
            if sum(erased) > spec.u:
                raise _Uncorrectable
            _decode_leaf(spec, symbols, erased)
        else:
            _decode_node(spec, symbols, erased, levels, peel)
    except _Uncorrectable:
        report = DecodeReport(UNCORRECTABLE, tuple(levels), ())
        return word, report
    if verify and any(mx.mat_vec(build_parity_check(spec).reduced, symbols)):
        raise InconsistentWordError("known symbols contradict every codeword")
    out = SymbolWord(tuple(symbols), (False,) * len(symbols))
    return out, DecodeReport(RECOVERED, tuple(levels), tuple(peel))


# -- encoding --------------------------------------------------------------------


def encode(spec: CodeSpec, data) -> SymbolWord:
    """Systematic encode: data in layout order, parities solved by decoding."""
    data = list(data)
    k = dimension(spec)
    if len(data) != k:
        raise ValueError(f"data length {len(data)} != dimension {k}")
    check_symbols(data, spec.ctx.q)
    mask = parity_mask(spec)
    symbols = []
    it = iter(data)
    for p in mask:
        symbols.append(0 if p else next(it))
    word = SymbolWord(tuple(symbols), mask)
    out, report = decode(spec, word, verify=False)
    if report.outcome != RECOVERED:  # the parity layout is correctable by design
        raise AssertionError("systematic layout failed to decode")
    return out


# -- minimum-weight witness ---------------------------------------------------------


def min_weight_codeword(spec: CodeSpec) -> SymbolWord:
    """A codeword whose weight equals min_distance(spec)."""
    if dimension(spec) < 1:
        raise NoCodewordsError("zero-dimensional code")
    return SymbolWord.known(_min_weight_symbols(spec))


def _min_weight_symbols(spec: CodeSpec):
    ctx = spec.ctx
    if isinstance(spec, LeafSpec):
        if spec.u == 0:
            return [1] + [0] * (spec.n - 1)
        # weight-(u+1) codeword supported on positions 0..u: solve for the
        # nullspace of the u x (u+1) leading Vandermonde columns
        positions = tuple(range(1, spec.u + 1))
        solver = _leaf_solver(ctx, spec.n, spec.u, positions)
        solve_rows, _ = solver
        syndrome = [ctx.alpha_pow(0)] * spec.u  # column 0 carrying value 1
        out = [0] * spec.n
        out[0] = 1
        for pos, row in zip(positions, solve_rows):
            acc = 0
            for coef, s in zip(row, syndrome):
                if coef:
                    acc ^= ctx.mul(coef, s)
            out[pos] = acc
        return out
    m = block_count(spec)
    tails = tail_counts(spec)
    candidates = [
        (min_distance(ch) * (tails[j + 1] + 1), j)
        for j, ch in enumerate(spec.children)
        if tails[j + 1] < m
    ]
    _, j = min(candidates)
    deg = tails[j + 1]
    witness = _min_weight_symbols(spec.children[j])
    # expand v(x) = (x + 1)(x + alpha) ... (x + alpha^(deg-1)); all of its
    # coefficients are nonzero because deg <= m - 1 < order(alpha) + 1
    poly = [1]
    for i in range(deg):
        root = ctx.alpha_pow(i)
        nxt = [0] * (len(poly) + 1)
        for d, coef in enumerate(poly):
            nxt[d + 1] ^= coef
            nxt[d] ^= ctx.mul(root, coef)
        poly = nxt
    n_sub = length(spec.children[0])
    out = [0] * (m * n_sub)
    for s_idx, coef in enumerate(poly):
        base = s_idx * n_sub
        for x, sym in enumerate(witness):
            if sym:
                out[base + x] = ctx.mul(coef, sym)
    return out


# -- brute force (guard rail for tests and the CLI) -----------------------------------


def brute_force_min_weight(spec: CodeSpec, limit: int = 1 << 24) -> int:
    """Minimum nonzero codeword weight by enumerating all q^k data vectors."""
    import itertools

    k = dimension(spec)
    q = spec.ctx.q
    if k < 1:
        raise NoCodewordsError("zero-dimensional code")
    total = q ** k
    if total > limit:
        raise ValueError(f"q^k = {total} exceeds enumeration guard {limit}")
    n = length(spec)
    gen = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        unit = [0] * k
        unit[i] = 1
        gen[i] = encode(spec, unit).symbols
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
