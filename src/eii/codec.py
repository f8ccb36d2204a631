"""Systematic encoder and recursive erasure decoder for EII codes.

The decoder is one recursion, `_repair`, that follows the constructive
correctability proof: blocks that the weakest child code can already
repair are fixed first; the remaining erased blocks are ordered by the
strength of the child code they need (strongest first, ties by block
index); the weighted-sum constraints are triangulated over that ordering;
and blocks are peeled off the bottom of the triangle, each time combining
the target block with already-known blocks so the result lands in a child
code that can finish the repair.  It writes only erased symbols.  A block
in the implicit zero code is peeled like any other, with the erased
entries of its combination set to zero.  `decode` runs it on a mask's
first sighting only: from the second on, a repeated mask, as from a failed
device, is filled by one product with its plan from `pcheck._plan`, the
table that encoding and `pc_decode` use too.  On a first sighting, when
the weakest leaf code has a check, one vectorized pass first fills every
row that has one erasure from its own sum, since the leaf's first check
is the all-ones row; such a row sits at level 0 and changes no level or
report, so `_repair` finds it known.

Guaranteed correctability is one rule, the package's only one, with two
entries.  `_rejection_times` takes the time at which each position is
erased and sorts each leaf row of those times in place;
`_sorted_rejection_times`, the rule's one body, takes times whose leaf rows
are already sorted.  It returns the first prefix that each code of a
nested chain rejects, and the same for every block below.  A code's time
is an order statistic of its blocks' times, so the rule is one sort per
tree level above the leaves.  A mask is the order that erases its
positions at time 0 and the rest never.
`correctable` reads the top code's time.  `_chain_levels` turns a mask's
times into levels: each block's weakest child that can repair it.
`decode` takes them once per mask, for its verdict and for every node's
block levels, and keeps the report in the bounded memo `_outcome`, with
the levels until the mask's first decode takes them.  So a repeated mask
costs one plan fill and no capability rule.  `anetf` reads the top time
along whole erasure orders from the body, on leaf-sorted times it keeps
beside the orders.  Every entry point validates its spec first;
`decode`, `encode` and `is_codeword` do so through `build_parity_check`,
whose memo makes a replay pay nothing.

Encoding does not use the decoder: data fills the systematic positions,
every parity position is an erasure, and one lookup in the plan table
`pcheck._plan` gives the plan of that mask against the reduced
parity-check matrix, whose product fills them.

The decoder works in place on numpy views of one symbol array: a node
reshapes its word into blocks, a leaf block is filled by the plan of its
row code's mask from the same table, and each peel combines the
known blocks with one multiplication-table gather and an XOR-reduce.  The
block triangulations have a closed form, the Newton form of a Vandermonde
LU, kept as flat multiplication-table offsets, as plans keep their rows,
so each peel gathers its products in one `take`.  Membership is one
product, the fill of the reduced parity-check matrix's plan with nothing
erased, from the same table, whose checks are the matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codespec import (
    CodeSpec,
    LeafSpec,
    NodeSpec,
    block_count,
    dimension,
    _weakest_term,
    length,
    row_length,
    spec_lru_cache,
    tail_counts,
    validate,
)
from .gf import FieldContext
from .matrix import InconsistentWordError
from .pcheck import PLAN_SIGHTINGS, _plan, build_parity_check
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
def _chain_tails(chain: tuple) -> tuple:
    """The plan by which `_rejection_times` reads the times below `chain`.

    A member rejects once more than its tail of the items below are
    rejected: u of a leaf's positions, or tail_i of a node's blocks at
    child i - 1.  The plan holds the order-statistic index, clamped to the
    last item; the axis of the children, which only a node reads; and
    where a tail reaches the item count, so that no prefix trips that term
    (None if nowhere).
    """
    leaf = isinstance(chain[0], LeafSpec)
    tails = np.array([ch.u if leaf else tail_counts(ch)[1:] for ch in chain])
    size = chain[0].n if leaf else block_count(chain[0])
    past = tails >= size
    return np.minimum(tails, size - 1), np.arange(tails.shape[-1]), past if past.any() else None


def _rejection_times(chain: tuple, when: np.ndarray, never) -> list:
    """The first rejected prefix of each member of `chain`, then of every
    block below it: the package's one capability rule.

    `chain` is a strictly nested tuple of siblings sharing their children;
    `when` is (..., N), the time at which each position is erased.  Each
    leaf row of `when` is sorted in place, and `_sorted_rejection_times`
    reads the rule off the sorted rows.
    """
    when.reshape(when.shape[:-1] + (-1, row_length(chain[0]))).sort(axis=-1)
    return _sorted_rejection_times(chain, when, never)


def _sorted_rejection_times(chain: tuple, when: np.ndarray, never) -> list:
    """`_rejection_times` on erasure times whose leaf rows are each sorted.

    Entry 0, (..., C), holds each member's time; entry d, (..., m_1, ...,
    m_d, C_d), the times of every depth-d block against the chain of C_d
    children the members share at that depth.  A leaf rejects at its
    (u + 1)-th erasure, the (u + 1)-th time of its sorted row.  A block
    reaches level i when child i - 1 rejects it, so a node rejects at the
    least, over i, of the (tail_i + 1)-th smallest time of child i - 1 over
    its blocks.  A term that never trips gives `never`.  `when` is only
    read.
    """
    head = chain[0]
    index, axis, past = _chain_tails(chain)
    # fancy indexing lays each gather out member-major, so the sort a level
    # up runs over contiguous block times; a C-ordered `take` doubled the
    # walk's time on 1,000-trial batches
    if isinstance(head, LeafSpec):
        below, at = [], when[..., index]
    else:
        shape = when.shape[:-1] + (block_count(head), -1)
        below = _sorted_rejection_times(head.children, when.reshape(shape), never)
        at = np.sort(below[0], axis=-2)[..., index, axis]  # a copy: below keeps its block order
    if past is not None:
        at[..., past] = never
    return [at.min(axis=-1) if below else at, *below]


def _chain_levels(chain: tuple, masks: np.ndarray) -> list:
    """Levels of each mask against `chain`, then of every block below it.

    `masks` is boolean, (..., N).  Entry 0, shape (...), is the index of the
    weakest member guaranteed to correct each mask (len(chain) if none);
    entry d, shape (..., m_1, ..., m_d), is every depth-d block's level.
    A mask is the erasure order with its positions at time 0 (False) and
    the rest at `never` (True).  Nesting makes the members that reject it
    a prefix of the chain, so a level counts the times that are 0.
    """
    return [(~t).sum(axis=-1) for t in _rejection_times(chain, ~masks, True)]


def correctable(spec: CodeSpec, mask) -> bool:
    """Guaranteed-correctability test for an erasure mask."""
    validate(spec)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (length(spec),):
        raise ValueError(f"mask shape {mask.shape} != ({length(spec)},)")
    return bool(_rejection_times((spec,), ~mask, True)[0][0])  # True: never rejected


# -- membership ----------------------------------------------------------------


def is_codeword(spec: CodeSpec, word: SymbolWord) -> bool:
    """Membership test H . c = 0; the word must be fully known."""
    pc = build_parity_check(spec)
    symbols, erased = word_arrays(word, pc.layers[0], spec.ctx.q)
    if erased.any():
        raise ValueError("membership test needs a fully known word")
    try:  # the plan with nothing erased is always solvable: fill returns True
        return _plan(pc.reduced, erased.tobytes()).fill(symbols)
    except InconsistentWordError:
        return False


# -- systematic layout ----------------------------------------------------------


@spec_lru_cache
def parity_mask(spec: CodeSpec) -> tuple:
    """True at parity positions of the systematic layout.

    Leaves keep their u parity symbols last; a node lays out s_i blocks per
    child with that child's own layout, then s_t all-parity blocks.
    """
    validate(spec)
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

    Row r of the raw system carries alpha^(r j) = x_j^r on block j.
    Eliminating the first n_rows ordered columns top-down leaves in row k
    p_k(x) = prod_{l<k} (x - x_{c_l}) scaled to 1 at x_{c_k}, the Newton
    form of a Vandermonde LU (Bjorck and Pereyra, Math. Comp. 24, 1970): so
    entry (k, i) is p_k(x_{c_i}) / p_k(x_{c_k}), 0 for i < k, computed here
    as a cumulative sum of discrete logs, and kept as `FieldContext.offsets`.
    """
    exp, log, m = ctx.exp_table, ctx.log_table, len(col_blocks)
    x = exp[list(col_blocks)]
    logs = np.zeros((n_rows, m), dtype=np.int64)
    np.cumsum(log[x[:n_rows - 1, None] ^ x], axis=0, out=logs[1:])
    tri = ctx.offsets(exp[(logs - logs.diagonal()[:, None]) % (ctx.q - 1)])
    tri *= np.arange(m) >= np.arange(n_rows)[:, None]  # zero below the diagonal
    tri.setflags(write=False)
    return tri


def _schedule(top: list, era: np.ndarray) -> tuple:
    """A node's erased blocks at level 0, in index order, and the blocks
    of every other level, strongest first and ties by index: the order in
    which the latter are triangulated, and the reverse of their peeling."""
    local = [j for j, hit in enumerate(era.any(axis=1).tolist()) if hit and not top[j]]
    return local, sorted((j for j in range(len(top)) if top[j]), key=lambda j: (-top[j], j))


def _repair(spec: CodeSpec, symbols, erased, levels: list) -> None:
    """Fill the erased symbols of a correctable block in place.

    `levels` is the block's share of `_chain_levels`: entry d holds the
    levels of its blocks d + 1 layers down.
    """
    if isinstance(spec, LeafSpec):
        # the block's pattern passed the capability rule: the plan is solvable
        _plan(build_parity_check(spec).reduced, erased.tobytes()).fill(symbols)
        return
    m = block_count(spec)
    sym, era = symbols.reshape(m, -1), erased.reshape(m, -1)
    top = levels[0].tolist()
    local, pending = _schedule(top, era)
    for j in local:
        _repair(spec.children[0], sym[j], era[j], [lv[j] for lv in levels[1:]])
    if not pending:
        return
    cols = pending + [j for j in range(m) if not top[j]]
    tri = _triangulate(spec.ctx, tuple(cols), len(pending))
    cols = np.array(cols)
    for k in range(len(pending) - 1, -1, -1):
        j = pending[k]
        known = sym.take(cols[k + 1:], axis=0)
        combo = spec.ctx.dot(tri[k, k + 1:, None], known, axis=0)
        mixed = sym[j] ^ combo
        if top[j] == len(spec.children):
            mixed[era[j]] = 0  # the combination lies in the zero code
        else:
            _repair(spec.children[top[j]], mixed, era[j], [lv[j] for lv in levels[1:]])
        sym[j] = mixed ^ combo


def _fill_single_erasure_rows(symbols, erased, n: int) -> None:
    """Fill every row of length n that has one erasure from its own sum,
    and clear that erasure.

    Every row of a codeword lies in the weakest leaf code, whose first
    check, when it has one, is the all-ones row.  A row with one erasure
    sits at level 0 and raises no block's level, so `_repair` runs on the
    same levels and finds the row known.
    """
    rows, sym = erased.reshape(-1, n), symbols.reshape(-1, n)
    single = rows & (rows.sum(axis=1) == 1)[:, None]
    sym ^= single * np.bitwise_xor.reduce(sym, axis=1)[:, None]
    rows ^= single


@lru_cache(maxsize=PLAN_SIGHTINGS)
def _outcome(spec: CodeSpec, bits: bytes) -> tuple:
    """`decode`'s record of the mask whose bool bytes are `bits`: its report,
    then a one-slot list holding the `_chain_levels` levels `_repair` takes.

    One `_chain_levels` pass gives the verdict, the assignment and every
    node's block levels; the peel order is the top level's erased level-0
    blocks, then its other blocks in peeling order.  All of it depends on
    the mask alone, so a repeated mask runs no capability rule.  The list
    of a correctable mask is emptied by its first decode, so from then on
    the record holds its report alone; that of any other mask stays empty.
    """
    erased = np.frombuffer(bits, dtype=bool)
    verdict, *levels = _chain_levels((spec,), erased)
    assignment = tuple(levels[0].tolist()) if levels else ()
    if verdict:
        return DecodeReport(UNCORRECTABLE, assignment, ()), []
    order = ()
    if levels:
        local, pending = _schedule(assignment, erased.reshape(len(assignment), -1))
        order = (*local, *reversed(pending))
    return DecodeReport(RECOVERED, assignment, order), [levels]


def decode(spec: CodeSpec, word: SymbolWord):
    """Erasure decode; returns (word, DecodeReport).

    A mask's report and block levels come from its record in the memo
    `_outcome`, keyed by (spec, mask bytes) and bounded like `pcheck`'s
    sightings, so only a mask's first call runs the capability rule.  A
    mask accepted by `correctable` is recovered; on any other the input
    word comes back unchanged as "uncorrectable", and nothing is repaired.
    A correctable mask's first decode takes the levels out of its record:
    rows with one erasure are filled from their sums when the weakest leaf
    code has a check, `_repair` fills the rest and a membership check
    follows.  Every later decode finds none there and fills the word in
    one product with the plan of the mask against the reduced parity-check
    matrix, from the table `pc_decode` and `encode` share.  The erased
    columns of a correctable mask are independent, so both give the one
    completion, and both raise InconsistentWordError with one message when
    the known symbols fit no codeword.  Decoding writes only erased
    positions.
    """
    pc = build_parity_check(spec)
    symbols, erased = word_arrays(word, pc.layers[0], spec.ctx.q)
    bits = erased.tobytes()
    report, held = _outcome(spec, bits)
    if report.outcome == UNCORRECTABLE:
        return word, report
    try:
        if held:
            if isinstance(spec, NodeSpec) and pc.u0:
                _fill_single_erasure_rows(symbols, erased, pc.layers[-1])
            _repair(spec, symbols, erased, held.pop())
            _plan(pc.reduced, bytes(len(bits))).fill(symbols)
        else:
            _plan(pc.reduced, bits).fill(symbols)
    except InconsistentWordError:
        raise InconsistentWordError("known symbols contradict every codeword") from None
    return SymbolWord._from_array(symbols), report


# -- encoding --------------------------------------------------------------------


def encode(spec: CodeSpec, data) -> SymbolWord:
    """Systematic encode: the data fills the systematic positions in layout
    order, and the parities come from one lookup in the plan table: the
    plan of `parity_mask(spec)` against the reduced parity-check matrix,
    built on a code's first encode and replayed from then on."""
    pc = build_parity_check(spec)
    data = list(data)
    k = dimension(spec)
    if len(data) != k:
        raise ValueError(f"data length {len(data)} != dimension {k}")
    check_symbols(data, spec.ctx.q)
    bits = bytes(parity_mask(spec))
    syms = np.zeros(len(bits), dtype=np.uint8)
    syms[~np.frombuffer(bits, dtype=bool)] = data
    if not _plan(pc.reduced, bits).fill(syms):
        raise AssertionError("systematic parity columns are dependent")
    return SymbolWord._from_array(syms)


# -- minimum-weight witness ---------------------------------------------------------


def min_weight_codeword(spec: CodeSpec) -> SymbolWord:
    """A codeword whose weight equals min_distance(spec)."""
    validate(spec)
    if dimension(spec) < 1:
        raise NoCodewordsError("zero-dimensional code")
    return SymbolWord._from_array(_min_weight_symbols(spec))


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
    # 2-D gathers: faster than mul_arrays on deg + 1 coefficients and one row
    poly = np.ones(1, dtype=np.uint8)
    for root in ctx.exp_table[:deg]:
        poly = np.append(0, poly) ^ np.append(ctx.mul_table[root, poly], 0)
    out = np.zeros((block_count(spec), len(witness)), dtype=np.uint8)
    out[:deg + 1] = ctx.mul_table[poly[:, None], witness]
    return out.ravel()


# -- brute force (guard rail for tests and the CLI) -----------------------------------


BRUTE_FORCE_GUARD = 1 << 24  # the most data vectors brute_force_min_weight enumerates


def brute_force_min_weight(spec: CodeSpec) -> int:
    """Minimum nonzero codeword weight by enumerating all q^k data vectors."""
    validate(spec)
    k, q = dimension(spec), spec.ctx.q
    if k < 1:
        raise NoCodewordsError("zero-dimensional code")
    if q ** k > BRUTE_FORCE_GUARD:
        raise ValueError(f"refusing brute force: q^k = {q}^{k} exceeds the enumeration guard")
    n, total = length(spec), q ** k
    gen = np.array([word_arrays(encode(spec, unit), n, q)[0] for unit in np.eye(k, dtype=int).tolist()])
    powers = q ** np.arange(k)
    chunk = max(1, (1 << 18) // n)
    best = n
    for start in range(1, total, chunk):  # data vector i has digit j = i // q**j % q; 0 is skipped
        digits = np.arange(start, min(start + chunk, total))[:, None] // powers % q
        words = spec.ctx.dot(spec.ctx.offsets(digits[:, :, None]), gen, axis=1)
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
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
