"""Monte-Carlo estimation of the average number of erasures to failure.

Symbols are erased one at a time in a uniformly random order; a trial's
failure count is the number of erasures present the first time the chosen
decoding oracle rejects the pattern.  Two oracles are supported: the
guaranteed-capability predicate of `codec` and parity-check decoding (erased
columns of the reduced matrix stay linearly independent).  Both oracles walk
a whole batch of trials at once; a single permutation is a batch of one.
Every entry checks its spec and mode in `AnetfConfig` first.  Each oracle's
count is a walk over a stage: arrays per trial that depend only on the
erasure orders and a few numbers of the code, its stage key.  The capability
stage (`_leaf_times`) is each trial's erasure times grouped by leaf row and
sorted within each row, keyed by the row length; its walk is the body of
`codec`'s one rule, `_sorted_rejection_times`, and the count is the time at
which the code first rejects.  The pcheck stage (`_residuals`) is the
erasure times of each trial's residuals, keyed by the split's block length,
u0 and t and how many erasures and residuals are read.  The pcheck walk is
local to the layer whose block sums give the most checks
(`pcheck._local_split`): with t of them, the first erasures of t distinct
blocks are always independent, and each further erasure adds one residual
column in the r' = rows - t dimensions that are left.  A later erasure of a
block gives the difference of two columns, and the first erasure of a block
beyond the t free ones the combination of t + 1 columns by the dual weights
of the Vandermonde checks; an MDS leaf, whose rows are all leaf-local,
leaves r' = 0.  One batched forward elimination over each trial's first
r' + 1 residuals, one residual per step, finds the first dependent one.  The
residuals are packed into uint64 lanes, so a step clears its lead lane from
every later residual of every trial with one gather from the step residual's
`FieldContext.multiples` and one XOR per word.  Batches are capped so their
working arrays stay within a fixed memory budget.

Determinism: trial i draws its permutation from a Philox stream keyed by
(seed, i), so reports are bit-identical for a given (seed, trials, mode)
no matter how trials are batched.  A chunk of trials builds one Philox and
resets it before trial i to key (seed, i) and counter 0, as a new one would
start.  The orders depend only on (seed, trials, n), so `simulate` keeps
those of its latest key, in the narrowest unsigned dtype, and every mode
and code of that length reuses them.  Beside them it keeps each stage it
derives from them, once per stage key over every kept order, so codes
that share a key share the stage.  The orders and stages together stay
within _PERMS_BYTES: orders that would pass it are drawn afresh per batch,
and a stage that would pass it is derived per batch, by the same function.
A stage holds per-trial rows, so neither changes a report.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from . import codec, pcheck
from .codespec import CodeSpec, LeafSpec, block_count, dimension, length, row_length, validate

CAPABILITY = "capability"
PCHECK = "pcheck"
MODES = (CAPABILITY, PCHECK)


class InvalidPermutationError(ValueError):
    pass


@dataclass(frozen=True)
class AnetfConfig:
    spec: CodeSpec
    mode: str = CAPABILITY
    trials: int = 200_000
    seed: int = 0

    def __post_init__(self):
        validate(self.spec)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if type(self.trials) is not int or self.trials < 1:
            raise ValueError("trials must be an integer >= 1")
        if type(self.seed) is not int or not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an integer in 0..2**64-1")


@dataclass(frozen=True)
class AnetfReport:
    mean: float
    std_error: float
    histogram: dict
    trials: int
    seed: int
    mode: str


# -- batched simulation ---------------------------------------------------------------


def _trial_permutations(seed: int, start: int, count: int, n: int) -> np.ndarray:
    out = np.tile(np.arange(n, dtype=np.int64), (count, 1))
    bitgen = np.random.Philox(key=seed)
    fresh = bitgen.state  # key (seed, 0), counter 0, empty buffer
    shuffle = np.random.Generator(bitgen).shuffle  # permutation(n) shuffles arange(n)
    for i, row in enumerate(out):
        fresh["state"]["key"][1] = start + i
        bitgen.state = fresh
        shuffle(row)
    return out


class _KeptOrders:
    """The erasure orders `simulate` keeps between calls, and the stages of
    the walks derived from them.

    `perms` holds the (trials, n) orders of one (seed, trials, n),
    read-only and in the narrowest unsigned dtype.  `stages` maps each
    (stage function, arguments) pair that `stage` was asked for to its
    arrays over every kept order, or to None when they did not fit.  A
    stage is a tuple of arrays with one row per order.
    """

    def __init__(self, perms: np.ndarray):
        self.perms = perms
        self.stages = {}

    def stage(self, derive, args: tuple, step: int):
        """derive(orders, *args) over every kept order, computed on the first
        request in chunks of `step` orders and kept from then on.

        Each array is stored read-only in the narrowest unsigned dtype that
        holds an erasure time, and the walks read it by slice.  A stage that
        would take the orders and their stages past _PERMS_BYTES is not
        kept: the answer is None, then and on every later request, and
        `simulate` derives it per batch with the same function.
        """
        key = (derive, args)
        if key not in self.stages:
            self.stages[key] = self._fill(derive, args, step)
        return self.stages[key]

    def _fill(self, derive, args: tuple, step: int):
        trials, n = self.perms.shape
        dtype = np.min_scalar_type(n)
        held = self.perms.nbytes + sum(a.nbytes for st in self.stages.values() if st for a in st)
        out = None
        for start in range(0, trials, step):
            part = derive(self.perms[start:start + step], *args)
            if out is None:
                if held + trials * dtype.itemsize * sum(a.shape[1] for a in part) > _PERMS_BYTES:
                    return None
                out = tuple(np.empty((trials, a.shape[1]), dtype) for a in part)
            for whole, a in zip(out, part):
                whole[start:start + len(a)] = a
        for whole in out:
            whole.flags.writeable = False
        return out


@functools.lru_cache(maxsize=1)
def _kept_permutations(seed: int, trials: int, n: int) -> _KeptOrders:
    """The kept record of the (trials, n) orders of `_trial_permutations`.

    The orders are filled in chunks, so the int64 temporaries stay within
    _BATCH_BYTES.  They are drawn as int64 and stored narrow because
    shuffling narrow rows is slower: 4.3 ms against 3.6 ms per 1,000 orders
    of 84 as uint8 (thread CPU, median of 40 interleaved draws).  The record
    of the previous key, its stages included, is dropped before the new
    orders are drawn.
    """
    _kept_permutations.cache_clear()  # runs only on a miss
    out = np.empty((trials, n), dtype=np.min_scalar_type(n - 1))
    step = max(1, _BATCH_BYTES // (8 * n))
    for start in range(0, trials, step):
        out[start:start + step] = _trial_permutations(seed, start, min(step, trials - start), n)
    out.flags.writeable = False
    return _KeptOrders(out)


def _leaf_times(perms: np.ndarray, n: int) -> tuple:
    """The capability walk's stage: (when,), each order's erasure times
    (from 1) grouped by leaf row of length n and ascending within each row,
    in the narrowest unsigned dtype.

    These are the times of `codec._rejection_times`, when[b, perms[b, i]] =
    i + 1, with every leaf row sorted.  A stable argsort of the row that
    each erasure hits lists each row's erasures in time order, rows in
    order; the row index is narrow, so numpy radix-sorts it.
    """
    size = perms.shape[1]
    rows = (perms // n).astype(np.min_scalar_type(size // n - 1), copy=False)
    when = np.argsort(rows, axis=1, kind="stable")
    when += 1
    return (when.astype(np.min_scalar_type(size)),)


def _capability_walk(spec: CodeSpec, perms: np.ndarray, stage: tuple) -> np.ndarray:
    """Failure count per order under `codec`'s capability predicate, from
    the stage of `_leaf_times`.

    The count is the time at which the code first rejects under `codec`'s
    rule, capped at n.  The walk runs on int32 times: a batch's arrays take
    half the memory of int64 ones, and numpy sorts uint8 ones more slowly
    (0.77 against 0.22 ms for the (1000, 12, 3) block times of a flat Table
    1 row, thread CPU, median of 40).
    """
    (when,) = stage
    return codec._sorted_rejection_times((spec,), when.astype(np.int32), perms.shape[1])[0][:, 0]


def _capability_counts(spec: CodeSpec, perms: np.ndarray) -> np.ndarray:
    """Failure count per order under `codec`'s capability predicate: the
    walk `_capability_walk` over the stage `_leaf_times`."""
    return _capability_walk(spec, perms, _leaf_times(perms, row_length(spec)))


def _dual_weights(ctx, blocks: np.ndarray, m: int) -> np.ndarray:
    """w_i = prod_{j != i} (alpha^b_i - alpha^b_j)^-1 along the first axis
    of `blocks`, (t + 1, R): R sets of t + 1 distinct blocks below m < q.

    These are the dual weights of the Vandermonde columns at the points
    alpha^b: sum_i w_i alpha^(r b_i) = 0 for every r < t, so they combine
    the columns of V(t, M) at the t + 1 blocks to zero, and none is zero.
    The log of w_i is minus the sum over the set of log(alpha^b_i -
    alpha^b_j), one product of the m x m table of those logs with the sets'
    0/1 membership columns.
    """
    log, exp = ctx.log_table, ctx.exp_table
    logs = log[exp[:m, None] ^ exp[:m]]
    np.fill_diagonal(logs, 0)
    member = np.zeros((m, blocks.shape[1]), dtype=logs.dtype)  # integers: no BLAS call
    np.put_along_axis(member, blocks, 1, axis=0)
    return exp[-np.take_along_axis(logs @ member, blocks, axis=0) % (ctx.q - 1)]


def _pcheck_key(spec: CodeSpec) -> tuple:
    """The arguments of the pcheck walk's stage `_residuals` after the
    orders: the (n, u0, t) of the split of `pcheck._local_split`, the
    erasures read, rank + 1, and the residuals kept, r' + 1."""
    pc = pcheck.build_parity_check(spec)
    split = pcheck._local_split(pc)
    return split.n, split.u0, split.t, pc.rank + 1, split.qt.shape[1] + 1


def _residuals(perms: np.ndarray, n: int, u0: int, t: int, first: int, count: int) -> tuple:
    """The pcheck walk's stage: (times, before, free), the erasure times
    (from 0) of each trial's first `count` residuals in a split with blocks
    of length n, u0 free erasures per free block and t free blocks, the
    time of the erasure each is taken against, and the first-erasure times
    of each trial's free blocks.

    Only the first `first` erasures are read, and they must hold `count`
    residuals.  Sorted by (block, time), an erasure is late when the one u0
    places before it lies in the same block; the one just before it then
    does too, and is what it is taken against.  Every other erasure is
    among the first u0 of its block, and with u0 = 1 it is the block's
    first.  When t is below the block count, the first erasures of the t
    earliest blocks are free, the t smallest of these times per trial, and
    a later block's first erasure is a residual too, taken against `first`
    to mark it.  The free times are empty when every block is free.
    """
    bits = first.bit_length()
    key = np.sort((perms[:, :first] // n).astype(np.int64, copy=False) << bits | np.arange(first))
    block, when = key >> bits, key & (1 << bits) - 1
    late = np.full(key.shape, first << bits)
    late[:, u0:] = np.where(block[:, u0:] == block[:, :first - u0],
                            when[:, u0:] << bits | when[:, u0 - 1:first - 1], late[:, u0:])
    free = when[:, :0]
    if t * n < perms.shape[1]:  # then u0 = 1
        heads = np.where(late == first << bits, when, first)
        free = np.partition(heads, t - 1, axis=1)[:, :t] if t else heads[:, :0]
        later = heads > (free[:, t - 1:] if t else -1)
        late = np.where(later & (heads < first), when << bits | first, late)
    late = np.sort(late)[:, :count]
    return late >> bits, late & (1 << bits) - 1, free


def _pcheck_walk(spec: CodeSpec, perms: np.ndarray, stage: tuple) -> np.ndarray:
    """Failure count per permutation under parity-check decoding, from the
    stage of `_residuals`.

    The count is the first k at which the erased columns h[:, perm[:k]] of
    the reduced matrix are linearly dependent; any rows + 1 columns are, so
    only each trial's first rows + 1 erasures are read.  In the basis
    [L; Q] of `pcheck._local_split` the first erasures of t distinct blocks
    (the first u0 of each, for leaf-local rows) are always independent, and
    each later erasure e adds one residual column in the r' dimensions of
    Q, which is zero in L.  There is one rule for it:
      - a later erasure of a block gives Q[:, e] - Q[:, e'], with e' the
        block's previous erasure: e's column less e''s;
      - the first erasure f of a block beyond the t free ones gives
        sum_S w_i Q[:, f_i] over S, the free blocks' first erasures f_i and
        f itself, with the dual weights w of V(t, M) at their blocks
        (`_dual_weights`): the combination of their columns that is zero
        in L.
    Each residual is the erasure's column less earlier columns, so every
    prefix spans the same space, and the erasures are dependent exactly
    when the residuals are.  With r' = 0 no residual is read, and with
    t = 0 every erasure is one.  Any r' + 1 residuals are dependent, and
    the first rows + 1 erasures hold at least that many, so one forward
    elimination over each trial's first r' + 1 residuals decides it.
    Residuals are kept packed (`Split.lanes`), so adding them is one XOR
    per word.  Step s takes residual s, already cleared at the lead lanes
    of residuals 0 .. s-1.  Each of those is zero at the lead lanes before
    its own and nonzero at its own, so residual s is dependent on them
    exactly when it is zero; that trial fails at its erasure time and
    leaves the batch.  Otherwise its lowest nonzero lane is its lead
    (`FieldContext.lead`), and each later residual loses c / lead times it,
    c being its own entry in that lane: one `take` from the
    `FieldContext.multiples` of residual s and one XOR.  Which lane leads
    changes no count, only the basis.
    Trials that never fail get the time of residual r'.
    """
    pc = pcheck.build_parity_check(spec)
    split = pcheck._local_split(pc)
    ctx = spec.ctx
    trials, rest, first = perms.shape[0], split.qt.shape[1], pc.rank + 1
    times, before, free = stage
    r = split.lanes.take(np.take_along_axis(perms, times, axis=1).T, axis=0)  # (r' + 1, trials, words)
    if rest:
        r ^= split.lanes.take(np.take_along_axis(perms, np.minimum(before, first - 1), axis=1).T, axis=0)
        if split.t * split.n < perms.shape[1]:  # some first erasures are residuals
            trial, slot = np.nonzero(before == first)
            group = np.vstack([np.take_along_axis(perms, free, axis=1)[trial].T,
                               perms[trial, times[trial, slot]]])  # (t + 1, residuals)
            weights = _dual_weights(ctx, group // split.n, perms.shape[1] // split.n)
            r[slot, trial] = ctx.pack(ctx.dot(split.offsets.take(group, axis=0), weights[:, :, None], axis=0))
    r = np.ascontiguousarray(r.transpose(0, 2, 1))  # (r' + 1, words, trials)
    times = times + 1  # a kept stage is read-only
    counts = times[:, rest].astype(np.int64)
    ids = np.arange(trials)
    for s in range(rest):
        dead = ~r[0].any(axis=0)
        if dead.any():
            counts[ids[dead]] = times[ids[dead], s]
            ids, r = ids[~dead], r.compress(~dead, axis=2)
        if not ids.size:
            break
        at = np.arange(ids.size)
        word, shift, lead = ctx.lead(r[0])
        coef = r[1:].reshape(rest - s, -1).take(word * ids.size + at, axis=1)  # (later residuals, trials)
        scale = ctx.mul_arrays(ctx.inv_table[lead], ((coef >> shift) & ctx.q - 1).view(np.int64))
        table = ctx.multiples(r[0]).reshape(r.shape[1], -1)
        r = r[1:] ^ table.take(scale.astype(np.intp) * ids.size + at, axis=1).transpose(1, 0, 2)
    return counts


def _pcheck_counts(spec: CodeSpec, perms: np.ndarray) -> np.ndarray:
    """Failure count per permutation under parity-check decoding: the walk
    `_pcheck_walk` over the stage `_residuals`."""
    return _pcheck_walk(spec, perms, _residuals(perms, *_pcheck_key(spec)))


_COUNTS = {CAPABILITY: _capability_counts, PCHECK: _pcheck_counts}

_BATCH_BYTES = 16 << 20  # cap on the working arrays of one simulate batch
_PERMS_BYTES = 80 << 20  # cap on the erasure orders simulate keeps between calls, with their stages


def _batch_trials(spec: CodeSpec, mode: str) -> int:
    """Trials per batch that keep its largest arrays within _BATCH_BYTES.

    Per trial these are the int64 permutation, plus either the capability
    stage and walk's arrays or the pcheck ones.  The capability stage holds
    10 bytes per position: its int64 argsort, the narrow row index it sorts
    and the narrow times it returns.  The walk holds an int32 copy of those
    times, and at each tree level the int32 rejection times it returns
    (blocks x members), which the list of levels keeps alive to the end; at
    a node also the sorted copy of the times below (blocks x children) and
    the order statistics it gathers from it (blocks x members x children).
    Counting every level at once bounds what is live.  The pcheck stage's
    sorts of its first rows + 1 erasures hold at most ten int64 keys and
    temporaries per erasure.  The walk's elimination holds the r' + 1
    packed residuals, words x 8 bytes each with words = ceil(r' / (64 //
    w)), and either the second gather they are summed with or the copy each
    step makes of them; at each step, the table of the q multiples of the
    step's residual, the r' multiples gathered from it, and 32 bytes of
    coefficient and index temporaries per later residual.
    Each first erasure of a block beyond the t free ones, at most one per
    such block and r' + 1 in all, gathers (t + 1) x r' entries of Q for its
    dual weights, with 6 bytes of gather and product temporaries per entry,
    and packs the sum in two uint64 temporaries of 64 // w lanes per word.
    The orders `simulate` keeps between calls and their stages sit outside
    this budget, under _PERMS_BYTES, and so do the forms of Q^T that
    `pcheck._local_split` caches per parity check, N x (3 r' + 8 words)
    bytes.
    """
    n = length(spec)
    if mode == CAPABILITY:
        words, blocks, chain = n, 1, (spec,)
        while not isinstance(chain[0], LeafSpec):
            m, t = block_count(chain[0]), len(chain[0].children)
            words += blocks * (len(chain) * (t + 1) + m * t)
            blocks, chain = blocks * m, chain[0].children
        extra = 10 * n + 4 * (words + blocks * len(chain))
    else:
        pc = pcheck.build_parity_check(spec)
        split = pcheck._local_split(pc)
        rest, beyond = split.qt.shape[1], n // split.n - split.t
        size = 8 * split.lanes.shape[1]  # bytes of one packed residual
        extra = 80 * (pc.rank + 1) + size * (3 * rest + 2 + spec.ctx.q) + 32 * rest
        extra += min(beyond, rest + 1) * (6 * (split.t + 1) * rest + 2 * (64 // spec.ctx.w) * size)
    return max(1, _BATCH_BYTES // (8 * n + extra))


def erasures_to_failure(spec: CodeSpec, mode: str, permutation) -> int:
    """Smallest k for which the first k erased positions are uncorrectable.

    A zero-dimensional code stores nothing and is counted as failing at the
    first erasure.  The count comes from the batched walk of `simulate`,
    run on a batch of one permutation.
    """
    AnetfConfig(spec, mode)  # the spec and mode checks of `simulate`
    perm = list(permutation)
    if not all(isinstance(p, (int, np.integer)) and not isinstance(p, bool) for p in perm):
        raise InvalidPermutationError("permutation entries must be integers")
    if sorted(perm) != list(range(length(spec))):
        raise InvalidPermutationError(f"not a permutation of 0..{length(spec) - 1}")
    if dimension(spec) == 0:
        return 1
    return int(_COUNTS[mode](spec, np.array([perm], dtype=np.int64))[0])


def simulate(config: AnetfConfig) -> AnetfReport:
    """Monte-Carlo ANETF estimate; deterministic for a fixed (seed, trials, mode)
    however the trials are batched (see `_batch_trials`)."""
    spec = config.spec
    n = length(spec)
    all_counts = []
    if dimension(spec) == 0:
        all_counts.append(np.ones(config.trials, dtype=np.int64))
    else:
        if config.mode == CAPABILITY:
            derive, args, walk = _leaf_times, (row_length(spec),), _capability_walk
        else:
            derive, args, walk = _residuals, _pcheck_key(spec), _pcheck_walk
        batch = _batch_trials(spec, config.mode)
        fits = config.trials * n * np.min_scalar_type(n - 1).itemsize <= _PERMS_BYTES
        kept = _kept_permutations(config.seed, config.trials, n) if fits else None
        whole = None if kept is None else kept.stage(derive, args, batch)
        for start in range(0, config.trials, batch):
            stop = min(start + batch, config.trials)
            perms = (_trial_permutations(config.seed, start, stop - start, n) if kept is None
                     else kept.perms[start:stop])
            stage = derive(perms, *args) if whole is None else tuple(a[start:stop] for a in whole)
            all_counts.append(walk(spec, perms, stage))
    counts = np.concatenate(all_counts)
    mean = float(counts.mean())
    std_error = float(counts.std(ddof=1) / np.sqrt(len(counts))) if len(counts) > 1 else 0.0
    values, freqs = np.unique(counts, return_counts=True)
    histogram = {int(v): int(f) for v, f in zip(values, freqs)}
    return AnetfReport(mean, std_error, histogram, config.trials, config.seed, config.mode)


def report_to_text(report: AnetfReport) -> str:
    lines = [
        f"mode {report.mode}",
        f"trials {report.trials}",
        f"seed {report.seed}",
        f"mean {report.mean:.6f}",
        f"std_error {report.std_error:.6f}",
        "histogram",
    ]
    for k in sorted(report.histogram):
        lines.append(f"  {k} {report.histogram[k]}")
    return "\n".join(lines) + "\n"


def report_to_json(report: AnetfReport) -> str:
    import json

    doc = asdict(report)
    doc["histogram"] = {str(k): report.histogram[k] for k in sorted(report.histogram)}
    return json.dumps(doc, indent=2)
