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
erasure times of each trial's residuals, the erased positions of those the
walk eliminates and of what each is taken against, and the positions of the
free blocks' first erasures, keyed by the split's block length, u0 and t
and how many erasures and residuals are read.  The pcheck walk is local to
the layer whose block sums give the most checks (`pcheck._local_split`):
with t of them, the first erasures of t distinct blocks are always
independent, and each further erasure adds one residual column in the
r' = rows - t dimensions that are left.  A later erasure of a block gives
the difference of two columns, and the first erasure of a block beyond the
t free ones the combination of t + 1 columns by the dual weights of the
Vandermonde checks; an MDS leaf, whose rows are all leaf-local, leaves
r' = 0.  One batched forward elimination over each trial's first r'
residuals, one residual per step, finds the first dependent one.  The
residuals are packed into uint64 lanes, so a step clears its lead lane from
every later residual of every trial with one gather from the step
residual's `FieldContext.multiples` and one XOR per word, and the dual
combinations are one gather from the multiples of Q^T's packed columns.
Trials stay in the batch after they fail, as a zero residual clears
nothing.  Batches are capped so their working arrays stay within a fixed
memory budget.

Determinism: trial i draws its permutation from a Philox stream keyed by
(seed, i), so reports are bit-identical for a given (seed, trials, mode)
no matter how trials are batched.  A chunk of trials builds one Philox and
resets it before trial i to key (seed, i) and counter 0, as a new one would
start.  The orders depend only on (seed, trials, n), so `simulate` keeps
those of its latest key, and every mode and code of that length reuses
them.  Beside them it keeps each stage, derived once per stage key over
every kept order: one store of per-trial arrays in the narrowest unsigned
dtype, within _PERMS_BYTES.  An array past it is made afresh per batch by
the same function, so what is kept never changes a report.  The walks read
their stage alone, so a kept stage needs no orders once it is filled.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from . import codec, pcheck
from .codespec import CodeSpec, LeafSpec, ValidationError, block_count, dimension, length, row_length, validate

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
    """The arrays `simulate` keeps between calls for one (seed, trials, n):
    `arrays` maps each (derive, args) that `rows` was asked for to its
    read-only arrays over every trial, or to None when they did not fit.
    derive None means the orders of `_trial_permutations`; any other is a
    stage function, derive(orders, *args), with one row per order."""

    def __init__(self, seed: int, trials: int, n: int):
        self.seed, self.trials, self.n = seed, trials, n
        self.arrays = {}

    def rows(self, derive, args: tuple, start: int, stop: int) -> tuple:
        """Rows start:stop of the arrays of (derive, args).  The first request
        fills them in chunks of stop - start rows; rows of arrays that were
        not kept are made afresh by the same function."""
        key = (derive, args)
        if key not in self.arrays:
            self.arrays[key] = self._fill(derive, args, stop - start)
        if self.arrays[key] is None:
            return self._make(derive, args, start, stop)
        return tuple(a[start:stop] for a in self.arrays[key])

    def _make(self, derive, args: tuple, start: int, stop: int) -> tuple:
        """Rows start:stop of the arrays of (derive, args), made afresh from
        the orders of those rows, kept or drawn."""
        if derive is None:
            return (_trial_permutations(self.seed, start, stop - start, self.n),)
        return derive(self.rows(None, (), start, stop)[0], *args)

    def _fill(self, derive, args: tuple, step: int):
        """The arrays of (derive, args) over every trial, or None if they
        would take the store past _PERMS_BYTES, in the narrowest unsigned
        dtype: orders are below n, times and positions at most n.  The
        orders' width is n, so their fit is known before any is drawn; a
        stage's first chunk is made before its fit is known.  Orders are
        drawn as int64, as shuffling uint8 rows is slower (4.3 against 3.6
        ms per 1,000 orders of 84, thread CPU, median of 40 interleaved
        draws).  An array whose rows all stride 0 is kept as that view of
        its one row, and counts 0 bytes."""
        dtype = np.min_scalar_type(self.n - (derive is None))
        if derive is None and self.trials * self.n * dtype.itemsize > self._room():
            return None
        out = None
        for start in range(0, self.trials, step):
            part = self._make(derive, args, start, min(start + step, self.trials))
            if out is None:
                if self.trials * dtype.itemsize * sum(a.shape[1] for a in part if a.strides[0]) > self._room():
                    return None
                out = tuple(np.empty((self.trials, a.shape[1]), dtype) if a.strides[0]
                            else np.broadcast_to(a[0].astype(dtype), (self.trials, a.shape[1])) for a in part)
            for whole, a in zip(out, part):
                if whole.strides[0]:
                    whole[start:start + len(a)] = a
        for whole in out:
            whole.flags.writeable = False
        return out

    def _room(self) -> int:
        """Bytes left under _PERMS_BYTES beside the arrays kept so far."""
        return _PERMS_BYTES - sum(a.nbytes for whole in self.arrays.values() if whole for a in whole
                                  if a.strides[0])


@functools.lru_cache(maxsize=1)
def _kept_permutations(seed: int, trials: int, n: int) -> _KeptOrders:
    """The kept record of one (seed, trials, n).  The previous key's record,
    with every array it kept, is dropped before the new one is made."""
    _kept_permutations.cache_clear()  # runs only on a miss
    return _KeptOrders(seed, trials, n)


def _leaf_times(perms: np.ndarray, n: int) -> tuple:
    """The capability walk's stage: (when,), each order's erasure times
    (from 1) grouped by leaf row of length n and ascending within each row,
    in the narrowest unsigned dtype.

    These are the times of `codec._rejection_times`, when[b, perms[b, i]] =
    i + 1, with every leaf row sorted.  A stable argsort of the row that
    each erasure hits lists each row's erasures in time order, rows in
    order; the row index is narrow, so numpy radix-sorts it.  A single
    leaf row, n = N, gives every order the times 1 .. N: a read-only
    broadcast of that one row.
    """
    size = perms.shape[1]
    if n == size:
        return (np.broadcast_to(np.arange(1, size + 1, dtype=np.min_scalar_type(size)), perms.shape),)
    rows = (perms // n).astype(np.min_scalar_type(size // n - 1), copy=False)
    when = np.argsort(rows, axis=1, kind="stable")
    when += 1
    return (when.astype(np.min_scalar_type(size)),)


def _capability_walk(spec: CodeSpec, stage: tuple) -> np.ndarray:
    """Failure count per order under `codec`'s capability predicate, from
    the stage of `_leaf_times`.

    The count is the time at which the code first rejects under `codec`'s
    rule, capped at n.  The walk runs on int32 times: a batch's arrays take
    half the memory of int64 ones, and numpy sorts uint8 ones more slowly
    (0.77 against 0.22 ms for the (1000, 12, 3) block times of a flat Table
    1 row, thread CPU, median of 40).
    """
    (when,) = stage
    return codec._sorted_rejection_times((spec,), when.astype(np.int32), when.shape[1])[0][:, 0]


def _capability_counts(spec: CodeSpec, perms: np.ndarray) -> np.ndarray:
    """Failure count per order under `codec`'s capability predicate: the
    walk `_capability_walk` over the stage `_leaf_times`."""
    return _capability_walk(spec, _leaf_times(perms, row_length(spec)))


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
    """The pcheck walk's stage: (times, at, against, free).  times holds the
    erasure times (from 0) of each trial's first `count` residuals in a
    split with blocks of length n, u0 free erasures per free block and t
    free blocks; at the erased positions of the first count - 1, which the
    walk eliminates, and against the position each of those is taken
    against; free the positions of the first erasures of each trial's free
    blocks.

    Only the first `first` erasures are read, and they must hold `count`
    residuals.  Sorted by (block, time), an erasure is late when the one u0
    places before it lies in the same block; the one just before it then
    does too, and is what it is taken against.  Every other erasure is
    among the first u0 of its block, and with u0 = 1 it is the block's
    first.  When t is below the block count, the first erasures of the t
    earliest blocks are free, the t smallest of these times per trial, and
    a later block's first erasure is a residual too, taken against itself
    to mark it.  free is empty when every block is free.
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
        late = np.where(later & (heads < first), when << bits | when, late)
    late = np.sort(late)[:, :count]
    times = late >> bits
    at, against = (np.take_along_axis(perms, i[:, :-1], axis=1) for i in (times, late & (1 << bits) - 1))
    return times, at, against, np.take_along_axis(perms, free, axis=1)


def _dual_residuals(ctx, split: pcheck.Split, group: np.ndarray) -> np.ndarray:
    """The packed residuals, (words, R), of first erasures beyond the t free
    blocks: sum_S w_i Q[:, f_i] over the t + 1 positions f_i of each column
    of `group`, (t + 1, R), with the dual weights w of V(t, M) at their
    blocks (`_dual_weights`).  Each term is an entry of the
    `FieldContext.multiples` of Q^T's packed columns, w_i N + f_i in the
    flattened table, so the sum is one gather and one XOR-reduce."""
    size = len(split.lanes)
    weights = _dual_weights(ctx, group // split.n, size // split.n)
    table = ctx.multiples(split.lanes.T).reshape(-1, ctx.q * size)  # (words, q N)
    return np.bitwise_xor.reduce(table.take(weights.astype(np.intp) * size + group, axis=1), axis=1)


def _pcheck_walk(spec: CodeSpec, stage: tuple) -> np.ndarray:
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
        (`_dual_residuals`): the combination of their columns that is zero
        in L.  The stage takes f against itself, which marks it.
    Each residual is the erasure's column less earlier columns, so every
    prefix spans the same space, and the erasures are dependent exactly
    when the residuals are.  With r' = 0 no residual is read, and with
    t = 0 every erasure is one.  Any r' + 1 residuals are dependent, and
    the first rows + 1 erasures hold at least that many, so one forward
    elimination over each trial's first r' residuals decides it, and a
    trial that passes them fails at residual r'.
    Residuals are kept packed (`Split.lanes`), so adding them is one XOR
    per word.  Step s takes residual s, already cleared at the lead lanes
    of residuals 0 .. s-1.  Each of those is zero at the lead lanes before
    its own and nonzero at its own, so residual s is dependent on them
    exactly when it is zero: its lead (`FieldContext.lead`) is 0, and the
    trial fails at its erasure time unless it failed before.  Otherwise its
    lowest nonzero lane leads, and each later residual loses c / lead times
    it, c being its own entry in that lane: one `take` of c / lead from a
    q x q quotient table, scaled by the trial count so that it indexes the
    `FieldContext.multiples` of residual s, and one XOR.  Trials stay in
    the batch after they fail: a zero residual's quotients are all 0, so
    its step changes nothing.  Which lane leads changes no count, only the
    basis.
    """
    split = pcheck._local_split(pcheck.build_parity_check(spec))
    ctx = spec.ctx
    times, at, against, free = stage
    trials, rest = at.shape
    r = split.lanes.take(at, axis=0)  # (trials, r', words)
    r ^= split.lanes.take(against, axis=0)
    if split.t * split.n < len(split.lanes):  # some first erasures are residuals
        trial, slot = np.nonzero(at == against)
        r[trial, slot] = _dual_residuals(ctx, split, np.vstack([free[trial].T, at[trial, slot]])).T
    r = np.ascontiguousarray(r.transpose(1, 2, 0))  # (r', words, trials)
    quotient = ctx.mul_table[ctx.inv_table].astype(np.intp) * trials  # c / lead at [lead, c]
    column = np.arange(trials)
    dead = np.ones((rest + 1, trials), dtype=bool)  # dead[s]: residual s is dependent, as r' always is
    for s in range(rest):
        word, shift, lead = ctx.lead(r[s])
        np.equal(lead, 0, out=dead[s])
        if s + 1 < rest:
            c = r[s + 1:].reshape(rest - s - 1, -1).take(word * trials + column, axis=1)
            scale = quotient.take(c >> shift & ctx.q - 1 | lead << ctx.w) + column
            table = ctx.multiples(r[s]).reshape(r.shape[1], -1)
            r[s + 1:] ^= table.take(scale, axis=1).transpose(1, 0, 2)
    return np.take_along_axis(times, dead.argmax(axis=0)[:, None], axis=1)[:, 0].astype(np.int64) + 1


def _pcheck_counts(spec: CodeSpec, perms: np.ndarray) -> np.ndarray:
    """Failure count per permutation under parity-check decoding: the walk
    `_pcheck_walk` over the stage `_residuals`."""
    return _pcheck_walk(spec, _residuals(perms, *_pcheck_key(spec)))


_COUNTS = {CAPABILITY: _capability_counts, PCHECK: _pcheck_counts}

_BATCH_BYTES = 16 << 20  # cap on the working arrays of one simulate batch
_PERMS_BYTES = 80 << 20  # cap on the orders and stages simulate keeps between calls


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
    temporaries per erasure, and it returns 3 r' + 1 + t int64 times and
    positions.  The walk's elimination holds the r' packed residuals, words
    x 8 bytes each with words = ceil(r' / (64 // w)), the gather they are
    summed with and their transposed copy; at each step, the table of the q
    multiples of the step's residual, the multiples gathered from it for
    each later residual, 40 bytes of coefficient and index temporaries per
    later residual, and one byte per residual that marks it dependent.
    Each first erasure of a block beyond the t free ones, at most one per
    such block and r' in all, gathers t + 1 multiples of packed columns of
    Q^T for its dual weights, with 48 bytes of index and weight temporaries
    per column, and 16 per block for the weights' membership product.
    The orders and stages `simulate` keeps between calls sit outside this
    budget, under _PERMS_BYTES, and so do the forms of Q^T that
    `pcheck._local_split` caches per parity check, N x (3 r' + 8 words)
    bytes, and the per-batch tables: the q x q quotients and the q multiples
    of Q^T's N packed columns.
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
        rest, blocks, t = split.qt.shape[1], n // split.n, split.t
        size = 8 * split.lanes.shape[1]  # bytes of one packed residual
        extra = 80 * (pc.rank + 1) + 8 * (3 * rest + 1 + t) + size * (4 * rest + spec.ctx.q) + 41 * rest
        extra += min(blocks - t, rest) * ((t + 1) * (48 + size) + 16 * blocks + size)
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
    if not isinstance(config, AnetfConfig):
        raise ValidationError(f"config must be an AnetfConfig, got {type(config).__name__}")
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
        kept = _kept_permutations(config.seed, config.trials, n)
        for start in range(0, config.trials, batch):
            all_counts.append(walk(spec, kept.rows(derive, args, start, min(start + batch, config.trials))))
    counts = np.concatenate(all_counts)
    mean = float(counts.mean())
    std_error = float(counts.std(ddof=1) / np.sqrt(len(counts))) if len(counts) > 1 else 0.0
    freqs = np.bincount(counts)
    values = np.flatnonzero(freqs)
    histogram = dict(zip(values.tolist(), freqs[values].tolist()))
    return AnetfReport(mean, std_error, histogram, config.trials, config.seed, config.mode)


def report_to_text(report: AnetfReport) -> str:
    if not isinstance(report, AnetfReport):
        raise ValidationError(f"report must be an AnetfReport, got {type(report).__name__}")
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

    if not isinstance(report, AnetfReport):
        raise ValidationError(f"report must be an AnetfReport, got {type(report).__name__}")
    doc = asdict(report)
    doc["histogram"] = {str(k): report.histogram[k] for k in sorted(report.histogram)}
    return json.dumps(doc, indent=2)
