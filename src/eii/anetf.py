"""Monte-Carlo estimation of the average number of erasures to failure.

Symbols are erased one at a time in a uniformly random order; a trial's
failure count is the number of erasures present the first time the chosen
decoding oracle rejects the pattern.  Two oracles are supported: the
guaranteed-capability predicate of `codec` and parity-check decoding
(erased columns of the reduced matrix stay linearly independent).  Both
oracles walk a whole batch of trials at once; a single permutation is a
batch of one.  The capability walk is a binary search over prefix length,
one call of the batched predicate per step; the pcheck walk inserts one
erased column per step into each trial's basis.  Batches are capped so
their working arrays stay within a fixed memory budget.

Determinism: trial i draws its permutation from a Philox stream keyed by
(seed, i), so reports are bit-identical for a given (seed, trials, mode)
no matter how trials are batched.  A batch builds one Philox and resets
it before trial i to key (seed, i) and counter 0, as a new one would start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec, pcheck
from .codespec import CodeSpec, dimension, length

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


def _capability_counts(spec: CodeSpec, perms: np.ndarray) -> np.ndarray:
    """Failure count per permutation under `codec`'s capability predicate.

    Every superset of an uncorrectable mask is uncorrectable, so the count
    is one more than the longest accepted prefix, found by bisecting the
    prefix length of all trials at once.  With when[b, perms[b, i]] = i,
    the prefix masks of length k are when < k[:, None].
    """
    n_trials, n = perms.shape
    when = np.empty_like(perms)
    np.put_along_axis(when, perms, np.arange(n), axis=1)
    lo = np.zeros(n_trials, dtype=np.int64)  # a prefix length that is accepted
    hi = np.full(n_trials, n, dtype=np.int64)  # one that is rejected
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        ok = codec._chain_levels((spec,), when < mid[:, None]) == 0
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return hi


def _pcheck_counts(spec: CodeSpec, perms: np.ndarray) -> np.ndarray:
    pc = pcheck.build_parity_check(spec)
    h = pc.reduced.data
    ctx = spec.ctx
    mt = ctx.mul_table
    inv = ctx.inv_table
    rows = h.shape[0]
    n_trials = perms.shape[0]
    counts = np.zeros(n_trials, dtype=np.int64)
    active = np.arange(n_trials)
    basis = np.zeros((n_trials, rows, rows), dtype=np.uint8)
    has_pivot = np.zeros((n_trials, rows), dtype=bool)
    step = 0
    while active.size:
        cols = h[:, perms[active, step]].T.copy()  # (A, rows)
        for p in range(rows):
            f = cols[:, p]
            hot = (f != 0) & has_pivot[active, p]
            if hot.any():
                idx = np.nonzero(hot)[0]
                cols[idx] ^= mt[basis[active[idx], p], f[idx, None]]
        dead = ~cols.any(axis=1)
        if dead.any():
            counts[active[dead]] = step + 1
        live = np.nonzero(~dead)[0]
        if live.size:
            sub = cols[live]
            pivots = np.argmax(sub != 0, axis=1)
            piv_vals = sub[np.arange(live.size), pivots]
            sub = mt[sub, inv[piv_vals][:, None]]
            basis[active[live], pivots] = sub
            has_pivot[active[live], pivots] = True
        active = active[~dead]
        step += 1
        if active.size and step > rows:
            raise AssertionError("trial survived past the matrix rank")
    return counts


_COUNTS = {CAPABILITY: _capability_counts, PCHECK: _pcheck_counts}

_BATCH_BYTES = 16 << 20  # cap on the working arrays of one simulate batch


def _batch_trials(spec: CodeSpec, mode: str) -> int:
    """Trials per batch that keep its largest arrays within _BATCH_BYTES.

    Per trial these are the int64 permutation, plus the int64 rank array of
    the capability walk or the rows x rows basis of the pcheck walk.
    """
    n = length(spec)
    if mode == CAPABILITY:
        extra = 8 * n
    else:
        extra = pcheck.build_parity_check(spec).reduced.rows ** 2
    return max(1, _BATCH_BYTES // (8 * n + extra))


def erasures_to_failure(spec: CodeSpec, mode: str, permutation) -> int:
    """Smallest k for which the first k erased positions are uncorrectable.

    A zero-dimensional code stores nothing and is counted as failing at the
    first erasure.  The count comes from the batched walk of `simulate`,
    run on a batch of one permutation.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    perm = list(permutation)
    if not all(isinstance(p, (int, np.integer)) for p in perm):
        raise InvalidPermutationError("permutation entries must be integers")
    if sorted(perm) != list(range(length(spec))):
        raise InvalidPermutationError(f"not a permutation of 0..{length(spec) - 1}")
    if dimension(spec) == 0:
        return 1
    return int(_COUNTS[mode](spec, np.array([perm], dtype=np.int64))[0])


def simulate(config: AnetfConfig, batch: int = 50_000) -> AnetfReport:
    """Monte-Carlo ANETF estimate; deterministic for a fixed (seed, trials, mode)."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    spec = config.spec
    n = length(spec)
    all_counts = []
    if dimension(spec) == 0:
        all_counts.append(np.ones(config.trials, dtype=np.int64))
    else:
        batch = min(batch, _batch_trials(spec, config.mode))
        for start in range(0, config.trials, batch):
            count = min(batch, config.trials - start)
            perms = _trial_permutations(config.seed, start, count, n)
            all_counts.append(_COUNTS[config.mode](spec, perms))
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

    return json.dumps(
        {
            "mean": report.mean,
            "std_error": report.std_error,
            "histogram": {str(k): report.histogram[k] for k in sorted(report.histogram)},
            "trials": report.trials,
            "seed": report.seed,
            "mode": report.mode,
        },
        indent=2,
    )
