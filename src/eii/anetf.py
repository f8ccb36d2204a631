"""Monte-Carlo estimation of the average number of erasures to failure.

Symbols are erased one at a time in a uniformly random order; a trial's
failure count is the number of erasures present the first time the chosen
decoding oracle rejects the pattern.  Two oracles are supported: the
guaranteed-capability predicate (`codec.correctable`) and parity-check
decoding (erased columns of the reduced matrix stay linearly independent).
Both oracles walk a whole batch of trials at once; a single permutation is
a batch of one.

Determinism: trial i draws its permutation from a Philox stream keyed by
(seed, i), so reports are bit-identical for a given (seed, trials, mode)
no matter how trials are batched.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import pcheck
from .codespec import (
    CodeSpec,
    LeafSpec,
    block_count,
    dimension,
    length,
    tail_counts,
)

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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class AnetfReport:
    mean: float
    std_error: float
    histogram: dict
    trials: int
    seed: int
    mode: str


# -- incremental capability oracle ------------------------------------------------
#
# A block's minimal sufficient level only grows as erasures accumulate, so
# each tree node keeps per-block levels plus suffix counts of blocks at
# each level, updating both in O(depth * levels) per erasure.


class _RowState:
    """Erasure counter for one MDS row against a chain of leaf codes."""

    __slots__ = ("us", "count", "level")

    def __init__(self, chain):
        self.us = tuple(ch.u for ch in chain)
        self.count = 0
        self.level = 0

    def reset(self):
        self.count = 0
        self.level = 0

    def add(self, _pos: int) -> int:
        self.count += 1
        self.level = bisect_left(self.us, self.count)
        return self.level


class _ArrayState:
    """Erasure tracker for one block against a chain of node codes."""

    __slots__ = ("profiles", "t_sub", "sub_len", "subs", "sub_levels", "suffix", "level")

    def __init__(self, chain):
        grandkids = chain[0].children
        self.profiles = tuple(tail_counts(ch)[1:] for ch in chain)
        self.t_sub = len(grandkids)
        self.sub_len = length(grandkids[0])
        m = block_count(chain[0])
        self.subs = [_make_state(grandkids) for _ in range(m)]
        self.sub_levels = [0] * m
        self.suffix = [0] * (self.t_sub + 1)
        self.level = 0

    def reset(self):
        for sub in self.subs:
            sub.reset()
        self.sub_levels = [0] * len(self.subs)
        self.suffix = [0] * (self.t_sub + 1)
        self.level = 0

    def _fits(self, profile) -> bool:
        suffix = self.suffix
        for v in range(1, self.t_sub + 1):
            if suffix[v] > profile[v - 1]:
                return False
        return True

    def add(self, pos: int) -> int:
        j, off = divmod(pos, self.sub_len)
        new = self.subs[j].add(off)
        old = self.sub_levels[j]
        if new > old:
            self.sub_levels[j] = new
            suffix = self.suffix
            for v in range(old + 1, new + 1):
                suffix[v] += 1
            lv = self.level
            profiles = self.profiles
            while lv < len(profiles) and not self._fits(profiles[lv]):
                lv += 1
            self.level = lv
        return self.level


def _make_state(chain):
    if isinstance(chain[0], LeafSpec):
        return _RowState(chain)
    return _ArrayState(chain)


# -- batched simulation ---------------------------------------------------------------


def _trial_permutations(seed: int, start: int, count: int, n: int) -> np.ndarray:
    out = np.empty((count, n), dtype=np.int64)
    mask = (1 << 64) - 1
    for i in range(count):
        key = np.array([seed & mask, (start + i) & mask], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        out[i] = rng.permutation(n)
    return out


def _capability_counts(spec: CodeSpec, perms: np.ndarray) -> np.ndarray:
    """Failure count per permutation; root level 0 mirrors `codec.correctable`."""
    root = _make_state((spec,))
    add = root.add
    counts = np.empty(perms.shape[0], dtype=np.int64)
    rows = perms.tolist()
    for i, perm in enumerate(rows):
        root.reset()
        k = 0
        for pos in perm:
            k += 1
            if add(pos) != 0:
                break
        counts[i] = k
    return counts


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


def erasures_to_failure(spec: CodeSpec, mode: str, permutation) -> int:
    """Smallest k for which the first k erased positions are uncorrectable.

    A zero-dimensional code stores nothing and is counted as failing at the
    first erasure.  The count comes from the batched walk of `simulate`,
    run on a batch of one permutation.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    perm = [int(p) for p in permutation]
    if sorted(perm) != list(range(length(spec))):
        raise InvalidPermutationError(f"not a permutation of 0..{length(spec) - 1}")
    if dimension(spec) == 0:
        return 1
    return int(_COUNTS[mode](spec, np.array([perm], dtype=np.int64))[0])


def simulate(config: AnetfConfig, batch: int = 50_000) -> AnetfReport:
    """Monte-Carlo ANETF estimate; deterministic for a fixed (seed, trials, mode)."""
    spec = config.spec
    n = length(spec)
    all_counts = []
    if dimension(spec) == 0:
        all_counts.append(np.ones(config.trials, dtype=np.int64))
    else:
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
