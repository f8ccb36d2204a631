import tracemalloc

import numpy as np
import pytest

from eii import anetf, matrix as mx, pcheck
from eii.codespec import LeafSpec, NodeSpec, length, spec_from_capability
from eii.gf import field
from test_codec import recursive_correctable

G8 = field(3)
G16 = field(4)


def test_mds_leaf_point_mass():
    leaf = LeafSpec(field(7), 84, 22)
    rng = np.random.default_rng(0)
    for mode in anetf.MODES:
        for _ in range(5):
            assert anetf.erasures_to_failure(leaf, mode, rng.permutation(84)) == 23


def test_mds_leaf_simulated_histogram():
    leaf = LeafSpec(field(7), 84, 22)
    report = anetf.simulate(anetf.AnetfConfig(leaf, anetf.CAPABILITY, trials=500, seed=9))
    assert report.histogram == {23: 500}
    assert report.mean == 23.0
    assert report.std_error == 0.0


def test_invalid_permutation():
    leaf = LeafSpec(G8, 7, 2)
    with pytest.raises(anetf.InvalidPermutationError):
        anetf.erasures_to_failure(leaf, anetf.CAPABILITY, [0, 1, 2, 3, 4, 5, 5])


@pytest.mark.parametrize("perm", [[0, 1, 2, 3, 4, 5, 6.7], np.arange(7, dtype=float)])
def test_non_integer_permutation_entries(perm):
    leaf = LeafSpec(G8, 7, 2)
    with pytest.raises(anetf.InvalidPermutationError, match="integers"):
        anetf.erasures_to_failure(leaf, anetf.CAPABILITY, perm)


def test_zero_dimension_fails_at_first_erasure():
    leaf = LeafSpec(G8, 1, 1)
    assert anetf.erasures_to_failure(leaf, anetf.CAPABILITY, [0]) == 1
    report = anetf.simulate(anetf.AnetfConfig(leaf, anetf.PCHECK, trials=10, seed=1))
    assert report.histogram == {1: 10}


def test_capability_prefix_and_full_parity_row():
    # erasing the whole zero-code row of the (1,2,7) code stays correctable
    spec = NodeSpec(G8, (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2)), (1, 1, 1))
    perm = list(range(14, 21)) + list(range(14)) # the all-parity row first
    count = anetf.erasures_to_failure(spec, anetf.CAPABILITY, perm)
    assert count >= 8


def test_failure_counts_match_direct_predicate():
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    n = length(spec)
    rng = np.random.default_rng(3)
    for _ in range(30):
        perm = [int(x) for x in rng.permutation(n)]
        k = anetf.erasures_to_failure(spec, anetf.CAPABILITY, perm)
        mask = [False] * n
        for pos in perm[:k]:
            mask[pos] = True
        assert not recursive_correctable(spec, mask)
        mask[perm[k - 1]] = False
        assert recursive_correctable(spec, mask)


def test_batched_paths_match_single_shot():
    # independent oracles: the capability predicate on each prefix mask, and
    # the rank of the erased columns of the reduced parity-check matrix
    spec = spec_from_capability(G16, "(1,1,1,1,1,2,2,2,2,3,3,3)", 7)
    h = pcheck.build_parity_check(spec).reduced
    perms = anetf._trial_permutations(77, 0, 200, 84)
    cap = anetf._capability_counts(spec, perms)
    chk = anetf._pcheck_counts(spec, perms)
    for i, perm in enumerate(perms):
        assert cap[i] == anetf.erasures_to_failure(spec, anetf.CAPABILITY, perm)
        assert chk[i] == anetf.erasures_to_failure(spec, anetf.PCHECK, perm)
        mask = [False] * 84
        for pos in perm[:cap[i] - 1]:
            mask[pos] = True
        assert recursive_correctable(spec, mask)
        mask[perm[cap[i] - 1]] = True
        assert not recursive_correctable(spec, mask)
        k = int(chk[i])
        assert mx.rank(mx.MatrixGF(G16, h.data[:, perm[:k - 1]])) == k - 1
        assert mx.rank(mx.MatrixGF(G16, h.data[:, perm[:k]])) == k - 1


def test_mode_dominance_per_permutation():
    spec = spec_from_capability(G8, "((1,1,2),(1,1,2),(1,2,3),(1,2,5))", 7)
    rng = np.random.default_rng(5)
    for _ in range(50):
        perm = rng.permutation(84)
        c = anetf.erasures_to_failure(spec, anetf.CAPABILITY, perm)
        p = anetf.erasures_to_failure(spec, anetf.PCHECK, perm)
        assert p >= c


def test_pcheck_failure_exceeds_distance():
    # every mask smaller than the minimum distance is matrix-decodable
    from eii.codespec import min_distance
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    d = min_distance(spec)
    rng = np.random.default_rng(8)
    for _ in range(50):
        assert anetf.erasures_to_failure(spec, anetf.PCHECK, rng.permutation(84)) >= d


def test_simulate_deterministic_across_batching():
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    a = anetf.simulate(anetf.AnetfConfig(spec, anetf.PCHECK, trials=300, seed=42), batch=300)
    b = anetf.simulate(anetf.AnetfConfig(spec, anetf.PCHECK, trials=300, seed=42), batch=37)
    assert a == b
    c = anetf.simulate(anetf.AnetfConfig(spec, anetf.CAPABILITY, trials=300, seed=42), batch=64)
    d = anetf.simulate(anetf.AnetfConfig(spec, anetf.CAPABILITY, trials=300, seed=42), batch=301)
    assert c == d
    assert anetf.report_to_text(a) == anetf.report_to_text(b)
    assert anetf.report_to_json(c) == anetf.report_to_json(d)


def fresh_permutation(seed, i, n):
    """The stream of trial i, from a newly built generator (the oracle)."""
    key = np.array([seed, i], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).permutation(n)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 7, 1000])
@pytest.mark.parametrize("n", [1, 2, 7, 84, 420])
def test_trial_permutations_match_fresh_generators(seed, start, n):
    # n = 1 draws nothing, so a state left over from one trial would show
    # in the next
    perms = anetf._trial_permutations(seed, start, 6, n)
    assert perms.shape == (6, n)
    for i, row in enumerate(perms):
        assert np.array_equal(row, fresh_permutation(seed, start + i, n))


def test_trial_permutations_interleaved_seeds():
    a, b = 5, 2**64 - 2
    separate = [anetf._trial_permutations(s, 3, 4, 84) for s in (a, b, a)]
    interleaved = [anetf._trial_permutations(s, 3 + i, 1, 84)
                   for i in range(4) for s in (a, b, a)]
    for k in range(3):
        assert np.array_equal(np.concatenate(interleaved[k::3]), separate[k])


@pytest.mark.parametrize("mode", anetf.MODES)
def test_simulate_builds_one_philox_per_batch(mode, monkeypatch):
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    anetf.simulate(anetf.AnetfConfig(spec, mode, trials=1000, seed=4), batch=300)
    assert 0 < len(built) <= 4  # batches of 300, 300, 300 and 100 trials


@pytest.mark.parametrize("batch", [0, -1])
def test_simulate_rejects_bad_batch(batch):
    config = anetf.AnetfConfig(LeafSpec(G8, 7, 2), anetf.CAPABILITY, trials=10, seed=0)
    with pytest.raises(ValueError, match="batch must be >= 1"):
        anetf.simulate(config, batch=batch)


def test_simulate_batch_memory_is_capped():
    # Example 12's 81 x 420 code costs about 10 KB per trial uncapped
    g8 = field(3)
    leaves = tuple(LeafSpec(g8, 7, u) for u in (1, 2, 3))
    arrays = tuple(NodeSpec(g8, leaves, s) for s in ((4, 1, 0, 0), (3, 2, 0, 0), (3, 1, 1, 0)))
    groups = tuple(NodeSpec(g8, arrays, s) for s in ((2, 2, 0, 0), (2, 1, 1, 0), (1, 2, 1, 0)))
    ex12 = NodeSpec(g8, groups, (1, 1, 1, 0))
    pcheck.build_parity_check(ex12)
    for mode in anetf.MODES:
        tracemalloc.start()
        try:
            anetf.simulate(anetf.AnetfConfig(ex12, mode, trials=4000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, (mode, peak)


def test_report_invariants():
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    report = anetf.simulate(anetf.AnetfConfig(spec, anetf.CAPABILITY, trials=400, seed=2))
    assert sum(report.histogram.values()) == 400
    assert 1 <= report.mean <= length(spec)
    assert report.mode == anetf.CAPABILITY
    assert report.seed == 2


def test_config_validation():
    spec = LeafSpec(G8, 7, 2)
    with pytest.raises(ValueError):
        anetf.AnetfConfig(spec, "bogus", trials=10, seed=0)
    for trials in (0, 2.5, True):
        with pytest.raises(ValueError):
            anetf.AnetfConfig(spec, anetf.CAPABILITY, trials=trials, seed=0)
    for seed in (-1, 2**64, 1.5, True):
        with pytest.raises(ValueError):
            anetf.AnetfConfig(spec, anetf.CAPABILITY, trials=10, seed=seed)
    for seed in (0, 2**64 - 1):
        assert anetf.AnetfConfig(spec, anetf.CAPABILITY, trials=1, seed=seed).seed == seed
