import numpy as np
import pytest

from eii import anetf, codec, matrix as mx, pcheck
from eii.codespec import LeafSpec, NodeSpec, length, spec_from_capability
from eii.gf import field

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
        assert not codec.correctable(spec, mask)
        mask[perm[k - 1]] = False
        assert codec.correctable(spec, mask)


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
        assert codec.correctable(spec, mask)
        mask[perm[cap[i] - 1]] = True
        assert not codec.correctable(spec, mask)
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
    with pytest.raises(ValueError):
        anetf.AnetfConfig(spec, anetf.CAPABILITY, trials=0, seed=0)
