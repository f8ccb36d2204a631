import ast
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eii import anetf, codec, matrix as mx, pcheck
from eii.codespec import LeafSpec, NodeSpec, ValidationError, length, min_distance, spec_from_capability
from eii.gf import field
from test_acceptance import TABLE_1
from test_codec import invalid_specs, ordered_chains, recursive_correctable
from test_gf import unpack
from test_golden import STRIPE_SHAPES
from test_matrix import rank

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


@pytest.mark.parametrize("perm", [[0, 1, 2, 3, 4, 5, 6.7], np.arange(7, dtype=float),
                                  [True, False], np.array([True, False])])
def test_non_integer_permutation_entries(perm):
    leaf = LeafSpec(G8, len(perm), 1)
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
        assert rank(mx.MatrixGF(G16, h.data[:, perm[:k - 1]])) == k - 1
        assert rank(mx.MatrixGF(G16, h.data[:, perm[:k]])) == k - 1


def bisect_capability_counts(spec, perms):
    """Failure counts by bisecting the prefix length of all trials at once
    (the oracle): every superset of an uncorrectable mask is uncorrectable,
    so the count is one more than the longest prefix `codec` accepts."""
    n_trials, n = perms.shape
    when = np.empty_like(perms)
    np.put_along_axis(when, perms, np.arange(n), axis=1)
    lo = np.zeros(n_trials, dtype=np.int64)  # a prefix length that is accepted
    hi = np.full(n_trials, n, dtype=np.int64)  # one that is rejected
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        ok = codec._chain_levels((spec,), when < mid[:, None])[0] == 0
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return hi


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_capability_counts_match_bisection(data):
    n = data.draw(st.integers(1, 7))
    spec = data.draw(st.sampled_from(data.draw(ordered_chains(data.draw(st.integers(0, 2)), n))))
    perms = anetf._trial_permutations(data.draw(st.integers(0, 2**64 - 1)), 0, 8, length(spec))
    assert anetf._capability_counts(spec, perms).tolist() == \
        bisect_capability_counts(spec, perms).tolist()


def test_mode_dominance_per_permutation():
    spec = spec_from_capability(G8, "((1,1,2),(1,1,2),(1,2,3),(1,2,5))", 7)
    rng = np.random.default_rng(5)
    for _ in range(50):
        perm = rng.permutation(84)
        c = anetf.erasures_to_failure(spec, anetf.CAPABILITY, perm)
        p = anetf.erasures_to_failure(spec, anetf.PCHECK, perm)
        assert p >= c


def test_pcheck_failure_exceeds_distance():
    # any d - 1 columns of H are independent and any rows + 1 are not, so on
    # every Table 1 row each pcheck count lies in [d, rows + 1]
    for cap, w, n, _, _ in TABLE_1:
        spec = spec_from_capability(field(w), cap, n)
        rows = pcheck.build_parity_check(spec).reduced.rows
        report = anetf.simulate(anetf.AnetfConfig(spec, anetf.PCHECK, trials=2000, seed=8))
        assert min_distance(spec) <= min(report.histogram), cap
        assert max(report.histogram) <= rows + 1, cap


def rank_failure_count(spec, perm):
    """First k whose erased columns of the reduced H have rank below k (the oracle)."""
    h = pcheck.build_parity_check(spec).reduced
    for k in range(1, length(spec) + 1):
        if rank(mx.MatrixGF(spec.ctx, h.data[:, perm[:k]])) < k:
            return k
    raise AssertionError("no erasure prefix is dependent")


def elimination_pcheck_counts(spec, perms):
    """Failure counts by one batched forward elimination over each trial's
    first rows + 1 erased columns of the reduced H, with no local split (the
    oracle).  Column s of a trial is dependent exactly when its entries in
    the rows not yet used as pivots are all zero; that trial fails at s + 1.
    Trials that never fail get rows + 1."""
    h = pcheck.build_parity_check(spec).reduced.data
    ctx = spec.ctx
    rows = h.shape[0]
    counts = np.full(perms.shape[0], rows + 1, dtype=np.int64)
    ids = np.arange(perms.shape[0])
    m = h.T[perms[:, :rows + 1]].transpose(0, 2, 1)  # (trials, rows, rows + 1)
    for s in range(rows):
        nonzero = m[:, :, 0] != 0
        dead = ~nonzero.any(axis=1)
        counts[ids[dead]] = s + 1
        ids, m, nonzero = ids[~dead], m[~dead], nonzero[~dead]
        at = np.arange(ids.size)
        p = nonzero.argmax(axis=1)
        pivot_row = ctx.mul_arrays(m[at, p, 1:], ctx.inv_table[m[at, p, 0]][:, None])
        m[at, p] = m[:, 0]  # row 0 takes the pivot's place, then drops out
        m = m[:, 1:, 1:] ^ ctx.mul_arrays(m[:, 1:, :1], pivot_row[:, None, :])
    return counts


def check_pcheck_counts(spec, perms):
    batch = anetf._pcheck_counts(spec, perms).tolist()
    assert batch == [int(anetf._pcheck_counts(spec, perm[None])[0]) for perm in perms]
    assert batch == [rank_failure_count(spec, perm) for perm in perms]
    assert batch == elimination_pcheck_counts(spec, perms).tolist()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_pcheck_counts_match_rank_oracle(data):
    n = data.draw(st.integers(1, 7))
    spec = data.draw(st.sampled_from(data.draw(ordered_chains(data.draw(st.integers(0, 2)), n))))
    size = length(spec)
    perms = [data.draw(st.permutations(range(size))) for _ in range(data.draw(st.integers(1, 4)))]
    check_pcheck_counts(spec, np.array(perms, dtype=np.int64))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_pcheck_counts_match_elimination_oracle(data):
    # covers weakest leaves with u0 = 0, 1 and up to n, split (u0 = 1 or no
    # rows left) or walked with u0 = 0
    n = data.draw(st.integers(1, 7))
    spec = data.draw(st.sampled_from(data.draw(ordered_chains(data.draw(st.integers(0, 2)), n))))
    perms = anetf._trial_permutations(data.draw(st.integers(0, 2**64 - 1)), 0, 32, length(spec))
    assert anetf._pcheck_counts(spec, perms).tolist() == \
        elimination_pcheck_counts(spec, perms).tolist()


def test_pcheck_counts_match_elimination_oracle_on_table1():
    # row 1 keeps no rows beyond its local ones (r' = 0), rows 2-10 split
    # off every leaf block sum, rows 11 and 13 ten Vandermonde combinations
    # of them and row 12 the sums of its 21-symbol blocks
    perms = anetf._trial_permutations(16, 0, 20_000, 84)
    for cap, w, n, _, _ in TABLE_1:
        spec = spec_from_capability(field(w), cap, n)
        for i in range(0, len(perms), 5000):
            assert anetf._pcheck_counts(spec, perms[i:i + 5000]).tolist() == \
                elimination_pcheck_counts(spec, perms[i:i + 5000]).tolist(), cap


def test_pcheck_walk_without_a_split():
    # a weakest leaf with u0 >= 2 and rows left over takes the block-sum
    # split of its rows, r' = rows - M, with no per-set solve to set up
    g32 = field(5)
    specs = [NodeSpec(g32, (LeafSpec(g32, 31, 3), LeafSpec(g32, 31, 4)), (1, 1, 0)),
             NodeSpec(G8, (LeafSpec(G8, 7, 2), LeafSpec(G8, 7, 4)), (1, 1, 1))]
    for spec in specs:
        pc = pcheck.build_parity_check(spec)
        n, u0, t, qt, offsets, lanes = pcheck._local_split(pc)
        blocks = length(spec) // spec.children[0].n
        assert (n, u0, t) == (spec.children[0].n, 1, blocks)
        assert qt.shape == (length(spec), pc.rank - blocks)
        assert offsets.dtype == np.uint16 and np.array_equal(offsets, qt.astype(np.uint16) << spec.ctx.w)
        assert lanes.dtype == np.uint64 and np.array_equal(unpack(spec.ctx, lanes, qt.shape[1]), qt)
        perms = anetf._trial_permutations(12, 0, 500, length(spec))
        assert anetf._pcheck_counts(spec, perms).tolist() == \
            elimination_pcheck_counts(spec, perms).tolist()


def test_table1_splits():
    # (block length, free blocks t, r') per row: row 1 splits off all its
    # rows as leaf-local ones, rows 2-10 every leaf block sum, rows 11 and
    # 13 ten Vandermonde combinations of the 12 leaf block sums, and row 12,
    # whose 12 leaf blocks outnumber GF(8)'s points, its 4 sums of 21
    want = [(84, 1, 0)] + [(7, 12, 10)] * 9 + [(7, 10, 12), (21, 4, 18), (7, 10, 12)]
    for (cap, w, row_n, _, _), split in zip(TABLE_1, want):
        spec = spec_from_capability(field(w), cap, row_n)
        n, u0, t, qt, offsets, lanes = pcheck._local_split(pcheck.build_parity_check(spec))
        assert (n, t, qt.shape[1]) == split, cap
        assert u0 == (22 if cap == "(22)" else 1) and qt.shape[0] == 84
        assert offsets.dtype == np.uint16 and np.array_equal(offsets, qt.astype(np.uint16) << w)
        assert lanes.dtype == np.uint64 and np.array_equal(unpack(field(w), lanes, qt.shape[1]), qt)


def block_sum_is_check(pc, start, size):
    """Whether the sum of positions start .. start + size - 1 lies in the
    row space of the reduced matrix, tested alone."""
    h = pc.reduced
    row = np.zeros((1, h.cols), dtype=np.uint8)
    row[0, start:start + size] = 1
    return rank(mx.MatrixGF(h.ctx, np.vstack([h.data, row]))) == h.rows


@pytest.mark.parametrize("cap, w, n", [(cap, w, n) for cap, w, n, _, _ in TABLE_1])
def test_no_partition_into_checked_tree_blocks_beats_the_split(cap, w, n):
    # a tree block is a block of some layer; a partition of the positions
    # into tree blocks whose sums are each a check gives that many free
    # blocks, and none gives more than the split's t
    pc = pcheck.build_parity_check(spec_from_capability(field(w), cap, n))
    layers = pc.layers

    def most_blocks(depth, start):  # -1: no such partition of this block
        size = layers[depth]
        whole = 1 if block_sum_is_check(pc, start, size) else -1
        if depth + 1 == len(layers):
            return whole
        parts = [most_blocks(depth + 1, at) for at in range(start, start + size, layers[depth + 1])]
        return max(whole, -1 if min(parts) < 0 else sum(parts))

    t = pcheck._local_split(pc).t
    assert most_blocks(0, 0) <= t, cap
    if cap == TABLE_1[11][0]:
        # row 12: no row sum is a check alone, and each of its four
        # 21-symbol sub-block sums is, so t = 4 (r' = 18)
        assert not any(block_sum_is_check(pc, at, 7) for at in range(0, 84, 7))
        assert all(block_sum_is_check(pc, at, 21) for at in range(0, 84, 21)) and t == 4


@pytest.mark.parametrize("cap, w, rest", [(cap, 8, 10) for cap in STRIPE_SHAPES]
                         + [(TABLE_1[10][0], 8, 12)])
def test_pcheck_counts_match_elimination_oracle_on_two_words(cap, w, rest):
    # over GF(256) a word holds eight lanes, so r' = 10 and 12 take two words
    spec = spec_from_capability(field(w), cap, 7)
    split = pcheck._local_split(pcheck.build_parity_check(spec))
    assert split.qt.shape[1] == rest and split.lanes.shape[1] == 2
    perms = anetf._trial_permutations(27, 0, 2000, length(spec))
    assert anetf._pcheck_counts(spec, perms).tolist() == \
        elimination_pcheck_counts(spec, perms).tolist()


# per field, a code whose r' fills one word exactly (64 // w lanes) and one
# whose last lane spills into a second word; no GF(4) code that a search of
# capability trees with rows of length 3 found has r' above 22, short of
# GF(4)'s 32 lanes, so there the two largest it found
LANE_EDGE_CODES = [
    (2, "(((0,3,3),(3,3,3)),((0,2,3),(0,2,3)))", 3, 21, 1),
    (2, "(((0,1,3),(2,2,3)),((2,3,3),(2,2,3)))", 3, 22, 1),
    (3, "(2,6,6,6,6)", 7, 21, 1),
    (3, "(3,6,6,6,6)", 7, 22, 2),
    (4, "(4,14)", 15, 16, 1),
    (4, "(5,14)", 15, 17, 2),
    (5, "(1,13)", 15, 12, 1),
    (5, "(1,14)", 15, 13, 2),
    (6, "(1,11)", 15, 10, 1),
    (6, "(1,12)", 15, 11, 2),
    (7, "(1,10)", 15, 9, 1),
    (7, "(1,11)", 15, 10, 2),
    (8, "(1,9)", 15, 8, 1),
    (8, "(1,10)", 15, 9, 2),
]


@pytest.mark.parametrize("w, cap, n, rest, words", LANE_EDGE_CODES)
def test_pcheck_counts_match_elimination_oracle_at_lane_edges(w, cap, n, rest, words):
    spec = spec_from_capability(field(w), cap, n)
    split = pcheck._local_split(pcheck.build_parity_check(spec))
    assert (split.qt.shape[1], split.lanes.shape[1]) == (rest, words)
    perms = anetf._trial_permutations(w, 0, 300, length(spec))
    assert anetf._pcheck_counts(spec, perms).tolist() == \
        elimination_pcheck_counts(spec, perms).tolist()


@pytest.mark.parametrize("cap, w", [(TABLE_1[10][0], 4), (TABLE_1[12][0], 4), (TABLE_1[10][0], 8)],
                         ids=["row-11", "row-13", "row-11-gf256"])
def test_packed_dual_residuals_match_the_byte_form(cap, w):
    # the oracle forms sum_S w_i Q[:, f_i] in bytes, from Q^T's offsets, and
    # packs it; over GF(256) row 11's r' = 12 takes two words
    spec = spec_from_capability(field(w), cap, 7)
    ctx = spec.ctx
    split = pcheck._local_split(pcheck.build_parity_check(spec))
    m = length(spec) // split.n
    assert split.t < m and split.lanes.shape[1] == (2 if w == 8 else 1)
    rng = np.random.default_rng(w)
    blocks = np.array([rng.choice(m, split.t + 1, replace=False) for _ in range(300)]).T
    group = blocks * split.n + rng.integers(0, split.n, blocks.shape)  # (t + 1, R) positions
    weights = anetf._dual_weights(ctx, blocks, m)
    want = ctx.pack(ctx.dot(split.offsets.take(group, axis=0), weights[:, :, None], axis=0))
    for positions in (group, group.astype(np.uint8)):
        got = anetf._dual_residuals(ctx, split, positions)
        assert got.dtype == np.uint64 and np.array_equal(got.T, want)


def test_residual_positions_are_the_orders_at_their_times():
    # at is each eliminated residual's erased position; against is an
    # earlier erasure of its block, or the position itself for the first
    # erasure of a block beyond the free ones; free is the first erasures
    # of the t blocks first erased, or the erasure at time `first` where
    # fewer blocks are erased in the erasures read
    perms = anetf._trial_permutations(21, 0, 300, 84)
    when = np.empty_like(perms)
    np.put_along_axis(when, perms, np.arange(84), axis=1)
    for cap, w, row_n, _, _ in TABLE_1:
        key = n, u0, t, first, count = anetf._pcheck_key(spec_from_capability(field(w), cap, row_n))
        for orders in (perms, perms.astype(np.uint8)):
            times, at, against, free = anetf._residuals(orders, *key)
            assert times.shape == (300, count) and at.shape == against.shape == (300, count - 1), cap
            assert np.array_equal(at, np.take_along_axis(perms, times[:, :-1], axis=1)), cap
            own = at == against
            late = np.take_along_axis(when, against.astype(np.int64), axis=1) < times[:, :-1]
            assert (late | own).all() and (against // n == at // n)[~own].all(), cap
            heads = np.sort(when.reshape(300, -1, n).min(axis=2), axis=1)
            if t * n == 84:
                assert not own.any() and free.shape == (300, 0), cap
            else:
                assert own.any() and free.shape == (300, t), cap
                free_times = np.sort(np.take_along_axis(when, free.astype(np.int64), axis=1), axis=1)
                assert np.array_equal(free_times, np.minimum(heads[:, :t], first)), cap
                assert (np.take_along_axis(when, at, axis=1)[own] > heads[:, t - 1:t].repeat(count - 1, 1)[own]).all(), cap


@pytest.mark.parametrize("row", [2, 10, 11])
def test_a_batch_whose_trials_all_fail_early_gets_the_oracle_counts(row):
    # trials stay in the batch after they fail, so a batch in which every
    # trial fails before its last residual is walked to the end
    cap, w, n, _, _ = TABLE_1[row]
    spec = spec_from_capability(field(w), cap, n)
    perms = anetf._trial_permutations(31, 0, 2000, 84)
    times = anetf._residuals(perms, *anetf._pcheck_key(spec))[0]
    want = elimination_pcheck_counts(spec, perms)
    early = want < times[:, -1] + 1
    assert early.sum() >= 50, cap
    assert anetf._pcheck_counts(spec, perms[early]).tolist() == want[early].tolist()
    assert anetf._pcheck_counts(spec, perms[early][:1]).tolist() == want[early][:1].tolist()


@pytest.mark.parametrize("w", range(2, 9))
def test_dual_weights_annihilate_vandermonde(w):
    ctx = field(w)
    rng = np.random.default_rng(w)
    for _ in range(40):
        m = int(rng.integers(1, ctx.q))
        t = int(rng.integers(0, m))
        blocks = np.array([rng.choice(m, t + 1, replace=False) for _ in range(5)]).T
        weights = anetf._dual_weights(ctx, blocks, m)
        assert weights.shape == blocks.shape and weights.all()
        v = mx.vandermonde(ctx, t, m).data
        for r in range(5):
            terms = ctx.mul_table[v[:, blocks[:, r]], weights[None, :, r]]
            assert not np.bitwise_xor.reduce(terms, axis=1).any(), (m, t, blocks[:, r])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_pcheck_counts_match_elimination_oracle_with_a_zero_leaf(data):
    # a weakest leaf with u0 = 0 has no leaf-local rows: the split takes
    # t < M Vandermonde combinations of the leaf block sums, or the sums of
    # a layer above the leaves, often the whole code's one sum
    n = data.draw(st.integers(1, 7))
    chain = data.draw(ordered_chains(data.draw(st.integers(1, 2)), n))
    specs = [spec for spec in chain
             if pcheck.build_parity_check(spec).u0 == 0 and pcheck.build_parity_check(spec).rank]
    assume(specs)
    spec = data.draw(st.sampled_from(specs))
    perms = anetf._trial_permutations(data.draw(st.integers(0, 2**64 - 1)), 0, 32, length(spec))
    assert anetf._pcheck_counts(spec, perms).tolist() == \
        elimination_pcheck_counts(spec, perms).tolist()


EMPTY_BLOCK_SPECS = pytest.mark.parametrize("spec", [
    spec_from_capability(G8, "((0,0,0),(1,1,1))", 7),  # its node adds no rows
    LeafSpec(G8, 7, 0),  # no rows at all: every count is 1
    NodeSpec(G8, (LeafSpec(G8, 5, 0), LeafSpec(G8, 5, 2)), (1, 2, 0)),
], ids=["zero-row-tree", "u0-leaf", "u0-children"])


@EMPTY_BLOCK_SPECS
def test_pcheck_counts_on_codes_with_empty_blocks(spec):
    check_pcheck_counts(spec, anetf._trial_permutations(3, 0, 20, length(spec)))


@EMPTY_BLOCK_SPECS
def test_capability_counts_on_codes_with_empty_blocks(spec):
    perms = anetf._trial_permutations(3, 0, 20, length(spec))
    assert anetf._capability_counts(spec, perms).tolist() == \
        bisect_capability_counts(spec, perms).tolist()


def test_capability_counts_cap_a_leaf_that_rejects_nothing():
    # u = n accepts every mask, so each count is capped at n, as the bisection's
    perms = anetf._trial_permutations(3, 0, 20, 7)
    assert anetf._capability_counts(LeafSpec(G8, 7, 7), perms).tolist() == [7] * 20
    assert bisect_capability_counts(LeafSpec(G8, 7, 7), perms).tolist() == [7] * 20


def test_table1_batches_hold_1000_trials():
    for cap, w, n, _, _ in TABLE_1:
        spec = spec_from_capability(field(w), cap, n)
        for mode in anetf.MODES:
            assert anetf._batch_trials(spec, mode) >= 1000, (cap, mode)


def simulate_in_batches(monkeypatch, config, batch: int):
    """`anetf.simulate` run in batches of `batch` trials, whatever the code."""
    monkeypatch.setattr(anetf, "_batch_trials", lambda spec, mode: batch)
    return anetf.simulate(config)


def test_simulate_deterministic_across_batching(monkeypatch):
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    pchk = anetf.AnetfConfig(spec, anetf.PCHECK, trials=300, seed=42)
    a, b = (simulate_in_batches(monkeypatch, pchk, batch) for batch in (300, 37))
    assert a == b
    capa = anetf.AnetfConfig(spec, anetf.CAPABILITY, trials=300, seed=42)
    c, d = (simulate_in_batches(monkeypatch, capa, batch) for batch in (64, 301))
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


@pytest.fixture
def philox_built(monkeypatch):
    """One entry per np.random.Philox constructed while the test runs."""
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    return built


@pytest.mark.parametrize("mode", anetf.MODES)
def test_simulate_builds_one_philox_per_batch(mode, philox_built, monkeypatch):
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    anetf._kept_permutations.cache_clear()  # else one mode reuses the other's orders
    simulate_in_batches(monkeypatch, anetf.AnetfConfig(spec, mode, trials=1000, seed=4), 300)
    assert 0 < len(philox_built) <= 4  # batches of 300, 300, 300 and 100 trials


def test_simulate_keeps_one_set_of_orders(philox_built):
    # the orders depend on (seed, trials, n) alone: every later call on a
    # length-84 code, in either mode, reuses those the first call drew
    specs = [spec_from_capability(field(w), cap, n) for cap, w, n, _, _ in TABLE_1[1:3]]
    calls = [(specs[0], anetf.CAPABILITY), (specs[0], anetf.PCHECK), (specs[1], anetf.PCHECK)]
    fresh = []
    for spec, mode in calls:
        anetf._kept_permutations.cache_clear()
        fresh.append(anetf.simulate(anetf.AnetfConfig(spec, mode, trials=500, seed=6)))
    philox_built.clear()
    anetf._kept_permutations.cache_clear()
    for (spec, mode), want in zip(calls, fresh):
        assert anetf.simulate(anetf.AnetfConfig(spec, mode, trials=500, seed=6)) == want
        assert len(philox_built) == 1, mode
    (kept,) = anetf._kept_permutations(6, 500, 84).rows(None, (), 0, 500)
    assert kept.dtype == np.uint8 and not kept.flags.writeable
    assert np.array_equal(kept, anetf._trial_permutations(6, 0, 500, 84))


def test_kept_orders_are_dropped_before_the_next_key_is_drawn(monkeypatch):
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    anetf._kept_permutations.cache_clear()
    want = [anetf.simulate(anetf.AnetfConfig(spec, anetf.PCHECK, trials=t, seed=6)) for t in (300, 400)]
    anetf._kept_permutations.cache_clear()
    old = weakref.ref(anetf._kept_permutations(6, 300, 84))
    for mode in anetf.MODES:  # each mode leaves its stage beside the orders
        anetf.simulate(anetf.AnetfConfig(spec, mode, trials=300, seed=6))
    arrays = [weakref.ref(a) for whole in old().arrays.values() for a in whole]
    # the orders; the leaf times; the pcheck times, positions, anchor
    # positions and free positions
    assert len(arrays) == 6
    draw = anetf._trial_permutations

    def after_the_old_orders_went(*args):
        assert old() is None, "the previous orders are still held"
        assert all(a() is None for a in arrays), "the previous orders or stages are still held"
        return draw(*args)

    monkeypatch.setattr(anetf, "_trial_permutations", after_the_old_orders_went)
    assert anetf.simulate(anetf.AnetfConfig(spec, anetf.PCHECK, trials=400, seed=6)) == want[1]
    assert anetf.simulate(anetf.AnetfConfig(spec, anetf.PCHECK, trials=300, seed=6)) == want[0]

def table1_reports(trials, seed):
    specs = [spec_from_capability(field(w), cap, n) for cap, w, n, _, _ in TABLE_1]
    return [anetf.simulate(anetf.AnetfConfig(spec, mode, trials=trials, seed=seed))
            for spec in specs for mode in anetf.MODES]


def test_simulate_derives_each_stage_once_per_kept_orders(monkeypatch):
    # 26 Table 1 calls on one seed: the capability stage once per leaf row
    # length, the pcheck stage once per (n, u0, t, rank + 1, r' + 1), and
    # every report as when each call draws its orders and stages afresh
    fresh = []
    for cap, w, n, _, _ in TABLE_1:
        spec = spec_from_capability(field(w), cap, n)
        for mode in anetf.MODES:
            anetf._kept_permutations.cache_clear()
            fresh.append(anetf.simulate(anetf.AnetfConfig(spec, mode, trials=1000, seed=13)))
    derived = Counter()
    for name in ("_leaf_times", "_residuals"):
        real = getattr(anetf, name)
        monkeypatch.setattr(anetf, name, lambda perms, *args, _real=real, _name=name:
                            derived.update([(_name, args)]) or _real(perms, *args))
    anetf._kept_permutations.cache_clear()
    assert table1_reports(1000, 13) == fresh
    assert table1_reports(1000, 13) == fresh  # all from the kept stages
    assert set(derived.values()) == {1}
    assert sorted(args for name, args in derived if name == "_leaf_times") == [(7,), (84,)]
    assert sorted(args for name, args in derived if name == "_residuals") == [
        (7, 1, 10, 23, 13), (7, 1, 12, 23, 11), (21, 1, 4, 23, 19), (84, 22, 1, 23, 1)]


@pytest.mark.parametrize("mode", anetf.MODES)
def test_a_stage_past_the_cap_is_derived_per_batch(mode, monkeypatch):
    # the orders fit and the stage does not: every batch derives it with
    # the same function, and the report is the one a kept stage gives
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    config = anetf.AnetfConfig(spec, mode, trials=400, seed=12)
    anetf._kept_permutations.cache_clear()
    want = simulate_in_batches(monkeypatch, config, 150)
    monkeypatch.setattr(anetf, "_PERMS_BYTES", 400 * 84)
    anetf._kept_permutations.cache_clear()
    calls = []
    stage = {anetf.CAPABILITY: "_leaf_times", anetf.PCHECK: "_residuals"}[mode]
    real = getattr(anetf, stage)
    monkeypatch.setattr(anetf, stage, lambda perms, *args: calls.append(len(perms)) or real(perms, *args))
    # the first request derives one chunk before it finds the stage too
    # large, and remembers that
    for first in ([150], []):
        calls.clear()
        assert simulate_in_batches(monkeypatch, config, 150) == want
        orders, whole = anetf._kept_permutations(12, 400, 84).arrays.values()
        assert orders is not None and whole is None
        assert calls == first + [150, 150, 100]


def test_a_stage_is_kept_while_the_orders_stream(monkeypatch):
    # the pcheck stage, 11 + 10 + 10 columns with every block free, fits
    # where the orders' 84 do not: the first call fills the stage from
    # orders drawn once per chunk, and from then on none is drawn, as the
    # walk reads the stage alone
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    config = anetf.AnetfConfig(spec, anetf.PCHECK, trials=400, seed=14)
    anetf._kept_permutations.cache_clear()
    want = simulate_in_batches(monkeypatch, config, 150)
    monkeypatch.setattr(anetf, "_PERMS_BYTES", 400 * 50)
    anetf._kept_permutations.cache_clear()
    derived, drawn = [], []
    real, draw = anetf._residuals, anetf._trial_permutations
    monkeypatch.setattr(anetf, "_residuals", lambda perms, *args: derived.append(len(perms)) or real(perms, *args))
    monkeypatch.setattr(anetf, "_trial_permutations", lambda seed, start, count, n:
                        drawn.append(start) or draw(seed, start, count, n))
    # the orders' fit is known before any is drawn, so the first call draws
    # only the stage's three chunks
    for fill, draws in (([150, 150, 100], [0, 150, 300]), ([], [])):
        derived.clear(), drawn.clear()
        assert simulate_in_batches(monkeypatch, config, 150) == want
        assert derived == fill and drawn == draws
        orders, whole = anetf._kept_permutations(14, 400, 84).arrays.values()
        assert orders is None and [a.shape for a in whole] == [(400, 11), (400, 10), (400, 10), (400, 0)]


def test_a_one_row_leaf_stage_is_kept_as_a_view_of_its_row(monkeypatch):
    # Table 1 row 1 is one leaf row of 84, whose leaf-sorted times are
    # 1 .. 84 for every order: the store keeps that one row and counts it
    # as 0 bytes, so it fits beside orders that fill the cap
    cap, w, n, _, _ = TABLE_1[0]
    config = anetf.AnetfConfig(spec_from_capability(field(w), cap, n), anetf.CAPABILITY, trials=400, seed=15)
    anetf._kept_permutations.cache_clear()
    want = anetf.simulate(config)
    monkeypatch.setattr(anetf, "_PERMS_BYTES", 400 * 84)
    anetf._kept_permutations.cache_clear()
    assert anetf.simulate(config) == want
    (orders,), (when,) = anetf._kept_permutations(15, 400, 84).arrays.values()
    assert orders.strides[0] and when.strides[0] == 0 and not when.flags.writeable
    assert when.dtype == np.uint8 and np.array_equal(when, np.tile(np.arange(1, 85), (400, 1)))


def test_only_the_kept_record_draws_orders():
    # every order simulate walks comes through _KeptOrders.rows, kept or
    # drawn afresh: no other code in the package calls _trial_permutations
    inside, outside = [], []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "eii").glob("*.py")):
        tree = ast.parse(path.read_text())
        record = {id(node) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "_KeptOrders"
                  for node in ast.walk(c)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_trial_permutations":
                (inside if id(node) in record else outside).append(f"{path.stem}.py:{node.lineno}")
    assert inside and outside == []


def test_leaf_times_are_the_sorted_erasure_times():
    # codec's times, when[b, perms[b, i]] = i + 1, with each leaf row sorted
    for n, size in ((7, 84), (84, 84), (3, 9), (1, 5), (5, 420)):
        perms = anetf._trial_permutations(size, 0, 50, size)
        when = np.empty(perms.shape, dtype=np.int64)
        np.put_along_axis(when, perms, np.arange(1, size + 1), axis=1)
        when.reshape(50, -1, n).sort(axis=-1)
        for orders in (perms, perms.astype(np.min_scalar_type(size - 1))):
            (got,) = anetf._leaf_times(orders, n)
            assert got.dtype == np.min_scalar_type(size) and np.array_equal(got, when), (n, size)


@pytest.mark.parametrize("mode", anetf.MODES)
def test_simulate_streams_orders_past_the_cap(mode, monkeypatch):
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    config = anetf.AnetfConfig(spec, mode, trials=400, seed=11)
    kept = [simulate_in_batches(monkeypatch, config, b) for b in (1, 300, 50_000)]
    assert kept[0] == kept[1] == kept[2]
    monkeypatch.setattr(anetf, "_PERMS_BYTES", 0)
    anetf._kept_permutations.cache_clear()
    for b, want in zip((1, 300, 50_000), kept):
        report = simulate_in_batches(monkeypatch, config, b)
        assert anetf.report_to_json(report) == anetf.report_to_json(want)
    assert set(anetf._kept_permutations(11, 400, 84).arrays.values()) == {None}


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


@pytest.mark.parametrize("label", list(invalid_specs()))
def test_anetf_entry_points_validate_their_spec(label):
    spec = invalid_specs()[label]
    for mode in anetf.MODES:
        with pytest.raises(ValidationError):
            anetf.simulate(anetf.AnetfConfig(spec, mode, trials=10, seed=0))
        with pytest.raises(ValidationError):
            anetf.erasures_to_failure(spec, mode, range(length(spec)))


def test_erasures_to_failure_rejects_a_spec_that_is_not_a_code():
    with pytest.raises(ValidationError, match="LeafSpec or NodeSpec"):
        anetf.erasures_to_failure("abc", anetf.CAPABILITY, [0, 1, 2])


def test_config_validation():
    spec = LeafSpec(G8, 7, 2)
    for bad in ("(1,2,7)", None, (spec,)):
        with pytest.raises(ValueError, match="LeafSpec or NodeSpec"):
            anetf.AnetfConfig(bad, anetf.CAPABILITY, trials=10, seed=0)
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
