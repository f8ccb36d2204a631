import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from eii import codec, matrix as mx, pcheck
from eii.codespec import (
    FieldTooSmallError,
    LeafSpec,
    NodeSpec,
    block_count,
    dimension,
    length,
    spec_from_capability,
    tail_counts,
)
from eii.gf import field
from eii.words import SymbolWord
from test_acceptance import TABLE_1
from test_codec import ordered_chains
from test_golden import STRIPE_SHAPES
from test_matrix import rank

G8 = field(3)
G16 = field(4)

L12 = (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2))
L123 = (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2), LeafSpec(G8, 7, 3))


def example_9_two_level():
    return NodeSpec(G8, L12, (1, 1, 1))


def example_9_three_layer():
    c20 = NodeSpec(G8, L12, (2, 1, 0))
    c21 = NodeSpec(G8, L12, (1, 1, 1))
    return NodeSpec(G8, (c20, c21), (3, 1, 0))


def example_12_four_layer():
    c20 = NodeSpec(G8, L123, (4, 1, 0, 0))
    c21 = NodeSpec(G8, L123, (3, 2, 0, 0))
    c22 = NodeSpec(G8, L123, (3, 1, 1, 0))
    c30 = NodeSpec(G8, (c20, c21, c22), (2, 2, 0, 0))
    c31 = NodeSpec(G8, (c20, c21, c22), (2, 1, 1, 0))
    c32 = NodeSpec(G8, (c20, c21, c22), (1, 2, 1, 0))
    return NodeSpec(G8, (c30, c31, c32), (1, 1, 1, 0))


def kronecker_increment(prev, nxt):
    """The paper's recursion, as matrices: the rows extending prev's
    parity-check matrix to nxt's, one Vandermonde (x) B_j strip per tail
    count that grows, B_j the increment between children j-1 and j or the
    identity for the zero code."""
    ctx = prev.ctx
    if isinstance(prev, LeafSpec):
        return mx.vandermonde(ctx, nxt.u - prev.u, prev.n, prev.u)
    m = block_count(prev)
    kids = prev.children
    strips = []
    for j, (lo, hi) in enumerate(zip(tail_counts(prev)[1:], tail_counts(nxt)[1:]), 1):
        if hi == lo:
            continue
        if j < len(kids):
            right = kronecker_increment(kids[j - 1], kids[j])
        else:
            right = mx.identity(ctx, length(kids[0]))
        strips.append(mx.kronecker(mx.vandermonde(ctx, hi - lo, m, lo), right))
    return mx.stack(strips)


def kronecker_construct(spec):
    """I_m (x) H(C_0) stacked over the increment from C_0^m to the node."""
    ctx = spec.ctx
    if isinstance(spec, LeafSpec):
        return mx.vandermonde(ctx, spec.u, spec.n)
    m = block_count(spec)
    top = mx.kronecker(mx.identity(ctx, m), kronecker_construct(spec.children[0]))
    base = NodeSpec(ctx, spec.children, (m,) + (0,) * len(spec.children))
    return top if base == spec else mx.stack([top, kronecker_increment(base, spec)])


def ordered_design_trees():
    """The totally ordered trees of the Table 1 design space: four 3-row
    blocks with rows 0..6, entrywise nondecreasing, total redundancy 22."""
    triples = list(itertools.combinations_with_replacement(range(7), 3))

    def chains(prefix, left):
        if len(prefix) == 4:
            if left == 0:
                yield tuple(prefix)
            return
        for t in triples:
            if sum(t) <= left and (not prefix or all(a <= b for a, b in zip(prefix[-1], t))):
                yield from chains([*prefix, t], left - sum(t))

    return list(chains([], 22))


def _matches_kronecker_oracle(spec):
    pc = pcheck.build_parity_check(spec)
    want = kronecker_construct(spec)
    assert pc.h.data.shape == want.data.shape and pc.h == want
    return pc


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_matrix_matches_kronecker_oracle_on_chains(data):
    n = data.draw(st.integers(1, 7))
    for spec in data.draw(ordered_chains(data.draw(st.integers(0, 2)), n)):
        _matches_kronecker_oracle(spec)


def test_matrix_matches_kronecker_oracle_on_table1_and_stripe_shapes():
    codes = [(cap, w, n) for cap, w, n, _, _ in TABLE_1] + [(cap, 8, 7) for cap in STRIPE_SHAPES]
    for cap, w, n in codes:
        _matches_kronecker_oracle(spec_from_capability(field(w), cap, n))


def test_matrix_matches_kronecker_oracle_on_paper_examples():
    c20 = NodeSpec(G8, L123, (4, 1, 0, 0))
    c21 = NodeSpec(G8, L123, (3, 2, 0, 0))
    c22 = NodeSpec(G8, L123, (3, 1, 1, 0))
    specs = [
        example_9_two_level(), example_9_three_layer(), example_12_four_layer(),
        NodeSpec(G8, (NodeSpec(G8, L12, (5, 1, 0)), NodeSpec(G8, L12, (4, 2, 0))), (1, 1, 0)),
        NodeSpec(G8, (c20, c21), (2, 2, 0)),
        NodeSpec(G8, (c20, c21, c22), (2, 1, 1, 0)),
        NodeSpec(G8, (c20, c21, c22), (1, 2, 1, 0)),
        spec_from_capability(G8, "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 7),
        LeafSpec(G8, 7, 6),
    ]
    for spec in specs:
        _matches_kronecker_oracle(spec)


def test_matrix_matches_kronecker_oracle_on_design_trees():
    trees = ordered_design_trees()
    assert len(trees) == 6108
    for tree in random.Random(26).sample(trees, 300):
        pc = _matches_kronecker_oracle(spec_from_capability(G8, tree, 7))
        assert pc.h.data.shape == (22, 84)


def test_reduced_shares_h_exactly_when_every_row_is_kept():
    from test_codec import EX1
    specs = [EX1, example_9_two_level(), example_12_four_layer(), LeafSpec(G8, 7, 0)]
    specs += [spec_from_capability(G8, cap, 7) for cap in STRIPE_SHAPES[1:]]
    for spec in specs:
        pc = pcheck.build_parity_check(spec)
        assert (pc.reduced.data is pc.h.data) == (pc.rank == pc.h.rows)
    pc = pcheck.build_parity_check(EX1)
    assert (pc.h.rows, pc.rank) == (30, 25)


def test_layers_are_the_block_lengths_of_every_layer():
    assert pcheck.build_parity_check(example_12_four_layer()).layers == (420, 140, 35, 7)
    assert pcheck.build_parity_check(example_9_two_level()).layers == (21, 7)
    assert pcheck.build_parity_check(LeafSpec(G8, 7, 2)).layers == (7,)


@pytest.mark.parametrize("spec", [
    LeafSpec(G8, 9, 2),  # rows longer than order(alpha)
    NodeSpec(G8, (LeafSpec(G8, 7, 1),), (9, 1)),  # more blocks than GF(8) has points
])
def test_unvalidated_spec_builds_no_matrix(spec):
    with pytest.raises(FieldTooSmallError):
        pcheck.build_parity_check(spec)
    with pytest.raises(FieldTooSmallError):
        codec.encode(spec, [0] * dimension(spec))


def test_leaf_matrix_is_vandermonde():
    pc = pcheck.build_parity_check(LeafSpec(G8, 7, 6))
    assert pc.h == mx.vandermonde(G8, 6, 7, 0)


def test_example7_shape():
    c20 = NodeSpec(G8, L12, (5, 1, 0))
    c21 = NodeSpec(G8, L12, (4, 2, 0))
    spec = NodeSpec(G8, (c20, c21), (1, 1, 0))
    pc = pcheck.build_parity_check(spec)
    assert (pc.h.rows, pc.h.cols) == (15, 84)
    assert pc.rank == 15
    # bottom block is H(1,6,1) x H(1,7,1) repeated side by side
    b = mx.kronecker(mx.vandermonde(G8, 1, 6, 1), mx.vandermonde(G8, 1, 7, 1))
    bottom = mx.MatrixGF(G8, pc.h.data[14:15])
    assert bottom == mx.kronecker(mx.vandermonde(G8, 1, 2, 0), b)


def test_example8_shape():
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    pc = pcheck.build_parity_check(spec)
    assert (pc.h.rows, pc.h.cols) == (22, 84)
    assert pc.rank == 22


def test_example9_reduction():
    pc = pcheck.build_parity_check(example_9_two_level())
    assert (pc.h.rows, pc.h.cols) == (12, 21)
    assert pc.rank == 10
    assert pc.reduced.rows == 10
    # the paper deletes the last two rows; earliest-rows reduction keeps 0..9
    assert pc.reduced == mx.MatrixGF(G8, pc.h.data[:10])

    pc3 = pcheck.build_parity_check(example_9_three_layer())
    assert (pc3.h.rows, pc3.h.cols) == (24, 84)
    assert pc3.rank == 22
    assert pc3.reduced.rows == 22


def test_reduce_full_rank_unchanged():
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    pc = pcheck.build_parity_check(spec)
    assert pc.reduced.rows == pc.h.rows


def test_example10_shape():
    spec = spec_from_capability(G8, "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 7)
    pc = pcheck.build_parity_check(spec)
    assert (pc.h.rows, pc.h.cols) == (22, 84)
    assert pc.rank == 22


def test_example11_shapes():
    c20 = NodeSpec(G8, L123, (4, 1, 0, 0))
    c21 = NodeSpec(G8, L123, (3, 2, 0, 0))
    c22 = NodeSpec(G8, L123, (3, 1, 1, 0))
    shapes = {
        (26, 140): NodeSpec(G8, (c20, c21), (2, 2, 0)),
        (27, 140): NodeSpec(G8, (c20, c21, c22), (2, 1, 1, 0)),
        (28, 140): NodeSpec(G8, (c20, c21, c22), (1, 2, 1, 0)),
    }
    for (rows, cols), spec in shapes.items():
        pc = pcheck.build_parity_check(spec)
        assert (pc.h.rows, pc.h.cols) == (rows, cols)
        assert pc.rank == length(spec) - dimension(spec)


def test_example12_shape_and_density():
    pc = pcheck.build_parity_check(example_12_four_layer())
    assert (pc.h.rows, pc.h.cols) == (81, 420)
    assert pc.rank == 81
    assert pc.h.nonzero_count() == 2940
    assert pcheck.density(pc) == 2940 / 34020


def test_density_all_ones():
    pc = pcheck.build_parity_check(LeafSpec(G8, 7, 1))
    assert pcheck.density(pc) == 1.0


def test_rank_equals_redundancy_for_examples():
    specs = [
        LeafSpec(field(7), 84, 22),
        spec_from_capability(G16, "(1,1,1,1,1,2,2,2,2,3,3,3)", 7),
        spec_from_capability(G8, "((1,1,2),(1,1,2),(1,2,3),(1,2,5))", 7),
        spec_from_capability(G8, "(((0,0,1),(1,1,3)),((1,1,3),(2,3,6)))", 7),
        spec_from_capability(G16, "(0,0,1,1,1,1,1,1,2,3,4,7)", 7),
    ]
    for spec in specs:
        pc = pcheck.build_parity_check(spec)
        assert pc.rank == length(spec) - dimension(spec)


def test_nested_row_space_containment():
    # a contains b, so a's checks are a subset of b's constraints
    c20 = NodeSpec(G8, L12, (2, 1, 0))
    c21 = NodeSpec(G8, L12, (1, 1, 1))
    ha = pcheck.build_parity_check(c20).h
    hb = pcheck.build_parity_check(c21).h
    stacked = mx.stack([hb, ha])
    assert rank(stacked) == rank(hb)


def test_pc_decode_guaranteed_masks():
    rng = random.Random(17)
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    pc = pcheck.build_parity_check(spec)
    n = length(spec)
    for _ in range(100):
        word = codec.encode(spec, [rng.randrange(8) for _ in range(dimension(spec))])
        order = list(range(n))
        rng.shuffle(order)
        mask = [False] * n
        for pos in order:
            mask[pos] = True
            if not codec.correctable(spec, mask):
                mask[pos] = False
                break
        erased = word.with_erasures([i for i, e in enumerate(mask) if e])
        assert pcheck.pc_decode(pc, erased) == word


def test_pc_decode_beyond_dimension_bound():
    leaf = LeafSpec(field(7), 84, 22)
    pc = pcheck.build_parity_check(leaf)
    word = codec.encode(leaf, [0] * 62)
    assert pcheck.pc_decode(pc, word.with_erasures(list(range(23)))) is None


def test_pc_decode_beyond_capability_witness():
    # hunt for a mask the guarantee rejects but whose columns stay
    # independent: extend a random mask one position past the point where
    # the capability predicate gives up
    rng = random.Random(23)
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    pc = pcheck.build_parity_check(spec)
    word = codec.encode(spec, [rng.randrange(8) for _ in range(dimension(spec))])
    found = False
    for _ in range(50):
        order = list(range(84))
        rng.shuffle(order)
        mask = [False] * 84
        for pos in order:
            mask[pos] = True
            if not codec.correctable(spec, mask):
                break
        positions = [i for i, e in enumerate(mask) if e]
        got = pcheck.pc_decode(pc, word.with_erasures(positions))
        if got is not None:
            assert got == word
            found = True
            break
    assert found


def _outcome(call, *args):
    """The returned word or None, or the InconsistentWordError type."""
    try:
        return call(*args)
    except mx.InconsistentWordError as exc:
        return type(exc)


def _three_ways(pc, word) -> list:
    """pc_decode on fresh plan caches three times: direct solve, plan build,
    plan replay.  Each outcome is the returned word or the exception type."""
    pcheck._sightings.cache_clear()
    pcheck._plan.cache_clear()
    outcomes = []
    for built, replayed in ((0, 0), (1, 0), (1, 1)):
        outcomes.append(_outcome(pcheck.pc_decode, pc, word))
        info = pcheck._plan.cache_info()
        assert (info.misses, info.hits) == (built, replayed)
    return outcomes


def test_plan_paths_agree_on_every_example_code():
    from eii.codespec import min_distance
    from test_codec import example_codes
    rng = random.Random(31)
    for name, spec in example_codes().items():
        pc = pcheck.build_parity_check(spec)
        n = length(spec)
        word = codec.encode(spec, [rng.randrange(spec.ctx.q) for _ in range(dimension(spec))])
        # fewer than d - 1 erasures: unique completion, and any corrupted
        # known symbol leaves the code
        erased = rng.sample(range(n), min_distance(spec) - 2)
        assert _three_ways(pc, word.with_erasures(erased)) == [word] * 3, name
        symbols = list(word.symbols)
        pos = rng.choice([i for i in range(n) if i not in erased])
        symbols[pos] ^= rng.randrange(1, spec.ctx.q)
        bad = SymbolWord.known(symbols).with_erasures(erased)
        assert _three_ways(pc, bad) == [mx.InconsistentWordError] * 3, name
        assert _three_ways(pc, word.with_erasures(range(n))) == [None] * 3, name
        # dependent erased columns with a check row left intact: None while
        # consistent, InconsistentWordError first once a checked symbol is hit
        h = pc.reduced.data
        row = h[(h != 0).sum(axis=1).argmin()]
        dependent = [i for i in range(n) if not row[i]]
        assert rank(mx.MatrixGF(spec.ctx, h[:, dependent])) < len(dependent), name
        assert _three_ways(pc, word.with_erasures(dependent)) == [None] * 3, name
        symbols = list(word.symbols)
        symbols[int(row.nonzero()[0][0])] ^= 1
        bad = SymbolWord.known(symbols).with_erasures(dependent)
        assert _three_ways(pc, bad) == [mx.InconsistentWordError] * 3, name


def test_plan_caches_stay_bounded_on_fresh_masks():
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    pc = pcheck.build_parity_check(spec)
    word = codec.encode(spec, [0] * dimension(spec))
    pcheck._sightings.cache_clear()
    pcheck._plan.cache_clear()
    rng = random.Random(37)
    seen = set()
    while len(seen) < 5000:
        mask = tuple(sorted(rng.sample(range(84), rng.randint(1, 3))))
        if mask in seen:
            continue
        seen.add(mask)
        assert pcheck.pc_decode(pc, word.with_erasures(mask)) == word
    sightings, plans = pcheck._sightings.cache_info(), pcheck._plan.cache_info()
    assert sightings.maxsize == pcheck.PLAN_SIGHTINGS < 5000
    assert sightings.currsize == pcheck.PLAN_SIGHTINGS
    assert plans.maxsize == pcheck.PLAN_CACHE
    assert (plans.currsize, plans.misses, plans.hits) == (0, 0, 0)
    # the last mask, seen once above, is planned on its second sighting
    for _ in range(2):
        assert pcheck.pc_decode(pc, word.with_erasures(mask)) == word
    plans = pcheck._plan.cache_info()
    assert (plans.currsize, plans.misses, plans.hits) == (1, 1, 1)
    # decode's memo of reports and levels is bounded like the sightings
    codec._outcome.cache_clear()
    for mask in seen:
        assert codec.decode(spec, word.with_erasures(mask))[0] == word
    outcomes = codec._outcome.cache_info()
    assert outcomes.maxsize == pcheck.PLAN_SIGHTINGS
    assert (outcomes.currsize, outcomes.misses) == (pcheck.PLAN_SIGHTINGS, 5000)


def test_rejected_words_count_no_sighting():
    # a code solved in the local split, and row 11 (t < M block sums),
    # whose first sightings go to solve_erasures
    for cap, w in (("((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 3), (TABLE_1[10][0], 4)):
        spec = spec_from_capability(field(w), cap, 7)
        pc = pcheck.build_parity_check(spec)
        word = codec.encode(spec, [i % 8 for i in range(dimension(spec))])
        erased = word.with_erasures([0, 8, 30])
        pcheck._sightings.cache_clear()
        pcheck._plan.cache_clear()
        before = pcheck._sightings.cache_info(), pcheck._plan.cache_info()
        short = SymbolWord(erased.symbols[1:], erased.erased[1:])
        outside = SymbolWord((spec.ctx.q,) + erased.symbols[1:], erased.erased)  # same mask
        for bad in (short, outside, outside):
            with pytest.raises(ValueError):
                pcheck.pc_decode(pc, bad)
        assert (pcheck._sightings.cache_info(), pcheck._plan.cache_info()) == before, cap
        # the next valid word is the mask's first sighting: a direct solve, no plan
        assert pcheck.pc_decode(pc, erased) == word, cap
        assert pcheck._plan.cache_info() == before[1], cap


def _with_a_corrupted_symbol(word, block: int, flip) -> list:
    """`word`, then copies with one known symbol changed (xored with the
    nonzero `flip()`) in a block without erasures and in a block with some,
    where such blocks have known symbols; blocks are `block` long."""
    n = len(word)
    struck = {i // block for i in range(n) if word.erased[i]}
    out = [word]
    for hit in (False, True):
        known = [i for i in range(n) if not word.erased[i] and (i // block in struck) == hit]
        if known:
            symbols = list(word.symbols)
            symbols[known[len(known) // 2]] ^= flip()
            out.append(SymbolWord(tuple(symbols), word.erased))
    return out


def _first_sighting_matches_direct_solve(pc, word) -> object:
    pcheck._sightings.cache_clear()
    got = _outcome(pcheck.pc_decode, pc, word)
    assert got == _outcome(mx.solve_erasures, pc.reduced, word)
    return got


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_first_sighting_matches_direct_solve_on_chains(data):
    # weakest leaves with u0 = 0, 1 and >= 2, masks of every weight, clean
    # and with one corrupted known symbol
    n = data.draw(st.integers(1, 7))
    chain = data.draw(ordered_chains(data.draw(st.integers(0, 2)), n))
    for spec in chain:
        pc = pcheck.build_parity_check(spec)
        k = dimension(spec)
        word = codec.encode(spec, data.draw(st.lists(st.integers(0, 7), min_size=k, max_size=k)))
        order = data.draw(st.permutations(range(length(spec))))
        for weight in range(length(spec) + 1):
            erased = word.with_erasures(order[:weight])
            for w in _with_a_corrupted_symbol(erased, pcheck._local_split(pc).n,
                                              lambda: 1 + weight % 7):
                _first_sighting_matches_direct_solve(pc, w)


@pytest.mark.parametrize("cap", STRIPE_SHAPES)
def test_first_sighting_matches_direct_solve_on_stripe_shapes(cap):
    # 2,000 fresh masks of weight 0-26 (the shapes have 22 checks), so many
    # lie beyond capability and beyond the dimension bound
    rng = random.Random(cap)
    spec = spec_from_capability(field(8), cap, 7)
    pc = pcheck.build_parity_check(spec)
    seen = set()
    for i in range(2000):
        if i % 20 == 0:
            word = codec.encode(spec, [rng.randrange(256) for _ in range(dimension(spec))])
        erased = word.with_erasures(rng.sample(range(84), rng.randint(0, 26)))
        variants = _with_a_corrupted_symbol(erased, 7, lambda: rng.randrange(1, 256))
        got = _first_sighting_matches_direct_solve(pc, variants[i % len(variants)])
        seen.add(got if got is None or got is mx.InconsistentWordError else SymbolWord)
    assert seen == {SymbolWord, None, mx.InconsistentWordError}


def test_first_sightings_take_the_local_split(monkeypatch):
    # the stripe shapes (every leaf block sum known) solve in r' = 10 rows,
    # never through solve_erasures' core, and Table 1 row 12 (every sum of
    # 21 known) in 18; the [84,62] leaf (no rows left to Q) and row 11 (10
    # Vandermonde combinations of 12 block sums) go to that core once,
    # which solves on all 22 of H's rows
    solve, solve_symbols = mx._solve, mx._solve_symbols
    heights, direct = [], []

    def recorded(ctx, cols, carried):
        heights.append(cols.shape[0])
        return solve(ctx, cols, carried)

    def counted(h, syms, mask):
        if not split:
            direct.append((h, mask.tobytes()))
            return solve_symbols(h, syms, mask)
        raise AssertionError("pc_decode called solve_erasures' core")

    monkeypatch.setattr(mx, "_solve", recorded)
    monkeypatch.setattr(mx, "_solve_symbols", counted)
    codes = [(cap, 8, 7, 10, True) for cap in STRIPE_SHAPES]
    codes += [(TABLE_1[0][0], 7, 84, 22, False), (TABLE_1[10][0], 4, 7, 22, False),
              (TABLE_1[11][0], 3, 7, 18, True)]
    rng = random.Random(41)
    for cap, w, n, rows, split in codes:
        spec = spec_from_capability(field(w), cap, n)
        pc = pcheck.build_parity_check(spec)
        word = codec.encode(spec, [rng.randrange(2 ** w) for _ in range(dimension(spec))])
        mask = [False] * 84
        for pos in rng.sample(range(84), 84):  # a maximal correctable prefix
            mask[pos] = True
            if not codec.correctable(spec, mask):
                mask[pos] = False
                break
        pcheck._sightings.cache_clear()
        heights.clear()
        direct.clear()
        erased = word.with_erasures([i for i, e in enumerate(mask) if e])
        assert pcheck.pc_decode(pc, erased) == word, cap
        assert heights == [rows], cap
        assert direct == ([] if split else [(pc.reduced, bytes(mask))]), cap


def test_one_plan_table_for_encode_and_row_repair(monkeypatch):
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    data = [i % 8 for i in range(dimension(spec))]
    table = pcheck._plan
    keys = []

    def recorded(h, bits):
        keys.append((h, bits))
        return table(h, bits)

    monkeypatch.setattr(pcheck, "_plan", recorded)
    monkeypatch.setattr(codec, "_plan", recorded)
    table.cache_clear()
    word = codec.encode(spec, data)
    assert table.cache_info()[:2] == (0, 1)  # (hits, misses): the first encode builds one plan
    for _ in range(2):
        assert codec.encode(spec, data) == word
    assert table.cache_info()[:2] == (2, 1)
    # row repairs in block 0 and a peel in block 1 land in the same table
    erased = word.with_erasures([0, 8, 21, 22, 23])
    for _ in range(2):
        assert codec.decode(spec, erased)[0] == word
        assert pcheck.pc_decode(pcheck.build_parity_check(spec), erased) == word
    rows = {pcheck.build_parity_check(leaf).reduced for leaf in spec.children[0].children}
    matrices = rows | {pcheck.build_parity_check(spec).reduced}
    assert table.cache_info().currsize == len(set(keys)) > 2
    for h, bits in keys:
        assert h in matrices
        assert type(bits) is bytes and len(bits) == h.cols and set(bits) <= {0, 1}

def test_decode_and_pc_decode_build_one_plan_per_mask(monkeypatch):
    # each counts its own sightings; their second sightings share one plan
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    pc = pcheck.build_parity_check(spec)
    word = codec.encode(spec, [i % 8 for i in range(dimension(spec))])
    erased = word.with_erasures([0, 8, 21, 22, 23, 50])
    table = pcheck._plan
    top, known = [], []

    def recorded(h, bits):
        misses = table.cache_info().misses
        plan = table(h, bits)
        if h == pc.reduced:
            (known if bits == bytes(84) else top).append(table.cache_info().misses - misses)
        return plan

    monkeypatch.setattr(pcheck, "_plan", recorded)
    monkeypatch.setattr(codec, "_plan", recorded)
    codec._outcome.cache_clear()
    pcheck._sightings.cache_clear()
    table.cache_clear()
    for _ in range(2):
        assert codec.decode(spec, erased)[0] == word
        assert pcheck.pc_decode(pc, erased) == word
    assert top == [1, 0]  # decode's second sighting builds it, pc_decode's replays it
    assert known == [1]  # decode's first sighting checks membership with the all-known plan


def test_fresh_decodes_leave_pc_decode_sightings_alone():
    # decode keeps no sightings of its own in pc_decode's table: a mask
    # seen once by pc_decode is planned on its second sighting, however
    # many fresh masks decode has seen in between
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    pc = pcheck.build_parity_check(spec)
    word = codec.encode(spec, [i % 8 for i in range(dimension(spec))])
    erased = word.with_erasures([0, 8, 21, 22, 23, 50])
    pcheck._sightings.cache_clear()
    pcheck._plan.cache_clear()
    assert pcheck.pc_decode(pc, erased) == word
    rng = random.Random(43)
    seen = {(0, 8, 21, 22, 23, 50)}
    while len(seen) < 1101:
        mask = tuple(sorted(rng.sample(range(84), rng.randint(1, 3))))
        if mask not in seen:
            seen.add(mask)
            assert codec.decode(spec, word.with_erasures(mask))[0] == word
    misses = pcheck._plan.cache_info().misses
    assert pcheck.pc_decode(pc, erased) == word
    assert pcheck._plan.cache_info().misses == misses + 1


def test_alist_export():
    pc = pcheck.build_parity_check(LeafSpec(G8, 4, 2))
    text = mx.to_alist(pc.h)
    lines = text.strip().split("\n")
    assert lines[0] == "2 4"
    assert lines[1] == "1 2 3 4"
    assert lines[2] == "1 2 3 4"
