import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eii import codec, pcheck
from eii.codespec import (
    LeafSpec,
    NodeSpec,
    ValidationError,
    block_count,
    capability,
    dimension,
    layer_count,
    length,
    min_distance,
    row_length,
    spec_from_capability,
    tail_counts,
    validate,
)
from eii.gf import FieldContext, field
from eii.matrix import InconsistentWordError
from eii.words import SymbolWord
from test_acceptance import TABLE_1
from test_golden import STRIPE_SHAPES
from test_matrix import forward_eliminate, mat_vec, rank

G4 = field(2)
G8 = field(3)
G16 = field(4)

EX1_LEAVES = (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2), LeafSpec(G8, 7, 4), LeafSpec(G8, 7, 5))
EX1 = NodeSpec(G8, EX1_LEAVES, (2, 1, 1, 2, 1))

EX1_GRID = {0: [1, 3, 4, 5, 6], 1: list(range(7)), 2: [2], 3: [1, 3, 5, 6],
            4: [0, 1, 3, 4, 6], 5: [5], 6: [3, 5]}


def example_codes():
    return {
        "ex1": EX1,
        "ex3-c3": spec_from_capability(G8, "((1,1,1,1,1,2),(1,1,1,1,2,2))", 7),
        "ex4-c3": spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7),
        "ex5-c3": spec_from_capability(G8, "((1,1,2),(1,1,2),(1,1,2),(1,2,7))", 7),
        "ex6-c4": spec_from_capability(G8, "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 7),
        "flat12": spec_from_capability(G16, "(1,1,1,1,1,2,2,2,2,3,3,3)", 7),
        "d7": spec_from_capability(G8, "(((0,0,1),(1,1,3)),((1,1,3),(2,3,6)))", 7),
    }


def random_codeword(spec, rng):
    return codec.encode(spec, [rng.randrange(spec.ctx.q) for _ in range(dimension(spec))])


def random_correctable_mask(spec, rng):
    """Prefix of a random erasure order, cut at a random correctable point."""
    n = length(spec)
    order = list(range(n))
    rng.shuffle(order)
    mask = [False] * n
    good = []
    for pos in order:
        mask[pos] = True
        if not codec.correctable(spec, mask):
            mask[pos] = False
            break
        good.append(pos)
    keep = rng.randint(0, len(good))
    mask = [False] * n
    for pos in good[:keep]:
        mask[pos] = True
    return mask


# -- membership -------------------------------------------------------------


def _leaf_syndrome(spec, symbols) -> bool:
    ctx = spec.ctx
    for r in range(spec.u):
        acc = 0
        for c, sym in enumerate(symbols):
            if sym:
                acc ^= ctx.mul(ctx.alpha_pow(r * c), sym)
        if acc:
            return False
    return True


def recursive_is_codeword(spec, symbols) -> bool:
    """Membership from the code's definition, independent of the parity-check
    matrix: every block lies in the weakest child, and the weighted block
    sums land in the nested child codes."""
    if isinstance(spec, LeafSpec):
        return _leaf_syndrome(spec, symbols)
    ctx = spec.ctx
    m = block_count(spec)
    n_sub = length(spec.children[0])
    blocks = [symbols[j * n_sub:(j + 1) * n_sub] for j in range(m)]
    if not all(recursive_is_codeword(spec.children[0], blk) for blk in blocks):
        return False
    tails = tail_counts(spec)
    t = len(spec.children)
    # row r of the weighted-sum system lands in the strongest child whose
    # tail count still exceeds r; checking that one code suffices by nesting
    for r in range(tails[1] if t >= 1 else 0):
        level = max(i for i in range(1, t + 1) if tails[i] > r)
        combo = [0] * n_sub
        for j, blk in enumerate(blocks):
            coef = ctx.alpha_pow(r * j)
            for x, sym in enumerate(blk):
                if sym:
                    combo[x] ^= ctx.mul(coef, sym)
        if level == t:
            if any(combo):
                return False
        elif not recursive_is_codeword(spec.children[level], combo):
            return False
    return True


def test_is_codeword_matches_recursive_oracle():
    from test_acceptance import example_codes as acceptance_codes
    rng = random.Random(12)
    for name, spec in acceptance_codes().items():
        word = random_codeword(spec, rng)
        assert codec.is_codeword(spec, word) and recursive_is_codeword(spec, word.symbols), name
        for pos in range(length(spec)):
            symbols = list(word.symbols)
            symbols[pos] ^= rng.randrange(1, spec.ctx.q)
            got = codec.is_codeword(spec, SymbolWord.known(symbols))
            assert got == recursive_is_codeword(spec, symbols), (name, pos)


def test_zero_word_is_codeword():
    word = SymbolWord.known([0] * 49)
    assert codec.is_codeword(EX1, word)


def test_encode_produces_codewords():
    rng = random.Random(1)
    for _ in range(100):
        assert codec.is_codeword(EX1, random_codeword(EX1, rng))


def test_single_flip_leaves_code():
    rng = random.Random(2)
    for name, spec in example_codes().items():
        word = random_codeword(spec, rng)
        pos = rng.randrange(length(spec))
        symbols = list(word.symbols)
        symbols[pos] ^= rng.randrange(1, spec.ctx.q)
        assert not codec.is_codeword(spec, SymbolWord.known(symbols)), name


def test_is_codeword_needs_full_word():
    word = SymbolWord.known([0] * 49).with_erasures([3])
    with pytest.raises(ValueError):
        codec.is_codeword(EX1, word)


def test_symbol_range_checked_at_every_entry_point():
    from eii.pcheck import build_parity_check, pc_decode
    bad = SymbolWord.known([0] * 10 + [8] + [0] * 38)
    for call in (lambda: codec.is_codeword(EX1, bad),
                 lambda: codec.decode(EX1, bad.with_erasures([0])),
                 lambda: pc_decode(build_parity_check(EX1), bad.with_erasures([0])),
                 lambda: codec.encode(EX1, [0] * 23 + [-1])):
        with pytest.raises(ValueError, match="position"):
            call()


@pytest.mark.parametrize("bad", [1.7, 2.0, np.float64(3.0), True, np.bool_(False), "5", None])
def test_non_integer_symbols_rejected_at_every_entry_point(bad):
    from eii.pcheck import build_parity_check, pc_decode
    word = SymbolWord.known([0] * 10 + [bad] + [0] * 38)
    pc = build_parity_check(EX1)
    calls = [lambda: codec.is_codeword(EX1, word),
             lambda: codec.decode(EX1, word.with_erasures([0])),
             lambda: codec.encode(EX1, [0] * 10 + [bad] + [0] * 13)]
    # pc_decode three times: a rejected word counts no sighting, so each
    # call would be the mask's first
    calls += [lambda: pc_decode(pc, word.with_erasures([0]))] * 3
    for call in calls:
        with pytest.raises(ValueError, match="position 10"):
            call()


def test_numpy_integer_symbols_accepted():
    rng = random.Random(14)
    data = [rng.randrange(8) for _ in range(dimension(EX1))]
    word = codec.encode(EX1, data)
    assert codec.encode(EX1, np.array(data, dtype=np.uint8)) == word
    assert codec.encode(EX1, [np.int64(x) for x in data]) == word
    assert codec.is_codeword(EX1, SymbolWord.known(np.array(word.symbols, dtype=np.int32)))


def test_decode_has_no_verify_switch():
    with pytest.raises(TypeError):
        codec.decode(EX1, SymbolWord.known([0] * 49), verify=False)


@pytest.mark.parametrize("cap, outcome", [("((0,0,0),(1,1,1))", codec.RECOVERED),
                                          ("(0,0,0)", codec.UNCORRECTABLE),
                                          ("((0,0,0),(0,0,0))", codec.UNCORRECTABLE)])
def test_zero_row_parity_check_codes(cap, outcome):
    from eii.pcheck import build_parity_check
    spec = spec_from_capability(G8, cap, 7)
    assert build_parity_check(spec).rank == length(spec) - dimension(spec)
    word = random_codeword(spec, random.Random(13))
    assert codec.is_codeword(spec, word)
    erased = word.with_erasures([3])
    out, report = codec.decode(spec, erased)
    assert report.outcome == outcome
    assert out == (word if outcome == codec.RECOVERED else erased)


# -- systematic layout --------------------------------------------------------


def test_example2_parity_grid():
    mask = codec.parity_mask(EX1)
    rows = [mask[r * 7:(r + 1) * 7] for r in range(7)]
    expected = [
        (False, False, False, False, False, False, True),
        (False, False, False, False, False, False, True),
        (False, False, False, False, False, True, True),
        (False, False, False, True, True, True, True),
        (False, False, True, True, True, True, True),
        (False, False, True, True, True, True, True),
        (True, True, True, True, True, True, True),
    ]
    assert rows == expected


def test_encode_zero_data():
    word = codec.encode(EX1, [0] * 24)
    assert not any(word.symbols)
    assert not any(word.erased)


def test_encode_wrong_length():
    with pytest.raises(ValueError):
        codec.encode(EX1, [0] * 10)


def test_encode_zero_syndrome_all_examples():
    from eii.pcheck import build_parity_check
    rng = random.Random(3)
    for name, spec in example_codes().items():
        h = build_parity_check(spec).h
        for _ in range(20):
            word = random_codeword(spec, rng)
            assert not any(mat_vec(h, word.symbols)), name


def decode_based_encode(spec, data):
    """The encoder before erasure plans, kept as the oracle: the systematic
    word with every parity position erased, repaired by the recursive
    decoder."""
    mask = codec.parity_mask(spec)
    codec._outcome.cache_clear()  # a first sighting: decode takes the recursion, not encode's plan
    it = iter(data)
    word = SymbolWord(tuple(0 if p else next(it) for p in mask), mask)
    out, report = codec.decode(spec, word)
    assert report.outcome == codec.RECOVERED
    return out


# -- decoding ------------------------------------------------------------------


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_closed_form_triangles_match_forward_elimination(data):
    # the Newton form against the elimination of Vandermonde rows it
    # replaces, over w = 2..8, random block orders and every n_rows; the
    # triangle keeps each entry c as its flat mul_table offset c << w
    from eii import matrix as mx
    ctx = field(data.draw(st.integers(2, 8)))
    m = data.draw(st.integers(1, min(ctx.q - 1, 16)))
    order = tuple(data.draw(st.permutations(range(m))))
    for n_rows in range(1, m + 1):
        rows = mx.vandermonde(ctx, n_rows, m).data[:, list(order)]
        forward_eliminate(rows, ctx, n_rows)
        tri = codec._triangulate.__wrapped__(ctx, order, n_rows)
        assert tri.dtype == np.uint16 and not tri.flags.writeable
        assert np.array_equal(tri >> ctx.w, rows) and not (tri & (ctx.q - 1)).any()


def test_decode_example1_grid():
    rng = random.Random(4)
    word = random_codeword(EX1, rng)
    erased = word.with_erasures([r * 7 + c for r, cols in EX1_GRID.items() for c in cols])
    out, report = codec.decode(EX1, erased)
    assert report.outcome == codec.RECOVERED
    assert out == word
    # the printed set partition: S0={2,5}, S1={6}, S2={3}, S3={0,4}, S4={1}
    assert report.assignment == (3, 4, 0, 2, 3, 0, 1)
    assert report.peel_order == (2, 5, 6, 3, 4, 0, 1)


def test_decode_no_erasures():
    rng = random.Random(5)
    word = random_codeword(EX1, rng)
    out, report = codec.decode(EX1, word)
    assert report.outcome == codec.RECOVERED
    assert out == word


def test_decode_uncorrectable_returns_input():
    rng = random.Random(6)
    word = random_codeword(EX1, rng)
    # erase two full rows assigned to the weakest code: exceeds every budget
    erased = word.with_erasures(list(range(14)) + [14, 15, 16, 17, 18])
    out, report = codec.decode(EX1, erased)
    assert report.outcome == codec.UNCORRECTABLE
    assert report.assignment == (4, 4, 3, 0, 0, 0, 0)
    assert out == erased


def test_decode_round_trips_randomized():
    rng = random.Random(7)
    for name, spec in example_codes().items():
        for _ in range(60):
            word = random_codeword(spec, rng)
            mask = random_correctable_mask(spec, rng)
            erased = word.with_erasures([i for i, e in enumerate(mask) if e])
            out, report = codec.decode(spec, erased)
            assert report.outcome == codec.RECOVERED, name
            assert out == word, name


def test_decode_inconsistent_known_symbols():
    # a non-codeword with an erasure the leaf solver is forced to check
    symbols = [0] * 49
    symbols[0] = 1  # row 0 now fails its row-code checks whatever fills the hole
    word = SymbolWord(tuple(symbols), tuple(i == 3 for i in range(49)))
    with pytest.raises(InconsistentWordError):
        codec.decode(EX1, word)


def test_leaf_plan_check_rows():
    # the check rows C have full rank u - e and, with the solve rows X,
    # map every leaf codeword's known symbols to 0 and to its erased ones
    from eii import matrix as mx
    rng = random.Random(9)
    for ctx, n, u in ((G8, 7, 4), (field(8), 7, 3)):
        leaf = LeafSpec(ctx, n, u)
        h = pcheck.build_parity_check(leaf).reduced
        for erased in ((0,), (1, 4), (2, 3, 6), (0, 1, 2, 3)[:u]):
            plan = pcheck._plan(h, np.isin(np.arange(n), erased).tobytes())
            assert plan.solvable and plan.n_checks == u - len(erased)
            rows = plan.offsets >> ctx.w
            checks = mx.MatrixGF(ctx, rows[:plan.n_checks])
            solve = mx.MatrixGF(ctx, rows[plan.n_checks:])
            assert rank(checks) == u - len(erased)
            for _ in range(5):
                word = random_codeword(leaf, rng).symbols
                known = [word[i] for i in plan.known]
                assert not any(mat_vec(checks, known))
                assert mat_vec(solve, known) == [word[i] for i in erased]


def test_decode_and_encode_make_no_scalar_field_calls(monkeypatch):
    codes = dict(example_codes(), leaf=LeafSpec(G8, 7, 3))
    calls = []
    for name in ("mul", "alpha_pow"):
        def counted(self, *args, _name=name, _real=getattr(FieldContext, name)):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(FieldContext, name, counted)
    pcheck.build_parity_check.cache_clear()
    for name, spec in codes.items():
        again = spec_from_capability(spec.ctx, capability(spec), row_length(spec))
        assert again == spec, name
        assert pcheck.build_parity_check(again).rank == length(spec) - dimension(spec)
        witness = codec.min_weight_codeword(spec)
        assert sum(1 for x in witness.symbols if x) == min_distance(spec), name
    rng = random.Random(10)
    for name, spec in codes.items():
        for _ in range(5):
            word = random_codeword(spec, rng)
            mask = random_correctable_mask(spec, rng)
            out, _ = codec.decode(spec, word.with_erasures([i for i, e in enumerate(mask) if e]))
            assert out == word, name
    assert calls == []


def test_zero_code_check_rejects_a_changed_known_symbol():
    # blocks 0 and 1 are intact; block 2 (positions 14..20) sits in the zero
    # code with only position 15 known.  Flipping it makes the peeled
    # combination nonzero on a known position: a decoder that overwrote
    # position 15 would return a different codeword, which the final
    # membership check accepts.  Decode writes only erased positions, so
    # the membership check sees the flipped symbol and rejects the word.
    spec = NodeSpec(G8, (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2)), (1, 1, 1))
    word = random_codeword(spec, random.Random(3))
    erased = [i for i in range(14, 21) if i != 15]
    out, report = codec.decode(spec, word.with_erasures(erased))
    assert out == word and report.outcome == codec.RECOVERED
    symbols = list(word.symbols)
    symbols[15] ^= 1
    bad = SymbolWord.known(symbols).with_erasures(erased)
    with pytest.raises(InconsistentWordError, match="known symbols contradict every codeword"):
        codec.decode(spec, bad)


# -- correctability ---------------------------------------------------------------


def _recursive_block_level(spec, sub_mask) -> int:
    """Index of the weakest child able to repair this block, t for none.

    The implicit zero code (level t) accepts any pattern.
    """
    for i, ch in enumerate(spec.children):
        if recursive_correctable(ch, sub_mask):
            return i
    return len(spec.children)


def recursive_correctable(spec, mask) -> bool:
    """Guaranteed correctability from the paper's recursive rule, written
    independently of `codec`: with every block assigned the weakest child
    level able to repair it, at most tail_i blocks need level i or deeper,
    for each i >= 1."""
    mask = [bool(x) for x in mask]
    if isinstance(spec, LeafSpec):
        return sum(mask) <= spec.u
    n_sub = length(spec.children[0])
    levels = [
        _recursive_block_level(spec, mask[j * n_sub:(j + 1) * n_sub])
        for j in range(block_count(spec))
    ]
    tails = tail_counts(spec)
    for i in range(1, len(spec.children) + 1):
        if sum(1 for lv in levels if lv >= i) > tails[i]:
            return False
    return True


@st.composite
def ordered_chains(draw, depth, n):
    """A strictly nested chain of 1-3 sibling specs over GF(8), `depth`
    layers above rows of length n, sharing one chain of children.

    A node is described by the sorted levels of its blocks; raising levels
    blockwise keeps the profiles totally ordered, and a profile with every
    block in the zero code is dropped because it stores nothing."""
    if depth == 0:
        us = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        return tuple(LeafSpec(G8, n, u) for u in sorted(us))
    children = draw(ordered_chains(depth - 1, n))
    t = len(children)
    m = draw(st.integers(1, 3))
    levels = sorted(draw(st.lists(st.integers(0, t - 1), min_size=m, max_size=m)))
    profiles = [tuple(levels)]
    for _ in range(draw(st.integers(0, 2))):
        bumps = draw(st.lists(st.integers(0, t), min_size=m, max_size=m))
        raised = tuple(sorted(min(t, lv + b) for lv, b in zip(profiles[-1], bumps)))
        if raised != profiles[-1] and min(raised) < t:
            profiles.append(raised)
    return tuple(
        NodeSpec(G8, children, tuple(p.count(i) for i in range(t + 1))) for p in profiles
    )


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_chain_levels_match_recursive_oracle(data):
    n = data.draw(st.integers(1, 7))
    chain = data.draw(ordered_chains(data.draw(st.integers(0, 2)), n))
    for spec in chain:
        validate(spec)
    size = length(chain[0])
    masks = []
    for _ in range(data.draw(st.integers(1, 6))):
        order = data.draw(st.permutations(range(size)))
        weight = data.draw(st.integers(0, size))
        mask = np.zeros(size, dtype=bool)
        mask[list(order[:weight])] = True
        masks.append(mask)
    batch = codec._chain_levels(chain, np.array(masks))[0]
    assert batch.shape == (len(masks),)
    for mask, level in zip(masks, batch.tolist()):
        assert codec._chain_levels(chain, mask)[0] == level
        expect = next(
            (i for i, spec in enumerate(chain) if recursive_correctable(spec, mask)), len(chain)
        )
        assert level == expect
        for spec in chain:
            assert codec.correctable(spec, mask) == recursive_correctable(spec, mask)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_decode_matches_recursive_oracle_and_pc_decode(data):
    # correctable masks are recovered, and agree with the matrix decoder;
    # on every other mask the input comes back unchanged
    n = data.draw(st.integers(1, 7))
    chain = data.draw(ordered_chains(data.draw(st.integers(0, 2)), n))
    for spec in chain:
        validate(spec)
        k = dimension(spec)
        word = codec.encode(spec, data.draw(st.lists(st.integers(0, 7), min_size=k, max_size=k)))
        order = data.draw(st.permutations(range(length(spec))))
        for weight in data.draw(st.lists(st.integers(0, length(spec)), min_size=1, max_size=3)):
            erased = word.with_erasures(order[:weight])
            out, report = codec.decode(spec, erased)
            if recursive_correctable(spec, erased.erased):
                assert report.outcome == codec.RECOVERED
                assert out == word
                assert pcheck.pc_decode(pcheck.build_parity_check(spec), erased) == out
            else:
                assert report.outcome == codec.UNCORRECTABLE
                assert out == erased


def test_encode_does_not_run_the_recursive_decoder(monkeypatch):
    # nor pc_decode or the direct solve: encode is one plan lookup
    from eii import matrix as mx

    def boom(*args):
        raise AssertionError("encode ran a decoder")

    rng = random.Random(15)
    data = [rng.randrange(8) for _ in range(dimension(EX1))]
    expect = decode_based_encode(EX1, data)
    monkeypatch.setattr(codec, "_repair", boom)
    monkeypatch.setattr(pcheck, "pc_decode", boom)
    monkeypatch.setattr(mx, "solve_erasures", boom)
    for _ in range(3):
        assert codec.encode(EX1, data) == expect


@pytest.mark.parametrize("cap, erased, flipped, assignment", [
    # block 0 has one erasure and sits at level 0; blocks 1..3 each lose four
    # symbols of a row and need the zero code, which no block may use
    ("((1,1,2),(1,2,3),(1,2,3),(1,2,3))",
     [0] + [21 * b + r for b in (1, 2, 3) for r in range(4)], None, (0, 2, 2, 2)),
    # block 0 sits at level 0, but the known symbols of its zero-code
    # sub-block contradict the code: repairing it would raise
    ("(((1,1,2),(7,7,7)),((1,2,3),(7,7,7)),((1,2,3),(7,7,7)))",
     [21 * b + r for b in (1, 2, 3, 4, 5) for r in range(4)], 27, (0, 2, 2)),
])
def test_uncorrectable_mask_repairs_nothing(monkeypatch, cap, erased, flipped, assignment):
    spec = spec_from_capability(G8, cap, 7)
    symbols = list(codec.encode(spec, [i % 8 for i in range(dimension(spec))]).symbols)
    if flipped is not None:
        symbols[flipped] ^= 1
    word = SymbolWord(symbols, [i in erased for i in range(len(symbols))])
    table = codec._plan
    lookups = []

    def counted(h, bits):
        lookups.append(bits)
        return table(h, bits)

    monkeypatch.setattr(codec, "_plan", counted)
    out, report = codec.decode(spec, word)
    assert lookups == []
    assert report == codec.DecodeReport(codec.UNCORRECTABLE, assignment, ())
    assert out == word


def _three_decodes(spec, word) -> tuple:
    """decode on a fresh memo and plan table three times: recursive repair,
    plan build, plan replay.  Returns the outcomes, each (word, report) or
    the exception's (type, message), and how often `_repair` ran on the
    whole word."""
    codec._outcome.cache_clear()
    pcheck._plan.cache_clear()
    real, repaired, outcomes = codec._repair, [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_repair", lambda *args: repaired.append(args[0] is spec) or real(*args))
        for _ in range(3):
            try:
                outcomes.append(codec.decode(spec, word))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
    return outcomes, sum(repaired)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_decode_paths_agree_on_chains(data):
    # a codeword and random known symbols, under correctable masks of every
    # weight and one mask past them: the first sighting, the plan build and
    # the replay give one outcome, and only a correctable mask's first
    # sighting runs the recursive repair
    n = data.draw(st.integers(1, 7))
    for spec in data.draw(ordered_chains(data.draw(st.integers(0, 2)), n)):
        size = length(spec)
        k = dimension(spec)
        word = codec.encode(spec, data.draw(st.lists(st.integers(0, 7), min_size=k, max_size=k)))
        noise = SymbolWord.known(data.draw(st.lists(st.integers(0, 7), min_size=size, max_size=size)))
        order = data.draw(st.permutations(range(size)))
        cut = 0
        while cut < size and codec.correctable(spec, np.isin(np.arange(size), order[:cut + 1])):
            cut += 1
        for weight in sorted({0, cut // 2, cut, min(cut + 1, size)}):
            for w in (word, noise):
                outcomes, repairs = _three_decodes(spec, w.with_erasures(order[:weight]))
                assert outcomes[0] == outcomes[1] == outcomes[2]
                assert repairs == (1 if weight <= cut else 0)
                if w is word and weight <= cut:
                    assert outcomes[0][0] == word


@pytest.mark.parametrize("cap", STRIPE_SHAPES)
def test_fresh_masks_repair_and_repeated_masks_replay(monkeypatch, cap):
    # a fresh mask looks up leaf plans, then the all-known plan for its
    # membership check, so masks that never repeat plan no [84, 62] word of
    # their own; a repeated one is one top-level plan, no repair
    spec = spec_from_capability(field(8), cap, 7)
    word = random_codeword(spec, random.Random(cap))
    erased = word.with_erasures(
        [i for i, e in enumerate(random_correctable_mask(spec, random.Random(43))) if e])
    top = pcheck.build_parity_check(spec).reduced
    table = codec._plan
    looked_up = []

    def recorded(h, bits):
        looked_up.append((h, bits))
        return table(h, bits)

    monkeypatch.setattr(codec, "_plan", recorded)
    codec._outcome.cache_clear()
    first = codec.decode(spec, erased)
    assert first[0] == word and looked_up[-1] == (top, bytes(84))
    assert {h.cols for h, _ in looked_up[:-1]} == {7}

    def boom(*args):
        raise AssertionError("a repeated mask ran the recursive decoder")

    monkeypatch.setattr(codec, "_repair", boom)
    for _ in range(2):
        looked_up.clear()
        assert codec.decode(spec, erased) == first
        assert looked_up == [(top, bytes(erased.erased))]


def _longest_correctable_prefix(spec, rng) -> list:
    """Erased positions: the longest correctable prefix of a random order."""
    order = list(range(length(spec)))
    rng.shuffle(order)
    mask = np.zeros(len(order), dtype=bool)
    for pos in order:
        mask[pos] = True
        if not codec.correctable(spec, mask):
            mask[pos] = False
            break
    return np.flatnonzero(mask).tolist()


def _traced_fresh_decode(monkeypatch, spec, word):
    """A first-sighting decode of `word`, with the (matrix, mask bytes) of
    its plan lookups and the erasure mask `_repair` got for the whole word.
    The word and report must equal the replay's, and the word those of
    `pc_decode` and `solve_erasures`."""
    from eii import matrix as mx
    table, real = codec._plan, codec._repair
    looked_up, handed = [], []
    with monkeypatch.context() as patch:
        patch.setattr(codec, "_plan", lambda h, bits: looked_up.append((h, bits)) or table(h, bits))
        patch.setattr(codec, "_repair", lambda *args: (args[0] is spec and handed.append(
            args[2].tobytes())) or real(*args))
        codec._outcome.cache_clear()
        first = codec.decode(spec, word)
    assert handed and codec.decode(spec, word) == first
    pc = pcheck.build_parity_check(spec)
    pcheck._sightings.cache_clear()
    assert pcheck.pc_decode(pc, word) == first[0] == mx.solve_erasures(pc.reduced, word)
    return first, looked_up, np.frombuffer(handed[0], dtype=bool)


@pytest.mark.parametrize("cap", STRIPE_SHAPES)
def test_fresh_decode_fills_single_erasure_rows_from_their_sums(monkeypatch, cap):
    # every row lies in the weakest leaf code [7, 6], whose check is the
    # all-ones row: a row with one erasure is filled from its own sum before
    # `_repair`, which then looks up the leaf plans of the rows with two or
    # more erasures alone, and the membership plan last
    spec = spec_from_capability(field(8), cap, 7)
    top = pcheck.build_parity_check(spec).reduced
    rng = random.Random(cap)
    seen = set()
    for _ in range(6):
        word = random_codeword(spec, rng)
        erased = word.with_erasures(_longest_correctable_prefix(spec, rng))
        (out, report), looked_up, handed = _traced_fresh_decode(monkeypatch, spec, erased)
        assert out == word and report.outcome == codec.RECOVERED
        rows = np.array(erased.erased).reshape(-1, 7)
        counts = rows.sum(axis=1)
        seen.update(np.minimum(counts, 2).tolist())
        assert np.array_equal(handed.reshape(-1, 7), rows & (counts != 1)[:, None])
        assert looked_up[-1] == (top, bytes(84))
        assert {h.cols for h, _ in looked_up[:-1]} <= {7}
        assert sorted(bits for _, bits in looked_up[:-1]) == sorted(
            row.tobytes() for row in rows[counts >= 2])
    assert seen == {0, 1, 2}


def test_single_erasure_pass_leaves_a_weakest_leaf_without_checks_alone(monkeypatch):
    # Table 1 row 11: the weakest leaf is [7, 7], so a row with one erasure
    # is not level 0 and `_repair` gets the word's whole mask
    cap, w, n = TABLE_1[10][:3]
    spec = spec_from_capability(field(w), cap, n)
    assert pcheck.build_parity_check(spec).u0 == 0
    rng = random.Random(cap)
    single = 0
    for _ in range(6):
        word = random_codeword(spec, rng)
        erased = word.with_erasures(_longest_correctable_prefix(spec, rng))
        (out, report), looked_up, handed = _traced_fresh_decode(monkeypatch, spec, erased)
        assert out == word and report.outcome == codec.RECOVERED
        assert handed.tolist() == list(erased.erased)
        single += sum(bits.count(1) == 1 for h, bits in looked_up if h.cols == 7)
    assert single > 0  # rows with one erasure still go through the leaf plans


@pytest.mark.parametrize("spec", [
    spec_from_capability(field(8), STRIPE_SHAPES[1], 7),
    NodeSpec(G8, (LeafSpec(G8, 7, 2), LeafSpec(G8, 7, 4)), (1, 1, 1)),
], ids=["u0=1", "u0=2"])
def test_corrupted_single_erasure_row_is_inconsistent(spec):
    # one erasure in row 0 and a corrupted known symbol beside it: the row
    # sum fills a wrong symbol, and the membership check rejects the word
    # on the first sighting as on the replay
    u0 = pcheck.build_parity_check(spec).u0
    word = random_codeword(spec, random.Random(u0))
    symbols = list(word.symbols)
    symbols[1] ^= 1
    erased = SymbolWord(symbols, [i in (0, 7, 8) for i in range(len(symbols))])
    assert codec.correctable(spec, erased.erased)
    kept = SymbolWord(erased.symbols, erased.erased)
    codec._outcome.cache_clear()
    for _ in range(2):
        with pytest.raises(InconsistentWordError) as exc:
            codec.decode(spec, erased)
        assert str(exc.value) == "known symbols contradict every codeword"
        assert erased == kept
    assert codec._outcome(spec, bytes(erased.erased))[1] == []  # the second was a replay


def test_membership_plan_is_built_once_in_the_plan_table(monkeypatch):
    # is_codeword and a first-sighting decode's membership check look up
    # the all-known mask of the reduced matrix in the one plan table
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    top = pcheck.build_parity_check(spec).reduced
    word = codec.encode(spec, [i % 8 for i in range(dimension(spec))])
    table = pcheck._plan
    built = []

    def recorded(h, bits):
        misses = table.cache_info().misses
        plan = table(h, bits)
        if (h, bits) == (top, bytes(84)):
            built.append(table.cache_info().misses - misses)
        return plan

    monkeypatch.setattr(codec, "_plan", recorded)
    codec._outcome.cache_clear()
    table.cache_clear()
    assert codec.is_codeword(spec, word)
    assert codec.decode(spec, word.with_erasures([0, 8, 30]))[0] == word
    assert not codec.is_codeword(spec, SymbolWord.known((word.symbols[0] ^ 1,) + word.symbols[1:]))
    assert built == [1, 0, 0]  # built by the first membership test, then replayed


@pytest.mark.parametrize("cap", STRIPE_SHAPES)
def test_memo_records_drop_their_levels_on_first_decode(cap):
    # the first decode takes the block levels out of the mask's record and
    # frees them once it returns; the record keeps only the report
    spec = spec_from_capability(field(8), cap, 7)
    word = random_codeword(spec, random.Random(cap))
    erased = word.with_erasures(
        [i for i, e in enumerate(random_correctable_mask(spec, random.Random(47))) if e])
    bits = bytes(erased.erased)
    codec._outcome.cache_clear()
    report, held = codec._outcome(spec, bits)
    assert len(held) == 1 and len(held[0]) == layer_count(spec) - 1
    levels = [weakref.ref(lv) for lv in held[0]]
    assert codec.decode(spec, erased) == (word, report)
    assert codec._outcome(spec, bits) == (report, [])
    assert [ref() for ref in levels] == [None] * len(levels)
    assert codec.decode(spec, erased) == (word, report)


def test_rejected_words_and_uncorrectable_masks_count_no_sighting(monkeypatch):
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    word = codec.encode(spec, [i % 8 for i in range(dimension(spec))])
    erased = word.with_erasures([0, 8, 30])
    codec._outcome.cache_clear()
    pcheck._plan.cache_clear()
    before = codec._outcome.cache_info(), pcheck._plan.cache_info()
    short = SymbolWord(erased.symbols[1:], erased.erased[1:])
    outside = SymbolWord((8,) + erased.symbols[1:], erased.erased)  # same mask
    for bad in (short, outside, outside):
        with pytest.raises(ValueError):
            codec.decode(spec, bad)
    assert (codec._outcome.cache_info(), pcheck._plan.cache_info()) == before
    lost = word.with_erasures(range(21 * 3))  # three whole blocks: past every tail
    for _ in range(2):
        assert codec.decode(spec, lost)[1].outcome == codec.UNCORRECTABLE
    assert codec._outcome(spec, bytes(lost.erased))[1] == []
    assert codec._outcome.cache_info()[:2] == (2, 1)  # (hits, misses): one record, for lost
    assert pcheck._plan.cache_info() == before[1]
    # the next valid word is the mask's first sighting: the recursive repair
    repaired = []
    real = codec._repair
    monkeypatch.setattr(codec, "_repair", lambda *args: repaired.append(args[0]) or real(*args))
    assert codec.decode(spec, erased)[0] == word
    assert repaired[0] == spec


@pytest.mark.parametrize("cap, w, n", [(cap, 8, 7) for cap in STRIPE_SHAPES]
                         + [(cap, w, n) for cap, w, n, _, _ in TABLE_1])
def test_decode_runs_the_capability_rule_once_per_layer(monkeypatch, cap, w, n):
    # one top call, recursion included, gives the verdict and every level
    spec = spec_from_capability(field(w), cap, n)
    rng = random.Random(cap)
    word = random_codeword(spec, rng)
    order = list(range(length(spec)))
    rng.shuffle(order)
    mask = [False] * length(spec)
    for cut, pos in enumerate(order):
        mask[pos] = True
        if not codec.correctable(spec, mask):
            break
    calls, schedules = [], []
    # the rule's recursion is its body, which reads leaf-sorted times
    for name, log in (("_sorted_rejection_times", calls), ("_schedule", schedules)):
        real = getattr(codec, name)
        monkeypatch.setattr(codec, name, lambda *args, _real=real, _log=log: _log.append(args) or _real(*args))
    codec._outcome.cache_clear()
    for erased, outcome in ((order[:cut], codec.RECOVERED), (order[:cut + 1], codec.UNCORRECTABLE),
                            (order, codec.UNCORRECTABLE)):
        calls.clear()
        out, report = codec.decode(spec, word.with_erasures(erased))
        assert report.outcome == outcome
        assert len(calls) == layer_count(spec), (cap, len(erased))
        assert out == (word if outcome == codec.RECOVERED else word.with_erasures(erased))
        # a repeated mask takes its report from the memo and runs neither rule
        calls.clear()
        schedules.clear()
        again = codec.decode(spec, word.with_erasures(erased))
        assert again == (out, report) and again[1] is report
        assert calls == schedules == []


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_chain_levels_give_every_block_its_level(data):
    # entry d holds the level of every depth-d block, which the recursive
    # rule gives against the children of the layer above
    n = data.draw(st.integers(1, 7))
    chain = data.draw(ordered_chains(data.draw(st.integers(0, 2)), n))
    size = length(chain[0])
    order = data.draw(st.permutations(range(size)))
    mask = np.zeros(size, dtype=bool)
    mask[list(order[:data.draw(st.integers(0, size))])] = True
    levels = codec._chain_levels(chain, mask)
    assert len(levels) == layer_count(chain[0])
    spec, blocks, shape = chain[0], mask, ()
    for entry in levels[1:]:
        blocks = blocks.reshape(-1, length(spec.children[0]))
        shape += (block_count(spec),)
        assert entry.shape == shape
        assert entry.ravel().tolist() == [_recursive_block_level(spec, b) for b in blocks]
        spec = spec.children[0]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_decode_never_writes_a_known_symbol(data):
    # random known symbols under a correctable mask: decode either finds
    # them inconsistent or returns a codeword that keeps every one of them
    n = data.draw(st.integers(1, 7))
    for spec in data.draw(ordered_chains(data.draw(st.integers(0, 2)), n)):
        size = length(spec)
        symbols = data.draw(st.lists(st.integers(0, 7), min_size=size, max_size=size))
        mask = [False] * size
        good = []
        for pos in data.draw(st.permutations(range(size))):
            mask[pos] = True
            if not codec.correctable(spec, mask):
                break
            good.append(pos)
        erased = good[:data.draw(st.integers(0, len(good)))]
        word = SymbolWord.known(symbols).with_erasures(erased)
        try:
            out, report = codec.decode(spec, word)
        except InconsistentWordError:
            continue
        assert report.outcome == codec.RECOVERED and codec.is_codeword(spec, out)
        assert [x for i, x in enumerate(out.symbols) if i not in erased] == \
            [x for i, x in enumerate(symbols) if i not in erased]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data())
def test_encode_matches_decode_based_oracle(data):
    # three data vectors per spec: the first encode solves directly, the
    # second builds the parity plan, the third replays it
    n = data.draw(st.integers(1, 7))
    chain = data.draw(ordered_chains(data.draw(st.integers(0, 2)), n))
    for spec in chain:
        validate(spec)
        k = dimension(spec)
        for _ in range(3):
            symbols = data.draw(st.lists(st.integers(0, 7), min_size=k, max_size=k))
            word = codec.encode(spec, symbols)
            assert word == decode_based_encode(spec, symbols)
            assert codec.is_codeword(spec, word)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_rejection_times_give_every_block_its_first_rejected_prefix(data):
    # along an erasure order, entry 0 holds the first prefix each member of
    # the chain rejects, and entry d the first prefix whose share of each
    # depth-d block each child below rejects, as the recursive rule finds it
    n = data.draw(st.integers(1, 7))
    chain = data.draw(ordered_chains(data.draw(st.integers(0, 2)), n))
    size = length(chain[0])
    order = data.draw(st.permutations(range(size)))
    when = np.empty(size, dtype=np.int64)
    when[list(order)] = np.arange(1, size + 1)
    times = codec._rejection_times(chain, when, size + 1)
    assert len(times) == layer_count(chain[0])
    prefixes = [np.isin(np.arange(size), order[:k]) for k in range(1, size + 1)]

    def first_rejected(accepts):
        return next((k for k, mask in enumerate(prefixes, 1) if not accepts(mask)), size + 1)

    assert times[0].tolist() == [first_rejected(lambda mask: recursive_correctable(spec, mask))
                                 for spec in chain]
    spec, blocks = chain[0], 1
    for entry in times[1:]:
        blocks *= block_count(spec)
        sub = size // blocks
        assert entry.shape[-1] == len(spec.children)
        assert entry.reshape(blocks, -1).tolist() == [
            [first_rejected(lambda mask: _recursive_block_level(spec, mask[b * sub:(b + 1) * sub]) <= c)
             for c in range(len(spec.children))]
            for b in range(blocks)]
        spec = spec.children[0]


def invalid_specs() -> dict:
    """GF(8) specs that `validate` rejects, one per broken invariant."""
    leaf = LeafSpec(G8, 7, 1)
    chains = {}
    for layers in (17, 40):
        spec = LeafSpec(G8, 3, 1)
        for _ in range(layers - 1):
            spec = NodeSpec(G8, (spec,), (1, 0))
        chains[f"{layers}-layers"] = spec
    return {
        "unnested": NodeSpec(G8, (LeafSpec(G8, 7, 3), leaf), (1, 1, 0)),
        "m=q": NodeSpec(G8, (leaf,), (8, 0)),
        "u>n": LeafSpec(G8, 7, 9),
        "n>=q": LeafSpec(G8, 9, 1),
        "no-blocks": NodeSpec(G8, (leaf,), (0, 0)),
        "n=0": LeafSpec(G8, 0, 0),
        "other-field": NodeSpec(G8, (LeafSpec(G4, 3, 1),), (1, 0)),
        "unequal-lengths": NodeSpec(G8, (leaf, LeafSpec(G8, 5, 2)), (1, 1, 0)),
        "k=0-child": NodeSpec(G8, (LeafSpec(G8, 7, 7),), (1, 0)),
        **chains,
    }


@pytest.mark.parametrize("label", list(invalid_specs()))
def test_codec_entry_points_validate_their_spec(label):
    # no verdict, report or witness for a spec that is not a code, whatever
    # the mask: the empty one, or one that erases everything
    spec = invalid_specs()[label]
    word = SymbolWord.known([0] * length(spec))
    with pytest.raises(ValidationError):
        codec.correctable(spec, [False] * length(spec))
    for erased in ((), range(length(spec))):
        with pytest.raises(ValidationError):
            codec.decode(spec, word.with_erasures(erased))
    with pytest.raises(ValidationError):
        codec.min_weight_codeword(spec)
    with pytest.raises(ValidationError):
        codec.encode(spec, [0] * max(dimension(spec), 0))
    with pytest.raises(ValidationError):
        codec.is_codeword(spec, word)
    with pytest.raises(ValidationError):
        codec.parity_mask(spec)
    with pytest.raises(ValidationError):
        codec.brute_force_min_weight(spec)


@pytest.mark.parametrize("spec", ["abc", None, [1], {}])
def test_codec_entry_points_reject_a_spec_that_is_not_a_code(spec):
    word = SymbolWord.known([0])
    for call in (lambda: codec.decode(spec, word), lambda: codec.encode(spec, [0]),
                 lambda: codec.is_codeword(spec, word), lambda: codec.parity_mask(spec),
                 lambda: codec.brute_force_min_weight(spec),
                 lambda: pcheck.build_parity_check(spec)):
        with pytest.raises(ValidationError, match="LeafSpec or NodeSpec"):
            call()


def test_correctable_rejects_a_mask_of_the_wrong_shape():
    for mask in (None, True, [[False] * 49]):
        with pytest.raises(ValueError, match="mask shape"):
            codec.correctable(EX1, mask)


def test_correctable_empty_mask():
    assert codec.correctable(EX1, [False] * 49)


def test_correctable_example4_comparison():
    codes = example_codes()
    mask = [False] * 84
    for r in (0, 1, 2):
        for c in (0, 1, 2):
            mask[r * 7 + c] = True
    assert codec.correctable(codes["flat12"], mask)
    assert not codec.correctable(codes["ex4-c3"], mask)


def test_correctable_example6_comparison():
    grid = {
        0: {0: [1, 3, 5], 1: [0], 2: [2, 3, 6]},
        1: {0: [2, 5], 1: [1, 5], 2: [6]},
        2: {0: [6], 1: [3, 5], 2: [0, 4, 6]},
        3: {0: [1, 2], 1: [3], 2: [6]},
    }
    mask = [False] * 84
    for arr, rows in grid.items():
        for r, cols in rows.items():
            for c in cols:
                mask[arr * 21 + r * 7 + c] = True
    c40 = spec_from_capability(G8, "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 7)
    c41 = spec_from_capability(G8, "(((1,1,2),(1,2,3)),((1,2,2),(1,3,3)))", 7)
    assert codec.correctable(c41, mask)
    assert not codec.correctable(c40, mask)


def test_correctable_monotone():
    rng = random.Random(8)
    spec = example_codes()["ex4-c3"]
    n = length(spec)
    for _ in range(200):
        mask = [rng.random() < 0.15 for _ in range(n)]
        if codec.correctable(spec, mask):
            continue
        extra = list(mask)
        free = [i for i, e in enumerate(mask) if not e]
        if free:
            extra[rng.choice(free)] = True
        assert not codec.correctable(spec, extra)


# -- minimum-weight witness ---------------------------------------------------------


def test_min_weight_leaf():
    leaf = LeafSpec(G8, 7, 2)
    word = codec.min_weight_codeword(leaf)
    assert sum(1 for s in word.symbols if s) == 3
    assert codec.is_codeword(leaf, word)


def test_min_weight_example1():
    word = codec.min_weight_codeword(EX1)
    assert sum(1 for s in word.symbols if s) == 12
    assert codec.is_codeword(EX1, word)


def test_min_weight_all_examples():
    for name, spec in example_codes().items():
        word = codec.min_weight_codeword(spec)
        weight = sum(1 for s in word.symbols if s)
        assert weight == min_distance(spec), name
        assert codec.is_codeword(spec, word), name


def test_min_weight_blocks_are_v_coefficient_multiples():
    # block d of a node's witness is v_d times one child witness, where
    # v(x) = (x + 1)(x + alpha) ... (x + alpha^(deg-1)); reference by scalar products
    for name, spec in example_codes().items():
        ctx = spec.ctx
        blocks = np.array(codec.min_weight_codeword(spec).symbols).reshape(block_count(spec), -1)
        deg = int(np.count_nonzero(blocks.any(axis=1))) - 1
        poly = [1]
        for i in range(deg):
            nxt = [0] * (len(poly) + 1)
            for d, coef in enumerate(poly):
                nxt[d + 1] ^= coef
                nxt[d] ^= ctx.mul(ctx.alpha_pow(i), coef)
            poly = nxt
        child = [ctx.mul(int(x), ctx.inv(poly[0])) for x in blocks[0]]
        for d, coef in enumerate(poly):
            assert blocks[d].tolist() == [ctx.mul(coef, x) for x in child], (name, d)
        assert not blocks[deg + 1:].any(), name


def test_min_weight_zero_dimension():
    with pytest.raises(codec.NoCodewordsError):
        codec.min_weight_codeword(LeafSpec(G8, 7, 7))


# -- brute force ------------------------------------------------------------------


def test_brute_force_matches_formula_tiny():
    leaves = (LeafSpec(G4, 3, 1),)
    spec = NodeSpec(G4, leaves, (1, 1))
    assert dimension(spec) == 2
    assert min_distance(spec) == 4
    assert codec.brute_force_min_weight(spec) == 4


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_min_distance_matches_witness_and_brute_force(data):
    n = data.draw(st.integers(1, 7))
    for spec in data.draw(ordered_chains(data.draw(st.integers(0, 2)), n)):
        if 8 ** dimension(spec) <= 1 << 16:
            weight = sum(1 for x in codec.min_weight_codeword(spec).symbols if x)
            assert min_distance(spec) == weight == codec.brute_force_min_weight(spec), spec


def test_brute_force_guard():
    with pytest.raises(ValueError, match="exceeds the enumeration guard"):
        codec.brute_force_min_weight(LeafSpec(field(8), 100, 50))
