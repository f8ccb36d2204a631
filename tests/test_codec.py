import random

import pytest

from eii import codec
from eii.codespec import (
    LeafSpec,
    NodeSpec,
    block_count,
    dimension,
    length,
    min_distance,
    spec_from_capability,
    tail_counts,
)
from eii.gf import field
from eii.matrix import InconsistentWordError
from eii.words import SymbolWord

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
    from eii import matrix as mx
    from eii.pcheck import build_parity_check
    rng = random.Random(3)
    for name, spec in example_codes().items():
        h = build_parity_check(spec).h
        for _ in range(20):
            word = random_codeword(spec, rng)
            assert not any(mx.mat_vec(h, word.symbols)), name


# -- decoding ------------------------------------------------------------------


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


def test_leaf_solver_check_rows():
    # check_rows span the left null space of the erased Vandermonde columns:
    # they vanish on every column syndrome and have full rank u - e
    from eii import matrix as mx
    for ctx, n, u in ((G8, 7, 4), (field(8), 7, 3)):
        h = mx.vandermonde(ctx, u, n).data
        for erased in ((0,), (1, 4), (2, 3, 6), (0, 1, 2, 3)[:u]):
            solve_rows, check_rows = codec._leaf_solver(ctx, n, u, erased)
            assert len(solve_rows) == len(erased) and len(check_rows) == u - len(erased)
            checks = mx.from_rows(ctx, check_rows) if check_rows else mx.zeros(ctx, 0, u)
            cols = mx.MatrixGF(ctx, h[:, list(erased)])
            assert not any(mx.matmul(checks, cols).data.ravel())
            assert mx.rank(checks) == u - len(erased)
            # solve_rows invert the erased columns: solve . cols = I
            assert mx.matmul(mx.from_rows(ctx, solve_rows), cols) == mx.identity(ctx, len(erased))


# -- correctability ---------------------------------------------------------------


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


def test_brute_force_guard():
    with pytest.raises(ValueError):
        codec.brute_force_min_weight(LeafSpec(field(8), 100, 50), limit=1 << 10)
