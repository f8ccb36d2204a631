import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eii import matrix as mx
from eii.codespec import LeafSpec, NodeSpec
from eii.gf import field
from eii.pcheck import build_parity_check
from eii.words import SymbolWord


def brute_force_determinant(ctx, rows):
    """Laplace-style determinant via permutation expansion (char 2: no signs)."""
    n = len(rows)
    det = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = ctx.mul(term, rows[i][j])
            if term == 0:
                break
        det ^= term
    return det


def row_reduce(m):
    """Row-echelon form with unit pivots: (echelon, rank, pivot columns)."""
    arr = m.data.copy()
    pivots = sorted(mx._eliminate(arr, m.ctx), key=lambda rc: rc[1])
    order = [r for r, _ in pivots]
    order += sorted(set(range(m.rows)) - set(order))
    return mx.MatrixGF(m.ctx, arr[order]), len(pivots), [c for _, c in pivots]


def rank(m):
    return len(mx._eliminate(m.data.copy(), m.ctx))


def matmul(a, b):
    """Product over the field: xor-accumulate a[i, k] * b[k, j] over k."""
    prod = a.ctx.mul_table[a.data[:, :, None], b.data[None, :, :]]
    return mx.MatrixGF(a.ctx, np.bitwise_xor.reduce(prod, axis=1))


def mat_vec(m, vec):
    """The product m . vec over the field, as a list of ints."""
    v = np.asarray(vec, dtype=np.uint8)
    if v.shape != (m.cols,):
        raise ValueError("vector length mismatch")
    prod = m.ctx.mul_table[m.data, v[None, :]]
    return [int(x) for x in np.bitwise_xor.reduce(prod, axis=1)]


def from_rows(ctx, rows):
    return mx.MatrixGF(ctx, np.array(rows, dtype=np.uint8))


def test_vandermonde_all_ones_row():
    m = mx.vandermonde(field(3), 1, 7, 0)
    assert m.data.tolist() == [[1] * 7]


def test_vandermonde_gf8_rows():
    f = field(3)
    m = mx.vandermonde(f, 2, 3, 0)
    assert m.data.tolist() == [[1, 1, 1], [1, 2, 4]]
    m2 = mx.vandermonde(f, 1, 5, 1)
    assert m2.data.tolist() == [[1, 2, 4, f.alpha_pow(3), f.alpha_pow(4)]]


def test_vandermonde_rank():
    f = field(4)
    for s, w in [(2, 5), (3, 3), (4, 6)]:
        m = mx.vandermonde(f, s, w, 0)
        assert rank(m) == min(s, w)


def test_vandermonde_rejects_large_s():
    with pytest.raises(ValueError):
        mx.vandermonde(field(3), 8, 10, 0)
    for s, w in ((1, 0), (-1, 3)):
        with pytest.raises(ValueError, match="bad Vandermonde parameters"):
            mx.vandermonde(field(3), s, w, 0)


def test_vandermonde_prefix_identity():
    # stacking H(s,w,v) on H(s',w,v+s) equals H(s+s',w,v)
    f = field(4)
    for s, s2, w, v in [(2, 3, 6, 0), (1, 1, 4, 2), (3, 2, 7, 1)]:
        top = mx.vandermonde(f, s, w, v)
        bottom = mx.vandermonde(f, s2, w, v + s)
        assert mx.stack([top, bottom]) == mx.vandermonde(f, s + s2, w, v)


def test_kronecker_identity_left():
    f = field(3)
    b = mx.vandermonde(f, 2, 3, 1)
    assert mx.kronecker(mx.identity(f, 1), b) == b


def test_kronecker_all_ones_left():
    f = field(3)
    b = mx.vandermonde(f, 2, 3, 1)
    k = mx.kronecker(mx.vandermonde(f, 1, 2, 0), b)
    assert k.data.tolist() == [row + row for row in b.data.tolist()]


def test_kronecker_block_diagonal():
    f = field(3)
    k = mx.kronecker(mx.identity(f, 6), mx.vandermonde(f, 1, 7, 0))
    assert k.rows == 6 and k.cols == 42
    arr = k.data
    for i in range(6):
        row = arr[i]
        assert (row[7 * i:7 * i + 7] == 1).all()
        assert row.sum() == 7


def test_kronecker_context_mismatch():
    a = mx.identity(field(3), 2)
    b = mx.identity(field(4), 2)
    with pytest.raises(ValueError):
        mx.kronecker(a, b)


def test_matrix_equality_compares_field_shape_and_entries():
    f = field(3)
    data = np.arange(12, dtype=np.uint8).reshape(3, 4) % 8
    a, b = mx.MatrixGF(f, data), mx.MatrixGF(f, data.copy())
    assert a is not b and a.data is not b.data
    assert a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1
    assert a != mx.MatrixGF(f, data.reshape(4, 3))  # the same bytes in another shape
    assert a != mx.MatrixGF(f, data.reshape(2, 6))
    assert a != mx.MatrixGF(field(4), data)  # the same entries over another field
    changed = data.copy()
    changed[2, 3] ^= 1
    assert a != mx.MatrixGF(f, changed)
    assert mx.identity(f, 0) == mx.MatrixGF(f, np.zeros((0, 0), dtype=np.uint8))
    assert mx.MatrixGF(f, np.zeros((0, 2), dtype=np.uint8)) != mx.MatrixGF(f, np.zeros((2, 0), dtype=np.uint8))


def test_matrix_and_stack_reject_malformed_input():
    f = field(3)
    with pytest.raises(ValueError, match="must be 2-D"):
        mx.MatrixGF(f, np.zeros((2, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="out of field range"):
        mx.MatrixGF(f, np.array([[1, 8]]))
    with pytest.raises(ValueError, match="nothing to stack"):
        mx.stack([])
    with pytest.raises(ValueError, match="same field"):
        mx.stack([mx.identity(f, 2), mx.identity(field(4), 2)])


def test_kronecker_rank_product():
    f = field(3)
    rng = random.Random(101)
    for _ in range(10):
        a = from_rows(f, [[rng.randrange(8) for _ in range(3)] for _ in range(2)])
        b = from_rows(f, [[rng.randrange(8) for _ in range(4)] for _ in range(3)])
        assert rank(mx.kronecker(a, b)) == rank(a) * rank(b)


def test_row_reduce_identity():
    echelon, full, pivots = row_reduce(mx.identity(field(3), 5))
    assert full == 5
    assert pivots == [0, 1, 2, 3, 4]


def test_row_reduce_example_9_matrix():
    # parity-check of the [21,11] two-level code: 12 x 21 with rank 10
    f = field(3)
    leaves = (LeafSpec(f, 7, 1), LeafSpec(f, 7, 2))
    spec = NodeSpec(f, leaves, (1, 1, 1))
    h = build_parity_check(spec).h
    assert (h.rows, h.cols) == (12, 21)
    assert rank(h) == 10


def test_row_reduce_vs_determinant_oracle():
    f = field(3)
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randrange(8) for _ in range(6)] for _ in range(6)]
        m = from_rows(f, rows)
        singular = brute_force_determinant(f, rows) == 0
        assert (rank(m) < 6) == singular


def test_row_reduce_preserves_row_space():
    f = field(4)
    rng = random.Random(3)
    rows = [[rng.randrange(16) for _ in range(5)] for _ in range(4)]
    m = from_rows(f, rows)
    echelon, r, _ = row_reduce(m)
    stacked = mx.stack([m, echelon])
    assert rank(stacked) == r


def test_solve_erasures_no_erasures():
    f = field(3)
    leaf = LeafSpec(f, 7, 2)
    h = build_parity_check(leaf).h
    from eii.codec import encode
    word = encode(leaf, [1, 2, 3, 4, 5])
    assert mx.solve_erasures(h, word) == word


def test_solve_erasures_rs_two_erasures():
    f = field(3)
    leaf = LeafSpec(f, 7, 2)
    h = build_parity_check(leaf).h
    from eii.codec import encode
    rng = random.Random(5)
    for _ in range(50):
        word = encode(leaf, [rng.randrange(8) for _ in range(5)])
        pos = rng.sample(range(7), 2)
        got = mx.solve_erasures(h, word.with_erasures(pos))
        assert got == word
        assert not any(mat_vec(h, got.symbols))


def test_solve_erasures_undetermined():
    f = field(3)
    leaf = LeafSpec(f, 7, 2)
    h = build_parity_check(leaf).h
    from eii.codec import encode
    word = encode(leaf, [1, 0, 4, 2, 7])
    assert mx.solve_erasures(h, word.with_erasures([0, 1, 2])) is None


def test_solve_erasures_inconsistent():
    f = field(3)
    leaf = LeafSpec(f, 7, 2)
    h = build_parity_check(leaf).h
    bad = SymbolWord((1, 0, 0, 0, 0, 0, 0), (False,) * 7)
    with pytest.raises(mx.InconsistentWordError):
        mx.solve_erasures(h, bad)


def test_solve_erasures_inconsistent_with_erasures():
    # the carried syndrome column ends nonzero below the rank: no completion
    f = field(3)
    leaf = LeafSpec(f, 7, 3)
    h = build_parity_check(leaf).h
    from eii.codec import encode
    word = encode(leaf, [1, 2, 3, 4])
    symbols = list(word.symbols)
    symbols[6] ^= 5
    damaged = SymbolWord(tuple(symbols), (False,) * 7).with_erasures([0, 2])
    with pytest.raises(mx.InconsistentWordError):
        mx.solve_erasures(h, damaged)
    # the same corruption erased as well is repaired
    assert mx.solve_erasures(h, damaged.with_erasures([6])) == word


def test_eliminate_carries_columns():
    # pivots come only from the first ncols columns; the identity block
    # carried along records the row operations: E . A = reduced A
    f = field(4)
    rng = random.Random(9)
    for _ in range(20):
        a = np.array([[rng.randrange(16) for _ in range(3)] for _ in range(5)], dtype=np.uint8)
        a[rng.randrange(5)] = 0
        aug = np.hstack([a, np.eye(5, dtype=np.uint8)])
        pivots = mx._eliminate(aug, f, 3)
        assert all(c < 3 for _, c in pivots)
        assert len(pivots) == rank(mx.MatrixGF(f, a))
        ops = mx.MatrixGF(f, aug[:, 3:])
        assert matmul(ops, mx.MatrixGF(f, a)) == mx.MatrixGF(f, aug[:, :3])
        for r, c in pivots:
            assert aug[r, c] == 1 and not aug[r, :c].any() and np.count_nonzero(aug[:, c]) == 1


def forward_eliminate(arr, ctx, ncols=None):
    """The forward pass alone, whatever is carried: the reference for
    `mx._eliminate`, `mx._solve` and the decoder's block triangles."""
    mt, inv = ctx.mul_table, ctx.inv_table
    ncols = arr.shape[1] if ncols is None else ncols
    pivots = []
    for r in range(arr.shape[0]):
        if len(pivots) == ncols:
            break
        nz = arr[r, :ncols].nonzero()[0]
        if nz.size == 0:
            continue
        col = int(nz[0])
        if arr[r, col] != 1:
            arr[r] = mt[arr[r], inv[arr[r, col]]]
        arr[r + 1:] ^= mt[arr[r + 1:, col, None], arr[r]]
        pivots.append((r, col))
    return pivots


def solve_by_back_substitution(ctx, cols, carried):
    """`mx._solve` as a forward pass, then back-substitution of the pivot
    rows sorted by column: the reference."""
    mt = ctx.mul_table
    e = cols.shape[1]
    aug = np.hstack([cols, carried])
    pivots = forward_eliminate(aug, ctx, e)
    checks = np.delete(aug, [r for r, _ in pivots], axis=0)[:, e:]
    if len(pivots) < e:
        return checks, None
    out = aug[[r for r, _ in sorted(pivots, key=lambda rc: rc[1])]]
    for i in range(e - 1, 0, -1):
        out[:i] ^= mt[out[:i, i, None], out[i]]
    return checks, out[:, e:]


def _draw_matrix(data, ctx, rows, cols):
    entries = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=np.uint8).reshape(rows, cols)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_eliminate_is_the_forward_pass_in_reduced_form(data):
    # at every ncols, carried columns or none: the forward pass's pivots and
    # rows without a pivot, with each pivot column cleared from every other row
    ctx = field(data.draw(st.integers(2, 8)))
    rows, width = data.draw(st.integers(0, 8)), data.draw(st.integers(1, 10))
    a = _draw_matrix(data, ctx, rows, width)
    if rows >= 2 and data.draw(st.booleans()):
        a[-1] = ctx.mul_table[a[0], data.draw(st.integers(0, ctx.q - 1))]  # a dependent row
    ncols = data.draw(st.integers(0, width))
    expected = a.copy()
    pivots = forward_eliminate(expected, ctx, ncols)
    got = a.copy()
    assert mx._eliminate(got, ctx, ncols) == pivots
    others = [r for r in range(rows) if r not in dict(pivots)]
    assert np.array_equal(got[others], expected[others])
    for r, c in pivots:
        assert got[r, c] == 1 and np.count_nonzero(got[:, c]) == 1


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_solve_matches_back_substitution(data):
    # C and X bit for bit over w = 2..8, with dependent erased columns:
    # repeated ones, and more of them than rows
    ctx = field(data.draw(st.integers(2, 8)))
    rows, e, k = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8)), data.draw(st.integers(0, 4))
    a = _draw_matrix(data, ctx, rows, e + k)
    if e >= 2 and data.draw(st.booleans()):
        a[:, e - 1] = ctx.mul_table[a[:, 0], data.draw(st.integers(0, ctx.q - 1))]
    checks, solution = mx._solve(ctx, a[:, :e], a[:, e:])
    expected_checks, expected = solve_by_back_substitution(ctx, a[:, :e], a[:, e:])
    assert checks.dtype == np.uint8 and np.array_equal(checks, expected_checks)
    assert (solution is None) == (expected is None)
    assert solution is None or (solution.dtype == np.uint8 and np.array_equal(solution, expected))


def test_solve_erasures_example_1_grid():
    # the worked 7x7 erasure pattern, solved against the full parity-check
    # matrix and cross-checked with the recursive decoder
    from eii.codec import decode, encode
    f = field(3)
    leaves = (LeafSpec(f, 7, 1), LeafSpec(f, 7, 2), LeafSpec(f, 7, 4), LeafSpec(f, 7, 5))
    spec = NodeSpec(f, leaves, (2, 1, 1, 2, 1))
    h = build_parity_check(spec).h
    rng = random.Random(11)
    word = encode(spec, [rng.randrange(8) for _ in range(24)])
    grid = {0: [1, 3, 4, 5, 6], 1: list(range(7)), 2: [2], 3: [1, 3, 5, 6],
            4: [0, 1, 3, 4, 6], 5: [5], 6: [3, 5]}
    erased = word.with_erasures([r * 7 + c for r, cols in grid.items() for c in cols])
    via_matrix = mx.solve_erasures(h, erased)
    via_decoder, report = decode(spec, erased)
    assert report.outcome == "recovered"
    assert via_matrix == via_decoder == word


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_plan_fill_matches_the_reference_product(data):
    # the flat-offset gather against the 2-D table product of the rows
    # `_solve` gives, on a codeword and on noise, for a drawn mask, no
    # erasures, every position erased and a dependent mask of rank + 1
    ctx = field(data.draw(st.integers(2, 8)))
    n, r = data.draw(st.integers(1, 10)), data.draw(st.integers(0, 6))
    entries = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=r * n, max_size=r * n))
    h = mx.MatrixGF(ctx, np.array(entries, dtype=np.uint8).reshape(r, n))
    noise = np.array(data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=n, max_size=n)),
                     dtype=np.uint8)
    pivots = [c for _, c in mx._eliminate(h.data.copy(), ctx)]
    codeword = mx.solve_erasures(h, SymbolWord.known(noise.tolist()).with_erasures(pivots))
    codeword = np.array(codeword.symbols, dtype=np.uint8)
    drawn = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    dependent = np.arange(n) <= len(pivots)
    for mask in (drawn, np.zeros(n, dtype=bool), np.ones(n, dtype=bool), dependent):
        erased, known = np.flatnonzero(mask), np.flatnonzero(~mask)
        checks, solution = mx._solve(ctx, h.data[:, erased], h.data[:, known])
        rows = checks if solution is None else np.vstack([checks, solution])
        plan = mx.ErasurePlan(h, mask)
        assert np.array_equal(plan.offsets >> ctx.w, rows)
        for word in (codeword, noise):
            syms = word.copy()
            expected = np.bitwise_xor.reduce(ctx.mul_table[rows, syms[known]], axis=1)
            if expected[:len(checks)].any():
                assert word is noise
                with pytest.raises(mx.InconsistentWordError):
                    plan.fill(syms)
            elif solution is None:
                assert plan.fill(syms) is False
            else:
                assert plan.fill(syms) is True
                assert np.array_equal(syms[erased], expected[len(checks):])
                assert word is noise or np.array_equal(syms, codeword)
            assert np.array_equal(syms[known], word[known])
            if solution is None or expected[:len(checks)].any():
                assert np.array_equal(syms, word)
        if mask is dependent and dependent.sum() > len(pivots):
            assert solution is None and plan.fill(codeword.copy()) is False


def test_csv_export():
    f = field(3)
    m = mx.vandermonde(f, 2, 3, 0)
    text = mx.to_csv(m)
    lines = text.strip().split("\n")
    assert lines[0] == "# gf=2^3 rows=2 cols=3"
    assert lines[1] == "1,1,1"
    assert lines[2] == "1,2,4"
