import ast
from pathlib import Path

import numpy as np
import pytest

from eii.gf import MODULI, field


def order(f, a):
    """Multiplicative order of a nonzero a: smallest e >= 1 with a^e = 1."""
    e, x = 1, a
    while x != 1:
        x = f.mul(x, a)
        e += 1
    return e


def test_gf8_paper_arithmetic():
    # alpha^3 = 1 + alpha in GF(8), so alpha * alpha^2 = 3
    f = field(3)
    assert f.mul(2, 4) == 3
    # alpha^7 = 1, so alpha^4 * alpha^4 = alpha
    a4 = f.alpha_pow(4)
    assert f.mul(a4, a4) == f.alpha


def test_multiplicative_identity():
    f = field(5)
    for a in range(f.q):
        assert f.mul(a, 1) == a


def test_inverse_identity_and_alpha():
    f = field(3)
    assert f.inv(1) == 1
    assert f.inv(f.alpha) == f.alpha_pow(6)


def test_inverse_exhaustive_gf16():
    f = field(4)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field(3).inv(0)


def test_orders():
    f = field(3)
    assert order(f, 1) == 1
    assert order(f, f.alpha) == 7
    f16 = field(4)
    assert order(f16, f16.alpha_pow(3)) == 5


@pytest.mark.parametrize("w", sorted(MODULI))
def test_alpha_is_primitive(w):
    f = field(w)
    assert order(f, f.alpha) == f.q - 1


@pytest.mark.parametrize("w", sorted(MODULI))
def test_exp_log_round_trip(w):
    f = field(w)
    for a in range(1, f.q):
        assert f.exp_table[f.log_table[a]] == a
    assert f.exp_table[f.q - 1] == 1  # period q-1


@pytest.mark.parametrize("w", [2, 3, 4])
def test_field_axioms_exhaustive(w):
    f = field(w)
    elems = range(f.q)
    for a in elems:
        assert f.mul(a, 0) == 0
        for b in elems:
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_division():
    f = field(4)
    for a in range(f.q):
        for b in range(1, f.q):
            assert f.mul(f.mul(a, f.inv(b)), b) == a


def test_pow():
    f = field(3)
    assert f.alpha_pow(0) == 1
    assert f.alpha_pow(7) == 1
    assert f.alpha_pow(-1) == f.inv(f.alpha)


def test_context_is_shared_and_comparable():
    assert field(3) is field(3)
    assert field(3) == field(3)
    assert field(3) != field(4)


def test_unsupported_degree():
    with pytest.raises(ValueError):
        field(9)


@pytest.mark.parametrize("w", sorted(MODULI))
def test_mul_arrays_matches_table(w):
    # every pair of symbols, as an outer product, flat pairs and higher-rank
    # broadcasts; w = 1 is not a supported degree
    f = field(w)
    table = f.mul_table
    syms = np.arange(f.q, dtype=np.uint8)
    outer = f.mul_arrays(syms[:, None], syms[None, :])
    assert outer.dtype == np.uint8
    assert np.array_equal(outer, table)
    a, b = (x.ravel() for x in np.meshgrid(syms, syms, indexing="ij"))
    assert np.array_equal(f.mul_arrays(a, b), table[a, b])
    cube = syms.reshape(-1, 1, 1)[:: max(1, f.q // 8)]
    grid = np.stack([syms, syms[::-1]])[None]  # (1, 2, q)
    assert f.mul_arrays(cube, grid).shape == (cube.shape[0], 2, f.q)
    assert np.array_equal(f.mul_arrays(cube, grid), table[cube, grid])
    assert np.array_equal(f.mul_arrays(syms, 3), table[syms, 3])


@pytest.mark.parametrize("w", sorted(MODULI))
def test_dot_and_offsets_match_the_mul_table(w):
    # offsets are uint16 a << w; dot XOR-sums the products along either
    # axis, with broadcast operands: a matrix times a column or a row
    f = field(w)
    rng = np.random.default_rng(w)
    m = rng.integers(0, f.q, (5, 7)).astype(np.uint8)
    offsets = f.offsets(m)
    assert offsets.dtype == np.uint16 and np.array_equal(offsets, m.astype(np.uint16) << w)
    assert f.offsets(f.q - 1).dtype == np.uint16 and int(f.offsets(f.q - 1)) == (f.q - 1) << w
    col, row = rng.integers(0, f.q, 7).astype(np.uint8), rng.integers(0, f.q, 5).astype(np.uint8)
    products = f.mul_table[m, col[None, :]]
    assert np.array_equal(f.dot(offsets, col, axis=1), np.bitwise_xor.reduce(products, axis=1))
    products = f.mul_table[m, row[:, None]]
    assert np.array_equal(f.dot(offsets, row[:, None], axis=0), np.bitwise_xor.reduce(products, axis=0))
    cube = rng.integers(0, f.q, (3, 5, 1)).astype(np.uint8)  # three columns against m's rows
    out = f.dot(offsets[None], cube, axis=1)
    assert out.dtype == np.uint8 and out.shape == (3, 7)
    assert np.array_equal(out, np.bitwise_xor.reduce(f.mul_table[m[None], cube], axis=1))
    assert np.array_equal(f.mul_arrays(m, col), f.mul_table[m, col])


@pytest.mark.parametrize("w", sorted(MODULI))
def test_table_arrays_match_the_scalar_tables(w):
    # built once per field and read-only; mul_table and inv_table equal the
    # scalar mul and inv they replace in vectorized code, which return ints
    f = field(w)
    assert f.exp_table.dtype == np.uint8 and f.log_table.dtype == np.int64
    for name in ("exp_table", "log_table", "mul_table", "inv_table"):
        assert getattr(f, name) is getattr(field(w), name) and not getattr(f, name).flags.writeable
    assert f.mul_table.tolist() == [[f.mul(a, b) for b in range(f.q)] for a in range(f.q)]
    assert f.inv_table.tolist() == [0] + [f.inv(a) for a in range(1, f.q)]
    assert {type(f.mul(2, 3)), type(f.inv(2)), type(f.alpha_pow(5))} == {int}


def unpack(ctx, lanes, count):
    """The first `count` symbols of the `FieldContext.pack` words along the
    last axis of `lanes` (the inverse of the packing)."""
    shifts = np.arange(0, 64 // ctx.w * ctx.w, ctx.w, dtype=np.uint64)
    symbols = (lanes[..., None] >> shifts) & np.uint64(ctx.q - 1)
    return symbols.reshape(lanes.shape[:-1] + (-1,))[..., :count].astype(np.uint8)


@pytest.mark.parametrize("w", range(2, 9))
def test_multiples_of_packed_vectors_match_the_mul_table(w):
    # three words, the last one partly filled, so every lane edge is crossed
    ctx = field(w)
    size = 2 * (64 // w) + 1
    v = np.random.default_rng(w).integers(0, ctx.q, (5, size)).astype(np.uint8)
    v[0] = ctx.q - 1  # every lane's top bit set
    x = ctx.pack(v).T  # (words, vectors)
    assert x.shape == (3, 5) and np.array_equal(unpack(ctx, x.T, size), v)
    table = ctx.multiples(x)
    assert table.shape == (3, ctx.q, 5)
    for c in range(ctx.q):
        assert np.array_equal(unpack(ctx, table[:, c].T, size), ctx.mul_table[c][v]), c


@pytest.mark.parametrize("w", [2, 4, 8])
def test_lead_lane_of_the_top_bit_of_the_last_word(w):
    # 64 % w == 0, so bit 63 is the top bit of the last lane, and v & -v is 2^63
    x = np.array([[0, 1, 0], [1 << 63, 1 << 63, 3 << 62]], dtype=np.uint64)  # (words, residuals)
    assert (x[1] & -x[1])[0] == 1 << 63
    word, shift, lead = field(w).lead(x)
    assert word.tolist() == [1, 0, 1]
    assert shift.tolist() == [64 - w, 0, 64 - w]
    assert lead.tolist() == [1 << w - 1, 1, (3 << w - 2) & (1 << w) - 1]


def test_lead_of_a_zero_column_is_zero():
    # beside a column whose lead is 1 in the first lane of its last word
    x = np.array([[0, 0], [0, 0], [0, 1]], dtype=np.uint64)  # (words, residuals)
    for w in range(2, 9):
        word, shift, lead = field(w).lead(x)
        assert lead.tolist() == [0, 1] and shift.tolist() == [0, 0] and word[1] == 2


@pytest.mark.parametrize("w", range(2, 9))
def test_lead_reads_the_lane_of_every_set_bit(w):
    # three words: the column whose lowest set bit is bit b of word i, below
    # random words after it and random bits above b, leads at word i and
    # the lane of b
    ctx = field(w)
    rng = np.random.default_rng(w)
    lanes = 64 // w * w
    cols, want = [], []
    for i in range(3):
        for b in range(lanes):
            col = rng.integers(0, 1 << lanes, 3, dtype=np.uint64)
            col[:i] = 0
            col[i] = (col[i] | np.uint64(1 << b)) & np.uint64(~((1 << b) - 1) & (1 << 64) - 1)
            cols.append(col)
            shift = b - b % w
            want.append((i, shift, int(col[i]) >> shift & ctx.q - 1))
    word, shift, lead = ctx.lead(np.array(cols).T)
    assert list(zip(word.tolist(), shift.tolist(), lead.tolist())) == want
    assert all(v for _, _, v in want)


def test_only_gf_reads_the_modulus_or_the_flat_mul_table():
    # both bulk product forms are written once, in gf: no other module
    # shifts lanes by the modulus or gathers from the flattened table
    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "eii").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())) if path.stem != "gf" else ():
            call = node.func if isinstance(node, ast.Call) else None
            if (isinstance(node, ast.Attribute) and node.attr == "modulus"
                    or isinstance(call, ast.Attribute) and call.attr == "ravel"
                    and isinstance(call.value, ast.Attribute) and call.value.attr == "mul_table"):
                found.append(f"{path.stem}.py:{node.lineno}")
    assert found == []
