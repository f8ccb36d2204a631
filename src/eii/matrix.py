"""Dense linear algebra over GF(2^w).

Matrices are stored row-major as read-only numpy uint8 arrays; all products
go through the field's q x q multiplication table, so every routine here is
exact integer arithmetic.  `_eliminate` is the package's one elimination
kernel: it leaves the pivot rows in reduced form, so erasure solving reads
its solution off them without back-substitution, and parity-check
reduction and the local split of `pcheck` read only its pivots.

Eliminating the erased columns of a parity-check matrix H is written once,
in `_solve`, which is handed the columns: `solve_erasures` carries the
syndrome of the known symbols through it and solves one word, an
`ErasurePlan` carries H_K and keeps the rows that repair every word with
the same mask, and `pcheck.pc_decode` solves a fresh mask on the residual
columns of the local split, or, when not every block sum is a check, with
`solve_erasures`' core `_solve_symbols` on the word arrays it has checked.
The one table of plans sits in `pcheck`.  A plan keeps its rows as flat
offsets into the multiplication table (`FieldContext.offsets`), shifted
once when it is built, so each fill is one `FieldContext.dot`.  A matrix
prints as CSV (`to_csv`) or as an alist (`to_alist`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import FieldContext
from .words import SymbolWord, word_arrays


class InconsistentWordError(ValueError):
    """Known symbols contradict the parity-check matrix on every completion."""


@dataclass(frozen=True)
class MatrixGF:
    ctx: FieldContext
    data: np.ndarray  # 2-D uint8, read-only

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-D")
        if arr.size and int(arr.max()) >= self.ctx.q:
            raise ValueError("matrix entry out of field range")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other):
        if not isinstance(other, MatrixGF):
            return NotImplemented
        # the bytes of uint8 data of one shape are equal exactly when the
        # entries are, and comparing them skips array_equal's temporaries
        return self.ctx == other.ctx and self.data.shape == other.data.shape \
            and self.data.tobytes() == other.data.tobytes()

    @cached_property
    def _hash(self) -> int:
        # kept on the matrix: every plan-table lookup hashes its matrix
        return hash((self.ctx, self.data.shape, self.data.tobytes()))

    def __hash__(self):
        return self._hash

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.data))


def identity(ctx: FieldContext, n: int) -> MatrixGF:
    return MatrixGF(ctx, np.eye(n, dtype=np.uint8))


def vandermonde(ctx: FieldContext, s: int, w: int, v: int = 0) -> MatrixGF:
    """s x w matrix with entry (r, c) = alpha^(c (v + r)).

    Row r is the evaluation vector (1, alpha^(v+r), alpha^(2(v+r)), ...);
    any s <= w of these rows are linearly independent as long as the s
    evaluation points alpha^(v+r) are distinct, which s <= order(alpha)
    guarantees.
    """
    if w < 1 or s < 0 or v < 0:
        raise ValueError(f"bad Vandermonde parameters s={s}, w={w}, v={v}")
    if s > ctx.q - 1:
        raise ValueError(f"s={s} exceeds order(alpha)={ctx.q - 1} in GF(2^{ctx.w})")
    r = np.arange(s, dtype=np.int64)[:, None]
    c = np.arange(w, dtype=np.int64)[None, :]
    return MatrixGF(ctx, ctx.exp_table[(c * (v + r)) % (ctx.q - 1)])


def kronecker(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """Kronecker product: block (i, j) of the result is a[i, j] * b."""
    if a.ctx != b.ctx:
        raise ValueError("Kronecker product needs matrices over the same field")
    # a 2-D gather: no library code calls this, the tests' Kronecker oracle does
    out = a.ctx.mul_table[a.data[:, None, :, None], b.data[None, :, None, :]]
    return MatrixGF(a.ctx, out.reshape(a.rows * b.rows, a.cols * b.cols))


def stack(blocks) -> MatrixGF:
    """Vertical stack, skipping zero-row blocks."""
    blocks = [blk for blk in blocks if blk.rows > 0]
    if not blocks:
        raise ValueError("nothing to stack")
    ctx = blocks[0].ctx
    if any(blk.ctx != ctx for blk in blocks):
        raise ValueError("stack needs matrices over the same field")
    return MatrixGF(ctx, np.vstack([blk.data for blk in blocks]))


def _eliminate(arr: np.ndarray, ctx: FieldContext, ncols: int | None = None) -> list:
    """In-place elimination on the first `ncols` columns (default all).

    Rows are visited top to bottom, without swaps.  A row, once the pivots
    above it have cleared their columns from it, takes its leftmost nonzero
    entry among the first `ncols` columns as its pivot; the row is scaled to
    a unit pivot and the pivot column is cleared from every other row, so
    the pivot rows end in reduced form, carried columns (a right-hand side
    or an identity block) included.  Returns the (row, col) pivots in row
    order; every other row is zero in the first `ncols` columns.  Pivots and
    pivotless rows are the forward pass's: a row, when visited, is its
    original plus the one combination of the pivot rows above that clears
    their columns.  The update is an outer product of two `mul_table`
    `take`s; through `gf.mul_arrays` it builds an `ErasurePlan` 35% slower.
    """
    mt, inv = ctx.mul_table, ctx.inv_table
    ncols = arr.shape[1] if ncols is None else ncols
    pivots = []
    for r in range(arr.shape[0]):
        if len(pivots) == ncols:
            break
        row = arr[r]
        nz = row[:ncols].nonzero()[0]
        if nz.size == 0:
            continue
        col = int(nz[0])
        pivot = row[col]
        if pivot != 1:
            row[:] = mt[inv[pivot]].take(row)
        factors = arr[:, col].copy()
        factors[r] = 0
        arr ^= mt.take(factors, axis=0).take(row, axis=1)
        pivots.append((r, col))
    return pivots


def _solve(ctx: FieldContext, cols: np.ndarray, carried: np.ndarray):
    """Eliminate the columns `cols` (the erased columns, in order), with the
    columns `carried` alongside.

    One `_eliminate` of [cols | carried] on the erased columns.  Returns
    (C, X): C is the carried part of the rows without a pivot, and X that
    of the pivot rows in erased-column order, [I | X] in reduced form, or
    None when the erased columns are dependent.
    """
    e = cols.shape[1]
    aug = np.concatenate((cols, carried), axis=1)
    rows = {c: r for r, c in _eliminate(aug, ctx, e)}
    checks = aug[~aug[:, :e].any(axis=1), e:]
    return checks, aug[[rows[c] for c in range(e)], e:] if len(rows) == e else None


def solve_erasures(h: MatrixGF, word: SymbolWord):
    """Fill the erased positions of `word` so that h . c^T = 0.

    Returns the completed SymbolWord when the erased columns of h are
    linearly independent, or None when the system is underdetermined.
    Raises ValueError for a wrong length or a symbol outside the field,
    then InconsistentWordError when no completion exists at all.
    """
    return _solve_symbols(h, *word_arrays(word, h.cols, h.ctx.q))


def _solve_symbols(h: MatrixGF, syms: np.ndarray, mask: np.ndarray):
    """`solve_erasures` on a word's checked arrays; fills `syms` in place."""
    # a 2-D gather: each mask's columns are read once, so no offsets are kept
    syndrome = np.bitwise_xor.reduce(h.ctx.mul_table[h.data[:, ~mask], syms[~mask]], axis=1)
    checks, solution = _solve(h.ctx, h.data[:, mask], syndrome[:, None])
    if np.count_nonzero(checks):
        raise InconsistentWordError("known symbols are inconsistent with the parity checks")
    if solution is None:
        return None
    syms[mask] = solution[:, 0]
    return SymbolWord._from_array(syms)


class ErasurePlan:
    """The repair of one erasure mask against one parity-check matrix.

    `_solve` with H_K carried: with v the known symbols in position order,
    C . v must vanish for v to be consistent and X . v gives the erased
    symbols in position order.  C (the first `n_checks` rows) is stacked
    over X, so one product evaluates both; X is left out, and `solvable`
    is false, when the erased columns are dependent.  The stack is kept as
    its `FieldContext.offsets`, shifted once when the plan is built, so a
    fill is one `FieldContext.dot` with the known symbols.
    """

    __slots__ = ("ctx", "erased", "known", "n_checks", "solvable", "offsets")

    def __init__(self, h: MatrixGF, mask):
        self.ctx = h.ctx
        self.erased, self.known = np.flatnonzero(mask), np.flatnonzero(~mask)
        checks, solution = _solve(h.ctx, h.data[:, self.erased], h.data[:, self.known])
        self.n_checks = len(checks)
        self.solvable = solution is not None
        rows = np.vstack([checks, solution]) if self.solvable else checks
        self.offsets = h.ctx.offsets(rows)

    def fill(self, syms: np.ndarray) -> bool:
        """Fill the erased entries of the uint8 array `syms` in place.

        Raises InconsistentWordError when the known entries fail C; returns
        False, leaving `syms` as it was, when the erased columns are
        dependent.
        """
        out = self.ctx.dot(self.offsets, syms[self.known], axis=1)
        if np.count_nonzero(out[:self.n_checks]):
            raise InconsistentWordError("known symbols are inconsistent with the parity checks")
        if self.solvable:
            syms[self.erased] = out[self.n_checks:]
        return self.solvable


def to_csv(m: MatrixGF) -> str:
    """One row per line, comma-separated; header `# gf=2^w rows=R cols=C`."""
    lines = [f"# gf=2^{m.ctx.w} rows={m.rows} cols={m.cols}"]
    for row in m.data:
        lines.append(",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def to_alist(m: MatrixGF) -> str:
    """Sparse export: `rows cols` header, then 1-based column indices per row."""
    lines = [f"{m.rows} {m.cols}"]
    for row in m.data:
        lines.append(" ".join(str(int(c)) for c in np.nonzero(row)[0] + 1))
    return "\n".join(lines) + "\n"
