"""Arithmetic in the binary extension fields GF(2^w), 2 <= w <= 8.

Field elements are plain Python ints in [0, 2^w - 1], read as coefficient
bitmasks in the polynomial basis (bit i is the coefficient of x^i).
Addition is XOR; multiplication goes through discrete-log tables built
from a fixed irreducible modulus for each w.  The modulus is chosen so
that x itself is primitive, which makes alpha = 2 a generator in every
supported field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from functools import lru_cache

import numpy as np

# Irreducible modulus per extension degree, encoded as an integer bitmask
# including the x^w term.  x is primitive for each of these, so alpha = x
# generates the multiplicative group.  w=3 uses x^3 + x + 1, hence
# alpha^3 = alpha + 1 in GF(8).
MODULI = {
    2: 0b111,          # x^2 + x + 1
    3: 0b1011,         # x^3 + x + 1
    4: 0b10011,        # x^4 + x + 1
    5: 0b100101,       # x^5 + x^2 + 1
    6: 0b1000011,      # x^6 + x + 1
    7: 0b10000011,     # x^7 + x + 1
    8: 0b100011101,    # x^8 + x^4 + x^3 + x^2 + 1
}


@dataclass(frozen=True)
class FieldContext:
    """Immutable GF(2^w) arithmetic context.

    Attributes
    ----------
    w : extension degree (bits per symbol)
    modulus : irreducible polynomial bitmask of degree w, MODULI[w]
    q : field size, 2^w
    alpha : the generator (residue class of x, always the integer 2)
    exp_table : read-only uint8 array, exp_table[i] = alpha^i for
        0 <= i <= q-1 (period q-1)
    log_table : read-only int64 array, log_table[a] = discrete log of a;
        log_table[0] = -1 sentinel
    mul_table : read-only q x q uint8 array, mul_table[a, b] = a * b, for
        numpy fancy indexing
    inv_table : read-only uint8 array, inv_table[a] = 1 / a; inv_table[0] = 0

    All four tables are built with the context.
    """

    w: int
    modulus: int = _field(init=False, default=0)
    q: int = _field(init=False, compare=False, default=0)
    alpha: int = _field(init=False, compare=False, default=2)
    exp_table: np.ndarray = _field(init=False, compare=False, repr=False, default=None)
    log_table: np.ndarray = _field(init=False, compare=False, repr=False, default=None)
    mul_table: np.ndarray = _field(init=False, compare=False, repr=False, default=None)
    inv_table: np.ndarray = _field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.w not in MODULI:
            raise ValueError(f"unsupported extension degree w={self.w} (need 2..8)")
        object.__setattr__(self, "modulus", MODULI[self.w])
        q = 1 << self.w
        object.__setattr__(self, "q", q)
        exp = [0] * q
        log = [-1] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & q:
                x ^= self.modulus
        if x != 1:
            raise ValueError(f"x is not primitive modulo {self.modulus:#b}")
        exp[q - 1] = 1  # alpha^(q-1) = 1, completing one full period
        exp, log = np.array(exp, dtype=np.uint8), np.array(log, dtype=np.int64)
        mul = exp[(log[:, None] + log) % (q - 1)]
        mul[0, :] = 0
        mul[:, 0] = 0
        inv = exp[-log % (q - 1)]
        inv[0] = 0
        for name, table in dict(exp_table=exp, log_table=log, mul_table=mul, inv_table=inv).items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    # -- scalar operations ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^w)")
        return int(self.exp_table[(self.q - 1 - self.log_table[a]) % (self.q - 1)])

    def alpha_pow(self, e: int) -> int:
        return int(self.exp_table[e % (self.q - 1)])

    # -- vectorized products ------------------------------------------------

    def mul_arrays(self, a, b) -> np.ndarray:
        """Elementwise product of symbol arrays, broadcast like mul_table[a, b].

        One gather from the flattened table at a * q + b.  Its fixed cost is
        higher than the 2-D fancy index's, so it is faster only above about
        500 products; on large operands it costs about half as much per
        element.  `matrix.ErasurePlan` uses the same gather with the shift
        of its left operand done once per plan, which makes it faster than
        the 2-D fancy index on every plan but the smallest leaf plans.
        """
        return self.mul_table.ravel().take((np.asarray(a, dtype=np.uint16) << self.w) | b)

    def pack(self, a) -> np.ndarray:
        """The last axis of a symbol array in uint64 words of 64 // w lanes.

        Entry j sits in word j // (64 // w) at bits w (j % (64 // w)) up,
        and lanes past the last entry are zero, so a vector over the field
        is ceil(len / (64 // w)) words, and XOR of words adds vectors.
        """
        a = np.asarray(a)
        lanes = 64 // self.w
        words = -(-a.shape[-1] // lanes)
        padded = np.zeros(a.shape[:-1] + (words * lanes,), dtype=np.uint64)
        padded[..., :a.shape[-1]] = a
        shifts = np.arange(0, lanes * self.w, self.w, dtype=np.uint64)
        return np.bitwise_or.reduce(padded.reshape(a.shape[:-1] + (words, lanes)) << shifts, axis=-1)

    def __repr__(self):
        return f"FieldContext(w={self.w})"


@lru_cache(maxsize=None)
def field(w: int) -> FieldContext:
    """Shared context for GF(2^w) with the fixed modulus for that w."""
    return FieldContext(w)
