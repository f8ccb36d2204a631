"""Arithmetic in the binary extension fields GF(2^w), 2 <= w <= 8.

Field elements are plain Python ints in [0, 2^w - 1], read as coefficient
bitmasks in the polynomial basis (bit i is the coefficient of x^i).
Addition is XOR; multiplication goes through discrete-log tables built
from a fixed irreducible modulus for each w.  The modulus is chosen so
that x itself is primitive, which makes alpha = 2 a generator in every
supported field.

Bulk products take two forms: gathers from the flattened multiplication
table at (a << w) | b (`offsets`, `dot`, `mul_arrays`), and packed lanes
of 64 // w symbols per uint64 word (`pack`, `lead`, `multiples`), after
Plank, Greenan & Miller, "Screaming Fast Galois Field Arithmetic Using
Intel SIMD Instructions" (FAST 2013).  On packed lanes `lead` finds each
vector's lowest nonzero lane with no search along the words: `where`s
over the words, from the last down, and the field's `lane_shifts` at the
exponent of the lowest set bit.  A zero vector leads with 0, so its multiples, all zero, change
nothing they are added to.
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
    """Immutable GF(2^w) arithmetic context; all five tables are built with it.

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
    mul_table : read-only q x q uint8 array, mul_table[a, b] = a * b
    inv_table : read-only uint8 array, inv_table[a] = 1 / a; inv_table[0] = 0
    lane_shifts : read-only uint64 array, lane_shifts[e] = the bit offset of
        the w-bit lane that holds bit e - 1 of a word, for 1 <= e <= 64;
        lane_shifts[0] = 0
    """

    w: int
    modulus: int = _field(init=False, default=0)
    q: int = _field(init=False, compare=False, default=0)
    alpha: int = _field(init=False, compare=False, default=2)
    exp_table: np.ndarray = _field(init=False, compare=False, repr=False, default=None)
    log_table: np.ndarray = _field(init=False, compare=False, repr=False, default=None)
    mul_table: np.ndarray = _field(init=False, compare=False, repr=False, default=None)
    inv_table: np.ndarray = _field(init=False, compare=False, repr=False, default=None)
    lane_shifts: np.ndarray = _field(init=False, compare=False, repr=False, default=None)

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
        bits = np.arange(-1, 64)
        shifts = np.where(bits < 0, 0, bits - bits % self.w).astype(np.uint64)
        tables = dict(exp_table=exp, log_table=log, mul_table=mul, inv_table=inv, lane_shifts=shifts)
        for name, table in tables.items():
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

    def offsets(self, a) -> np.ndarray:
        """a as uint16 offsets a << w into the flat `mul_table`, where a * b
        is (a << w) | b; intp ones would gather a 22 x 68 plan 0.5 us faster
        but take four times the memory."""
        return np.asarray(a, dtype=np.uint16) << self.w

    def mul_arrays(self, a, b) -> np.ndarray:
        """Elementwise product of symbol arrays, broadcast like mul_table[a, b]:
        one flat gather, dearer than the 2-D fancy index below about 500
        products, about half its cost per element on large operands."""
        return self.mul_table.ravel().take(self.offsets(a) | b)

    def dot(self, offsets, b, axis: int) -> np.ndarray:
        """XOR-sum along `axis` of the products of b and the symbols whose
        `offsets` are given, broadcast together."""
        return np.bitwise_xor.reduce(self.mul_table.ravel().take(offsets | b), axis=axis)

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

    def lead(self, x: np.ndarray):
        """Word, bit offset and value of the lowest nonzero w-bit lane of each
        column of x, (words, R) uint64 lanes of `pack`; a zero column gives
        the last word, offset 0 and value 0.  The first nonzero word is
        found by a `where` over the words, from the last down.  Its lowest
        set bit is v & -v, whose index `np.frexp` reads exactly as its
        exponent e (0 for v = 0), and `lane_shifts[e]` is the offset of the
        lane that holds it."""
        word, v = np.full(x.shape[1], len(x) - 1), x[-1]
        for i in range(len(x) - 2, -1, -1):
            nonzero = x[i] != 0
            word, v = np.where(nonzero, i, word), np.where(nonzero, x[i], v)
        shift = self.lane_shifts.take(np.frexp(v & -v)[1])
        return word, shift, (v >> shift) & self.q - 1

    def multiples(self, x: np.ndarray) -> np.ndarray:
        """c x for every symbol c, (words, q, R), of the packed vectors x, (words, R).
        x alpha^i is x alpha^(i-1) by a lane-wise xtime: each lane shifts up
        one bit, and the modulus is XORed into the lanes whose top bit was
        set.  Entries 2^i to 2^(i+1) - 1 are x alpha^i plus those below 2^i."""
        w = self.w
        top = ((1 << 64 // w * w) - 1) // (self.q - 1) << w - 1  # each lane's top bit
        table = np.empty((len(x), self.q, x.shape[1]), dtype=np.uint64)
        table[:, 0], table[:, 1] = 0, x
        for i in range(1, w):
            hi = x & top
            x = (x ^ hi) << 1 ^ (hi >> w - 1) * (self.modulus ^ self.q)  # the modulus less x^w
            np.bitwise_xor(table[:, :1 << i], x[:, None], out=table[:, 1 << i:2 << i])
        return table

    def __repr__(self):
        return f"FieldContext(w={self.w})"


@lru_cache(maxsize=None)
def field(w: int) -> FieldContext:
    """Shared context for GF(2^w) with the fixed modulus for that w."""
    return FieldContext(w)
