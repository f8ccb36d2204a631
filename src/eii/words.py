"""Symbol words: fixed-length sequences of field symbols with an erasure mask.

Text format (used by the CLI): whitespace-separated integers 0..q-1, with
``?`` marking an erased position.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SymbolWord:
    symbols: tuple
    erased: tuple
    # bytes of a word the library built from a uint8 array (see `word_arrays`)
    _bytes: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.symbols) != len(self.erased):
            raise ValueError("erasure mask length does not match symbol count")
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "erased", tuple(map(bool, self.erased)))

    def __len__(self):
        return len(self.symbols)

    @classmethod
    def known(cls, symbols) -> "SymbolWord":
        # the all-False mask is already normal: skip __post_init__'s pass over it
        word = object.__new__(cls)
        object.__setattr__(word, "symbols", tuple(symbols))
        object.__setattr__(word, "erased", (False,) * len(word.symbols))
        return word

    @classmethod
    def _from_array(cls, symbols: np.ndarray) -> "SymbolWord":
        """The fully known word of a 1-D uint8 array, keeping its bytes."""
        word = cls.known(symbols.tolist())
        object.__setattr__(word, "_bytes", symbols.tobytes())
        return word

    def with_erasures(self, positions) -> "SymbolWord":
        """Copy with the given zero-based positions marked erased (additionally)."""
        erased = list(self.erased)
        for p in positions:
            if isinstance(p, bool) or not isinstance(p, numbers.Integral):
                raise ValueError(f"erasure index {p!r} is not an integer")
            if not 0 <= p < len(erased):
                raise ValueError(f"erasure index {p} out of range")
            erased[p] = True
        word = SymbolWord(self.symbols, tuple(erased))
        object.__setattr__(word, "_bytes", self._bytes)
        return word


def check_symbols(symbols, q: int) -> list:
    """The symbols as a list, each checked to be an integer in 0..q-1.

    Python and numpy integers pass; bools, floats and every other type are
    rejected, because numpy would silently truncate or coerce them.  The
    ValueError names the first bad position.  The symbols are read once.
    """
    return [s if type(s) is int and 0 <= s < q else _check_symbol(i, s, q)
            for i, s in enumerate(symbols)]


def _check_symbol(i: int, s, q: int):
    if isinstance(s, bool) or not isinstance(s, numbers.Integral):
        raise ValueError(f"symbol {s!r} at position {i} is not an integer")
    if not 0 <= s < q:
        raise ValueError(f"symbol {s} at position {i} outside 0..{q - 1}")
    return s


def word_arrays(word: SymbolWord, n: int, q: int):
    """Fresh (uint8 symbols, bool erasure mask) arrays of `word`.

    The one place a word is checked: ValueError unless it has n symbols,
    each an integer in 0..q-1 (see `check_symbols`).  A word the library
    built from a uint8 array carries its symbols' bytes, so only their
    maximum is checked; one above q - 1 fails `check_symbols` as before.
    """
    if len(word) != n:
        raise ValueError(f"word length {len(word)} != code length {n}")
    raw = word._bytes
    if raw is None or max(raw, default=0) >= q:
        raw = check_symbols(word.symbols, q)
    # a bytearray is a fresh writable buffer, and numpy wraps it without a copy
    symbols = np.frombuffer(bytearray(raw), dtype=np.uint8)
    return symbols, np.frombuffer(bytearray(word.erased), dtype=bool)


def word_to_text(word: SymbolWord) -> str:
    return " ".join("?" if e else str(s) for s, e in zip(word.symbols, word.erased))


def word_from_text(text: str) -> SymbolWord:
    symbols, erased = [], []
    for token in text.split():
        if token == "?":
            symbols.append(0)
            erased.append(True)
        else:
            symbols.append(int(token))
            erased.append(False)
    return SymbolWord(tuple(symbols), tuple(erased))
