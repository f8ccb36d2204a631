import dataclasses
import re

import numpy as np
import pytest

from eii import codec, matrix as mx, pcheck
from eii.codespec import dimension, spec_from_capability
from eii.gf import field
from eii.words import SymbolWord, word_arrays, word_from_text, word_to_text
from test_acceptance import TABLE_1


def test_text_round_trip():
    word = SymbolWord((3, 0, 7, 1), (False, True, False, False))
    text = word_to_text(word)
    assert text == "3 ? 7 1"
    again = word_from_text(text)
    assert again.erased == word.erased
    assert again.symbols[0] == 3 and again.symbols[2:] == (7, 1)


def test_with_erasures():
    word = SymbolWord.known([1, 2, 3])
    erased = word.with_erasures([0, 2])
    assert erased.erased == (True, False, True)
    assert erased.symbols == (1, 2, 3)
    with pytest.raises(ValueError):
        word.with_erasures([5])


@pytest.mark.parametrize("position", [1.5, True, np.bool_(False), "1", None])
def test_with_erasures_rejects_non_integer_positions(position):
    word = SymbolWord.known([1, 2, 3])
    with pytest.raises(ValueError, match=re.escape(f"erasure index {position!r} is not an integer")):
        word.with_erasures([0, position])


def test_with_erasures_accepts_numpy_integers():
    word = SymbolWord.known([1, 2, 3])
    assert word.with_erasures(np.array([2, 0])).erased == (True, False, True)
    assert word.with_erasures([np.uint8(1)]).erased == (False, True, False)


def test_mask_length_checked():
    with pytest.raises(ValueError):
        SymbolWord((1, 2), (False,))


def test_erasure_count():
    assert word_from_text("? 4 ? 0").erased == (True, False, True, False)


def test_word_arrays():
    word = SymbolWord((3, np.uint8(0), 7, np.int64(1)), (False, True, False, False))
    syms, erased = word_arrays(word, 4, 8)
    assert syms.dtype == np.uint8 and syms.tolist() == [3, 0, 7, 1]
    assert erased.dtype == bool and erased.tolist() == [False, True, False, False]


@pytest.mark.parametrize("symbols, n, message", [
    ((1, 2, 3), 4, "word length 3 != code length 4"),
    ((1, True, 3), 3, "symbol True at position 1 is not an integer"),
    ((1, 2, 1.0), 3, "symbol 1.0 at position 2 is not an integer"),
    (("1", 2, 3), 3, "symbol '1' at position 0 is not an integer"),
    ((1, None, 3), 3, "symbol None at position 1 is not an integer"),
    ((1, 8, 3), 3, "symbol 8 at position 1 outside 0..7"),
    ((1, 2, -1), 3, "symbol -1 at position 2 outside 0..7"),
])
def test_word_arrays_rejects(symbols, n, message):
    word = SymbolWord(symbols, (False,) * len(symbols))
    for w in (word, word.with_erasures([0])):
        with pytest.raises(ValueError) as info:
            word_arrays(w, n, 8)
        assert str(info.value) == message


def test_library_words_keep_their_bytes_and_compare_as_built():
    spec = spec_from_capability(field(8), "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    pc = pcheck.build_parity_check(spec)
    word = codec.encode(spec, [(37 * i) % 256 for i in range(dimension(spec))])
    erased = word.with_erasures([0, 8, 30])
    built = [word, erased, codec.decode(spec, erased)[0], pcheck.pc_decode(pc, erased),
             mx.solve_erasures(pc.reduced, erased), codec.min_weight_codeword(spec)]
    for got in built:
        plain = SymbolWord(got.symbols, got.erased)
        assert got._bytes == bytes(got.symbols) and plain._bytes is None
        assert got == plain and hash(got) == hash(plain) and repr(got) == repr(plain)
        assert dataclasses.replace(got)._bytes is None
        assert dataclasses.replace(got, erased=(True,) * len(got))._bytes is None
        syms, mask = word_arrays(got, len(got), 256)
        assert syms.tolist() == list(got.symbols) and mask.tolist() == list(got.erased)
    # checked against a smaller field, the kept bytes fail as the symbols do
    for got in (word, erased):
        with pytest.raises(ValueError) as kept:
            word_arrays(got, len(got), 8)
        with pytest.raises(ValueError) as plain:
            word_arrays(SymbolWord(got.symbols, got.erased), len(got), 8)
        assert str(kept.value) == str(plain.value) and "outside 0..7" in str(kept.value)
    with pytest.raises(ValueError, match="word length 84 != code length 85"):
        word_arrays(erased, 85, 256)


def test_word_arrays_are_fresh():
    word = SymbolWord((1, 2, 3), (True, False, False))
    syms, erased = word_arrays(word, 3, 8)
    syms[:] = 0
    erased[:] = False
    assert word == SymbolWord((1, 2, 3), (True, False, False))
    again, _ = word_arrays(word, 3, 8)
    assert again.tolist() == [1, 2, 3]


class _Counted(tuple):
    """Symbols that count how often they are scanned."""

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def _counted(word: SymbolWord) -> SymbolWord:
    symbols = _Counted(word.symbols)
    symbols.scans = 0
    object.__setattr__(word, "symbols", symbols)
    return word


def test_entry_points_scan_a_word_once():
    # the 3-layer code solves a fresh pc_decode mask in the local split, and
    # Table 1 row 11 (t < M block sums) on the rows of H
    for cap, w in (("((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 3), (TABLE_1[10][0], 4)):
        spec = spec_from_capability(field(w), cap, 7)
        pc = pcheck.build_parity_check(spec)
        word = codec.encode(spec, [i % 8 for i in range(dimension(spec))])
        erased = word.with_erasures([0, 8, 30])
        calls = [
            lambda w: codec.decode(spec, w),
            lambda w: codec.is_codeword(spec, w),
            lambda w: mx.solve_erasures(pc.reduced, w),
        ]
        for call, w in zip(calls, (erased, word, erased)):
            w = _counted(SymbolWord(w.symbols, w.erased))
            call(w)
            assert w.symbols.scans == 1, cap
        # pc_decode: first sighting (direct solve), plan build, plan replay
        pcheck._sightings.cache_clear()
        pcheck._plan.cache_clear()
        for _ in range(3):
            w = _counted(SymbolWord(erased.symbols, erased.erased))
            assert pcheck.pc_decode(pc, w) == word
            assert w.symbols.scans == 1, cap
        assert pcheck._plan.cache_info()[:2] == (1, 1)
