import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab.lexicon import Pronunciation
from syllab.pipeline import Resources, analyze_words
from syllab.sonority import SonoritySequence, hierarchy_for
from syllab.ssp import Syllabification, ssp_breaks, syllabify_symbols

from oracles import (
    all_expanded_sequences,
    bounds_syllables,
    oracle_breaks,
    per_syllable_phone_text,
    per_syllable_text,
    points,
    sequence_from_levels,
)


def expanded_levels(max_symbols=6):
    """Strategy over valid expanded level lists, by drawing symbol levels."""
    return st.lists(st.integers(min_value=1, max_value=5),
                    min_size=1, max_size=max_symbols).map(
        lambda syms: [x for lvl in syms for x in ((5, 4) if lvl == 5 else (lvl,))])


class TestPaperExamples:
    def test_oceanic_hiatus(self, arpabet):
        syl = syllabify_symbols("OW2 SH IY0 AE1 N IH0 K".split(), arpabet)
        assert syl.breaks == (1, 3, 4)
        assert syl.phone_text() == "OW2 . SH IY0 . AE1 . N IH0 K"
        assert syl.n_syllables == 4

    def test_rhythm_trailing_consonant(self, arpabet):
        syl = syllabify_symbols("R IH1 DH AH0 M".split(), arpabet)
        assert syl.breaks == (2,)
        assert syl.phone_text() == "R IH1 . DH AH0 M"

    def test_leaves_single_syllable(self, arpabet):
        syl = syllabify_symbols("L IY1 V Z".split(), arpabet)
        assert syl.breaks == () and syl.n_syllables == 1

    def test_sentence_letters_naive(self, letters_en):
        syl = syllabify_symbols(list("sentence"), letters_en)
        assert syl.text() == "sen|ten|ce"

    def test_sentence_phones(self, arpabet):
        syl = syllabify_symbols("S EH1 N T AH0 N S".split(), arpabet)
        assert syl.phone_text() == "S EH1 N . T AH0 N S"

    def test_sibilant_stop_cluster_not_stranded(self, arpabet):
        # /s k r/ onsets stay attached to their vowel
        syl = syllabify_symbols("S K R UW1".split(), arpabet)
        assert syl.breaks == ()
        syl = syllabify_symbols("S P L IH1 T S".split(), arpabet)
        assert syl.breaks == ()


def analysis(phones, arpabet):
    """The pipeline's analysis of a word pronounced `phones`."""
    resources = Resources({"w": [Pronunciation(tuple(phones))]}, arpabet,
                          hierarchy_for("letters", "en"))
    return next(analyze_words(["w"], resources))


class TestCountNuclei:
    def test_leaves(self, arpabet):
        a = analysis("L IY1 V Z".split(), arpabet)
        assert a.phone_syll.n_syllables == 1 and "no-nucleus" not in a.flags

    def test_oceanic(self, arpabet):
        a = analysis("OW2 SH IY0 AE1 N IH0 K".split(), arpabet)
        assert a.phone_syll.n_syllables == 4 and "no-nucleus" not in a.flags

    def test_no_vowel(self, arpabet):
        a = analysis(["S", "T"], arpabet)
        assert "no-nucleus" in a.flags and a.phone_syll.breaks == ()

    @given(expanded_levels())
    @settings(max_examples=300)
    def test_matches_syllable_count(self, levels):
        seq = sequence_from_levels(levels)
        nuclei = sum(1 for lvl in levels if lvl == 5)
        if nuclei >= 1:
            assert ssp_breaks(seq).n_syllables == nuclei


class TestSyllabification:
    def test_breaks_validated(self):
        with pytest.raises(ValueError):
            Syllabification(("a", "b"), (0,))
        with pytest.raises(ValueError):
            Syllabification(("a", "b"), (2,))
        with pytest.raises(ValueError):
            Syllabification(("a", "b", "c"), (2, 1))

    def test_syllable_of(self):
        syl = Syllabification(tuple("oceanic"), (1, 3, 4))
        assert [syl.syllable_of(i) for i in range(7)] == [0, 1, 1, 2, 3, 3, 3]

    def test_empty(self):
        assert Syllabification((), ()).n_syllables == 0


@st.composite
def syllabifications(draw):
    """Symbols of zero to several characters, empty ones included, with any
    strictly increasing breaks, from none to one before every inner symbol."""
    symbols = tuple(draw(st.lists(st.text(alphabet="abˈ.| ", max_size=3), max_size=12)))
    inner = range(1, len(symbols))
    breaks = draw(st.sets(st.sampled_from(inner))) if inner else set()
    return Syllabification(symbols, tuple(sorted(breaks)))


class TestSyllableJoins:
    """The joins walk the breaks once and equal the per-syllable definitions."""

    @given(syllabifications())
    @settings(max_examples=300)
    def test_equal_per_syllable_definitions(self, syll):
        assert syll.syllables() == bounds_syllables(syll)
        assert syll.text() == per_syllable_text(syll)
        assert syll.phone_text() == per_syllable_phone_text(syll)

    @pytest.mark.parametrize("syll", [
        Syllabification((), ()),
        Syllabification(("", ""), (1,)),
        Syllabification(tuple("leaves"), ()),
        Syllabification(("AA1", "SH", "AH0", "N"), (2,)),
        Syllabification(tuple("ab" * 50), tuple(range(1, 100))),
    ])
    def test_edge_cases(self, syll):
        assert syll.syllables() == bounds_syllables(syll)
        assert syll.text() == per_syllable_text(syll)
        assert syll.phone_text() == per_syllable_phone_text(syll)


class TestOracleEquivalence:
    def test_exhaustive_short_sequences(self):
        checked = 0
        for levels in all_expanded_sequences(5):
            seq = sequence_from_levels(levels)
            got = list(ssp_breaks(seq).breaks)
            want = oracle_breaks(points(seq))
            assert got == want, f"levels={levels}"
            checked += 1
        assert checked > 300

    def test_exhaustive_symbol_sequences(self):
        # every sequence of up to 7 symbol levels, so up to 14 points
        checked = 0
        for length in range(1, 8):
            for levels in itertools.product(range(1, 6), repeat=length):
                seq = SonoritySequence(levels, bytes(levels))
                assert list(ssp_breaks(seq).breaks) == oracle_breaks(points(seq)), levels
                checked += 1
        assert checked == sum(5 ** n for n in range(1, 8))

    @given(expanded_levels(max_symbols=10))
    @settings(max_examples=1000)
    def test_random_long_sequences(self, levels):
        seq = sequence_from_levels(levels)
        got = list(ssp_breaks(seq).breaks)
        want = oracle_breaks(points(seq))
        assert got == want

    @given(expanded_levels(max_symbols=10))
    @settings(max_examples=500)
    def test_structural_invariants(self, levels):
        seq = sequence_from_levels(levels)
        syl = ssp_breaks(seq)
        nuclei = sum(1 for lvl in levels if lvl == 5)
        assert list(syl.breaks) == sorted(set(syl.breaks))
        if nuclei == 0:
            assert syl.breaks == ()
        else:
            # every syllable keeps at least one nucleus
            for part in syl.syllables():
                assert any(sym == "V" for sym in part)
            assert syl.n_syllables == nuclei


# 400,000-symbol curves that a break rule with backtracking or rescans would
# take quadratic time on: long falls, plateaus and nuclei with no later one
HOSTILE = {
    "one nucleus, then 4s": b"\x05" + b"\x04" * 399_999,
    "one nucleus, then falls with no later nucleus": b"\x05" + b"\x04\x03\x02" * 133_333,
    "a nucleus before every fall": (b"\x05" + b"\x04" * 999 + b"\x03" * 1000) * 200,
    "nuclei only": b"\x05" * 400_000,
    "alternating": b"\x05\x01" * 200_000,
    "long plateau between two nuclei": b"\x05" + b"\x03" * 399_998 + b"\x05",
}


@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_curves_break_in_linear_time(name):
    levels = HOSTILE[name]
    seq = SonoritySequence(tuple(levels), levels)
    start = time.perf_counter()
    breaks = ssp_breaks(seq).breaks
    elapsed = time.perf_counter() - start
    nuclei = levels.count(5)
    assert len(breaks) == max(nuclei - 1, 0)
    # a linear pass takes well under a second; a quadratic one, hours
    assert elapsed < 2.0, f"{name}: {elapsed:.2f}s"
