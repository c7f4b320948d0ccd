import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab.lexicon import Lexicon, Pronunciation
from syllab.pipeline import Resources, analyze_word
from syllab.sonority import hierarchy_for
from syllab.ssp import Syllabification, ssp_breaks, syllabify_symbols

from oracles import all_expanded_sequences, oracle_breaks, sequence_from_levels


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


def nuclei(phones, arpabet):
    """The pipeline's nucleus count of a word pronounced `phones`."""
    lexicon = Lexicon({"w": [Pronunciation(tuple(phones))]}, "cmu-arpabet")
    resources = Resources(lexicon, arpabet, hierarchy_for("letters", "en"))
    return analyze_word("w", resources).nuclei


class TestCountNuclei:
    def test_leaves(self, arpabet):
        assert nuclei("L IY1 V Z".split(), arpabet) == 1

    def test_oceanic(self, arpabet):
        assert nuclei("OW2 SH IY0 AE1 N IH0 K".split(), arpabet) == 4

    def test_no_vowel(self, arpabet):
        assert nuclei(["S", "T"], arpabet) == 0

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


class TestOracleEquivalence:
    def test_exhaustive_short_sequences(self):
        checked = 0
        for levels in all_expanded_sequences(5):
            seq = sequence_from_levels(levels)
            got = list(ssp_breaks(seq).breaks)
            want = oracle_breaks(list(zip(seq.levels, seq.sources)))
            assert got == want, f"levels={levels}"
            checked += 1
        assert checked > 300

    @given(expanded_levels(max_symbols=10))
    @settings(max_examples=1000)
    def test_random_long_sequences(self, levels):
        seq = sequence_from_levels(levels)
        got = list(ssp_breaks(seq).breaks)
        want = oracle_breaks(list(zip(seq.levels, seq.sources)))
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
