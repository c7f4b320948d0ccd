import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab.align import AlignmentPath, alignment_debug_tsv, dtw, project_breaks, project_ssp
from syllab.sonority import sonority_sequence
from syllab.ssp import ssp_breaks

from oracles import (
    enum_min_cost,
    enum_tie_path,
    random_expanded_levels,
    recursive_min_cost,
    sequence_from_levels,
)


def check_path_shape(path: AlignmentPath, m, n):
    assert path.pairs[0] == (0, 0)
    assert path.pairs[-1] == (m - 1, n - 1)
    for (i0, j0), (i1, j1) in zip(path.pairs, path.pairs[1:]):
        assert (i1 - i0, j1 - j0) in ((1, 0), (0, 1), (1, 1))


class TestDtw:
    def test_identical_sequences_diagonal(self):
        seq = sequence_from_levels([3, 5, 4, 2])
        path = dtw(seq, seq)
        assert path.cost == 0
        assert path.pairs == tuple((i, i) for i in range(4))

    def test_one_by_three_table(self):
        a = sequence_from_levels([4])
        b = sequence_from_levels([4, 3, 4])
        path = dtw(a, b)
        assert path.pairs == ((0, 0), (0, 1), (0, 2))
        assert path.cost == 0 + 1 + 0

    def test_empty_input_rejected(self, arpabet):
        empty = sonority_sequence([], arpabet)
        other = sequence_from_levels([3])
        with pytest.raises(ValueError):
            dtw(empty, other)
        with pytest.raises(ValueError):
            dtw(other, empty)

    def test_diagonal_preferred_on_ties(self):
        seq = sequence_from_levels([1, 1])
        assert dtw(seq, seq).pairs == ((0, 0), (1, 1))

    def test_tie_order_matches_path_oracle(self):
        # the tie order decides which letter a phone cut lands on
        rng = random.Random(5)
        cases = [([4, 2, 4, 4, 3, 5, 4], [5, 4, 5, 4, 1, 3])]  # a- vs b-advance tie
        cases += [(random_expanded_levels(rng, 7), random_expanded_levels(rng, 7))
                  for _ in range(600)]
        for la, lb in cases:
            path = dtw(sequence_from_levels(la), sequence_from_levels(lb))
            assert (path.pairs, path.cost) == enum_tie_path(la, lb), (la, lb)

    def test_cost_consistent_with_pairs(self):
        a = sequence_from_levels([3, 5, 4, 2, 1])
        b = sequence_from_levels([3, 5, 4, 1])
        path = dtw(a, b)
        la, lb = a.levels, b.levels
        assert path.cost == sum(abs(la[i] - lb[j]) for i, j in path.pairs)

    def test_oracles_agree_with_each_other(self):
        rng = random.Random(99)
        for _ in range(150):
            a = random_expanded_levels(rng, 8)
            b = random_expanded_levels(rng, 8)
            assert enum_min_cost(a, b) == recursive_min_cost(a, b)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            a = sequence_from_levels(random_expanded_levels(rng, 8))
            b = sequence_from_levels(random_expanded_levels(rng, 8))
            path = dtw(a, b)
            check_path_shape(path, len(a.levels), len(b.levels))
            assert path.cost == enum_min_cost(a.levels, b.levels)

    def test_matches_recursive_oracle_larger(self):
        rng = random.Random(13)
        for _ in range(200):
            a = sequence_from_levels(random_expanded_levels(rng, 12))
            b = sequence_from_levels(random_expanded_levels(rng, 12))
            path = dtw(a, b)
            assert path.cost == recursive_min_cost(a.levels, b.levels)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, seed):
        rng = random.Random(seed)
        a = sequence_from_levels(random_expanded_levels(rng, 10))
        b = sequence_from_levels(random_expanded_levels(rng, 10))
        assert dtw(a, b) == dtw(a, b)

    def test_sentence_cross_domain_cost(self, arpabet, letters_en):
        a = sonority_sequence("S EH1 N T AH0 N S".split(), arpabet)
        b = sonority_sequence(list("sentence"), letters_en)
        assert a.levels == (3, 5, 4, 2, 1, 5, 4, 2, 3)
        assert b.levels == (3, 5, 4, 2, 1, 5, 4, 2, 1, 5, 4)
        path = dtw(a, b)
        assert path.cost == enum_min_cost(a.levels, b.levels)
        assert (4, 4) in path.pairs  # the T minimum aligns with the letter t


class TestProjectBreaks:
    def _project(self, word, phones, arpabet, letters_en):
        a = sonority_sequence(phones.split(), arpabet)
        b = sonority_sequence(list(word), letters_en)
        syl = ssp_breaks(a)
        return project_breaks(syl, dtw(a, b), a, b)

    def test_sentence(self, arpabet, letters_en):
        syl, degen = self._project("sentence", "S EH1 N T AH0 N S",
                                   arpabet, letters_en)
        assert syl.text() == "sen|tence" and not degen
        assert syl.breaks == (3,)

    def test_oceanic(self, arpabet, letters_en):
        syl, degen = self._project("oceanic", "OW2 SH IY0 AE1 N IH0 K",
                                   arpabet, letters_en)
        assert syl.text() == "o|ce|a|nic" and not degen

    def test_zero_breaks_identity(self, arpabet, letters_en):
        syl, degen = self._project("leaves", "L IY1 V Z", arpabet, letters_en)
        assert syl.text() == "leaves" and not degen

    def test_degenerate_collapse_flagged(self):
        # two phone breaks forced onto one letter gap: the word has a single
        # letter vowel region, so distinct phone cuts can collide
        phone = sequence_from_levels([5, 4, 1, 5, 4, 1, 5, 4])
        letters = sequence_from_levels([5, 4, 1, 5, 4])
        syl = ssp_breaks(phone)
        assert len(syl.breaks) == 2
        projected, degen = project_breaks(syl, dtw(phone, letters), phone, letters)
        assert degen
        assert projected.n_syllables <= syl.n_syllables


def ssp_dtw(word, phones, phone_h, letter_h):
    """SSP breaks of `phones` projected onto the letters of `word`."""
    phone_seq = sonority_sequence(phones, phone_h)
    return project_ssp(ssp_breaks(phone_seq), phone_seq,
                       sonority_sequence(list(word), letter_h))


class TestSspDtwSyllabify:
    def test_sentence(self, arpabet, letters_en):
        syl, _ = ssp_dtw("sentence", "S EH1 N T AH0 N S".split(),
                         arpabet, letters_en)
        assert syl.text() == "sen|tence"

    def test_leaves(self, arpabet, letters_en):
        syl, _ = ssp_dtw("leaves", "L IY1 V Z".split(), arpabet, letters_en)
        assert syl.text() == "leaves"

    def test_rhythm_two_syllables(self, arpabet, letters_en):
        syl, degen = ssp_dtw("rhythm", "R IH1 DH AH0 M".split(),
                             arpabet, letters_en)
        assert syl.n_syllables == 2
        assert "".join(sym for s in syl.syllables() for sym in s) == "rhythm"
        # regression pin for the derived cut: the schwa has no letter of its
        # own, the alignment lands the break right after the initial r
        assert syl.breaks == (1,)

    def test_concatenation_always_preserved(self, arpabet, letters_en, mini_lexicon):
        for word, prons in mini_lexicon.entries.items():
            syl, _ = ssp_dtw(word, prons[0].raw, arpabet, letters_en)
            assert "".join(sym for s in syl.syllables() for sym in s) == word

    def test_projected_count_never_exceeds_phone_count(self, arpabet, letters_en,
                                                       mini_lexicon):
        for word, prons in mini_lexicon.entries.items():
            phone_syl = ssp_breaks(sonority_sequence(prons[0].raw, arpabet))
            syl, degen = ssp_dtw(word, prons[0].raw, arpabet, letters_en)
            assert syl.n_syllables <= phone_syl.n_syllables
            if not degen:
                assert syl.n_syllables == phone_syl.n_syllables

    def test_empty_word_rejected(self, arpabet, letters_en):
        # a break has no letters to land on
        with pytest.raises(ValueError):
            ssp_dtw("", "S EH1 N T AH0 N S".split(), arpabet, letters_en)


class TestDebugDump:
    def test_tsv_shape(self, arpabet, letters_en):
        a = sonority_sequence("L IY1 V Z".split(), arpabet)
        b = sonority_sequence(list("leaves"), letters_en)
        path = dtw(a, b)
        dump = alignment_debug_tsv(path, a, b)
        lines = dump.strip().split("\n")
        assert lines[0] == "i\tj\tlevel_a\tlevel_b"
        assert len(lines) == len(path.pairs) + 1
        for line in lines[1:]:
            i, j, la, lb = map(int, line.split("\t"))
            assert a.levels[i] == la and b.levels[j] == lb
