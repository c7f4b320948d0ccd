import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab import align as align_module
from syllab.align import (
    DTW_CELL_BUDGET,
    DTW_CHUNK_CELLS,
    alignment_debug_tsv,
    dtw,
    project_breaks,
)
from syllab.sonority import VOWEL_LEVEL, SonoritySequence, sonority_sequence
from syllab.ssp import Syllabification, ssp_breaks

from oracles import (
    enum_min_cost,
    enum_tie_path,
    leftmost_links,
    random_expanded_levels,
    recursive_min_cost,
    row_dtw,
    sequence_from_levels,
    zip_project_breaks,
)

from conftest import count_calls


def check_path_shape(pairs, m, n):
    assert pairs[0] == (0, 0)
    assert pairs[-1] == (m - 1, n - 1)
    for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
        assert (i1 - i0, j1 - j0) in ((1, 0), (0, 1), (1, 1))


def align(a, b):
    """The (pairs, cost) of `a` and `b`, as a batch of one."""
    [path] = dtw([(a, b)])
    return path


def level_pairs(cases):
    """Sequences of each (levels a, levels b) case."""
    return [(sequence_from_levels(la), sequence_from_levels(lb)) for la, lb in cases]


class TestDtw:
    def test_identical_sequences_diagonal(self):
        seq = sequence_from_levels([3, 5, 4, 2])
        pairs, cost = align(seq, seq)
        assert cost == 0
        assert pairs == tuple((i, i) for i in range(4))

    def test_one_by_three_table(self):
        a = sequence_from_levels([4])
        b = sequence_from_levels([4, 3, 4])
        pairs, cost = align(a, b)
        assert pairs == ((0, 0), (0, 1), (0, 2))
        assert cost == 0 + 1 + 0

    def test_empty_input_rejected(self, arpabet):
        empty = sonority_sequence([], arpabet)
        other = sequence_from_levels([3])
        with pytest.raises(ValueError):
            align(empty, other)
        with pytest.raises(ValueError):
            align(other, empty)
        with pytest.raises(ValueError):  # in a batch, too
            dtw([(other, other), (other, empty)])

    @pytest.mark.parametrize("levels", [[1, 256], [-1, 3], [300]])
    def test_level_outside_a_byte_rejected(self, levels):
        n = len(levels)
        odd = SonoritySequence(("x",) * n, tuple(levels), tuple(range(n)))
        other = sequence_from_levels([3, 5, 4])
        with pytest.raises(ValueError):
            align(odd, other)
        with pytest.raises(ValueError):
            align(other, odd)

    def test_diagonal_preferred_on_ties(self):
        seq = sequence_from_levels([1, 1])
        assert align(seq, seq)[0] == ((0, 0), (1, 1))

    def test_tie_order_matches_path_oracle(self):
        # the tie order decides which letter a phone cut lands on
        rng = random.Random(5)
        cases = [([4, 2, 4, 4, 3, 5, 4], [5, 4, 5, 4, 1, 3])]  # a- vs b-advance tie
        cases += [(random_expanded_levels(rng, 7), random_expanded_levels(rng, 7))
                  for _ in range(600)]
        for (la, lb), path in zip(cases, dtw(level_pairs(cases))):
            assert path == enum_tie_path(la, lb), (la, lb)

    def test_cost_consistent_with_pairs(self):
        a = sequence_from_levels([3, 5, 4, 2, 1])
        b = sequence_from_levels([3, 5, 4, 1])
        pairs, cost = align(a, b)
        la, lb = a.levels, b.levels
        assert cost == sum(abs(la[i] - lb[j]) for i, j in pairs)

    def test_oracles_agree_with_each_other(self):
        rng = random.Random(99)
        for _ in range(150):
            a = random_expanded_levels(rng, 8)
            b = random_expanded_levels(rng, 8)
            assert enum_min_cost(a, b) == recursive_min_cost(a, b)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(7)
        cases = [(random_expanded_levels(rng, 8), random_expanded_levels(rng, 8))
                 for _ in range(200)]
        for (la, lb), (pairs, cost) in zip(cases, dtw(level_pairs(cases))):
            check_path_shape(pairs, len(la), len(lb))
            assert cost == enum_min_cost(la, lb)

    def test_matches_recursive_oracle_larger(self):
        rng = random.Random(13)
        cases = [(random_expanded_levels(rng, 12), random_expanded_levels(rng, 12))
                 for _ in range(200)]
        for (la, lb), (_, cost) in zip(cases, dtw(level_pairs(cases))):
            assert cost == recursive_min_cost(la, lb)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, seed):
        rng = random.Random(seed)
        a = sequence_from_levels(random_expanded_levels(rng, 10))
        b = sequence_from_levels(random_expanded_levels(rng, 10))
        assert align(a, b) == align(a, b)

    def test_sentence_cross_domain_cost(self, arpabet, letters_en):
        a = sonority_sequence("S EH1 N T AH0 N S".split(), arpabet)
        b = sonority_sequence(list("sentence"), letters_en)
        assert a.levels == (3, 5, 4, 2, 1, 5, 4, 2, 3)
        assert b.levels == (3, 5, 4, 2, 1, 5, 4, 2, 1, 5, 4)
        pairs, cost = align(a, b)
        assert cost == enum_min_cost(a.levels, b.levels)
        assert (4, 4) in pairs  # the T minimum aligns with the letter t


def raw_curve(levels):
    """A curve of any levels, one placeholder symbol per point."""
    n = len(levels)
    return SonoritySequence(("x",) * n, tuple(levels), tuple(range(n)))


def curve(size, levels=st.integers(1, 5)):
    return st.lists(levels, min_size=size[0], max_size=size[1])


def at_lane_boundary(case):
    """A short flat curve against a long one at the other end of the level
    range: the last cell's cost is the range times the long length, which
    sits just below or just above what a lane of one or two bytes holds."""
    (lo, hi, length), short, swap = case
    pair = ([lo] * short, [hi] * length)
    return pair[::-1] if swap else pair


# the shapes a batch mixes: single rows and columns, flat curves, the whole
# byte range, and level range x length at a lane-width boundary
CURVE_PAIRS = st.one_of(
    st.tuples(curve((1, 1)), curve((1, 40))),
    st.tuples(curve((1, 40)), curve((1, 1))),
    st.tuples(st.integers(0, 255), st.integers(1, 12), st.integers(1, 12)).map(
        lambda c: ([c[0]] * c[1], [c[0]] * c[2])),
    st.tuples(curve((1, 12), st.integers(0, 255)), curve((1, 12), st.integers(0, 255))),
    st.tuples(curve((1, 14)), curve((1, 14))),
    st.tuples(st.sampled_from([(1, 5, 31), (1, 5, 32), (0, 255, 128), (0, 255, 129)]),
              st.integers(1, 3), st.booleans()).map(at_lane_boundary),
)


class TestBatch:
    @given(st.lists(CURVE_PAIRS, min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_batch_matches_batch_of_one_and_row_oracle(self, cases):
        curves = [(raw_curve(la), raw_curve(lb)) for la, lb in cases]
        for (la, lb), pair, path in zip(cases, curves, dtw(curves)):
            assert path == align(*pair) == row_dtw(la, lb), (la, lb)

    @pytest.mark.parametrize("lo, hi, length", [(1, 5, 31), (1, 5, 32),
                                                (0, 255, 128), (0, 255, 129)])
    def test_lane_boundary_cost(self, lo, hi, length):
        # the straight path's cost fills a lane to just below or past a byte
        # (1-5 levels) or two bytes (the whole byte range)
        pairs, cost = align(raw_curve([lo]), raw_curve([hi] * length))
        assert cost == (hi - lo) * length
        assert pairs == tuple((0, j) for j in range(length))

    def test_long_word_among_short_ones(self, monkeypatch):
        # a 1 x k curve near the cell budget is never padded against the
        # short words: it has a pass of its own, and every other pass of the
        # kernel stays within DTW_CHUNK_CELLS padded cells
        passes = count_calls(monkeypatch, align_module._dtw_lanes)
        rng = random.Random(3)
        cases = [(random_expanded_levels(rng, 12), random_expanded_levels(rng, 14))
                 for _ in range(600)]
        long = [rng.randint(1, 4) for _ in range(DTW_CELL_BUDGET - 7)]
        cases.insert(300, ([3], long))
        curves = [(raw_curve(la), raw_curve(lb)) for la, lb in cases]
        got = dtw(curves)
        assert got[300] == row_dtw([3], long)
        assert all(path == row_dtw(la, lb) for (la, lb), path in zip(cases[:40], got))
        shapes = [(len(levels), rows, cols) for levels, rows, cols in passes]
        assert sum(k for k, _, _ in shapes) == len(cases)
        assert (1, 1, len(long)) in shapes
        shapes.remove((1, 1, len(long)))
        assert max(k * rows * cols for k, rows, cols in shapes) <= DTW_CHUNK_CELLS


class TestProjectBreaks:
    def _project(self, word, phones, arpabet, letters_en):
        a = sonority_sequence(phones.split(), arpabet)
        b = sonority_sequence(list(word), letters_en)
        syl = ssp_breaks(a)
        return project_breaks(syl, align(a, b)[0], a, b)

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
        projected, degen = project_breaks(syl, align(phone, letters)[0], phone, letters)
        assert degen
        assert projected.n_syllables <= syl.n_syllables


def oracle_projection(phone, letters):
    """SSP breaks of `phone` carried onto `letters` along the brute-force path."""
    path, _ = enum_tie_path(phone.levels, letters.levels)
    links = leftmost_links(path)
    cuts = [letters.sources[links[phone.sources.index(brk)]]
            for brk in ssp_breaks(phone).breaks]
    vowels = [s for s, lvl in zip(letters.sources, letters.levels) if lvl == VOWEL_LEVEL]
    kept = sorted({c for c in cuts if vowels and 0 < c <= vowels[-1]})
    return Syllabification(letters.symbols, tuple(kept)), len(kept) < len(cuts)


class TestProjectionOracle:
    def test_project_ssp_matches_brute_force_path(self):
        # the leftmost and rightmost links of the cut row land on different letters
        cases = [([5, 4, 1, 5, 4, 3], [2, 5, 4, 1, 2, 5, 4])]
        rng = random.Random(17)
        while len(cases) < 601:
            la = random_expanded_levels(rng, 7)
            if ssp_breaks(sequence_from_levels(la)).breaks:  # else no DTW runs
                cases.append((la, random_expanded_levels(rng, 7)))
        curves = level_pairs(cases)
        for (la, lb), (phone, letters), (pairs, _) in zip(cases, curves, dtw(curves)):
            got = project_breaks(ssp_breaks(phone), pairs, phone, letters)
            assert got == oracle_projection(phone, letters), (la, lb)


def curve_levels(vowels=True):
    """Expanded levels of a random curve: vowels as 5, 4 pairs, consonants 1-4."""
    unit = st.integers(1, 4).map(lambda v: (v,))
    if vowels:
        unit = st.one_of(st.just((VOWEL_LEVEL, VOWEL_LEVEL - 1)), unit)
    return st.lists(unit, min_size=1, max_size=7).map(
        lambda units: [v for u in units for v in u])


def monotone_path(data, m, n):
    """A random warping path from (0, 0) to (m - 1, n - 1)."""
    i = j = 0
    pairs = [(0, 0)]
    while (i, j) != (m - 1, n - 1):
        steps = [(di, dj) for di, dj in ((1, 1), (1, 0), (0, 1))
                 if i + di < m and j + dj < n]
        di, dj = data.draw(st.sampled_from(steps))
        i, j = i + di, j + dj
        pairs.append((i, j))
    return tuple(pairs)


class TestProjectionReference:
    """`project_breaks` equals `zip_project_breaks`, the projection it
    replaced, on any monotone path, not only the DTW's."""

    @settings(max_examples=400, deadline=None)
    @given(curve_levels(), st.booleans().flatmap(curve_levels), st.data())
    def test_random_curves_breaks_and_paths(self, phone_levels, letter_levels, data):
        phone = sequence_from_levels(phone_levels)
        letters = sequence_from_levels(letter_levels)
        n = len(phone.symbols)
        breaks = data.draw(st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set()))
        phone_syll = Syllabification(phone.symbols, tuple(sorted(breaks)))
        pairs = monotone_path(data, len(phone.levels), len(letters.levels))
        assert project_breaks(phone_syll, pairs, phone, letters) == \
            zip_project_breaks(phone_syll, pairs, phone, letters)

    # (phone levels, breaks, letter levels, path, kept breaks); each drops a cut
    CASES = {
        "duplicate cuts": ([5, 4, 1, 5, 4, 1, 5, 4], (1, 3), [5, 4, 1, 5, 4],
                           ((0, 0), (1, 1), (2, 2), (3, 2), (4, 2), (5, 2), (6, 3),
                            (7, 4)), (1,)),
        "cut at 0": ([5, 4, 1, 5, 4], (1,), [1, 5, 4],
                     ((0, 0), (1, 0), (2, 0), (3, 1), (4, 2)), ()),
        "cut past the last vowel letter": ([5, 4, 1, 5, 4], (1,), [5, 4, 1, 1],
                                           ((0, 0), (1, 1), (2, 2), (3, 3), (4, 3)), ()),
        "no vowel letter": ([5, 4, 1, 5, 4], (1,), [1, 3, 1],
                            ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2)), ()),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_dropped_cut(self, case):
        phone_levels, breaks, letter_levels, pairs, kept = self.CASES[case]
        phone = sequence_from_levels(phone_levels)
        letters = sequence_from_levels(letter_levels)
        phone_syll = Syllabification(phone.symbols, breaks)
        got = project_breaks(phone_syll, pairs, phone, letters)
        assert got == zip_project_breaks(phone_syll, pairs, phone, letters)
        assert got == (Syllabification(letters.symbols, kept), True)


def ssp_dtw(word, phones, phone_h, letter_h):
    """SSP breaks of `phones` projected onto the letters of `word`."""
    phone_seq = sonority_sequence(phones, phone_h)
    letter_seq = sonority_sequence(list(word), letter_h)
    return project_breaks(ssp_breaks(phone_seq), align(phone_seq, letter_seq)[0],
                          phone_seq, letter_seq)


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
        for word, prons in mini_lexicon.items():
            syl, _ = ssp_dtw(word, prons[0].raw, arpabet, letters_en)
            assert "".join(sym for s in syl.syllables() for sym in s) == word

    def test_projected_count_never_exceeds_phone_count(self, arpabet, letters_en,
                                                       mini_lexicon):
        for word, prons in mini_lexicon.items():
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
        pairs, _ = align(a, b)
        dump = alignment_debug_tsv(pairs, a, b)
        lines = dump.strip().split("\n")
        assert lines[0] == "i\tj\tlevel_a\tlevel_b"
        assert len(lines) == len(pairs) + 1
        for line in lines[1:]:
            i, j, la, lb = map(int, line.split("\t"))
            assert a.levels[i] == la and b.levels[j] == lb
