import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab.align import curve
from syllab.errors import ConfigurationError, UnknownSymbolError
from syllab.sonority import (
    CLASS_LEVELS,
    SonorityHierarchy,
    hierarchy_for,
    sonority_sequence,
)

from oracles import points, sequence_from_levels

ARPABET_PHONES = ("AA AE AH AO AW AY B CH D DH EH ER EY F G HH IH IY JH K L M "
                  "N NG OW OY P R S SH T TH UH UW V W Y Z ZH").split()


class TestHierarchies:
    def test_arpabet_reference_levels(self, arpabet):
        assert arpabet.level("AH0") == 5
        assert arpabet.level("R") == 4
        assert arpabet.level("DH") == 3
        assert arpabet.level("M") == 2
        assert arpabet.level("T") == 1

    def test_arpabet_inventory_complete(self, arpabet):
        for phone in ARPABET_PHONES:
            assert arpabet.level(phone) in range(1, 6)

    def test_stress_digits_stripped(self, arpabet):
        for sym in ("IY0", "IY1", "IY2", "IY"):
            assert arpabet.level(sym) == 5

    def test_class_level_correspondence(self, arpabet):
        assert arpabet.classify("CH") == "stop"  # affricates grouped with stops
        assert arpabet.classify("HH") == "fricative"
        assert arpabet.classify("ER0") == "vowel"

    def test_letters_en_reference_levels(self, letters_en):
        assert letters_en.level("e") == 5
        assert letters_en.level("r") == 4
        assert letters_en.level("s") == 3
        assert letters_en.level("n") == 2
        assert letters_en.level("t") == 1

    def test_letters_full_alphabet(self, letters_en):
        for ch in "abcdefghijklmnopqrstuvwxyz'-.":
            assert letters_en.level(ch) in range(1, 6)

    def test_letters_case_insensitive(self, letters_en):
        assert letters_en.level("E") == 5

    def test_letters_y_is_vowel_in_english(self, letters_en):
        assert letters_en.classify("y") == "vowel"

    def test_letters_french_accents(self):
        fr = hierarchy_for("letters", "fr")
        assert fr.level("é") == 5 and fr.level("ç") == 3
        assert fr.level("j") == 3  # French j sounds as a fricative

    def test_letters_spanish(self):
        es = hierarchy_for("letters", "es")
        assert es.level("ñ") == 2
        assert es.classify("y") != "vowel"  # y is an approximant letter in Spanish

    def test_unknown_language_rejected(self):
        with pytest.raises(ConfigurationError):
            hierarchy_for("letters", "xx")

    def test_unknown_symbol_set_rejected(self):
        with pytest.raises(ConfigurationError):
            hierarchy_for("sampa")

    def test_digits_are_unknown_letters(self, letters_en):
        with pytest.raises(UnknownSymbolError) as exc:
            letters_en.level("3")
        assert "3" in str(exc.value)

    def test_ipa_base_symbols(self):
        ipa = hierarchy_for("mfa-ipa")
        assert ipa.level("ə") == 5
        assert ipa.level("ɹ") == 4
        assert ipa.level("ð") == 3
        assert ipa.level("m") == 2
        assert ipa.level("k") == 1

    def test_ipa_affricates_and_h(self):
        ipa = hierarchy_for("mfa-ipa")
        assert ipa.classify("tʃ") == "stop"
        assert ipa.classify("dʒ") == "stop"
        assert ipa.classify("h") == "fricative"

    def test_ipa_diphthongs_and_diacritics(self):
        ipa = hierarchy_for("mfa-ipa")
        assert ipa.classify("aj") == "vowel"
        assert ipa.classify("ow") == "vowel"
        assert ipa.classify("iː") == "vowel"
        assert ipa.classify("dʲ") == "stop"
        assert ipa.classify("n̩") == "nasal"

    def test_memoized_level_same_on_second_call(self):
        ipa = hierarchy_for("mfa-ipa")
        for sym, level in (("n̩", 2), ("dʲ", 1), ("ˈaː", 5)):
            assert ipa.level(sym) == level
            assert ipa.level(sym) == level
        # the memo takes no part in equality or repr
        assert ipa == hierarchy_for("mfa-ipa")
        assert repr(ipa) == repr(hierarchy_for("mfa-ipa"))

    def test_unknown_symbol_raises_every_time(self, letters_en):
        for _ in range(2):
            with pytest.raises(UnknownSymbolError):
                letters_en.level("7")

    def test_table_file_override(self, tmp_path, letters_en):
        table = tmp_path / "letters.tsv"
        table.write_text("w\tvowel\n")
        h = hierarchy_for("letters", "en", table_path=table)
        assert h.classify("w") == "vowel" and letters_en.classify("w") != "vowel"

    def test_standalone_table_file(self, tmp_path):
        table = tmp_path / "set.tsv"
        table.write_text("ka\tstop\nna\tnasal\naa\tvowel\n")
        h = hierarchy_for("mfa-ipa", table_path=table)
        assert h.level("ka") == 1 and h.level("aa") == 5
        custom = SonorityHierarchy("custom", {"ka": "stop", "aa": "vowel"})
        assert custom.level("ka") == 1 and custom.level("aa") == 5
        with pytest.raises(UnknownSymbolError):
            custom.level("zz")

    def test_bad_table_file(self, tmp_path):
        table = tmp_path / "bad.tsv"
        table.write_text("ka\tplosive\n")
        with pytest.raises(ConfigurationError):
            hierarchy_for("mfa-ipa", table_path=table)


class TestSonoritySequence:
    def test_rhythm_expansion(self, arpabet):
        seq = sonority_sequence(["R", "IH1", "DH", "AH0", "M"], arpabet)
        assert seq.levels == bytes((4, 5, 3, 5, 2))
        assert curve(seq) == bytes((4, 5, 4, 3, 5, 4, 2))

    def test_letters_sentence_expansion(self, letters_en):
        seq = sonority_sequence(list("sentence"), letters_en)
        assert seq.levels == bytes((3, 5, 2, 1, 5, 2, 1, 5))
        assert curve(seq) == bytes((3, 5, 4, 2, 1, 5, 4, 2, 1, 5, 4))

    @pytest.mark.parametrize("word", ["sentence", "Sentence", "o'neill", "", "y"])
    def test_letters_of_a_str_as_of_their_list(self, letters_en, word):
        seq = sonority_sequence(word, letters_en)
        assert seq == sonority_sequence(list(word), letters_en)
        assert seq.symbols == tuple(word)

    @pytest.mark.parametrize("word", ["3d", "a3", "naïve", "ab\u0301c"])
    def test_unknown_letter_of_a_str_raises(self, letters_en, word):
        # an unknown letter is never stored, so it raises again
        for _ in range(2):
            with pytest.raises(UnknownSymbolError):
                sonority_sequence(word, letters_en)

    def test_empty_sequence(self, arpabet):
        seq = sonority_sequence([], arpabet)
        assert seq.levels == curve(seq) == b"" and seq.symbols == ()

    def test_vowel_contributes_two_points_same_source(self, arpabet):
        seq = sonority_sequence(["AY1"], arpabet)
        assert (seq.levels, curve(seq)) == (b"\x05", b"\x05\x04")

    def test_unknown_symbol_propagates(self, arpabet):
        with pytest.raises(UnknownSymbolError):
            sonority_sequence(["Q9"], arpabet)

    @given(st.lists(st.sampled_from(ARPABET_PHONES), max_size=12))
    @settings(max_examples=300)
    def test_point_count_invariant(self, phones):
        h = hierarchy_for("cmu-arpabet")
        seq = sonority_sequence(phones, h)
        vowels = sum(1 for p in phones if h.classify(p) == "vowel")
        assert len(curve(seq)) == (len(phones) - vowels) + 2 * vowels
        # one level per symbol: the per-symbol sonority
        assert list(seq.levels) == [h.level(ph) for ph in phones]
        # max level per source point recovers the per-symbol sonority
        per_source = {}
        for level, source in points(seq):
            per_source[source] = max(per_source.get(source, 0), level)
        assert per_source == {i: h.level(ph) for i, ph in enumerate(phones)}
        assert bytes(level for level, _ in points(seq)) == curve(seq)

    def test_deterministic(self, arpabet):
        phones = ["S", "EH1", "N", "T", "AH0", "N", "S"]
        assert sonority_sequence(phones, arpabet) == sonority_sequence(phones, arpabet)


class TestSequenceFromLevels:
    def test_round_trip_with_expansion(self):
        seq = sequence_from_levels([3, 5, 4, 2])
        assert seq.levels == bytes((3, 5, 2))
        assert curve(seq) == bytes((3, 5, 4, 2))
        assert points(seq) == [(3, 0), (5, 1), (4, 1), (2, 2)]

    def test_rejects_dangling_vowel_half(self):
        with pytest.raises(ValueError):
            sequence_from_levels([5, 3])
        with pytest.raises(ValueError):
            sequence_from_levels([5])

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            sequence_from_levels([0])
