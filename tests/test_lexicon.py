import gc
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab.errors import DictParseError
from syllab.lexicon import (
    CorpusFormat,
    FallbackConfig,
    Phone,
    Pronunciation,
    g2p_fallback,
    load_pron_dict,
    load_syllabified_corpus,
    lookup,
    sc_correction,
)
from syllab.sonority import VOWEL_LETTERS

from conftest import DATA


class TestCmuFormat:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("LEAVES  L IY1 V Z\n")
        lex = load_pron_dict(p, "cmu")
        assert [ph.raw for ph in lex.entries["leaves"][0].phones] == \
            ["L", "IY1", "V", "Z"]

    def test_variant_suffix_folding(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("READ  R EH1 D\nREAD(1)  R IY1 D\n")
        lex = load_pron_dict(p, "cmu")
        variants = lex.entries["read"]
        assert len(variants) == 2
        assert str(variants[0]) == "R EH1 D" and str(variants[1]) == "R IY1 D"

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text(";;; header\nCAT  K AE1 T\n")
        assert len(load_pron_dict(p, "cmu")) == 1

    def test_stress_digit_parsing(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("CAT  K AE1 T\n")
        phones = load_pron_dict(p, "cmu").entries["cat"][0].phones
        assert phones[1] == Phone("AE", 1) and phones[0] == Phone("K", None)

    def test_strict_mode_raises_with_line_number(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("CAT  K AE1 T\nJUNKLINE\n")
        with pytest.raises(DictParseError) as exc:
            load_pron_dict(p, "cmu")
        assert exc.value.line_no == 2

    def test_lenient_mode_skips(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("CAT  K AE1 T\nJUNKLINE\nDOG  D AO1 G\n")
        lex = load_pron_dict(p, "cmu", strict=False)
        assert sorted(lex.entries) == ["cat", "dog"]

    def test_latin1_fallback(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_bytes(b";;; caf\xe9 comment\nCAT  K AE1 T\n")
        assert "cat" in load_pron_dict(p, "cmu").entries


def test_loaders_close_their_files():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_pron_dict(DATA / "mini_cmu.dict", "cmu")
        load_syllabified_corpus(DATA / "mini_syllables.txt",
                                CorpusFormat.preset("gutenberg"))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestMfaFormat:
    def test_tab_separated(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("rhythm\tɹ ɪ ð ə m\n", encoding="utf-8")
        lex = load_pron_dict(p, "mfa")
        assert [ph.raw for ph in lex.entries["rhythm"][0].phones] == \
            ["ɹ", "ɪ", "ð", "ə", "m"]
        assert lex.phoneset == "mfa-ipa"

    def test_numeric_probability_columns_ignored(self):
        lex = load_pron_dict(DATA / "mini_mfa_en.dict", "mfa")
        assert str(lex.entries["sentence"][0]) == "s ɛ n t ə n s"

    def test_no_stress_digits_in_mfa(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("ha\th a1\n", encoding="utf-8")
        # trailing digits are phone material in mfa mode, not stress marks
        assert load_pron_dict(p, "mfa").entries["ha"][0].phones[1] == Phone("a1")


class TestLookup:
    def test_present(self, mini_lexicon):
        prons = lookup(mini_lexicon, "leaves")
        assert len(prons) == 1 and str(prons[0]) == "L IY1 V Z"

    def test_absent_is_oov(self, mini_lexicon):
        assert lookup(mini_lexicon, "zzxq") == []

    def test_case_folded(self, mini_lexicon):
        assert lookup(mini_lexicon, "Read") == lookup(mini_lexicon, "read")
        assert len(lookup(mini_lexicon, "READ")) == 2

    def test_variant_order_preserved(self, mini_lexicon):
        variants = lookup(mini_lexicon, "the")
        assert [str(v) for v in variants] == ["DH AH0", "DH AH1", "DH IY0"]

    def test_load_lookup_round_trip(self, mini_lexicon):
        raw = (DATA / "mini_cmu.dict").read_text().splitlines()
        for line in raw:
            if line.startswith(";;;") or not line.strip():
                continue
            word, _, phones = line.partition("  ")
            word = word.split("(")[0].lower()
            assert any(str(p) == phones for p in lookup(mini_lexicon, word)), line


class TestPronunciation:
    def test_non_empty_enforced(self):
        with pytest.raises(ValueError):
            Pronunciation(())

    def test_raw_rebuilds_stress_digits(self):
        pron = Pronunciation((Phone("L"), Phone("IY", 1), Phone("V"), Phone("Z")))
        assert pron.raw == ("L", "IY1", "V", "Z")
        assert str(pron) == "L IY1 V Z"


class TestG2pFallback:
    def test_no_config(self):
        assert g2p_fallback(["zzxq"], None) == [None]

    def test_mock_command(self):
        cfg = FallbackConfig((sys.executable, "-c",
                              "import sys; sys.stdin.read(); print('Z Z K Y UW1')"))
        [pron] = g2p_fallback(["zzxq"], cfg)
        assert str(pron) == "Z Z K Y UW1"
        assert pron.phones[-1] == Phone("UW", 1)

    def test_command_failure(self, caplog):
        cfg = FallbackConfig((sys.executable, "-c", "import sys; sys.exit(3)"))
        with caplog.at_level("WARNING"):
            assert g2p_fallback(["zzxq"], cfg) == [None]
        assert "exited 3" in caplog.text

    def test_empty_output(self, caplog):
        cfg = FallbackConfig((sys.executable, "-c", "pass"))
        with caplog.at_level("WARNING"):
            assert g2p_fallback(["zzxq"], cfg) == [None]

    def test_missing_binary(self, caplog):
        with caplog.at_level("WARNING"):
            assert g2p_fallback(["zzxq"], FallbackConfig("/no/such/binary")) == [None]

    def test_bare_string_rejected(self):
        with pytest.raises(TypeError):
            g2p_fallback("zzxq", None)


class TestScCorrection:
    def test_sibilant_group_merged_forward(self):
        assert sc_correction(["s", "tar"]) == ["star"]

    def test_identity_when_all_have_vowels(self):
        assert sc_correction(["sen", "tence"]) == ["sen", "tence"]

    def test_trailing_merged_backward(self):
        assert sc_correction(["ab", "s"]) == ["abs"]

    def test_chained_merges(self):
        assert sc_correction(["s", "t", "ar"]) == ["star"]

    def test_all_consonants_collapse(self):
        assert sc_correction(["b", "c", "d"]) == ["bcd"]

    def test_idempotent(self):
        for syls in (["s", "tar"], ["ab", "s"], ["sen", "tence"], ["b", "c"]):
            once = sc_correction(syls)
            assert sc_correction(once) == once

    def test_language_specific_vowels(self):
        assert sc_correction(["st", "él"], VOWEL_LETTERS["fr"]) == ["stél"]

    @given(st.lists(st.text(alphabet="bstar", min_size=1, max_size=4),
                    min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_no_vowelless_syllable_survives(self, syls):
        out = sc_correction(syls)
        assert "".join(out) == "".join(syls)
        if any("a" in s for s in syls):
            assert all("a" in s for s in out)
        else:
            assert len(out) == 1


class TestSyllabifiedCorpus:
    def test_gutenberg_style(self, mini_corpus):
        assert mini_corpus.entries["sentence"] == ("sen", "tence")
        assert mini_corpus.entries["beautiful"] == ("beau", "ti", "ful")

    def test_sc_correction_applied_on_load(self, mini_corpus):
        assert mini_corpus.entries["star"] == ("star",)

    def test_concatenation_invariant(self, mini_corpus):
        for word, syls in mini_corpus.entries.items():
            assert "".join(syls) == word

    def test_case_folded(self, mini_corpus):
        assert "philip" in mini_corpus.entries

    def test_lexique_style_columns(self):
        fmt = CorpusFormat(syllable_separator="-", column_separator="\t",
                           word_column=0, syllable_column=2, has_header=True)
        corpus = load_syllabified_corpus(DATA / "mini_lexique.tsv", fmt, "fr")
        assert corpus.entries["bateau"] == ("ba", "teau")
        assert corpus.entries["stylo"] == ("sty", "lo")  # s- merged forward

    def test_mismatched_rows_skipped_and_counted(self):
        fmt = CorpusFormat(syllable_separator="-", column_separator="\t",
                           word_column=0, syllable_column=2, has_header=True)
        corpus = load_syllabified_corpus(DATA / "mini_lexique.tsv", fmt, "fr")
        assert "eau" not in corpus.entries  # syllables do not re-concatenate
        assert corpus.skipped_rows == 1

    def test_lexique_preset_matches_extracted_layout(self, tmp_path):
        p = tmp_path / "lexique_syllables.tsv"
        p.write_text("word\tsyll\nbateau\tba-teau\nstylo\ts-ty-lo\n",
                     encoding="utf-8")
        corpus = load_syllabified_corpus(p, CorpusFormat.preset("lexique"), "fr")
        assert corpus.entries["bateau"] == ("ba", "teau")
        assert corpus.entries["stylo"] == ("sty", "lo")
        assert corpus.skipped_rows == 0

    def test_no_vowelless_entries_remain(self, mini_corpus):
        vowels = VOWEL_LETTERS["en"]
        for syls in mini_corpus.entries.values():
            if len(syls) == 1:
                continue
            for syl in syls:
                assert any(ch in vowels for ch in syl), syls
