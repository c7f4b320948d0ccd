import gc
import sys
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from syllab.errors import DictParseError
from syllab.lexicon import (
    CorpusFormat,
    FallbackConfig,
    Pronunciation,
    g2p_fallback,
    load_pron_dict,
    load_syllabified_corpus,
    lookup,
    sc_correction,
)
from syllab.pipeline import Resources, load_secondary_stress, syllabify_word
from syllab.sonority import VOWEL_LETTERS, hierarchy_for

from conftest import DATA
from oracles import (
    eager_pron_dict,
    eager_secondary_stress,
    eager_syllabified_corpus,
    restart_sc_correction,
)


class TestCmuFormat:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("LEAVES  L IY1 V Z\n")
        lex = load_pron_dict(p, "cmu")
        assert lex["leaves"][0].raw == ("L", "IY1", "V", "Z")

    def test_variant_suffix_folding(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("READ  R EH1 D\nREAD(1)  R IY1 D\n")
        lex = load_pron_dict(p, "cmu")
        variants = lex["read"]
        assert len(variants) == 2
        assert str(variants[0]) == "R EH1 D" and str(variants[1]) == "R IY1 D"

    def test_only_ascii_numbers_are_variant_suffixes(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("READ  R IY1 D\nREAD(\u0661)  R EH1 D\n", encoding="utf-8")
        lex = load_pron_dict(p, "cmu")
        assert sorted(lex) == ["read", "read(\u0661)"]
        assert str(lex["read(\u0661)"][0]) == "R EH1 D"

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text(";;; header\nCAT  K AE1 T\n")
        assert len(load_pron_dict(p, "cmu")) == 1

    def test_stress_digit_parsing(self, tmp_path):
        # symbols are kept as written; a digit that is not ASCII (AO١, AO²)
        # is no stress mark, and a strict load accepts it like any symbol
        p = tmp_path / "d.dict"
        p.write_text("CAT  K AE1 T\nBLORP  B L AO\u0661\nBLAH  B L AO\u00b2\n",
                     encoding="utf-8")
        lex = load_pron_dict(p, "cmu")
        assert lex["cat"][0].raw == ("K", "AE1", "T")
        assert lex["blorp"][0].raw == ("B", "L", "AO\u0661")
        assert lex["blah"][0].raw == ("B", "L", "AO\u00b2")

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
        assert sorted(lex) == ["cat", "dog"] and lex.skipped == 1

    def test_only_newlines_end_a_line(self, tmp_path, caplog):
        # a form feed inside a line is not a line break: no entry "e", and
        # the bad line after it is reported as line 3
        p = tmp_path / "ff.dict"
        p.write_text("CAF\fE  K AE1 F\r\nCAT  K AE1 T\rJUNKLINE\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            lex = load_pron_dict(p, "cmu", strict=False)
        assert sorted(lex) == ["caf", "cat"]
        assert "ff.dict: skipped 1 lines (first at line 3: " in caplog.text
        with pytest.raises(DictParseError) as exc:
            load_pron_dict(p, "cmu")
        assert exc.value.line_no == 3

    def test_lenient_skips_one_summary_line(self, tmp_path, caplog):
        p = tmp_path / "d.dict"
        p.write_text("CAT  K AE1 T\nJUNKLINE\nDOG  D AO1 G\nBAD\n")
        with caplog.at_level("WARNING"):
            load_pron_dict(p, "cmu", strict=False)
        assert [r.getMessage() for r in caplog.records] == [
            f"{p}: skipped 2 lines (first at line 2: expected 'WORD  PHONES...')"]

    def test_latin1_fallback(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_bytes(b";;; caf\xe9 comment\nCAT  K AE1 T\n")
        assert "cat" in load_pron_dict(p, "cmu")

    def test_many_variants_of_one_word_load_in_linear_time(self, tmp_path):
        # each variant once joined the word's whole text so far: 200,000
        # variants of one word took over 20 s
        n = 200_000
        p = tmp_path / "d.dict"
        p.write_text("".join(f"A({i})  AH0 B {i}\n" for i in range(n)))
        start = time.perf_counter()
        lex = load_pron_dict(p, "cmu")
        assert time.perf_counter() - start < 5
        assert [pron.raw[-1] for pron in lex["a"]] == [str(i) for i in range(n)]


@pytest.mark.parametrize("fmt, good, blank", [
    ("cmu", "CAT  K AE1 T", "(1)  HH AH0"),
    ("mfa", "cat\tk æ t", " \th ə"),
], ids=["cmu", "mfa"])
def test_blank_headword_rejected(tmp_path, caplog, fmt, good, blank):
    p = tmp_path / "d.dict"
    p.write_text(f"{good}\n{blank}\n", encoding="utf-8")
    with pytest.raises(DictParseError) as exc:
        load_pron_dict(p, fmt)
    assert str(exc.value) == f"{p}:2: blank headword"
    with caplog.at_level("WARNING"):
        lex = load_pron_dict(p, fmt, strict=False)
    assert list(lex) == ["cat"] and lex.skipped == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"{p}: skipped 1 lines (first at line 2: blank headword)"]


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
        assert lex["rhythm"][0].raw == ("ɹ", "ɪ", "ð", "ə", "m")

    def test_numeric_probability_columns_ignored(self):
        lex = load_pron_dict(DATA / "mini_mfa_en.dict", "mfa")
        assert str(lex["sentence"][0]) == "s ɛ n t ə n s"

    def test_no_stress_digits_in_mfa(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("ha\th a1\n", encoding="utf-8")
        # trailing digits are phone material in mfa mode, not stress marks
        lex = load_pron_dict(p, "mfa")
        assert lex["ha"][0].raw[1] == "a1"
        resources = Resources(lex, hierarchy_for("mfa-ipa"), hierarchy_for("letters"))
        assert syllabify_word("ha", resources).stress_index is None

    def test_only_ascii_numbers_are_probabilities(self, tmp_path):
        p = tmp_path / "d.dict"
        p.write_text("read\t١\nread\t0.5\tɹ iː d\n", encoding="utf-8")
        lex = load_pron_dict(p, "mfa", strict=True)
        assert [pron.raw for pron in lex["read"]] == [("١",), ("ɹ", "iː", "d")]


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
        pron = Pronunciation(("L", "IY1", "V", "Z"))
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
        assert pron.raw[-1] == "UW1"

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

    @given(st.lists(st.sampled_from(["", "s", "t", "a", "e", "st", "ar", "İ", "Y",
                                     "é", "b", "ΣA"]), min_size=1, max_size=8),
           st.sampled_from(sorted(VOWEL_LETTERS)))
    @settings(max_examples=300)
    def test_split_equals_restart_rule(self, syls, lang):
        vowels = VOWEL_LETTERS[lang]
        assert sc_correction(syls, vowels) == restart_sc_correction(syls, vowels)


class TestSyllabifiedCorpus:
    def test_gutenberg_style(self, mini_corpus):
        assert mini_corpus["sentence"] == ("sen", "tence")
        assert mini_corpus["beautiful"] == ("beau", "ti", "ful")

    def test_sc_correction_applied_on_load(self, mini_corpus):
        assert mini_corpus["star"] == ("star",)

    def test_concatenation_invariant(self, mini_corpus):
        for word, syls in mini_corpus.items():
            assert "".join(syls) == word

    def test_case_folded(self, mini_corpus):
        assert "philip" in mini_corpus

    def test_lexique_style_columns(self):
        fmt = CorpusFormat(syllable_separator="-", column_separator="\t",
                           word_column=0, syllable_column=2, has_header=True)
        corpus = load_syllabified_corpus(DATA / "mini_lexique.tsv", fmt, "fr")
        assert corpus["bateau"] == ("ba", "teau")
        assert corpus["stylo"] == ("sty", "lo")  # s- merged forward

    def test_mismatched_rows_skipped_and_counted(self):
        fmt = CorpusFormat(syllable_separator="-", column_separator="\t",
                           word_column=0, syllable_column=2, has_header=True)
        corpus = load_syllabified_corpus(DATA / "mini_lexique.tsv", fmt, "fr")
        assert "eau" not in corpus  # syllables do not re-concatenate
        assert corpus.skipped == 1

    def test_skipped_rows_logged_once(self, tmp_path, caplog):
        p = tmp_path / "lexique_syllables.tsv"
        p.write_text("word\tsyll\nbateau\tba-teau\nbeautiful\tbeau-ti-fool\nshort\n",
                     encoding="utf-8")
        with caplog.at_level("WARNING", logger="syllab.lexicon"):
            corpus = load_syllabified_corpus(p, CorpusFormat.preset("lexique"), "fr")
        assert list(corpus) == ["bateau"] and corpus.skipped == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"{p}: skipped 2 lines (first at line 3: syllables do not rejoin to the word)"]
        caplog.clear()
        p.write_text("word\tsyll\nshort\nbateau\tba-teau\n", encoding="utf-8")
        with caplog.at_level("WARNING", logger="syllab.lexicon"):
            load_syllabified_corpus(p, CorpusFormat.preset("lexique"), "fr")
        assert [r.getMessage() for r in caplog.records] == [
            f"{p}: skipped 1 lines (first at line 2: missing columns)"]

    def test_only_newlines_end_a_line(self, tmp_path):
        # NEL (Latin-1 byte 0x85) and U+2028 stay inside their line
        p = tmp_path / "nel.txt"
        p.write_bytes(b"xy\x85z-zy\r\nba-na-na\n")
        corpus = load_syllabified_corpus(p, CorpusFormat.preset("gutenberg"))
        assert corpus == {"xy\x85zzy": ("xy\x85z", "zy"),
                                  "banana": ("ba", "na", "na")}
        p.write_text("word\u2028\tsyll\nbateau\tba-teau\n", encoding="utf-8")
        corpus = load_syllabified_corpus(p, CorpusFormat.preset("lexique"), "fr")
        assert corpus == {"bateau": ("ba", "teau")}
        assert corpus.skipped == 0

    def test_lexique_preset_matches_extracted_layout(self, tmp_path):
        p = tmp_path / "lexique_syllables.tsv"
        p.write_text("word\tsyll\nbateau\tba-teau\nstylo\ts-ty-lo\n",
                     encoding="utf-8")
        corpus = load_syllabified_corpus(p, CorpusFormat.preset("lexique"), "fr")
        assert corpus["bateau"] == ("ba", "teau")
        assert corpus["stylo"] == ("sty", "lo")
        assert corpus.skipped == 0

    HOSTILE = "ΑΣ-Α\nİs-tan-bul\nba.*na\nba-na-na\n-\n"

    def test_lower_casing_by_context_or_length(self, tmp_path, caplog):
        # Σ lowers to final ς before "-" but to σ inside "ΑΣΑ"; İ lowers to two
        # characters
        p = tmp_path / "corpus.txt"
        p.write_text(self.HOSTILE, encoding="utf-8")
        with caplog.at_level("WARNING"):
            corpus = load_syllabified_corpus(p, CorpusFormat.preset("gutenberg"))
        assert corpus == {"i\u0307stanbul": ("i\u0307s", "tan", "bul"),
                          "ba.*na": ("ba.*na",), "banana": ("ba", "na", "na")}
        assert corpus.skipped == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"{p}: skipped 2 lines (first at line 1: syllables do not rejoin to the word)"]

    @pytest.mark.parametrize("sep", ["\n", "a\rb", "\r"])
    def test_separator_no_line_holds(self, tmp_path, sep):
        # every line is one syllable, as in a line-by-line read
        p = tmp_path / "corpus.txt"
        p.write_text(self.HOSTILE, encoding="utf-8")
        corpus = load_syllabified_corpus(p, CorpusFormat(sep))
        assert corpus == {"ας-α": ("ας-α",), "i\u0307s-tan-bul": ("i\u0307s-tan-bul",),
                          "ba.*na": ("ba.*na",), "ba-na-na": ("ba-na-na",), "-": ("-",)}
        assert corpus.skipped == 0

    def test_regex_syntax_separator_taken_literally(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text(self.HOSTILE, encoding="utf-8")
        corpus = load_syllabified_corpus(p, CorpusFormat(".*"))
        assert corpus["bana"] == ("ba", "na") and "ba-na-na" in corpus
        assert corpus.skipped == 0

    @pytest.mark.parametrize("fmt", [CorpusFormat.preset("gutenberg"),
                                     CorpusFormat.preset("lexique")])
    def test_bad_last_line_of_large_file(self, tmp_path, caplog, fmt):
        rows = [f"ba{i}ta\tba{i}-ta" if fmt.column_separator else f"ba{i}-ta"
                for i in range(20_000)]
        p = tmp_path / "corpus.txt"
        p.write_text("\n".join(rows + ["ΑΣΑ\tΑΣ-Α" if fmt.column_separator else "ΑΣ-Α"])
                     + "\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            corpus = load_syllabified_corpus(p, fmt)
        assert len(corpus) == 20_000 - fmt.has_header and corpus.skipped == 1
        assert corpus["ba19999ta"] == ("ba19999", "ta")
        assert [r.getMessage() for r in caplog.records] == [
            f"{p}: skipped 1 lines (first at line 20001: "
            "syllables do not rejoin to the word)"]

    def test_no_vowelless_entries_remain(self, mini_corpus):
        vowels = VOWEL_LETTERS["en"]
        for syls in mini_corpus.values():
            if len(syls) == 1:
                continue
            for syl in syls:
                assert any(ch in vowels for ch in syl), syls


# -- loaders against the eager parsers of tests/oracles.py ----------------------

SPACE = st.sampled_from([" ", "  ", "\t", "\u3000", "\x0c", "\xa0", "\x85"])
EDGE = st.sampled_from(["", " ", "\t", "\u3000"])  # before or after a line's text
END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def dict_lines(draw):
    """A CMU-style, MFA-style, comment, blank or junk dictionary line."""
    word = draw(st.sampled_from(["read", "READ", "Read", "é", "İ", "ΑΣ", "a-b", "'n", ""])
                | st.text(alphabet="abAé'İΣ-", max_size=5)) + draw(st.sampled_from(
        ["", "(1)", "(12)", "(\u0661)", "()", "(x)", ")", "(1)(2)"]))
    phones = [draw(SPACE).join(draw(st.lists(st.sampled_from(
        ["K", "AE1", "T", "AO\u0661", "a1", "ɹ", "0.5", "1", "\u0663"]), max_size=3)))
        for _ in range(draw(st.integers(0, 3)))]
    kind = draw(st.sampled_from(["cmu", "mfa", "other"]))
    if kind == "cmu":
        return draw(EDGE) + word + draw(SPACE) + " ".join(phones) + draw(EDGE)
    if kind == "mfa":
        numbers = draw(st.lists(st.sampled_from(
            ["0.99", "1", "2.5", "\u0661", "", " "]), max_size=2))
        return "\t".join([word] + numbers + phones)
    return draw(st.sampled_from([";;; note", " ;;; x", ";;;", "", " ", "\t", "\u3000",
                                 "\x0c", "JUNK", "(1)", "x\t", "\tK", "1.0\t2.0"]))


def skip_summary(caplog):
    """(count, first line, reason) of the one skip warning logged since the
    last `caplog.clear()`, or None."""
    summaries = [r.args[1:] for r in caplog.records if r.msg.startswith("%s: skipped")]
    assert len(summaries) <= 1
    return summaries[0] if summaries else None


def expected_summary(skipped):
    return (len(skipped), *skipped[0]) if skipped else None


def write_lines(path, rows, encoding="utf-8"):
    """Write (line, line end) rows; text that `encoding` cannot hold goes as UTF-8."""
    text = "".join(line + end for line, end in rows)
    try:
        path.write_bytes(text.encode(encoding))
    except UnicodeEncodeError:
        path.write_bytes(text.encode("utf-8"))


class TestLoaderOracle:
    @seed(1010)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(dict_lines(), END), max_size=12),
           st.sampled_from(["utf-8", "latin-1"]))
    def test_dictionary(self, tmp_path, caplog, lines, encoding):
        p = tmp_path / "d.dict"
        write_lines(p, lines, encoding)
        for fmt in ("cmu", "mfa"):
            for strict in (True, False):
                try:
                    expected, skipped = eager_pron_dict(p, fmt, strict)
                except DictParseError as exc:
                    with pytest.raises(DictParseError) as got:
                        load_pron_dict(p, fmt, strict)
                    assert str(got.value) == str(exc)
                    assert got.value.line_no == exc.line_no
                    continue
                caplog.clear()
                lex = load_pron_dict(p, fmt, strict)
                assert list(lex.items()) == list(expected.items())
                assert lex.skipped == len(skipped)
                assert skip_summary(caplog) == expected_summary(skipped)

    @seed(1010)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.lists(st.sampled_from(
               ["ba", "S", "tar", "na", "", " ", "ΑΣ", "Α", "σ", "İ", "i", "x\x85y", "Teau"]),
               max_size=4), st.sampled_from(["", "ok", "=", "tar", "\t"]),
               st.integers(1, 3), END), max_size=10),
           st.sampled_from([CorpusFormat.preset("gutenberg"), CorpusFormat.preset("lexique"),
                            CorpusFormat("·", "\t", 0, 2), CorpusFormat("-", ";", 1, 0),
                            # separators a line cannot hold, and regex syntax
                            CorpusFormat("\n"), CorpusFormat("a\rb"), CorpusFormat(".*"),
                            CorpusFormat("-", None, has_header=True)]),
           st.sampled_from(["en", "fr"]))
    def test_corpus(self, tmp_path, caplog, rows, fmt, language):
        lines = []
        for syllables, word, n_columns, end in rows:
            syl = fmt.syllable_separator.join(syllables)
            if word == "=":  # the word the syllables rejoin to
                word = syl.replace(fmt.syllable_separator, "")
            columns = [word, syl, "x"] if fmt.syllable_column == 2 else [syl, word]
            if fmt.column_separator:  # rows with too few columns included
                syl = fmt.column_separator.join(columns[:n_columns])
            lines.append((syl, end))
        p = tmp_path / "corpus.txt"
        write_lines(p, lines)
        caplog.clear()
        corpus = load_syllabified_corpus(p, fmt, language)
        expected, skipped = eager_syllabified_corpus(p, fmt, language)
        assert list(corpus.items()) == list(expected.items())
        assert corpus.skipped == len(skipped)
        assert skip_summary(caplog) == expected_summary(skipped)

    @seed(1010)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.text(alphabet="abAéΣ", max_size=3), st.lists(
               st.sampled_from(["ˈa", "'a", "ˌb", "b", "ˈ", "ˈ☃", "t", "ə", "ˈoʊ", "oʊ",
                                ",", "'", "ˈˈt", "aˈb", "ˌ'ɪ", "ˈ,", "ˈ,d", "☃", "ˈΩ"]),
               max_size=4), st.sampled_from([" ", "  ", "\u3000", "\x85", "\x0c"]),
               st.sampled_from(["\t", " ", "\t\t", "#"]), END), max_size=10))
    def test_secondary(self, tmp_path, caplog, rows):
        p = tmp_path / "secondary.tsv"
        write_lines(p, [(f"#{word}" if sep == "#" else word + sep + space.join(tokens), end)
                        for word, tokens, space, sep, end in rows])
        ipa = hierarchy_for("mfa-ipa")
        caplog.clear()
        loaded = load_secondary_stress(p, ipa)
        expected, skipped = eager_secondary_stress(p, ipa)
        assert list(loaded.items()) == list(expected.items())
        assert loaded.skipped == len(skipped)
        assert skip_summary(caplog) == expected_summary(skipped)
