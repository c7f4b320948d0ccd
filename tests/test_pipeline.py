import sys

import pytest

from syllab.lexicon import FallbackConfig, Pronunciation, load_pron_dict
from syllab.pipeline import (
    Resources,
    analyze_words,
    annotate_corpus,
    consistency_report,
    load_secondary_stress,
    syllabify_word,
)
from syllab.sonority import SonorityHierarchy, hierarchy_for

from conftest import DATA, sentence_records


class TestSingleVowelShortCircuit:
    def test_leaves(self, mini_resources):
        rec = syllabify_word("leaves", mini_resources, "lkp-ssp-dtw")
        assert rec.method == "single-vowel"
        assert rec.text_syll.text() == "leaves"
        assert rec.phone_syll.n_syllables == 1
        assert "count-mismatch" not in rec.flags

    @pytest.mark.parametrize("method", ["ssp", "lkp-ssp", "ssp-dtw", "lkp-ssp-dtw"])
    def test_applies_to_every_method(self, mini_resources, method):
        rec = syllabify_word("through", mini_resources, method)
        assert rec.method == "single-vowel"
        assert rec.text_syll.breaks == ()


class TestMethodVariants:
    def test_sentence_naive_ssp_mismatch(self, mini_resources):
        rec = syllabify_word("sentence", mini_resources, "ssp")
        assert rec.method == "ssp-letters"
        assert rec.text_syll.text() == "sen|ten|ce"
        assert rec.phone_syll.n_syllables == 2
        assert "count-mismatch" in rec.flags

    def test_sentence_ssp_dtw_consistent(self, mini_resources):
        rec = syllabify_word("sentence", mini_resources, "ssp-dtw")
        assert rec.method == "ssp-dtw"
        assert rec.text_syll.text() == "sen|tence"
        assert "count-mismatch" not in rec.flags

    def test_corpus_lookup_accepted_when_counts_agree(self, mini_resources):
        rec = syllabify_word("beautiful", mini_resources, "lkp-ssp-dtw")
        assert rec.method == "corpus-lookup"
        assert rec.text_syll.text() == "beau|ti|ful"

    def test_corpus_lookup_rejected_on_count_disagreement(self, mini_resources):
        # fixture corpus says rhy-thm, but sc correction collapses it to one
        # syllable while the pronunciation has two nuclei: entry rejected
        assert mini_resources.syllabified["rhythm"] == ("rhythm",)
        rec = syllabify_word("rhythm", mini_resources, "lkp-ssp-dtw")
        assert rec.method == "ssp-dtw"
        assert rec.text_syll.n_syllables == 2

    @pytest.mark.parametrize("entry", [("beau", "ti", "fool"), ("beau", "", "tiful")],
                             ids=["not-rejoining", "empty-syllable"])
    def test_malformed_library_corpus_entry_ignored(self, mini_resources, entry):
        resources = mini_resources._replace(syllabified={"beautiful": entry})
        rec = syllabify_word("beautiful", resources, "lkp-ssp-dtw")
        assert rec.method == "ssp-dtw"
        assert rec.text_syll.n_syllables == 3

    def test_lkp_method_without_corpus_degrades(self, mini_resources_nocorpus):
        rec = syllabify_word("beautiful", mini_resources_nocorpus, "lkp-ssp-dtw")
        assert rec.method == "ssp-dtw"

    def test_first_variant_drives_syllabification(self, mini_resources):
        rec = syllabify_word("the", mini_resources, "lkp-ssp-dtw")
        assert str(rec.pronunciations[0]) == "DH AH0"
        assert rec.stress_index is None  # DH AH0 has no primary stress
        assert len(rec.pronunciations) == 3


class TestOovHandling:
    def test_unresolved_oov(self, mini_resources):
        rec = syllabify_word("zzxq", mini_resources, "lkp-ssp-dtw")
        assert rec.method == "oov-unresolved"
        assert "oov" in rec.flags
        assert rec.pronunciations == []
        assert rec.phone_syll.n_syllables == 0
        assert "".join(rec.text_syll.symbols) == "zzxq"

    def test_oov_resolved_by_fallback(self, mini_lexicon, arpabet, letters_en):
        cfg = FallbackConfig((sys.executable, "-c",
                              "import sys; sys.stdin.read(); print('G L AA1 R K')"))
        res = Resources(mini_lexicon, arpabet, letters_en, fallback=cfg)
        rec = syllabify_word("glark", res, "ssp-dtw")
        assert "oov" in rec.flags
        assert rec.method == "single-vowel"  # fallback pron has one nucleus
        assert str(rec.pronunciations[0]) == "G L AA1 R K"

    def test_letters_ssp_best_effort_on_oov(self, mini_resources):
        rec = syllabify_word("blorping", mini_resources, "ssp")
        assert rec.method == "oov-unresolved"
        assert rec.text_syll.n_syllables >= 2  # letters still syllabified


class TestNucleusEdgeCases:
    def test_no_nucleus_word(self, tmp_path, arpabet, letters_en):
        p = tmp_path / "d.dict"
        p.write_text("HMM  HH M\nSHH  SH\n")
        res = Resources(load_pron_dict(p, "cmu"), arpabet, letters_en)
        rec = syllabify_word("hmm", res, "lkp-ssp-dtw")
        assert "no-nucleus" in rec.flags
        assert rec.phone_syll.n_syllables == 1
        assert rec.text_syll.n_syllables == 1
        assert "count-mismatch" not in rec.flags

    def test_unknown_letter_falls_back_to_single_chunk(self, tmp_path, arpabet,
                                                       letters_en):
        p = tmp_path / "d.dict"
        p.write_text("3D  TH R IY1 D IY2\n")
        res = Resources(load_pron_dict(p, "cmu"), arpabet, letters_en)
        rec = syllabify_word("3d", res, "ssp-dtw")
        assert rec.text_syll.n_syllables == 1
        assert rec.phone_syll.n_syllables == 2
        assert "count-mismatch" in rec.flags


class TestStress:
    def test_primary_stress_from_arpabet(self, mini_resources):
        rec = syllabify_word("leaves", mini_resources)
        assert rec.stress_index == 0
        rec = syllabify_word("together", mini_resources)
        assert rec.stress_index == 1
        assert "no-stress" not in rec.flags

    def test_unstressed_function_word_flagged(self, mini_resources):
        rec = syllabify_word("the", mini_resources)  # DH AH0, no digit 1
        assert rec.stress_index is None
        assert "no-stress" in rec.flags

    def test_stress_index_below_syllable_count(self, mini_resources):
        for word in ("oceanic", "beautiful", "computer", "under"):
            rec = syllabify_word(word, mini_resources)
            if rec.stress_index is not None:
                assert rec.stress_index < rec.phone_syll.n_syllables


def merged(phones, entry, letters_en):
    """The analysis of a word pronounced `phones` (IPA) whose secondary stress
    entry, a caller's (syllable count, stressed syllable), is `entry`."""
    res = Resources({"w": [Pronunciation(tuple(phones.split()))]},
                    hierarchy_for("mfa-ipa"), letters_en, secondary_stress={"w": entry})
    return next(analyze_words(["w"], res))


class TestMergeStress:
    def test_matching_counts(self, letters_en):
        a = merged("a b a", (2, 1), letters_en)  # a . b a
        assert a.phone_syll.n_syllables == 2
        assert a.stress_index == 1 and "no-stress" not in a.flags

    def test_count_mismatch_gives_none(self, letters_en):
        a = merged("a b a", (3, 1), letters_en)
        assert a.stress_index is None and "no-stress" in a.flags

    def test_monosyllable(self, letters_en):
        a = merged("a b", (1, 0), letters_en)
        assert a.phone_syll.n_syllables == 1 and a.stress_index == 0

    def test_bad_index_rejected(self, letters_en):
        # the counts agree but the index lies outside them: a flag, no error
        for index in (2, 5, -1):
            a = merged("a b a", (2, index), letters_en)
            assert a.stress_index is None and "no-stress" in a.flags

    def test_secondary_file_path(self, arpabet, letters_en):
        mfa = load_pron_dict(DATA / "mini_mfa_en.dict", "mfa")
        ipa = hierarchy_for("mfa-ipa")
        secondary = load_secondary_stress(DATA / "secondary_espeak.tsv", ipa)
        assert secondary["sentence"] == (2, 0)
        assert secondary["hello"] == (2, 1)
        assert secondary["machine"] == (2, 1)
        res = Resources(mfa, ipa, letters_en, secondary_stress=secondary)
        rec = syllabify_word("sentence", res, "ssp-dtw")
        assert rec.stress_index == 0
        assert "no-stress" not in rec.flags
        rec = syllabify_word("hello", res, "ssp-dtw")
        assert rec.stress_index == 1

    def test_secondary_skipped_lines_one_summary_warning(self, tmp_path, caplog):
        ipa = hierarchy_for("mfa-ipa")
        good = (DATA / "secondary_espeak.tsv").read_text(encoding="utf-8")
        bad = tmp_path / "secondary.tsv"
        bad.write_text("no-tab-here\n" + good + "zzz\tˈ☃ a\nalso missing\n",
                       encoding="utf-8")
        with caplog.at_level("WARNING"):
            loaded = load_secondary_stress(bad, ipa)
        assert loaded == load_secondary_stress(DATA / "secondary_espeak.tsv", ipa)
        assert loaded.skipped == 3
        assert [r.getMessage() for r in caplog.records] == [
            f"{bad}: skipped 3 lines (first at line 1: expected word<TAB>phones)"]

    def test_secondary_line_without_primary_stress_counted(self, tmp_path, caplog):
        p = tmp_path / "secondary.tsv"
        p.write_text("hello\th ə l oʊ\nworld\tw ˈɝ l d\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            loaded = load_secondary_stress(p, hierarchy_for("mfa-ipa"))
        assert list(loaded) == ["world"]
        assert [r.getMessage() for r in caplog.records] == [
            f"{p}: skipped 1 lines (first at line 1: no primary stress mark)"]

    def test_secondary_marks_read_per_whitespace_token(self, tmp_path, caplog):
        # a mark inside a token, or a token of marks only, is no primary stress;
        # every whitespace character splits tokens
        p = tmp_path / "secondary.tsv"
        p.write_text("a\taˈb ə\nb\tˈ ˈ, ə\nc\tə\x85ˈb\nd\tə\u3000ˈb\ne\tˌ'ɪ t\n",
                     encoding="utf-8")
        with caplog.at_level("WARNING"):
            loaded = load_secondary_stress(p, hierarchy_for("mfa-ipa"))
        assert dict(loaded) == {"c": (1, 0), "d": (1, 0)}
        assert [r.getMessage() for r in caplog.records] == [
            f"{p}: skipped 3 lines (first at line 1: no primary stress mark)"]

    @pytest.mark.parametrize("last, reason", [
        ("zzz\tˈ☃ a", "symbol '☃' is not classified in the mfa-ipa hierarchy"),
        ("zzz\th a", "no primary stress mark"),
        ("zzz", "expected word<TAB>phones"),
    ])
    def test_secondary_bad_last_line_of_large_file(self, tmp_path, caplog, last, reason):
        p = tmp_path / "secondary.tsv"
        p.write_text("".join(f"w{i}\th ˈɛ l oʊ\n" for i in range(20_000)) + last + "\n",
                     encoding="utf-8")
        with caplog.at_level("WARNING"):
            loaded = load_secondary_stress(p, hierarchy_for("mfa-ipa"))
        assert len(loaded) == 20_000 and loaded["w19999"] == (2, 0)
        assert [r.getMessage() for r in caplog.records] == [
            f"{p}: skipped 1 lines (first at line 20001: {reason})"]

    def test_secondary_checks_each_distinct_symbol_once(self, tmp_path, monkeypatch):
        symbols = ["p", "t", "k", "ə", "ɪ", "oʊ", "s", "m"]
        p = tmp_path / "secondary.tsv"
        p.write_text("".join(
            f"w{i}\t{symbols[i % 8]} ˈ{symbols[i // 8 % 8]} ˌ{symbols[i // 64 % 8]}\n"
            for i in range(10_000)), encoding="utf-8")
        calls = []
        level = SonorityHierarchy.level

        def counted(self, symbol):
            calls.append(symbol)
            return level(self, symbol)

        monkeypatch.setattr(SonorityHierarchy, "level", counted)
        loaded = load_secondary_stress(p, hierarchy_for("mfa-ipa"))
        assert len(loaded) == 10_000
        assert sorted(calls) == sorted(symbols)

    def test_secondary_count_mismatch_flagged(self, arpabet, letters_en):
        mfa = load_pron_dict(DATA / "mini_mfa_en.dict", "mfa")
        ipa = hierarchy_for("mfa-ipa")
        # water has two syllables in the dictionary but the secondary
        # transcription w ˈɔ t ə syllabifies to 2 as well; fabricate a clash
        secondary = {"water": (3, 1)}
        res = Resources(mfa, ipa, letters_en, secondary_stress=secondary)
        rec = syllabify_word("water", res, "ssp-dtw")
        assert rec.stress_index is None
        assert "no-stress" in rec.flags


class TestConsistencyInvariant:
    @pytest.mark.parametrize("method", ["ssp-dtw", "lkp-ssp-dtw"])
    def test_unflagged_records_have_equal_counts(self, mini_resources, method):
        for word in mini_resources.lexicon:
            rec = syllabify_word(word, mini_resources, method)
            if not rec.flags & {"count-mismatch", "degenerate-projection"}:
                assert rec.phone_syll.n_syllables == rec.text_syll.n_syllables
            # the flag definition is an iff
            assert (("count-mismatch" in rec.flags)
                    == (rec.phone_syll.n_syllables != rec.text_syll.n_syllables))


class TestConsistencyReport:
    HEADER = "flag\tword\tphone_syllables\ttext_syllables\tmethod"

    def test_clean_input(self, mini_resources):
        recs = [syllabify_word(w, mini_resources) for w in ("leaves", "oceanic")]
        report = consistency_report((r, 1) for r in recs if not r.flags)
        assert report == f"# flag counts\n{self.HEADER}\n"

    def test_single_mismatch(self, mini_resources):
        rec = syllabify_word("sentence", mini_resources, "ssp")
        report = consistency_report([(rec, 1)]).splitlines()
        assert "# count-mismatch\t1" in report

    def test_record_with_two_flags_in_both_groups(self, mini_resources):
        rec = syllabify_word("zzxq", mini_resources)
        rows = consistency_report([(rec, 1)]).split(f"{self.HEADER}\n")[1]
        groups = {row.split("\t")[0]: row.split("\t")[1] for row in rows.splitlines()}
        assert groups["oov"] == groups["count-mismatch"] == "zzxq"

    def test_deterministic_ordering(self, mini_resources):
        recs = [syllabify_word(w, mini_resources, "ssp")
                for w in ("zzxq", "sentence", "blorp")]
        r1 = consistency_report((r, 1) for r in recs)
        r2 = consistency_report((r, 1) for r in reversed(recs))
        assert r1 == r2

    def test_counted_records_give_the_per_token_text(self, mini_resources):
        recs = [syllabify_word(w, mini_resources, "ssp")
                for w in ("zzxq", "sentence", "blorp", "leaves")]
        counts = [3, 1, 2, 4]
        report = consistency_report(zip(recs, counts))
        assert isinstance(report, str)
        assert report == consistency_report(
            (rec, 1) for rec, n in zip(recs, counts) for _ in range(n))
        assert "# oov\t5" in report.splitlines()
        words = [row.split("\t")[1] for row in report.split(f"{self.HEADER}\n")[1]
                 .splitlines()]
        assert words.count("zzxq") == 3 * len(recs[0].flags)


class TestAnnotateCorpus:
    def test_toy_sentence(self, mini_resources):
        [recs] = sentence_records(["I saw leaves."], mini_resources)
        assert [rec.word for rec in recs] == ["i", "saw", "leaves"]
        assert all(not rec.flags for rec in recs)

    def test_empty_corpus(self, mini_resources):
        assert annotate_corpus([], "en", mini_resources) == ([], {})

    def test_oov_isolation(self, mini_resources):
        [recs] = sentence_records(["the qqqzz leaves"], mini_resources)
        assert "oov" in recs[1].flags
        assert not (recs[2].flags - {"no-stress"})

    def test_numeral_flag_propagates(self, mini_resources):
        [recs] = sentence_records(["worth 3.5 points"], mini_resources)
        flagged = [rec for rec in recs if "numeral-unsupported" in rec.flags]
        assert len(flagged) == 1

    def test_numerals_and_acronyms_resolved(self, mini_resources):
        [recs] = sentence_records(["I saw 2 cats and the BBC show."],
                                  mini_resources)
        assert [rec.word for rec in recs] == ["i", "saw", "two", "cats", "and",
                                              "the", "b", "b", "c", "show"]
        assert all(rec.pronunciations for rec in recs)

    def test_order_is_input_order(self, mini_resources):
        sentences = ["The author can write.", "Leaves come from the tree."]
        sentence_words, records = annotate_corpus(sentences, "en", mini_resources)
        assert sentence_words == \
            [["the", "author", "can", "write"], ["leaves", "come", "from", "the", "tree"]]
        assert list(records) == ["the", "author", "can", "write", "leaves", "come",
                                 "from", "tree"]

    def test_permuting_sentences_permutes_output(self, mini_resources):
        sentences = ["The author can write.", "Leaves come from the tree.",
                     "She can spell every word."]

        def rows(sentences):
            return dict(zip(sentences, sentence_records(sentences, mini_resources)))

        assert rows(sentences) == rows(list(reversed(sentences)))
