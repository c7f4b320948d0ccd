import sys

import pytest

from syllab.lexicon import FallbackConfig, load_pron_dict
from syllab.pipeline import (
    Resources,
    annotate_corpus,
    consistency_report,
    load_secondary_stress,
    merge_stress,
    syllabify_word,
)
from syllab.sonority import hierarchy_for
from syllab.ssp import Syllabification

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
        assert mini_resources.syllabified.entries["rhythm"] == ("rhythm",)
        rec = syllabify_word("rhythm", mini_resources, "lkp-ssp-dtw")
        assert rec.method == "ssp-dtw"
        assert rec.text_syll.n_syllables == 2

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


class TestMergeStress:
    def test_matching_counts(self):
        syl = Syllabification(tuple("ab"), (1,))
        assert merge_stress(syl, 2, 0) == 0

    def test_count_mismatch_gives_none(self):
        syl = Syllabification(tuple("ab"), (1,))
        assert merge_stress(syl, 3, 1) is None

    def test_monosyllable(self):
        syl = Syllabification(tuple("ab"), ())
        assert merge_stress(syl, 1, 0) == 0

    def test_bad_index_rejected(self):
        syl = Syllabification(tuple("ab"), ())
        with pytest.raises(ValueError):
            merge_stress(syl, 2, 5)

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
        for word in mini_resources.lexicon.entries:
            rec = syllabify_word(word, mini_resources, method)
            if not rec.flags & {"count-mismatch", "degenerate-projection"}:
                assert rec.phone_syll.n_syllables == rec.text_syll.n_syllables
            # the flag definition is an iff
            assert (("count-mismatch" in rec.flags)
                    == (rec.phone_syll.n_syllables != rec.text_syll.n_syllables))


class TestConsistencyReport:
    def test_clean_input(self, mini_resources):
        recs = [syllabify_word(w, mini_resources) for w in ("leaves", "oceanic")]
        report = consistency_report([r for r in recs if not r.flags])
        assert report.counts == {} and report.groups == {}

    def test_single_mismatch(self, mini_resources):
        rec = syllabify_word("sentence", mini_resources, "ssp")
        report = consistency_report([rec])
        assert report.counts["count-mismatch"] == 1

    def test_record_with_two_flags_in_both_groups(self, mini_resources):
        rec = syllabify_word("zzxq", mini_resources)
        report = consistency_report([rec])
        assert "oov" in report.groups and "count-mismatch" in report.groups
        assert report.groups["oov"][0] is rec

    def test_deterministic_ordering(self, mini_resources):
        recs = [syllabify_word(w, mini_resources, "ssp")
                for w in ("zzxq", "sentence", "blorp")]
        r1 = consistency_report(recs).to_tsv()
        r2 = consistency_report(list(reversed(recs))).to_tsv()
        assert r1 == r2


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
        sentence_keys, records = annotate_corpus(sentences, "en", mini_resources)
        assert [[word for word, _ in keys] for keys in sentence_keys] == \
            [["the", "author", "can", "write"], ["leaves", "come", "from", "the", "tree"]]
        assert all(key in records for keys in sentence_keys for key in keys)

    def test_permuting_sentences_permutes_output(self, mini_resources):
        sentences = ["The author can write.", "Leaves come from the tree.",
                     "She can spell every word."]

        def rows(sentences):
            return dict(zip(sentences, sentence_records(sentences, mini_resources)))

        assert rows(sentences) == rows(list(reversed(sentences)))
