"""French and Spanish end-to-end paths: IPA dictionaries, accented letters,
Lexique-style corpora, and the corpus-less Spanish configuration."""

import pytest

from syllab.lexicon import CorpusFormat, load_pron_dict, load_syllabified_corpus
from syllab.pipeline import Resources, syllabify_word
from syllab.sonority import hierarchy_for

from conftest import DATA

LEXIQUE_FMT = CorpusFormat(syllable_separator="-", column_separator="\t",
                           word_column=0, syllable_column=2, has_header=True)


@pytest.fixture(scope="module")
def french():
    return Resources(
        lexicon=load_pron_dict(DATA / "mini_mfa_fr.dict", "mfa"),
        phone_hierarchy=hierarchy_for("mfa-ipa", "fr"),
        letter_hierarchy=hierarchy_for("letters", "fr"),
        syllabified=load_syllabified_corpus(DATA / "mini_lexique.tsv",
                                            LEXIQUE_FMT, "fr"),
        variant="fr_FR",
    )


@pytest.fixture(scope="module")
def spanish():
    # Spanish runs without any syllabified corpus: everything falls through
    # to the sonority-based methods
    return Resources(
        lexicon=load_pron_dict(DATA / "mini_mfa_es.dict", "mfa"),
        phone_hierarchy=hierarchy_for("mfa-ipa", "es"),
        letter_hierarchy=hierarchy_for("letters", "es"),
        variant="es_ES",
    )


class TestFrench:
    def test_ipa_dictionary_classifies(self, french):
        h = french.phone_hierarchy
        for prons in french.lexicon.entries.values():
            for pron in prons:
                for sym in pron.raw:
                    assert h.level(sym) in range(1, 6)

    def test_corpus_lookup_accepted(self, french):
        rec = syllabify_word("bateau", french, "lkp-ssp-dtw")
        assert rec.method == "corpus-lookup"
        assert rec.text_syll.text() == "ba|teau"
        assert not rec.flags - {"no-stress"}

    def test_sc_corrected_corpus_entry(self, french):
        rec = syllabify_word("stylo", french, "lkp-ssp-dtw")
        assert rec.method == "corpus-lookup"
        assert rec.text_syll.text() == "sty|lo"

    def test_corpus_rejected_on_nucleus_disagreement(self, french):
        # fe-nê-tre has three written syllables but the pronunciation
        # f ə n ɛ t ʁ only two nuclei: consensus rejects the corpus entry
        assert french.syllabified.entries["fenêtre"] == ("fe", "nê", "tre")
        rec = syllabify_word("fenêtre", french, "lkp-ssp-dtw")
        assert rec.method == "ssp-dtw"
        assert rec.text_syll.n_syllables == 2
        assert "count-mismatch" not in rec.flags

    def test_single_vowel_word(self, french):
        rec = syllabify_word("eau", french, "lkp-ssp-dtw")
        assert rec.method == "single-vowel"
        assert rec.text_syll.text() == "eau"

    def test_nasal_vowel_counts_as_nucleus(self, french):
        rec = syllabify_word("garçon", french, "ssp-dtw")
        assert rec.phone_syll.n_syllables == 2
        assert rec.text_syll.n_syllables == 2
        assert "".join(rec.text_syll.symbols) == "garçon"

    def test_digraph_defeats_naive_letters_ssp(self, french):
        # "ai" reads as one vowel but counts as two letter nuclei, so plain
        # letters-SSP over-splits; the projection recovers the spoken count
        naive = syllabify_word("jamais", french, "ssp")
        assert naive.text_syll.text() == "ja|ma|is"
        assert "count-mismatch" in naive.flags
        projected = syllabify_word("jamais", french, "ssp-dtw")
        assert projected.text_syll.n_syllables == 2
        assert "count-mismatch" not in projected.flags


class TestSpanish:
    def test_ipa_dictionary_classifies(self, spanish):
        h = spanish.phone_hierarchy
        for prons in spanish.lexicon.entries.values():
            for pron in prons:
                for sym in pron.raw:
                    assert h.level(sym) in range(1, 6)

    def test_lkp_methods_degrade_without_corpus(self, spanish):
        rec = syllabify_word("gato", spanish, "lkp-ssp-dtw")
        assert rec.method == "ssp-dtw"
        assert rec.text_syll.text() == "ga|to"

    def test_plain_ssp_on_letters(self, spanish):
        rec = syllabify_word("madre", spanish, "ssp")
        assert rec.text_syll.text() == "ma|dre"
        assert "count-mismatch" not in rec.flags

    def test_double_r_split_is_deterministic(self, spanish):
        # the rr plateau leaves several zero-cost alignments; the fixed
        # tie-break order picks per|ro, reproducibly
        rec = syllabify_word("perro", spanish, "ssp-dtw")
        assert rec.text_syll.text() == "per|ro"
        assert rec.phone_syll.n_syllables == rec.text_syll.n_syllables == 2

    def test_hiatus_in_both_domains(self, spanish):
        rec = syllabify_word("león", spanish, "ssp-dtw")
        assert rec.phone_syll.n_syllables == 2
        assert rec.text_syll.text() == "le|ón"

    def test_single_vowel(self, spanish):
        rec = syllabify_word("sol", spanish, "lkp-ssp")
        assert rec.method == "single-vowel"

    def test_tilde_n(self, spanish):
        rec = syllabify_word("niño", spanish, "ssp-dtw")
        assert rec.text_syll.text() == "ni|ño"

    def test_initial_sc_cluster_word(self, spanish):
        # escuela: the s-k cluster must not strand a vowel-less syllable
        rec = syllabify_word("escuela", spanish, "ssp-dtw")
        assert rec.phone_syll.n_syllables == 3
        assert "".join(rec.text_syll.symbols) == "escuela"
        assert rec.text_syll.n_syllables == 3
