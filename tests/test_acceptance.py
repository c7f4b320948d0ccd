"""Acceptance suite: one test per shipping criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line
per criterion.  Criteria that need the real public resources (CMU dictionary,
Moby hyphenation list, ARCTIC prompts) locate them under resources/ or
$SYLLAB_RESOURCES and are skipped, with instructions, when absent; run
scripts/fetch_resources.py once to enable them.
"""

import random
import time

import pytest

from syllab.cli import main as cli_main
from syllab.evaluate import run_ablation, syllable_histogram, word_accuracy
from syllab.lexicon import CorpusFormat, load_pron_dict, load_syllabified_corpus
from syllab.pipeline import Resources, annotate_corpus, syllabify_word
from syllab.sonority import VOWEL_LETTERS, sonority_sequence
from syllab.ssp import ssp_breaks, syllabify_symbols
from syllab.align import curve, dtw, project_breaks

from conftest import DATA, real_resource
from oracles import (
    all_level_tuples,
    oracle_breaks,
    points,
    random_expanded_levels,
    recursive_min_cost,
    sequence_from_levels,
    valid_expansion,
)

FETCH_HINT = "run scripts/fetch_resources.py (network) to enable this criterion"


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def _real_cmu_resources(need_corpus: bool = False):
    dict_path = real_resource("cmudict-0.7b")
    if dict_path is None:
        pytest.skip(f"cmudict-0.7b not present; {FETCH_HINT}")
    lexicon = load_pron_dict(dict_path, "cmu", strict=False)
    corpus = None
    corpus_path = real_resource("moby_hyphenated.txt")
    if corpus_path is not None:
        corpus = load_syllabified_corpus(corpus_path, CorpusFormat.preset("gutenberg"))
    elif need_corpus:
        pytest.skip(f"moby_hyphenated.txt not present; {FETCH_HINT}")
    from syllab.sonority import hierarchy_for
    return Resources(lexicon, hierarchy_for("cmu-arpabet"),
                     hierarchy_for("letters", "en"), corpus, variant="CMU")


class TestC1SspOracleEquivalence:
    def test_exhaustive_short_expanded_sequences(self):
        t0 = time.perf_counter()
        raw = valid = 0
        for levels in all_level_tuples(7):
            raw += 1
            if not valid_expansion(levels):
                continue
            valid += 1
            seq = sequence_from_levels(levels)
            got = list(ssp_breaks(seq).breaks)
            want = oracle_breaks(points(seq))
            assert got == want, f"divergence at levels={levels}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        report("C1 ssp-oracle-equivalence",
               f"{valid} expanded sequences ({raw} raw level tuples) in {elapsed:.1f}s")


class TestC2PaperExamples:
    def test_exact_examples(self, mini_resources, arpabet, letters_en):
        t0 = time.perf_counter()

        rec = syllabify_word("leaves", mini_resources, "lkp-ssp-dtw")
        assert rec.method == "single-vowel"
        assert rec.phone_syll.n_syllables == 1 and rec.text_syll.n_syllables == 1

        rhythm = syllabify_symbols("R IH1 DH AH0 M".split(), arpabet)
        assert rhythm.n_syllables == 2

        oceanic = syllabify_symbols("OW2 SH IY0 AE1 N IH0 K".split(), arpabet)
        assert oceanic.n_syllables == 4
        assert 3 in oceanic.breaks  # the hiatus break between IY0 and AE1

        naive = syllabify_symbols(list("sentence"), letters_en)
        assert naive.text() == "sen|ten|ce"

        phones = sonority_sequence("S EH1 N T AH0 N S".split(), arpabet)
        letters = sonority_sequence(list("sentence"), letters_en)
        [(pairs, _)] = dtw([(curve(phones), curve(letters))])
        projected, _ = project_breaks(ssp_breaks(phones), pairs, phones, letters,
                                      curve(letters))
        assert projected.text() == "sen|tence"

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        report("C2 paper-examples",
               f"leaves/rhythm/oceanic/sentence exact in {elapsed * 1000:.0f}ms")


class TestC3DtwOracleEquivalence:
    def test_thousand_random_pairs(self):
        rng = random.Random(20240901)
        t0 = time.perf_counter()
        curves = [(curve(sequence_from_levels(random_expanded_levels(rng, 12))),
                   curve(sequence_from_levels(random_expanded_levels(rng, 12))))
                  for _ in range(1000)]
        for case, ((a, b), (_, cost)) in enumerate(zip(curves, dtw(curves))):
            assert cost == recursive_min_cost(a, b), \
                f"case {case}: {list(a)} vs {list(b)}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report("C3 dtw-oracle-equivalence",
               f"1000 random pairs (≤12 points) in {elapsed:.1f}s")


class TestC4ConsistencyInvariant:
    def _check(self, resources, method):
        checked = 0
        for word in resources.lexicon:
            rec = syllabify_word(word, resources, method)
            if not rec.flags:
                assert rec.phone_syll.n_syllables == rec.text_syll.n_syllables, word
            assert (("count-mismatch" in rec.flags)
                    == (rec.phone_syll.n_syllables != rec.text_syll.n_syllables)), word
            checked += 1
        return checked

    def test_fixture_lexicon(self, mini_resources):
        n = self._check(mini_resources, "lkp-ssp-dtw")
        report("C4 consistency-invariant (fixture)", f"{n} dictionary words")

    def test_full_cmu_dictionary(self):
        resources = _real_cmu_resources()
        t0 = time.perf_counter()
        n = self._check(resources, "lkp-ssp-dtw")
        report("C4 consistency-invariant (full CMU)",
               f"{n} words in {time.perf_counter() - t0:.0f}s")


CMU_REFERENCE_ROW = {"ssp": 89.5, "lkp-ssp": 93.6, "ssp-dtw": 93.4, "lkp-ssp-dtw": 94.7}
REFERENCE_TOLERANCE = 3.0


class TestC5ReferenceAblation:
    def test_cmu_row(self):
        resources = _real_cmu_resources()
        t0 = time.perf_counter()
        result = run_ablation(resources, sample_size=1000, seed=7)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        missing = []
        for method, expected in CMU_REFERENCE_ROW.items():
            got = result.accuracies[method]
            if got is None:
                missing.append(method)
                continue
            assert abs(got - expected) <= REFERENCE_TOLERANCE, \
                f"{method}: {got:.1f} vs reference value {expected} ± {REFERENCE_TOLERANCE}"
        shown = {m: round(a, 1) for m, a in result.accuracies.items() if a is not None}
        if missing:
            report("C5 reference-ablation-cmu (partial)", f"{shown} in {elapsed:.0f}s")
            pytest.skip(f"lookup cells {missing} need moby_hyphenated.txt; {FETCH_HINT}")
        report("C5 reference-ablation-cmu", f"{shown} in {elapsed:.0f}s")

    @pytest.mark.parametrize("variant,row", [
        ("english_us_mfa.dict", {"ssp": 88.5, "lkp-ssp": 93.7,
                                 "ssp-dtw": 92.3, "lkp-ssp-dtw": 94.2}),
        ("english_uk_mfa.dict", {"ssp": 88.5, "lkp-ssp": 94.4,
                                 "ssp-dtw": 92.6, "lkp-ssp-dtw": 95.5}),
    ])
    def test_mfa_rows(self, variant, row):
        from syllab.sonority import hierarchy_for
        dict_path = real_resource(variant)
        if dict_path is None:
            pytest.skip(f"{variant} not supplied (optional MFA dictionary); "
                        "place it under resources/ to check this row")
        corpus_path = real_resource("moby_hyphenated.txt")
        corpus = (load_syllabified_corpus(corpus_path, CorpusFormat.preset("gutenberg"))
                  if corpus_path else None)
        resources = Resources(load_pron_dict(dict_path, "mfa", strict=False),
                              hierarchy_for("mfa-ipa"),
                              hierarchy_for("letters", "en"), corpus,
                              variant=variant)
        result = run_ablation(resources, sample_size=1000, seed=7)
        for method, expected in row.items():
            got = result.accuracies[method]
            if got is not None:
                assert abs(got - expected) <= REFERENCE_TOLERANCE
        report(f"C5 reference-ablation-{variant}", str({m: round(a, 1)
               for m, a in result.accuracies.items() if a is not None}))


def _arctic_records():
    prompts_path = real_resource("cmuarctic.data")
    if prompts_path is None:
        pytest.skip(f"cmuarctic.data not present; {FETCH_HINT}")
    resources = _real_cmu_resources()
    from syllab.cli import read_corpus_file
    pairs = read_corpus_file(prompts_path)
    assert len(pairs) == 1132, f"expected 1132 prompts, got {len(pairs)}"
    sentence_words, records = annotate_corpus([text for _, text in pairs], "en",
                                              resources, "lkp-ssp-dtw")
    return [records[word] for words in sentence_words for word in words]


class TestC6ArcticAnnotation:
    def test_word_accuracy(self):
        t0 = time.perf_counter()
        records = _arctic_records()
        accuracy = word_accuracy((r, 1) for r in records)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        assert accuracy >= 99.0, f"ARCTIC word accuracy {accuracy:.2f} < 99.0"
        report("C6 arctic-annotation",
               f"{accuracy:.2f}% over {len(records)} tokens in {elapsed:.0f}s")


class TestC7HistogramClaims:
    def test_arctic_tokens_mostly_monosyllabic(self):
        records = _arctic_records()
        hist = syllable_histogram(records)
        assert hist.get(1, 0.0) > 70.0, hist
        report("C7 arctic-histogram", f"1-syllable share {hist[1]:.1f}% (> 70 required)")

    def test_lexicon_sample_multisyllable_dominated(self):
        resources = _real_cmu_resources()
        words = random.Random(7).sample(sorted(resources.lexicon), 2000)
        records = [syllabify_word(w, resources, "ssp-dtw") for w in words]
        hist = syllable_histogram(records)
        multi = sum(pct for count, pct in hist.items() if count >= 2)
        assert multi > 50.0, hist
        report("C7 lexicon-histogram", f"multi-syllable share {multi:.1f}%")


class TestC8Determinism:
    def test_annotate_and_ablate_bit_identical(self, tmp_path, capsys):
        dict_path = str(DATA / "mini_cmu.dict")
        corpus_path = str(DATA / "mini_syllables.txt")
        outputs = []
        for run in range(2):
            ann = tmp_path / f"ann{run}.tsv"
            rep = tmp_path / f"rep{run}.tsv"
            abl = tmp_path / f"abl{run}.tsv"
            assert cli_main(["annotate", str(DATA / "fixture_prompts.txt"),
                             "--dict", dict_path, "--corpus", corpus_path,
                             "--out", str(ann), "--report", str(rep)]) == 0
            assert cli_main(["ablate", "--dict", dict_path, "--corpus", corpus_path,
                             "--sample-size", "50", "--seed", "7",
                             "--out", str(abl)]) == 0
            outputs.append(ann.read_bytes() + rep.read_bytes() + abl.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        report("C8 determinism", "annotate + ablate outputs bit-identical across reruns")


class TestC9ScCorrectionProperty:
    def _check(self, corpus, language):
        vowels = VOWEL_LETTERS[language]
        for word, syllables in corpus.items():
            assert "".join(syllables) == word
            if len(syllables) > 1:
                for syl in syllables:
                    assert any(ch in vowels for ch in syl), (word, syllables)
        return len(corpus)

    def test_fixture_corpus(self, mini_corpus):
        n = self._check(mini_corpus, "en")
        report("C9 sc-correction-property (fixture)", f"{n} corpus entries")

    def test_real_corpus(self):
        corpus_path = real_resource("moby_hyphenated.txt")
        if corpus_path is None:
            pytest.skip(f"moby_hyphenated.txt not present; {FETCH_HINT}")
        corpus = load_syllabified_corpus(corpus_path, CorpusFormat.preset("gutenberg"))
        n = self._check(corpus, "en")
        report("C9 sc-correction-property (Moby)", f"{n} corpus entries")
