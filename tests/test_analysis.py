"""One analysis per word: records equal the per-call path, and the work done is bounded."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab.align import dtw
from syllab.cli import format_record_row, main
from syllab.evaluate import run_ablation, word_accuracy
from syllab.pipeline import (
    METHOD_CHOICES,
    analyze_word,
    annotate_corpus,
    syllabify_word,
    word_record,
)
from syllab.sonority import sonority_sequence
from syllab.ssp import ssp_breaks
from syllab.textnorm import normalize

from conftest import DATA, count_calls, sentence_records

WORDS = ["sentence", "leaves", "beautiful", "rhythm", "the", "people",
         "oceanic", "qqqzz", "another", "picture"]
NUMERALS = ["2", "3.5", "12", "1999"]


class TestAblationEquivalence:
    @pytest.mark.parametrize("corpus", [True, False])
    @pytest.mark.parametrize("methods", [METHOD_CHOICES, ("lkp-ssp-dtw", "ssp"),
                                         ("ssp-dtw",)])
    def test_matches_per_method_records(self, mini_resources, mini_resources_nocorpus,
                                        corpus, methods):
        res = mini_resources if corpus else mini_resources_nocorpus
        result = run_ablation(res, len(res.lexicon), 0, methods)
        assert list(result.accuracies) == list(methods)
        for method in methods:
            if method.startswith("lkp") and not corpus:
                assert result.accuracies[method] is None
            else:
                assert result.accuracies[method] == word_accuracy(
                    [syllabify_word(w, res, method) for w in res.lexicon.entries])

    def test_partial_sample_matches(self, mini_resources):
        result = run_ablation(mini_resources, 40, 7)
        sample = random.Random(7).sample(sorted(mini_resources.lexicon.entries), 40)
        for method in METHOD_CHOICES:
            assert result.accuracies[method] == word_accuracy(
                [syllabify_word(w, mini_resources, method) for w in sample])

    def test_unknown_method_rejected(self, mini_resources):
        with pytest.raises(ValueError):
            run_ablation(mini_resources, 5, 0, ("ssp", "bogus"))


class TestRecords:
    def test_record_is_frozen(self, mini_resources):
        rec = syllabify_word("sentence", mini_resources, "ssp")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.flags = frozenset()

    @pytest.mark.parametrize("method", METHOD_CHOICES)
    def test_one_analysis_serves_every_method(self, mini_resources, method):
        for word in WORDS:
            analysis = analyze_word(word, mini_resources)
            for flags in ((), ("numeral-unsupported",)):
                assert word_record(analysis, method, flags) == \
                    syllabify_word(word, mini_resources, method, extra_flags=flags)

    def test_unknown_method_rejected(self, mini_resources):
        with pytest.raises(ValueError):
            word_record(analyze_word("sentence", mini_resources), "dtw")


sentences = st.lists(
    st.lists(st.sampled_from(WORDS + NUMERALS), min_size=1, max_size=6).map(" ".join),
    min_size=1, max_size=6)


@settings(max_examples=25, deadline=None)
@given(sentences, st.sampled_from(METHOD_CHOICES))
def test_annotate_rows_equal_fresh_records(mini_resources, sents, method):
    sents = sents + sents[:2]  # repeats across sentences as well as within
    for recs, sentence in zip(sentence_records(sents, mini_resources, method), sents):
        tokens = normalize(sentence, "en")
        assert len(recs) == len(tokens)
        for rec, tok in zip(recs, tokens):
            assert rec == syllabify_word(tok.core, mini_resources, method,
                                         extra_flags=tok.flags)


class TestWorkCounts:
    def test_ablation_does_each_step_once_per_word(self, mini_resources, monkeypatch):
        curves = count_calls(monkeypatch, sonority_sequence)
        breaks = count_calls(monkeypatch, ssp_breaks)
        alignments = count_calls(monkeypatch, dtw)
        n = len(mini_resources.lexicon)
        run_ablation(mini_resources, n, 0)
        letter_curves = sum(1 for args in curves
                            if args[1] is mini_resources.letter_hierarchy)
        assert len(curves) - letter_curves <= n
        assert letter_curves <= n
        assert len(breaks) <= 2 * n
        assert 0 < len(alignments) <= n

    def test_annotate_syllabifies_each_distinct_token_once(self, mini_resources,
                                                           monkeypatch):
        calls = count_calls(monkeypatch, analyze_word)
        sents = ["The author can write 3.5 words.", "the AUTHOR can write",
                 "write 3.5 words the author"] * 3
        sentence_keys, _ = annotate_corpus(sents, "en", mini_resources)
        words = {tok.core.lower() for s in sents for tok in normalize(s, "en")}
        assert sum(len(keys) for keys in sentence_keys) > len(words)
        assert sorted(args[0] for args in calls) == sorted(words)

    def test_annotate_formats_each_distinct_key_once(self, tmp_path, monkeypatch,
                                                     capsys):
        rows = count_calls(monkeypatch, format_record_row)
        prompts = tmp_path / "p.txt"
        sents = ["The author can write 3.5 words.", "the AUTHOR can write",
                 "write 3.5 words the author"] * 3
        prompts.write_text("".join(s + "\n" for s in sents))
        out = tmp_path / "a.tsv"
        assert main(["annotate", str(prompts), "--dict", str(DATA / "mini_cmu.dict"),
                     "--out", str(out)]) == 0
        keys = [(tok.core, tok.flags) for s in sents for tok in normalize(s, "en")]
        assert len(out.read_text().splitlines()) == 1 + len(keys)
        assert len(rows) == len(set(keys)) < len(keys)

    def test_syllabify_command_analyzes_a_repeated_word_once(self, monkeypatch,
                                                            capsys):
        calls = count_calls(monkeypatch, analyze_word)
        assert main(["syllabify", "a", "b", "A", "--dict", str(DATA / "mini_cmu.dict")]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split("\t")[0] for row in rows] == ["a", "b", "a"]
        assert rows[0] == rows[2]
        assert [args[0] for args in calls] == ["a", "b"]


# `histogram` of the fixture dictionary, for every method alike
HISTOGRAM = {
    "tsv": "n_syllables\tpercentage\n1\t74.15\n2\t20.75\n3\t4.42\n4\t0.68\n",
    "csv": "n_syllables,percentage\n1,74.15\n2,20.75\n3,4.42\n4,0.68\n",
    "json": '{\n  "1": 74.15,\n  "2": 20.75,\n  "3": 4.42,\n  "4": 0.68\n}\n',
}


@pytest.mark.parametrize("fmt", HISTOGRAM)
@pytest.mark.parametrize("method", ["ssp", "lkp-ssp-dtw"])
def test_histogram_runs_no_dtw_and_keeps_its_output(fmt, method, monkeypatch, capsys):
    alignments = count_calls(monkeypatch, dtw)
    assert main(["histogram", "--dict", str(DATA / "mini_cmu.dict"),
                 "--corpus", str(DATA / "mini_syllables.txt"),
                 "--method", method, "--format", fmt]) == 0
    assert capsys.readouterr().out == HISTOGRAM[fmt]
    assert alignments == []
