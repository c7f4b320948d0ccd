"""One analysis per word: records equal the per-call path, and the work done is bounded."""

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab.align import dtw
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

WORDS = ["sentence", "leaves", "beautiful", "rhythm", "the", "people",
         "oceanic", "qqqzz", "another", "picture"]
NUMERALS = ["2", "3.5", "12", "1999"]


def count_calls(monkeypatch, fn) -> list:
    """Count calls of `fn` through every syllab module that binds it."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "syllab" or name.startswith("syllab."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


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
    serial = annotate_corpus(sents, "en", mini_resources, method, jobs=1)
    assert annotate_corpus(sents, "en", mini_resources, method, jobs=4) == serial
    for ann, sentence in zip(serial, sents):
        tokens = normalize(sentence, "en")
        assert [i for i, _ in ann.records] == list(range(len(tokens)))
        for (_, rec), tok in zip(ann.records, tokens):
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
        calls = count_calls(monkeypatch, syllabify_word)
        sents = ["The author can write 3.5 words.", "the AUTHOR can write",
                 "write 3.5 words the author"] * 3
        anns = annotate_corpus(sents, "en", mini_resources)
        keys = {(tok.core, tok.flags) for s in sents for tok in normalize(s, "en")}
        assert sum(len(a.records) for a in anns) > len(keys)
        assert len(calls) == len(keys)
