"""One analysis per word: records equal the per-call path, and the work done is bounded."""

import gc
import itertools
import random
from collections import ChainMap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab.align import alignment_debug_tsv, curve, dtw, project_breaks
from syllab.cli import format_record_row, main
from syllab.errors import UnknownSymbolError
from syllab.evaluate import run_ablation, word_accuracy
from syllab.lexicon import (
    CorpusFormat,
    FallbackConfig,
    Pronunciation,
    load_pron_dict,
    load_syllabified_corpus,
    sc_correction,
)
from syllab.pipeline import (
    ANALYSIS_CHUNK,
    METHOD_CHOICES,
    Resources,
    analyze_word,
    analyze_words,
    annotate_corpus,
    load_secondary_stress,
    syllabify_word,
    text_syllabification,
    word_record,
)
from syllab.sonority import hierarchy_for, sonority_sequence
from syllab.ssp import ssp_breaks, syllabify_symbols
from syllab.textnorm import normalize

from conftest import DATA, aligned_words, count_calls, sentence_records

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
                    (syllabify_word(w, res, method), 1) for w in res.lexicon)

    def test_partial_sample_matches(self, mini_resources):
        result = run_ablation(mini_resources, 40, 7)
        sample = random.Random(7).sample(sorted(mini_resources.lexicon), 40)
        for method in METHOD_CHOICES:
            assert result.accuracies[method] == word_accuracy(
                (syllabify_word(w, mini_resources, method), 1) for w in sample)

    def test_unknown_method_rejected(self, mini_resources):
        with pytest.raises(ValueError):
            run_ablation(mini_resources, 5, 0, ("ssp", "bogus"))


def immutable_values(resources) -> dict:
    """One instance of each immutable value type, by type name."""
    rec = syllabify_word("sentence", resources, "ssp")
    analysis = next(analyze_words(["sentence"], resources))
    values = (rec.pronunciations[0], rec.phone_syll, analysis.phone_seq, rec, resources,
              FallbackConfig("g2p --batch"), CorpusFormat.preset("lexique"),
              run_ablation(resources, 5, 0))
    return {type(value).__name__: value for value in values}


class TestRecords:
    @pytest.mark.parametrize("type_name", [
        "Pronunciation", "Syllabification", "SonoritySequence", "WordRecord", "Resources", "FallbackConfig", "CorpusFormat",
        "AblationResult"])
    def test_record_is_frozen(self, mini_resources, type_name):
        value = immutable_values(mini_resources)[type_name]
        # neither a field nor a new attribute can be set
        for name in (*value._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)

    @pytest.mark.parametrize("type_name, field, bad", [
        ("Pronunciation", "raw", ()), ("Syllabification", "breaks", (99,)),
        ("FallbackConfig", "command", "foo 'bar")])
    def test_replace_checks_like_the_constructor(self, mini_resources, type_name,
                                                 field, bad):
        value = immutable_values(mini_resources)[type_name]
        with pytest.raises(ValueError):
            value._replace(**{field: bad})

    @pytest.mark.parametrize("method", METHOD_CHOICES)
    def test_one_analysis_serves_every_method(self, mini_resources, method):
        for word in WORDS + NUMERALS + ["2nd"]:
            analysis = next(analyze_words([word], mini_resources, METHOD_CHOICES))
            assert word_record(analysis, method) == \
                syllabify_word(word, mini_resources, method)

    def test_unknown_method_rejected(self, mini_resources):
        with pytest.raises(ValueError):
            word_record(next(analyze_words(["sentence"], mini_resources)), "dtw")

    @pytest.mark.parametrize("method", METHOD_CHOICES)
    def test_selector_gives_the_record_text_and_method(self, mini_resources, method):
        # letters the hierarchy lacks, and a pronunciation without a vowel
        resources = mini_resources._replace(lexicon=ChainMap(
            {"3d": [Pronunciation(("TH", "R", "IY1", "D", "IY2"))]},
            mini_resources.lexicon))
        analyses = list(analyze_words(["qqqzz", "a", "rhythm", "beautiful", "about",
                                       "etc", "w", "3d"], resources, (method,)))
        analyses.append(analyze_word("hmm", mini_resources,
                                     [Pronunciation(("HH", "M"))], oov=False))
        kinds = set()
        for analysis in analyses:
            rec = word_record(analysis, method)
            assert text_syllabification(analysis, method) == (rec.text_syll,
                                                              rec.method)
            kinds |= {rec.method, *rec.flags}
        assert {"oov-unresolved", "single-vowel", "no-nucleus"} <= kinds
        assert ("corpus-lookup" in kinds) == method.startswith("lkp")
        assert ("degenerate-projection" in kinds) == method.endswith("dtw")


sentences = st.lists(
    st.lists(st.sampled_from(WORDS + NUMERALS), min_size=1, max_size=6).map(" ".join),
    min_size=1, max_size=6)


@settings(max_examples=25, deadline=None)
@given(sentences, st.sampled_from(METHOD_CHOICES))
def test_annotate_rows_equal_fresh_records(mini_resources, sents, method):
    sents = sents + sents[:2]  # repeats across sentences as well as within
    for recs, sentence in zip(sentence_records(sents, mini_resources, method), sents):
        words = normalize(sentence, "en")
        assert len(recs) == len(words)
        for rec, word in zip(recs, words):
            assert rec == syllabify_word(word, mini_resources, method)


class TestWorkCounts:
    def test_ablation_does_each_step_once_per_word(self, mini_resources, monkeypatch):
        curves = count_calls(monkeypatch, sonority_sequence)
        breaks = count_calls(monkeypatch, ssp_breaks)
        alignments = count_calls(monkeypatch, dtw)
        expansions = count_calls(monkeypatch, curve)
        records = count_calls(monkeypatch, word_record)
        n = len(mini_resources.lexicon)
        run_ablation(mini_resources, n, 0)
        assert records == []  # methods are scored from the analysis
        letter_curves = sum(1 for args in curves
                            if args[1] is mini_resources.letter_hierarchy)
        assert len(curves) - letter_curves <= n
        assert letter_curves <= n
        assert len(breaks) <= 2 * n
        assert 0 < aligned_words(alignments) <= n
        # an aligned word's phone and letter curves are each expanded once
        assert len(expansions) == 2 * aligned_words(alignments)

    def test_ablation_aligns_each_word_with_breaks_once(self, mini_resources,
                                                        monkeypatch):
        alignments = count_calls(monkeypatch, dtw)
        n = len(mini_resources.lexicon)
        run_ablation(mini_resources, n, 0)
        # analyses made apart from any method align nothing, nor does a read
        # of their records under a DTW method: it raises
        multi = [a for a in analyze_words(mini_resources.lexicon, mini_resources)
                 if a.phone_syll.breaks and a.letter_seq is not None]
        assert aligned_words(alignments) == len(multi) > 0
        for a in multi:
            with pytest.raises(AttributeError):
                word_record(a, "ssp-dtw")
        run_ablation(mini_resources, n, 0, ("ssp", "lkp-ssp"))
        assert aligned_words(alignments) == len(multi)

    @pytest.mark.parametrize("method", METHOD_CHOICES)
    def test_annotate_aligns_only_the_words_it_projects(self, mini_resources,
                                                        monkeypatch, method):
        alignments = count_calls(monkeypatch, dtw)
        words = sorted(mini_resources.lexicon)
        _, records = annotate_corpus([" ".join(words)] * 2, "en", mini_resources,
                                     method)
        projected = {rec.word for rec in records.values()
                     if rec.method == "ssp-dtw" and rec.phone_syll.breaks}
        assert aligned_words(alignments) == len(projected)
        assert bool(projected) == method.endswith("dtw")
        # under lkp-ssp-dtw, the words the corpus syllabifies are not aligned
        assert any(rec.method == "corpus-lookup" for rec in records.values()) \
            == method.startswith("lkp")

    def test_dump_alignment_aligns_each_dumped_word_once(self, tmp_path, monkeypatch,
                                                         capsys, mini_resources):
        alignments = count_calls(monkeypatch, dtw)
        projections = count_calls(monkeypatch, project_breaks)
        words = ["sentence", "beautiful", "oceanic", "Sentence", "leaves"]
        options = ["--dict", str(DATA / "mini_cmu.dict"), "--method", "ssp-dtw"]
        assert main(["syllabify", *words, *options]) == 0
        run, projected_run = list(alignments), list(projections)
        assert aligned_words(run) == len(projected_run) == 3  # leaves has no break
        alignments.clear()
        projections.clear()
        dump = tmp_path / "aligns"
        assert main(["syllabify", *words, *options, "--dump-alignment", str(dump)]) == 0
        # the run aligns and projects as without the dump; the dump adds one
        # call, which aligns each word it dumps once, a word without a break
        # too, and projects none
        *projected, (dumped_pairs,) = alignments
        assert projected == run and projections == projected_run
        dumped = sorted(p.stem for p in dump.iterdir())
        assert dumped == ["beautiful", "leaves", "oceanic", "sentence"]
        assert len(dumped_pairs) == len(dumped)
        # each file holds the path of its word aligned alone
        for a in analyze_words(dumped, mini_resources):
            [(pairs, _)] = dtw([(curve(a.phone_seq), curve(a.letter_seq))])
            assert (dump / f"{a.word}.tsv").read_bytes() == alignment_debug_tsv(
                pairs, a.phone_seq, a.letter_seq).encode()

    def test_words_aligned_in_chunks_of_analysis_chunk(self, arpabet, letters_en,
                                                        monkeypatch):
        alignments = count_calls(monkeypatch, dtw)
        # distinct words of three open syllables, each with two breaks to project
        phones = {"b": "B", "d": "D", "k": "K", "m": "M", "s": "S", "t": "T",
                  "a": "AA1", "i": "IY0", "o": "OW0"}
        syllables = [c + v for c in "bdkmst" for v in "aio"]
        n = 2 * ANALYSIS_CHUNK + 5
        words = ["".join(parts) for parts in
                 itertools.islice(itertools.product(syllables, repeat=3), n)]
        lexicon = {w: [Pronunciation(tuple(phones[ch] for ch in w))] for w in words}
        analyses = list(analyze_words(words, Resources(lexicon, arpabet, letters_en),
                                      ("ssp-dtw",)))
        assert all("no-nucleus" not in a.flags and len(a.phone_syll.breaks) == 2
                   for a in analyses)
        sizes = [len(args[0]) for args in alignments]
        assert len(sizes) == -(-n // ANALYSIS_CHUNK) == 3
        assert max(sizes) <= ANALYSIS_CHUNK and sum(sizes) == n

    def test_unclassified_words_keep_one_error(self, mini_lexicon, letters_en, caplog):
        # the IPA hierarchy classifies no ARPABET phone: every word is unclassified
        def live_errors():
            gc.collect()
            return sum(isinstance(o, UnknownSymbolError) for o in gc.get_objects())

        before = live_errors()
        words = sorted(mini_lexicon)
        resources = Resources(mini_lexicon, hierarchy_for("mfa-ipa"), letters_en)
        analyses = analyze_words(words, resources)
        with caplog.at_level("WARNING"):
            held = list(itertools.islice(analyses, len(words)))  # the run still open
            retained = live_errors() - before
            analyses.close()
        assert all(a.phone_seq is None and a.pronunciations for a in held)
        assert retained <= 1
        [line] = [r.getMessage() for r in caplog.records]
        assert line.startswith(f"{len(words)} word(s) with phones the hierarchy does "
                               f"not classify, treating as unresolved (first 'a': ")

    def test_analyses_hold_no_dict_and_share_flag_sets(self, mini_resources):
        sentence, beautiful, qqqzz, zzxq = analyze_words(
            ["sentence", "beautiful", "qqqzz", "zzxq"], mini_resources)
        assert not hasattr(sentence, "__dict__")
        assert sentence.flags is beautiful.flags and not sentence.flags
        assert qqqzz.flags is zzxq.flags == {"oov", "no-stress"}
        # a lazy slot is filled on its first read, and only a lazy slot is
        assert sentence.letters_ssp is sentence.letters_ssp
        with pytest.raises(AttributeError, match="no attribute 'stress'"):
            sentence.stress

    def test_annotate_syllabifies_each_distinct_token_once(self, mini_resources,
                                                           monkeypatch):
        calls = count_calls(monkeypatch, analyze_word)
        sents = ["The author can write 3.5 words.", "the AUTHOR can write",
                 "write 3.5 words the author"] * 3
        sentence_words, _ = annotate_corpus(sents, "en", mini_resources)
        words = {word for s in sents for word in normalize(s, "en")}
        assert sum(map(len, sentence_words)) > len(words)
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
        words = [word for s in sents for word in normalize(s, "en")]
        assert len(out.read_text().splitlines()) == 1 + len(words)
        assert len(rows) == len(set(words)) < len(words)

    def test_resources_parse_only_the_words_a_run_uses(self, monkeypatch):
        built = []
        new = Pronunciation.__new__

        def counting_new(cls, raw):
            built.append(raw)
            return new(cls, raw)

        monkeypatch.setattr(Pronunciation, "__new__", counting_new)
        corrections = count_calls(monkeypatch, sc_correction)
        stress_parses = count_calls(monkeypatch, syllabify_symbols)
        ipa = hierarchy_for("mfa-ipa")
        lexicon = load_pron_dict(DATA / "mini_mfa_en.dict", "mfa")
        corpus = load_syllabified_corpus(DATA / "mini_syllables.txt",
                                         CorpusFormat.preset("gutenberg"))
        secondary = load_secondary_stress(DATA / "secondary_espeak.tsv", ipa)
        assert built == corrections == stress_parses == []

        resources = Resources(lexicon, ipa, hierarchy_for("letters", "en"), corpus,
                              secondary_stress=secondary)
        annotate_corpus(["Hello water.", "water, hello over the rhythm"], "en",
                        resources)
        assert sorted(" ".join(raw) for raw in built) == [
            "h ə l ow", "ow v ɚ", "w ɑ ɾ ɚ", "ɹ ɪ ð ə m"]
        assert sorted("".join(args[0]) for args in corrections) == [
            "hello", "over", "rhythm", "water"]
        assert sorted("".join(args[0]) for args in stress_parses) == ["həloʊ", "wɔtə"]
        assert len(lexicon) > 4 and len(corpus) > 4 and len(secondary) > 2

    def test_syllabify_command_analyzes_a_repeated_word_once(self, monkeypatch,
                                                            capsys):
        calls = count_calls(monkeypatch, analyze_word)
        assert main(["syllabify", "a", "b", "A", "--dict", str(DATA / "mini_cmu.dict")]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split("\t")[0] for row in rows] == ["a", "b", "a"]
        assert rows[0] == rows[2]
        assert [args[0] for args in calls] == ["a", "b"]


# `histogram` of the fixture dictionary
HISTOGRAM = {
    "tsv": "n_syllables\tpercentage\n1\t74.15\n2\t20.75\n3\t4.42\n4\t0.68\n",
    "csv": "n_syllables,percentage\n1,74.15\n2,20.75\n3,4.42\n4,0.68\n",
    "json": '{\n  "1": 74.15,\n  "2": 20.75,\n  "3": 4.42,\n  "4": 0.68\n}\n',
}


@pytest.mark.parametrize("fmt", HISTOGRAM)
@pytest.mark.parametrize("method", ["ssp", "lkp-ssp-dtw"])
def test_histogram_runs_no_dtw_and_keeps_its_output(fmt, method, monkeypatch, capsys):
    alignments = count_calls(monkeypatch, dtw)
    command = ["histogram", "--dict", str(DATA / "mini_cmu.dict"), "--format", fmt]
    assert main(command) == 0
    assert capsys.readouterr().out == HISTOGRAM[fmt]
    # the counts are the same for every method, so histogram offers none
    with pytest.raises(SystemExit) as exc:
        main(command + ["--method", method])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method" in capsys.readouterr().err
    assert aligned_words(alignments) == 0
