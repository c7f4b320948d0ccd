import pytest

from syllab.errors import UndefinedMetricError
from syllab.evaluate import (
    ablation_json,
    ablation_tsv,
    format_histogram,
    run_ablation,
    syllable_histogram,
    word_accuracy,
)
from syllab.pipeline import syllabify_word


class TestWordAccuracy:
    def test_all_matching(self, mini_resources):
        recs = [syllabify_word(w, mini_resources) for w in ("leaves", "oceanic")]
        assert word_accuracy(recs) == 100.0

    def test_half_matching(self, mini_resources):
        recs = [syllabify_word("sentence", mini_resources, "ssp"),
                syllabify_word("leaves", mini_resources, "ssp")]
        assert word_accuracy(recs) == 50.0

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            word_accuracy([])


class TestHistogram:
    def test_shares(self, mini_resources):
        recs = [syllabify_word(w, mini_resources)
                for w in ("the", "saw", "day", "water")]
        assert syllable_histogram(recs) == {1: 75.0, 2: 25.0}

    def test_sums_to_hundred(self, mini_resources):
        recs = [syllabify_word(w, mini_resources)
                for w in mini_resources.lexicon.entries]
        hist = syllable_histogram(recs)
        assert sum(hist.values()) == pytest.approx(100.0)

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            syllable_histogram([])

    def test_output_formats(self, mini_resources):
        recs = [syllabify_word(w, mini_resources) for w in ("the", "water")]
        hist = syllable_histogram(recs)
        assert format_histogram(hist, "tsv").splitlines()[0] == "n_syllables\tpercentage"
        assert format_histogram(hist, "csv").splitlines()[1] == "1,50.00"
        assert format_histogram(hist, "tsv") == "n_syllables\tpercentage\n1\t50.00\n2\t50.00\n"
        assert format_histogram(hist, "json") == '{\n  "1": 50.0,\n  "2": 50.0\n}\n'


class TestAblation:
    def test_reproducible(self, mini_resources):
        r1 = run_ablation(mini_resources, 40, seed=7)
        r2 = run_ablation(mini_resources, 40, seed=7)
        assert r1 == r2
        assert r1.seed == 7 and r1.sample_size == 40

    def test_different_seed_different_sample(self, mini_resources):
        r1 = run_ablation(mini_resources, 20, seed=1)
        r2 = run_ablation(mini_resources, 20, seed=2)
        # accuracies may coincide, but not for lack of reseeding: check via tsv
        assert ablation_tsv(r1) != ablation_tsv(r2) or r1.accuracies == r2.accuracies

    def test_all_methods_reported(self, mini_resources):
        res = run_ablation(mini_resources, 10, seed=3)
        assert list(res.accuracies) == ["ssp", "lkp-ssp", "ssp-dtw", "lkp-ssp-dtw"]
        assert all(a is not None for a in res.accuracies.values())

    def test_lookup_cells_absent_without_corpus(self, mini_resources_nocorpus):
        res = run_ablation(mini_resources_nocorpus, 10, seed=3)
        assert res.accuracies["lkp-ssp"] is None
        assert res.accuracies["lkp-ssp-dtw"] is None
        assert res.accuracies["ssp"] is not None
        tsv = ablation_tsv(res)
        assert "lkp-ssp\t-" in tsv

    def test_monosyllable_sample_is_perfect(self, mini_resources):
        recs = [syllabify_word(w, mini_resources, m)
                for w in ("the", "saw", "leaves", "through")
                for m in ("ssp", "lkp-ssp", "ssp-dtw", "lkp-ssp-dtw")]
        assert word_accuracy(recs) == 100.0

    def test_oversized_sample_rejected(self, mini_resources):
        with pytest.raises(ValueError):
            run_ablation(mini_resources, 10 ** 6, seed=0)

    def test_accuracies_in_range(self, mini_resources):
        res = run_ablation(mini_resources, 60, seed=11)
        for acc in res.accuracies.values():
            assert 0.0 <= acc <= 100.0

    def test_json_round_trip(self, mini_resources):
        import json
        res = run_ablation(mini_resources, 10, seed=5)
        data = json.loads(ablation_json(res))
        assert data["seed"] == 5 and data["sample_size"] == 10
        assert set(data["accuracies"]) == set(res.accuracies)

    def test_tsv_has_header_comment(self, mini_resources):
        res = run_ablation(mini_resources, 10, seed=5)
        head = ablation_tsv(res).splitlines()[0]
        assert head.startswith("#") and "seed=5" in head
