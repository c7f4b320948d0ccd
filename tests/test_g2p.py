"""Batched external G2P: protocol checks, failure isolation and one batch per run."""

import functools
import shlex
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab import pipeline
from syllab.cli import main
from syllab.lexicon import (
    G2P_OUTPUT_LIMIT,
    G2P_TIMEOUT_LIMIT,
    FallbackConfig,
    Pronunciation,
    g2p_fallback,
    load_pron_dict,
    lookup,
)
from syllab.pipeline import Resources, analyze_words, annotate_corpus, syllabify_word
from syllab.textnorm import normalize

from conftest import DATA, count_calls, sentence_records

FAKE_G2P = DATA / "fake_g2p.py"
DICT = str(DATA / "mini_cmu.dict")
TIMEOUT = 0.5
OOV = ["zzxq", "blorp", "glark", "snerd", "wug", "frimble", "quonk", "dax"]


def fake_argv(mode: str, *extra: str, count=None) -> tuple[str, ...]:
    argv = (sys.executable, "-I", "-S", str(FAKE_G2P))
    if count is not None:
        argv += ("--count", str(count))
    return argv + (mode,) + extra


def fake(mode: str, *extra: str, count=None) -> FallbackConfig:
    return FallbackConfig(fake_argv(mode, *extra, count=count), timeout=TIMEOUT)


def invocations(count_file) -> int:
    return len(count_file.read_text().splitlines()) if count_file.exists() else 0


def strs(prons) -> list:
    return [None if p is None else str(p) for p in prons]


@pytest.fixture(scope="module")
def good():
    return dict(zip(OOV, strs(g2p_fallback(OOV, fake("ok")))))


class TestBatchProtocol:
    def test_one_invocation_per_batch(self, tmp_path, good):
        count = tmp_path / "calls"
        words = OOV + OOV[:3]
        assert strs(g2p_fallback(words, fake("ok", count=count))) == \
            [good[w] for w in words]
        assert invocations(count) == 1

    def test_each_distinct_word_sent_once(self, tmp_path):
        script = ("import sys; ws = sys.stdin.read().split(); "
                  "assert len(ws) == len(set(ws)), ws; "
                  "print('\\n'.join('AH1' for _ in ws))")
        cfg = FallbackConfig((sys.executable, "-c", script), timeout=5)
        assert strs(g2p_fallback(["wug", "dax", "wug"], cfg)) == ["AH1"] * 3

    def test_empty_line_gives_none(self):
        cfg = FallbackConfig((sys.executable, "-c",
                              "import sys; sys.stdin.read(); print('AH1'); print()"))
        assert strs(g2p_fallback(["wug", "dax"], cfg)) == ["AH1", None]

    def test_empty_batch_starts_nothing(self, tmp_path):
        count = tmp_path / "calls"
        assert g2p_fallback([], fake("ok", count=count)) == []
        assert g2p_fallback(["", "a\nb"], fake("ok", count=count)) == [None, None]
        assert invocations(count) == 0

    def test_word_with_line_break_not_sent(self, good):
        # "wug\rdax" would read as two lines to a text-mode G2P
        words = ["wug", "wug\rdax", "dax", "a\nb", ""]
        assert strs(g2p_fallback(words, fake("ok"))) == \
            [good["wug"], None, good["dax"], None, None]

    def test_unencodable_word_isolated(self, good):
        # argv decoding can leave lone surrogates in a word
        assert strs(g2p_fallback(["wug", "d\udcffx"], fake("ok"))) == [good["wug"], None]


class TestHostileG2p:
    def test_hang_costs_at_most_2k_minus_1_timeouts(self, tmp_path):
        count = tmp_path / "calls"
        assert g2p_fallback(["wug", "dax"], fake("hang", count=count)) == [None, None]
        assert invocations(count) == 3

    def test_timeouts_per_run_bounded(self, tmp_path, caplog):
        # without the limit, 16 words cost 2 * 16 - 1 = 31 timeouts
        count = tmp_path / "calls"
        words = [f"{w}{i}" for i in range(2) for w in OOV]
        cfg = FallbackConfig(fake_argv("hang", count=count), timeout=0.2)
        with caplog.at_level("WARNING"):
            assert g2p_fallback(words, cfg) == [None] * 16
        assert invocations(count) == G2P_TIMEOUT_LIMIT >= 3
        budget = f"{G2P_TIMEOUT_LIMIT * 0.2:g}"
        assert [r.getMessage() for r in caplog.records
                if "unresolved" in r.getMessage()] == [
            "g2p: 16 of 16 OOV words unresolved (16 left unsent when the G2P time "
            f"budget of {budget} s ran out)"]

    def test_slow_failures_bounded_in_wall_time(self, caplog):
        # 16 words split down to single words cost 2 * 16 - 1 = 31 slow
        # failures, over 9 s; the run's budget is 4 timeouts
        script = "import sys, time; sys.stdin.read(); time.sleep(0.3); sys.exit(1)"
        cfg = FallbackConfig((sys.executable, "-I", "-S", "-c", script), timeout=0.5)
        words = [f"{w}{i}" for i in range(2) for w in OOV]
        start = time.monotonic()
        with caplog.at_level("WARNING"):
            assert g2p_fallback(words, cfg) == [None] * 16
        assert time.monotonic() - start < G2P_TIMEOUT_LIMIT * 0.5 + 1.0
        [summary] = [r.getMessage() for r in caplog.records
                     if "unresolved" in r.getMessage()]
        assert summary.startswith("g2p: 16 of 16 OOV words unresolved (") and \
            summary.endswith(" left unsent when the G2P time budget of 2 s ran out)")

    def test_each_invocation_takes_at_most_the_budget_left(self):
        # four failures of 0.95 s leave 0.05 s of the 4 s budget; the fifth
        # invocation may take only that, not its whole 1 s timeout
        script = "import sys, time; sys.stdin.read(); time.sleep(0.95); sys.exit(1)"
        cfg = FallbackConfig((sys.executable, "-I", "-S", "-c", script), timeout=1.0)
        words = [f"{w}{i}" for i in range(2) for w in OOV]
        start = time.monotonic()
        assert g2p_fallback(words, cfg) == [None] * 16
        assert time.monotonic() - start < G2P_TIMEOUT_LIMIT * 1.0 + 0.4

    def test_nonzero_exit(self, caplog):
        with caplog.at_level("WARNING"):
            assert g2p_fallback(OOV[:2], fake("exit")) == [None, None]
        assert "exited 3" in caplog.text
        assert "for 2 word(s)" in caplog.text

    def test_fewer_lines_than_words(self, caplog):
        with caplog.at_level("WARNING"):
            assert g2p_fallback(OOV[:3], fake("fewer")) == [None] * 3
        assert "printed 2 lines for 3 words" in caplog.text

    def test_more_lines_than_words_isolated_to_single_words(self, caplog, good):
        with caplog.at_level("WARNING"):
            result = strs(g2p_fallback(OOV[:3], fake("more")))
        assert "printed 4 lines for 3 words" in caplog.text
        # one-word batches take the first non-empty line
        assert result == [good[w] for w in OOV[:3]]

    def test_unknown_phones_flagged_not_raised(self, tmp_path, capsys):
        prompts = tmp_path / "p.txt"
        prompts.write_text("the zzxq leaves\n")
        out = tmp_path / "a.tsv"
        assert main(["annotate", str(prompts), "--dict", DICT, "--out", str(out),
                     "--fallback-cmd", shlex.join(fake_argv("unknown-phones"))]) == 0
        row = next(r.split("\t") for r in out.read_text().splitlines()
                   if r.split("\t")[2] == "zzxq")
        assert row[3] == "QQ1 XX"
        assert row[7] == "oov-unresolved" and "oov" in row[8].split(",")

    def test_unknown_phones_warned_once_per_word(self, tmp_path, capsys, caplog):
        prompts = tmp_path / "p.txt"
        prompts.write_text("zzxq zzxq\nthe zzxq\n")
        out = tmp_path / "a.tsv"
        with caplog.at_level("WARNING"):
            assert main(["annotate", str(prompts), "--dict", DICT, "--out", str(out),
                         "--fallback-cmd", shlex.join(fake_argv("unknown-phones"))]) == 0
        assert caplog.text.count("treating as unresolved") == 1
        rows = [r.split("\t")[2:] for r in out.read_text().splitlines()
                if r.split("\t")[2] == "zzxq"]
        assert rows == [["zzxq", "QQ1 XX", "-", "zzxq", "-", "oov-unresolved",
                         "count-mismatch,no-stress,oov"]] * 3

    def test_unknown_phones_warned_once_per_run(self, tmp_path, capsys, caplog):
        prompts = tmp_path / "p.txt"
        prompts.write_text("zzxq the blorp\nblorp zzxq\n")
        with caplog.at_level("WARNING"):
            assert main(["annotate", str(prompts), "--dict", DICT,
                         "--out", str(tmp_path / "a.tsv"),
                         "--fallback-cmd", shlex.join(fake_argv("unknown-phones"))]) == 0
        [line] = [r.getMessage() for r in caplog.records
                  if "treating as unresolved" in r.getMessage()]
        assert line == ("2 word(s) with phones the hierarchy does not classify, "
                        "treating as unresolved (first 'zzxq': symbol 'QQ1' is not "
                        "classified in the cmu-arpabet hierarchy)")

    def test_stderr_flood(self, good):
        assert strs(g2p_fallback(OOV, fake("stderr-flood"))) == [good[w] for w in OOV]

    def test_stdout_flood_killed_past_the_cap(self, tmp_path, caplog):
        count = tmp_path / "calls"
        with caplog.at_level("WARNING"):
            result = g2p_fallback(OOV[:2], fake("stdout-flood", count=count))
        assert result == [None, None]
        # the batch and its two halves each end at the cap, none at the timeout,
        # and one line counts them
        assert invocations(count) == 3
        assert [r.getMessage() for r in caplog.records] == [
            "g2p: 3 of 3 invocations failed (3 over the output cap); the first, for "
            f"2 word(s): printed more than {2 * G2P_OUTPUT_LIMIT} bytes for 2 words",
            "g2p: 2 of 2 OOV words unresolved"]

    def test_failures_counted_by_kind_in_one_line(self, caplog):
        # one poisoned word among four: the batch, the half holding it and the
        # word itself fail
        cfg = fake("poison", "dax")
        with caplog.at_level("WARNING"):
            result = g2p_fallback(["wug", "blick", "dax", "zorb"], cfg)
        assert [pron is None for pron in result] == [False, False, True, False]
        [line, summary] = [r.getMessage() for r in caplog.records]
        assert line.startswith("g2p: 3 of 5 invocations failed (3 non-zero exit); "
                               "the first, for 4 word(s): exited 1")
        assert summary == "g2p: 1 of 4 OOV words unresolved"

    def test_non_utf8_output(self, caplog):
        with caplog.at_level("WARNING"):
            assert g2p_fallback(OOV[:2], fake("non-utf8")) == [None, None]
        assert "not UTF-8" in caplog.text

    def test_poisoned_word_isolated(self, good):
        result = strs(g2p_fallback(OOV, fake("poison", "glark")))
        assert result == [None if w == "glark" else good[w] for w in OOV]

    def test_annotate_normalizes_each_sentence_once(self, mini_lexicon, arpabet,
                                                     letters_en, monkeypatch):
        calls = {"normalize": 0, "g2p": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pipeline, "normalize", counted("normalize", pipeline.normalize))
        monkeypatch.setattr(pipeline, "g2p_fallback",
                            counted("g2p", pipeline.g2p_fallback))
        res = Resources(mini_lexicon, arpabet, letters_en, fallback=fake("ok"))
        recs = sentence_records(["the zzxq leaves", "blorp and zzxq", "a wug"], res)
        assert calls == {"normalize": 3, "g2p": 1}
        assert [rec.word for rec in recs[1]] == ["blorp", "and", "zzxq"]

    def test_annotate_looks_up_each_distinct_word_once(self, mini_lexicon, arpabet,
                                                       letters_en, monkeypatch):
        lookups = count_calls(monkeypatch, lookup)
        batches = count_calls(monkeypatch, g2p_fallback)
        res = Resources(mini_lexicon, arpabet, letters_en, fallback=fake("ok"))
        sents = ["the zzxq leaves", "blorp and zzxq", "The BLORP leaves a wug"]
        annotate_corpus(sents, "en", res)
        words = {word for s in sents for word, _ in normalize(s, "en")}
        assert sorted(args[1] for args in lookups) == sorted(words)
        assert [args[0] for args in batches] == [["zzxq", "blorp", "wug"]]

    def test_summary_warning(self, mini_lexicon, arpabet, letters_en, caplog):
        # the G2P alone counts the words it leaves unresolved, in one line
        res = Resources(mini_lexicon, arpabet, letters_en,
                        fallback=fake("poison", "glark"))
        with caplog.at_level("WARNING"):
            annotate_corpus(["the glark leaves a wug", "wug wug"], "en", res)
        [summary] = [r for r in caplog.records
                     if "OOV words unresolved" in r.getMessage()]
        assert (summary.name, summary.getMessage()) == (
            "syllab.lexicon", "g2p: 1 of 2 OOV words unresolved")

    def test_spent_budget_named_in_the_one_unresolved_line(self, mini_lexicon, arpabet,
                                                           letters_en, caplog):
        words = [f"{w}{i}" for i in range(2) for w in OOV]
        res = Resources(mini_lexicon, arpabet, letters_en,
                        fallback=FallbackConfig(fake_argv("hang"), timeout=0.2))
        with caplog.at_level("WARNING"):
            annotate_corpus([" ".join(words), "the leaves"], "en", res)
        assert [r.getMessage() for r in caplog.records
                if "unresolved" in r.getMessage()] == [
            "g2p: 16 of 16 OOV words unresolved (16 left unsent when the G2P time "
            f"budget of {G2P_TIMEOUT_LIMIT * 0.2:g} s ran out)"]


def test_word_mapped_to_no_pronunciation_is_oov(arpabet, letters_en, monkeypatch, good):
    # a caller's own mapping may map a word to []; a loaded dictionary never does
    batches = count_calls(monkeypatch, g2p_fallback)
    lexicon = {"cat": [Pronunciation(("K", "AE1", "T"))], "wug": []}
    cat, wug = analyze_words(["cat", "wug"], Resources(lexicon, arpabet, letters_en,
                                                       fallback=fake("ok")))
    assert [args[0] for args in batches] == [["wug"]]
    assert "oov" not in cat.flags and "oov" in wug.flags
    assert strs(wug.pronunciations) == [good["wug"]]
    [wug] = analyze_words(["wug"], Resources(lexicon, arpabet, letters_en))
    assert "oov" in wug.flags and wug.pronunciations == []


@settings(max_examples=10, deadline=None)
@given(st.lists(st.text(alphabet="abeiorstz'", max_size=6), min_size=1, max_size=5))
def test_batch_equals_single_word_calls(words):
    words = words + words[::2]
    cfg = fake("ok")
    batched = strs(g2p_fallback(words, cfg))
    singles = {w: strs(g2p_fallback([w], cfg))[0] for w in set(words)}
    assert batched == [singles[w] for w in words]


class TestRunCache:
    def test_annotate_runs_g2p_once(self, tmp_path, capsys):
        count = tmp_path / "calls"
        prompts = tmp_path / "p.txt"
        prompts.write_text("the zzxq leaves\nzzxq and blorp\n"
                           "(arctic_a0001 \"blorp the wug\")\n")
        assert main(["annotate", str(prompts), "--dict", DICT, "--out",
                     str(tmp_path / "a.tsv"), "--method", "ssp-dtw",
                     "--fallback-cmd", shlex.join(fake_argv("ok", count=count))]) == 0
        assert invocations(count) == 1

    def test_annotate_empty_prompts_runs_g2p_never(self, tmp_path, capsys):
        count = tmp_path / "calls"
        prompts = tmp_path / "p.txt"
        prompts.write_text("")
        assert main(["annotate", str(prompts), "--dict", DICT, "--out",
                     str(tmp_path / "a.tsv"),
                     "--fallback-cmd", shlex.join(fake_argv("ok", count=count))]) == 0
        assert invocations(count) == 0

    def test_syllabify_without_oov_runs_g2p_never(self, tmp_path, capsys):
        count = tmp_path / "calls"
        assert main(["syllabify", "leaves", "sentence", "--dict", DICT,
                     "--fallback-cmd", shlex.join(fake_argv("ok", count=count))]) == 0
        assert invocations(count) == 0

    def test_syllabify_batches_oov_words(self, tmp_path, capsys):
        count = tmp_path / "calls"
        assert main(["syllabify", "zzxq", "leaves", "blorp", "zzxq", "--dict", DICT,
                     "--fallback-cmd", shlex.join(fake_argv("ok", count=count))]) == 0
        assert invocations(count) == 1
        rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()]
        assert [r[0] for r in rows] == ["zzxq", "leaves", "blorp", "zzxq"]
        assert rows[0][1] == "Z Z K S K"

    def test_library_call_runs_g2p_once_per_call(self, mini_lexicon, arpabet,
                                                 letters_en, tmp_path):
        count = tmp_path / "calls"
        res = Resources(mini_lexicon, arpabet, letters_en, fallback=fake("ok", count=count))
        first = syllabify_word("blorp", res, "ssp-dtw")
        assert invocations(count) == 1
        again = syllabify_word("BLORP", res, "ssp-dtw")
        assert invocations(count) == 2
        assert str(first.pronunciations[0]) == "B L AA1 R P"
        assert again == first

    def test_syllabify_dumps_alignment_of_g2p_word(self, tmp_path, capsys):
        dump = tmp_path / "aligns"
        assert main(["syllabify", "blorp", "leaves", "'", "--dict", DICT,
                     "--dump-alignment", str(dump),
                     "--fallback-cmd", shlex.join(fake_argv("ok"))]) == 0
        assert sorted(p.name for p in dump.iterdir()) == ["blorp.tsv", "leaves.tsv"]
        assert (dump / "blorp.tsv").read_text().startswith("i\tj\t")

    def test_annotate_matches_per_word_results(self, mini_lexicon, arpabet, letters_en):
        sentences = ["the zzxq leaves", "blorp and zzxq", "a wug"]
        batched = sentence_records(sentences, Resources(
            mini_lexicon, arpabet, letters_en, fallback=fake("ok")), "ssp-dtw")
        single = Resources(mini_lexicon, arpabet, letters_en, fallback=fake("ok"))
        for recs in batched:
            for rec in recs:
                assert rec == syllabify_word(rec.word, single, "ssp-dtw")


ALL_OOV = {"zzxq", "blorp", "wug"}
HOSTILE = {
    "hang": ALL_OOV, "exit": ALL_OOV, "fewer": ALL_OOV, "more": set(),
    "unknown-phones": ALL_OOV, "stderr-flood": set(), "stdout-flood": ALL_OOV,
    "non-utf8": ALL_OOV,
    "poison blorp": {"blorp"},
    # a stress mark that is a digit but not ASCII leaves the vowel unknown;
    # zzxq has no vowel, so its phones stay classifiable
    "superscript-digit": {"blorp", "wug"},
}


@pytest.mark.parametrize("mode", HOSTILE)
def test_cli_hostile_g2p_flags_rows_and_exits_0(mode, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("syllab.cli.FallbackConfig",
                        functools.partial(FallbackConfig, timeout=TIMEOUT))
    prompts = tmp_path / "p.txt"
    prompts.write_text("the zzxq leaves\nblorp and a wug\n")
    out = tmp_path / "a.tsv"
    assert main(["annotate", str(prompts), "--dict", DICT, "--out", str(out),
                 "--method", "ssp-dtw",
                 "--fallback-cmd", shlex.join(fake_argv(*mode.split()))]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    rows = {row[2]: row for row in rows}
    for word in ALL_OOV:
        assert "oov" in rows[word][8].split(",")
        assert (rows[word][7] == "oov-unresolved") == (word in HOSTILE[mode])


@pytest.mark.parametrize("command", ["foo 'bar", "   ", ()],
                         ids=["unbalanced-quote", "blank", "no-arguments"])
def test_unusable_command_rejected_when_built(command):
    with pytest.raises(ValueError):
        FallbackConfig(command)


def test_command_split_once_when_built():
    cfg = FallbackConfig("g2p --voice 'en us'", timeout=2)
    assert cfg == (("g2p", "--voice", "en us"), 2)
    assert FallbackConfig(list(cfg.command)) == cfg._replace(timeout=30.0)


@pytest.mark.parametrize("command", ["foo 'bar", "   "],
                         ids=["unbalanced-quote", "blank"])
def test_cli_malformed_fallback_cmd_ends_before_any_work(command, tmp_path, capsys,
                                                         monkeypatch):
    loads = count_calls(monkeypatch, load_pron_dict)
    prompts = tmp_path / "p.txt"
    prompts.write_text("zzxq\n")
    out = tmp_path / "a.tsv"
    assert main(["annotate", str(prompts), "--dict", DICT, "--out", str(out),
                 "--fallback-cmd", command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --fallback-cmd: ")
    assert "Traceback" not in err
    assert loads == [] and not out.exists()
