"""Batched external G2P: protocol checks, failure isolation and the per-run cache."""

import functools
import shlex
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab.cli import main
from syllab.lexicon import FallbackConfig, g2p_fallback
from syllab.pipeline import Resources, annotate_corpus, syllabify_word

from conftest import DATA

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

    def test_stderr_flood(self, good):
        assert strs(g2p_fallback(OOV, fake("stderr-flood"))) == [good[w] for w in OOV]

    def test_non_utf8_output(self, caplog):
        with caplog.at_level("WARNING"):
            assert g2p_fallback(OOV[:2], fake("non-utf8")) == [None, None]
        assert "not UTF-8" in caplog.text

    def test_poisoned_word_isolated(self, good):
        result = strs(g2p_fallback(OOV, fake("poison", "glark")))
        assert result == [None if w == "glark" else good[w] for w in OOV]

    def test_summary_warning(self, mini_lexicon, arpabet, letters_en, caplog):
        res = Resources(mini_lexicon, arpabet, letters_en,
                        fallback=fake("poison", "glark"))
        with caplog.at_level("WARNING"):
            annotate_corpus(["the glark leaves a wug", "wug wug"], "en", res)
        assert "g2p: 1 of 2 OOV words unresolved" in caplog.text


@settings(max_examples=10, deadline=None)
@given(st.lists(st.text(alphabet="abeiorstz'", max_size=6), min_size=1, max_size=5))
def test_batch_equals_single_word_calls(words):
    words = words + words[::2]
    cfg = fake("ok")
    batched = strs(g2p_fallback(words, cfg))
    singles = {w: strs(g2p_fallback([w], cfg))[0] for w in set(words)}
    assert batched == [singles[w] for w in words]


class TestRunCache:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_annotate_runs_g2p_once(self, jobs, tmp_path, capsys):
        count = tmp_path / "calls"
        prompts = tmp_path / "p.txt"
        prompts.write_text("the zzxq leaves\nzzxq and blorp\n"
                           "(arctic_a0001 \"blorp the wug\")\n")
        assert main(["annotate", str(prompts), "--dict", DICT, "--out",
                     str(tmp_path / "a.tsv"), "--method", "ssp-dtw", "--jobs", jobs,
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

    def test_library_call_fills_cache(self, mini_lexicon, arpabet, letters_en, tmp_path):
        count = tmp_path / "calls"
        res = Resources(mini_lexicon, arpabet, letters_en, fallback=fake("ok", count=count))
        first = syllabify_word("blorp", res, "ssp-dtw")
        again = syllabify_word("BLORP", res, "ssp-dtw")
        assert str(first.pronunciations[0]) == "B L AA1 R P" == str(again.pronunciations[0])
        assert invocations(count) == 1

    def test_annotate_matches_per_word_results(self, mini_lexicon, arpabet, letters_en):
        sentences = ["the zzxq leaves", "blorp and zzxq", "a wug"]
        batched = annotate_corpus(sentences, "en", Resources(
            mini_lexicon, arpabet, letters_en, fallback=fake("ok")), "ssp-dtw")
        single = Resources(mini_lexicon, arpabet, letters_en, fallback=fake("ok"))
        for ann in batched:
            for _, rec in ann.records:
                assert rec == syllabify_word(rec.word, single, "ssp-dtw")


ALL_OOV = {"zzxq", "blorp", "wug"}
HOSTILE = {
    "hang": ALL_OOV, "exit": ALL_OOV, "fewer": ALL_OOV, "more": set(),
    "unknown-phones": ALL_OOV, "stderr-flood": set(), "non-utf8": ALL_OOV,
    "poison blorp": {"blorp"},
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
