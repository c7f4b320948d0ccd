"""Whole-pipeline robustness: random dictionaries must never break invariants,
and no input file or stdin, however malformed, may crash the command line."""

import contextlib
import io
import random
import string
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syllab.cli import main
from syllab.lexicon import Pronunciation
from syllab.pipeline import Resources, syllabify_word
from syllab.sonority import hierarchy_for

from conftest import DATA

ARPABET = ("AA AE AH AO AW AY B CH D DH EH ER EY F G HH IH IY JH K L M "
           "N NG OW OY P R S SH T TH UH UW V W Y Z ZH").split()
VOWELS = set("AA AE AH AO AW AY EH ER EY IH IY OW OY UH UW".split())

ARPABET_H = hierarchy_for("cmu-arpabet")
LETTERS_H = hierarchy_for("letters", "en")


def random_entry(rng: random.Random):
    word = "".join(rng.choice(string.ascii_lowercase + "'")
                   for _ in range(rng.randint(1, 14)))
    phones = []
    for _ in range(rng.randint(1, 10)):
        sym = rng.choice(ARPABET)
        stress = rng.choice("012") if sym in VOWELS else ""
        phones.append(sym + stress)
    return word, Pronunciation(tuple(phones))


@given(st.integers(min_value=0, max_value=2 ** 63 - 1))
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_dictionary_entries_hold_invariants(seed):
    rng = random.Random(seed)
    word, pron = random_entry(rng)
    resources = Resources({word: [pron]}, ARPABET_H, LETTERS_H)
    for method in ("ssp", "ssp-dtw", "lkp-ssp", "lkp-ssp-dtw"):
        rec = syllabify_word(word, resources, method)
        # text always re-concatenates to the word
        assert "".join(rec.text_syll.symbols) == word
        # flag definition is exact
        assert (("count-mismatch" in rec.flags)
                == (rec.phone_syll.n_syllables != rec.text_syll.n_syllables))
        # phone syllables partition the pronunciation
        assert sum(len(s) for s in rec.phone_syll.syllables()) == len(pron.raw)
        # stress index, when set, points at a real syllable
        if rec.stress_index is not None:
            assert 0 <= rec.stress_index < rec.phone_syll.n_syllables
        nuclei = sum(1 for p in pron.raw if p.rstrip("012") in VOWELS)
        assert rec.phone_syll.n_syllables == max(1, nuclei)
        if nuclei == 0:
            assert "no-nucleus" in rec.flags
        if nuclei == 1:
            assert rec.method == "single-vowel"
            assert rec.text_syll.n_syllables == 1


@pytest.mark.parametrize("seed", range(6))
def test_bulk_random_lexicon_annotation(seed):
    rng = random.Random(1000 + seed)
    entries = {}
    while len(entries) < 120:
        word, pron = random_entry(rng)
        entries.setdefault(word, []).append(pron)
    resources = Resources(entries, ARPABET_H, LETTERS_H)
    for word in entries:
        rec = syllabify_word(word, resources, "ssp-dtw")
        if not rec.flags:
            assert rec.phone_syll.n_syllables == rec.text_syll.n_syllables


# pieces of every input format, so that random files often come close to valid ones
FRAGMENTS = [
    b"\n", b"\n", b"\t", b"\t", b" ", b"  ", b"leaves", b"LEAVES", b"a", b"ab", b"zzxq",
    b"L IY1 V Z", b"AH0", b"B", b"AE1 B", "ˈæ b".encode(), "l ˈi v z".encode(),
    b"-", b"|", b"||", b" . ", b"0", b"1", b"x", b"=", b" = ", b"#", b";;;", b"(1)",
    b'(s1 "', b'")', b"3.5", b"1999", b"BBC", b"s1", b"single-vowel", b"oov",
    b"method", b"ssp", b"sample_size", b"seed", b"lenient", b"true", b"lang", b"fr",
    b"dict_format", b"mfa", b"jobs", b"word_col", b"corpus_format", b"custom",
    b"\xff", b"\xc3", b"\xe2\x80", b"\r", b"\x00", b"\x0c", "\u2028".encode(),
]
hostile_files = st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.binary(max_size=3)),
                         max_size=40).map(b"".join)

DICT = str(DATA / "mini_cmu.dict")
PROMPTS = str(DATA / "plain_sentences.txt")
# each command reads the fuzzed file F; its --out is always given on the command
# line, so a fuzzed config file cannot send output outside the temporary directory
COMMANDS = {
    "prompt": ["annotate", "F", "--dict", DICT, "--corpus", str(DATA / "mini_syllables.txt")],
    "dict": ["syllabify", "leaves", "ab", "a", "--dict", "F"],
    "dict-lenient": ["syllabify", "leaves", "ab", "a", "--dict", "F", "--lenient"],
    "corpus": ["syllabify", "leaves", "ab", "about", "--dict", DICT, "--corpus", "F"],
    "secondary": ["annotate", PROMPTS, "--dict", DICT, "--secondary", "F"],
    "annotation-report": ["report", "F"],
    "annotation-histogram": ["histogram", "--annotations", "F"],
    "config": ["histogram", "--dict", DICT, "--config", "F"],
}


@pytest.mark.parametrize("kind", COMMANDS)
@given(data=hostile_files)
@settings(max_examples=30, deadline=None)
def test_cli_survives_hostile_input_file(kind, data):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        path = Path(tmp) / "input"
        path.write_bytes(data)
        argv = [str(path) if arg == "F" else arg for arg in COMMANDS[kind]]
        code = main(argv + ["--out", str(Path(tmp) / "out")])
    err = stderr.getvalue()
    assert "Traceback" not in err
    assert code == 0 or (code == 2 and err.splitlines()[-1].startswith("error: "))


# stdin is decoded as strict UTF-8 by the program itself, whatever the locale;
# tests/test_cli.py runs the same checks in a real process under pinned locales
STDIN_COMMANDS = {
    "normalize": ["normalize"],
    "syllabify": ["syllabify", "--dict", DICT],
}


@pytest.mark.parametrize("command", STDIN_COMMANDS)
@given(data=hostile_files)
@settings(max_examples=40, deadline=None)
def test_cli_survives_hostile_stdin(command, data):
    stdout, stderr = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data))
    with tempfile.TemporaryDirectory() as tmp, mock.patch("sys.stdin", stdin), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        out = Path(tmp) / "out"
        argv = STDIN_COMMANDS[command] + (["--out", str(out)] if command == "syllabify" else [])
        code = main(argv)
        written = out.read_bytes() if out.exists() else stdout.getvalue().encode("utf-8")
    err = stderr.getvalue()
    assert "Traceback" not in err
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 2 and err.splitlines()[-1].startswith("error: <stdin>: not UTF-8")
        assert written == b""
    else:
        assert code == 0 or (code == 2 and err.splitlines()[-1].startswith("error: "))
        written.decode("utf-8")  # output stays UTF-8
