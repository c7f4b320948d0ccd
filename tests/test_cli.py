import io
import json
import os
import subprocess
import sys

import pytest

from syllab.cli import (
    format_record_row,
    main,
    parse_record_row,
    read_annotation_file,
    read_corpus_file,
)
from syllab.pipeline import syllabify_word

from conftest import DATA

SRC = str(DATA.parent.parent / "src")

DICT = str(DATA / "mini_cmu.dict")
CORPUS = str(DATA / "mini_syllables.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRecordRows:
    def test_leaves_row(self, mini_resources):
        rec = syllabify_word("leaves", mini_resources, "lkp-ssp-dtw")
        assert format_record_row(rec) == \
            "leaves\tL IY1 V Z\tL IY1 V Z\tleaves\t0\tsingle-vowel\t-"

    def test_sentence_row_ssp_dtw(self, mini_resources):
        rec = syllabify_word("sentence", mini_resources, "ssp-dtw")
        row = format_record_row(rec)
        assert row.split("\t")[3] == "sen|tence"
        assert row.split("\t")[2] == "S EH1 N . T AH0 N S"

    def test_round_trip(self, mini_resources):
        for word in ("leaves", "sentence", "oceanic", "the", "zzxq", "o'clock"):
            rec = syllabify_word(word, mini_resources, "lkp-ssp-dtw")
            back = parse_record_row(format_record_row(rec))
            assert back.word == rec.word
            assert back.method == rec.method
            assert back.flags == rec.flags
            assert back.stress_index == rec.stress_index
            assert back.phone_syll.n_syllables == rec.phone_syll.n_syllables
            assert back.text_syll == rec.text_syll
            if rec.pronunciations:
                assert back.pronunciations[0] == rec.pronunciations[0]


class TestNormalizeCommand:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "normalize", "I saw 2 cats.")
        assert code == 0 and out == "i saw two cats\n"

    def test_acronym(self, capsys):
        code, out, _ = run(capsys, "normalize", "OK")
        assert code == 0 and out == "o k\n"


class TestSyllabifyCommand:
    def test_words_tsv(self, capsys):
        code, out, _ = run(capsys, "syllabify", "leaves", "sentence",
                           "--dict", DICT, "--corpus", CORPUS)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("leaves\t")
        assert lines[1].split("\t")[3] == "sen|tence"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "syllabify", "oceanic", "--dict", DICT,
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data[0]["text_syllables"] == ["o", "ce", "a", "nic"]
        assert data[0]["method"] == "ssp-dtw"

    def test_missing_dict_exits_2(self, capsys):
        code, _, err = run(capsys, "syllabify", "leaves", "--dict", "/no/such.dict")
        assert code == 2 and "not found" in err

    def test_no_dict_exits_2(self, capsys):
        code, _, err = run(capsys, "syllabify", "leaves")
        assert code == 2 and "required" in err

    def test_flags_do_not_fail_run(self, capsys):
        code, out, _ = run(capsys, "syllabify", "zzxq", "--dict", DICT)
        assert code == 0
        assert "oov" in out

    def test_dump_alignment(self, capsys, tmp_path):
        dump = tmp_path / "aligns"
        code, _, _ = run(capsys, "syllabify", "sentence", "--dict", DICT,
                         "--dump-alignment", str(dump))
        assert code == 0
        assert (dump / "sentence.tsv").read_text().startswith("i\tj\t")

    def test_lookup_method_without_corpus_warns(self, capsys):
        _, _, err = run(capsys, "syllabify", "leaves", "--dict", DICT)
        assert "lookup step disabled" in err
        _, _, err = run(capsys, "syllabify", "leaves", "--dict", DICT, "--method", "ssp")
        assert err == ""

    def test_method_choice(self, capsys):
        code, out, _ = run(capsys, "syllabify", "sentence", "--dict", DICT,
                           "--method", "ssp")
        assert out.split("\t")[3] == "sen|ten|ce"

    def test_reserved_characters_skipped_with_warning(self, capsys):
        code, out, err = run(capsys, "syllabify", "lea|ves", "leaves",
                             "--dict", DICT)
        assert code == 0
        assert out.startswith("leaves\t") and out.count("\n") == 1
        assert "reserved separator" in err

    def test_words_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"leaves\nsentence oceanic\n")))
        code, out, _ = run(capsys, "syllabify", "--dict", DICT)
        assert code == 0
        assert [ln.split("\t")[0] for ln in out.strip().split("\n")] == \
            ["leaves", "sentence", "oceanic"]

    def test_letter_table_override(self, capsys, tmp_path):
        table = tmp_path / "letters.tsv"
        table.write_text("w\tvowel\n")
        base = ("syllabify", "water", "--dict", DICT, "--method", "ssp")
        _, plain, _ = run(capsys, *base)
        _, patched, _ = run(capsys, *base, "--letter-table", str(table))
        assert plain.split("\t")[3] == "wa|ter"
        assert patched.split("\t")[3] == "w|a|ter"

    def test_custom_corpus_format_matches_preset(self, capsys):
        base = ("syllabify", "beautiful", "--dict", DICT, "--corpus", CORPUS,
                "--method", "lkp-ssp-dtw")
        _, preset_out, _ = run(capsys, *base, "--corpus-format", "gutenberg")
        _, custom_out, _ = run(capsys, *base, "--corpus-format", "custom",
                               "--col-sep", "", "--syll-sep", "-")
        assert preset_out == custom_out
        assert preset_out.split("\t")[5] == "corpus-lookup"

    def test_non_ascii_stress_digit_kept_and_flagged(self, capsys, tmp_path):
        # ARPABET stress digits are ASCII; an Arabic-Indic one is not stress
        lexicon = tmp_path / "d.dict"
        lexicon.write_text("BLORP  B L AO\u0661\n", encoding="utf-8")
        code, out, _ = run(capsys, "syllabify", "blorp", "--dict", str(lexicon))
        assert code == 0
        assert out == ("blorp\tB L AO\u0661\t-\tblorp\t-\toov-unresolved\t"
                       "count-mismatch,no-stress,oov\n")

    def test_lenient_dictionary_loading(self, capsys, tmp_path):
        bad = tmp_path / "bad.dict"
        bad.write_text("CAT  K AE1 T\nJUNK\n")
        code, _, err = run(capsys, "syllabify", "cat", "--dict", str(bad))
        assert code == 2
        code, out, _ = run(capsys, "syllabify", "cat", "--dict", str(bad),
                           "--lenient")
        assert code == 0 and out.startswith("cat\t")


class TestCorpusReader:
    def test_festival_prompts(self):
        pairs = read_corpus_file(DATA / "fixture_prompts.txt")
        assert pairs[0][0] == "fixture_0001"
        assert pairs[0][1].startswith("Author of the danger trail")
        assert len(pairs) == 5

    def test_plain_lines(self):
        pairs = read_corpus_file(DATA / "plain_sentences.txt")
        assert pairs[0] == ("s0001", "The author can write a sentence.")

    def test_id_tab_lines(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("x1\tHello there.\nx2\tGood day.\n")
        assert read_corpus_file(p) == [("x1", "Hello there."), ("x2", "Good day.")]


class TestAnnotateCommand:
    def test_annotation_file_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "ann.tsv"
        rep_path = tmp_path / "rep.tsv"
        code, _, err = run(capsys, "annotate", str(DATA / "fixture_prompts.txt"),
                           "--dict", DICT, "--corpus", CORPUS,
                           "--out", str(out_path), "--report", str(rep_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("sentence_id\ttoken_index\t")
        first = lines[1].split("\t")
        assert first[0] == "fixture_0001" and first[2] == "author"
        assert "word_accuracy" in err
        assert rep_path.exists()

    def test_acronym_and_numeral_words_annotated(self, capsys, tmp_path):
        out_path = tmp_path / "ann.tsv"
        code, _, _ = run(capsys, "annotate", str(DATA / "fixture_prompts.txt"),
                         "--dict", DICT, "--out", str(out_path))
        words = [ln.split("\t")[2] for ln in out_path.read_text().splitlines()[1:]
                 if ln.split("\t")[0] == "fixture_0005"]
        assert words == ["i", "saw", "two", "cats", "and", "the", "b", "b", "c", "show"]

    def test_empty_corpus(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out_path = tmp_path / "ann.tsv"
        code, _, err = run(capsys, "annotate", str(empty), "--dict", DICT,
                           "--out", str(out_path))
        assert code == 0 and "undefined" in err

    def test_oov_token_isolated(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the qqtrx leaves\n")
        out_path = tmp_path / "ann.tsv"
        code, _, _ = run(capsys, "annotate", str(corpus), "--dict", DICT,
                         "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 3
        assert "oov" in rows[1]

    def test_deterministic_bytes(self, capsys, tmp_path):
        outs = []
        for i in range(3):
            out_path = tmp_path / f"ann{i}.tsv"
            rep_path = tmp_path / f"rep{i}.tsv"
            code, _, _ = run(capsys, "annotate", str(DATA / "fixture_prompts.txt"),
                             "--dict", DICT, "--corpus", CORPUS,
                             "--out", str(out_path), "--report", str(rep_path))
            assert code == 0
            outs.append(out_path.read_bytes() + rep_path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_round_trip_via_reader(self, capsys, tmp_path):
        out_path = tmp_path / "ann.tsv"
        run(capsys, "annotate", str(DATA / "fixture_prompts.txt"),
            "--dict", DICT, "--out", str(out_path))
        records = read_annotation_file(out_path)
        assert len(records) == 40
        assert all(rec.word for rec in records)


class TestAblateCommand:
    def test_tsv_output(self, capsys):
        code, out, _ = run(capsys, "ablate", "--dict", DICT, "--corpus", CORPUS,
                           "--sample-size", "25", "--seed", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#") and "seed=7" in lines[0]
        assert len(lines) == 6  # header comment, column header, 4 methods

    def test_reproducible(self, capsys):
        args = ("ablate", "--dict", DICT, "--corpus", CORPUS,
                "--sample-size", "25", "--seed", "9")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_absent_cells_without_corpus(self, capsys):
        code, out, _ = run(capsys, "ablate", "--dict", DICT,
                           "--sample-size", "10", "--seed", "1",
                           "--method", "ssp")
        assert code == 0
        assert "lkp-ssp\t-" in out and "lkp-ssp-dtw\t-" in out

    def test_oversized_sample_exits_2(self, capsys):
        code, _, err = run(capsys, "ablate", "--dict", DICT,
                           "--sample-size", "99999")
        assert code == 2 and "sample_size" in err


class TestHistogramCommand:
    def test_lexicon_histogram(self, capsys):
        code, out, _ = run(capsys, "histogram", "--dict", DICT)
        assert code == 0
        assert out.splitlines()[0] == "n_syllables\tpercentage"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "histogram", "--dict", DICT, "--format", "csv")
        assert code == 0 and out.splitlines()[0] == "n_syllables,percentage"

    def test_from_annotations(self, capsys, tmp_path):
        out_path = tmp_path / "ann.tsv"
        run(capsys, "annotate", str(DATA / "plain_sentences.txt"),
            "--dict", DICT, "--out", str(out_path))
        code, out, _ = run(capsys, "histogram", "--annotations", str(out_path))
        assert code == 0
        hist = dict(line.split("\t") for line in out.splitlines()[1:])
        assert "1" in hist

    def test_no_lookup_warning(self, capsys):
        # the histogram does not depend on --method, so nothing to warn about
        code, _, err = run(capsys, "histogram", "--dict", DICT)
        assert code == 0 and err == ""

    def test_sampled(self, capsys):
        code, out, _ = run(capsys, "histogram", "--dict", DICT,
                           "--sample", "20", "--seed", "3")
        assert code == 0


class TestReportCommand:
    def test_report_from_annotations(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the qqtrx leaves\n")
        out_path = tmp_path / "ann.tsv"
        run(capsys, "annotate", str(corpus), "--dict", DICT, "--out", str(out_path))
        code, out, _ = run(capsys, "report", str(out_path))
        assert code == 0
        assert "oov" in out and out.startswith("# flag counts")


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dict_path = {DICT}\nmethod = ssp\n")
        code, out, _ = run(capsys, "syllabify", "sentence", "--config", str(cfg))
        assert code == 0
        assert out.split("\t")[3] == "sen|ten|ce"

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dict_path = {DICT}\nmethod = ssp\n")
        code, out, _ = run(capsys, "syllabify", "sentence", "--config", str(cfg),
                           "--method", "ssp-dtw")
        assert code == 0
        assert out.split("\t")[3] == "sen|tence"

    @pytest.mark.parametrize("flag", [["--meth", "ssp-dtw"], ["--meth=ssp-dtw"],
                                      ["--method=ssp-dtw"]])
    def test_abbreviated_flags_win_over_config(self, capsys, tmp_path, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dict_path = {DICT}\nmethod = ssp\n")
        code, out, _ = run(capsys, "syllabify", "sentence", "--config", str(cfg),
                           *flag)
        assert code == 0
        assert out.split("\t")[3:6] == ["sen|tence", "0", "ssp-dtw"]

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_key = 1\n")
        code, _, err = run(capsys, "syllabify", "x", "--config", str(cfg))
        assert code == 2 and "no_such_key" in err

    def test_positional_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dict_path = {DICT}\nwords = leaves\n")
        code, out, err = run(capsys, "syllabify", "--config", str(cfg))
        assert code == 2 and out == "" and "unknown config key 'words'" in err

    def test_value_outside_choices_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dict_path = {DICT}\nmethod = dtw\n")
        code, _, err = run(capsys, "syllabify", "x", "--config", str(cfg))
        assert code == 2 and "config key 'method': 'dtw' not in" in err


class TestResourceRootEnv:
    def test_relative_paths_resolve_against_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SYLLAB_RESOURCES", str(DATA))
        code, out, _ = run(capsys, "syllabify", "leaves",
                           "--dict", "mini_cmu.dict")
        assert code == 0 and out.startswith("leaves\t")


NOT_UTF8 = b"leaves\t\xff\xfe sentence\n"
LEAVES_ROW = "leaves\tL IY1 V Z\tL IY1 V Z\tleaves\t0\tsingle-vowel\t-"


def expect_error(capsys, *argv, needle=""):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines()[-1].startswith("error: ") and needle in err


class TestUnreadableInputs:
    """Bad input files end in `error: ...` and exit 2, never a traceback."""

    def test_prompt_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "prompts.txt"
        bad.write_bytes(NOT_UTF8)
        expect_error(capsys, "annotate", str(bad), "--dict", DICT,
                     "--out", str(tmp_path / "a.tsv"), needle=f"{bad}: not UTF-8")

    def test_secondary_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "secondary.tsv"
        bad.write_bytes(NOT_UTF8)
        expect_error(capsys, "syllabify", "leaves", "--dict", DICT,
                     "--secondary", str(bad), needle=f"{bad}: not UTF-8")

    @pytest.mark.parametrize("option", ["--phone-table", "--letter-table"])
    def test_symbol_table_not_utf8(self, capsys, tmp_path, option):
        bad = tmp_path / "table.tsv"
        bad.write_bytes(b"\xff\tvowel\n")
        expect_error(capsys, "syllabify", "leaves", "--dict", DICT,
                     option, str(bad), needle=f"{bad}: not UTF-8")

    def test_config_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "run.cfg"
        bad.write_bytes(b"method = \xff\n")
        expect_error(capsys, "syllabify", "leaves", "--config", str(bad),
                     needle=f"{bad}: not UTF-8")

    @pytest.mark.parametrize("command", ["report", "histogram"])
    def test_annotation_file_not_utf8(self, capsys, tmp_path, command):
        bad = tmp_path / "ann.tsv"
        bad.write_bytes(NOT_UTF8)
        args = [str(bad)] if command == "report" else ["--annotations", str(bad)]
        expect_error(capsys, command, *args, needle=f"{bad}: not UTF-8")

    @pytest.mark.parametrize("command", ["report", "histogram"])
    @pytest.mark.parametrize("row", [
        "leaves\tL IY1 V Z\tL IY1 V Z\tleaves\tfirst\tsingle-vowel\t-",
        "ab\tAE1 B\tAE1 B\ta||b\t0\tssp-dtw\t-",
    ], ids=["stress-not-int", "empty-text-syllable"])
    def test_malformed_annotation_row(self, capsys, tmp_path, command, row):
        ann = tmp_path / "ann.tsv"
        ann.write_text(f"s1\t0\t{LEAVES_ROW}\ns1\t1\t{row}\n")
        args = [str(ann)] if command == "report" else ["--annotations", str(ann)]
        expect_error(capsys, command, *args, needle=f"{ann}:2: ")

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_histogram_sample_below_one(self, capsys, sample):
        expect_error(capsys, "histogram", "--dict", DICT, "--sample", sample,
                     needle="sample must be in [1, ")

    def test_config_int_option_not_integer(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dict_path = {DICT}\nsample_size = abc\n")
        expect_error(capsys, "ablate", "--config", str(cfg),
                     needle="'sample_size': 'abc' is not an integer")

    def test_config_jobs_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dict_path = {DICT}\njobs = 2\n")
        expect_error(capsys, "annotate", str(DATA / "plain_sentences.txt"),
                     "--config", str(cfg), needle="unknown config key 'jobs'")


class TestNonUtf8Words:
    """Words on stdin or argv that are not UTF-8 end in `error:` and exit 2."""

    @pytest.mark.parametrize("argv", [["normalize"], ["syllabify", "--dict", DICT]])
    def test_stdin_not_utf8(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"leaves\ncaf\xe9\n")))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith("error: <stdin>: not UTF-8")

    def test_stdin_line_endings(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"one\r\ntwo\rthree")))
        code, out, _ = run(capsys, "normalize")
        assert code == 0 and out == "one\ntwo\nthree\n"

    @pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
    @pytest.mark.parametrize("source", ["stdin", "argv"])
    @pytest.mark.parametrize("command", ["normalize", "syllabify"])
    def test_process_rejects_non_utf8(self, tmp_path, locale, source, command):
        # the interpreter decodes stdin and argv by the locale, so pin it
        env = {"PATH": os.environ.get("PATH", ""), "LC_ALL": locale, "PYTHONPATH": SRC}
        argv = [sys.executable, "-m", "syllab.cli", command]
        if command == "syllabify":
            argv += ["--dict", DICT, "--out", str(tmp_path / "out.tsv")]
        word = "café".encode("latin-1")
        if source == "argv":
            argv.append(word)
        proc = subprocess.run(argv, input=word + b"\n" if source == "stdin" else b"",
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr.splitlines()[-1].startswith(b"error: ")
        assert b"not UTF-8" in proc.stderr and b"Traceback" not in proc.stderr

    def test_process_accepts_utf8(self, tmp_path):
        env = {"PATH": os.environ.get("PATH", ""), "LC_ALL": "C", "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-m", "syllab.cli", "normalize"],
                              input="café\n".encode(), capture_output=True,
                              env=env, timeout=60)
        assert proc.returncode == 0 and proc.stdout == "café\n".encode()
