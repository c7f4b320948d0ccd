import argparse
import io
import json
import os
import shlex
import subprocess
import sys
from collections import ChainMap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab.cli import (
    ANNOTATION_COLUMNS,
    _build_parser,
    format_record_row,
    main,
    parse_record_row,
    read_annotation_file,
    read_corpus_file,
)
from syllab.evaluate import word_accuracy
from syllab.lexicon import Pronunciation
from syllab.pipeline import (
    METHOD_CHOICES,
    analyze_words,
    annotate_corpus,
    consistency_report,
    syllabify_word,
    word_record,
)

from conftest import DATA, sentence_records

SRC = str(DATA.parent.parent / "src")

DICT = str(DATA / "mini_cmu.dict")
CORPUS = str(DATA / "mini_syllables.txt")
PROMPTS = str(DATA / "plain_sentences.txt")


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


    def test_record_outside_the_vocabulary_not_written(self, mini_resources):
        rec = syllabify_word("leaves", mini_resources, "ssp")._replace(
            flags=frozenset({"made-up"}))
        with pytest.raises(ValueError, match="outside the record vocabulary"):
            format_record_row(rec)

    @pytest.mark.parametrize("change, message", [
        ({"word": ""}, "empty word"),
        ({"stress_index": 1}, "stress index 1 outside the 1 phone syllables"),
        ({"stress_index": -1}, "stress index -1 outside"),
    ], ids=["empty-word", "stress-past-last-syllable", "stress-negative"])
    def test_record_a_row_cannot_hold_not_written(self, mini_resources, change, message):
        rec = syllabify_word("leaves", mini_resources, "ssp")._replace(**change)
        with pytest.raises(ValueError, match=message):
            format_record_row(rec)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_written_rows_read_back_unchanged(self, mini_resources, data):
        # `qq` has phones the hierarchy cannot classify, so its phone
        # syllables are written "-"; `zzxq` has no phones at all
        resources = mini_resources._replace(lexicon=ChainMap(
            {"qq": [Pronunciation(("Q1",))]}, mini_resources.lexicon))
        vocabulary = sorted(mini_resources.lexicon) + ["zzxq", "3.5", "Leaves"]
        words = data.draw(st.lists(st.sampled_from(vocabulary), max_size=12)) + ["qq"]
        method = data.draw(st.sampled_from(METHOD_CHOICES))
        _, table = annotate_corpus([" ".join(words)], "en", resources, method)
        records = [*table.values(),  # annotate's, then syllabify's
                   *(word_record(a, method) for a in analyze_words(words, resources))]
        assert any(format_record_row(rec).split("\t")[1:3] == ["Q1", "-"]
                   for rec in records)
        for rec in records:
            row = format_record_row(rec)
            assert format_record_row(parse_record_row(row)) == row


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

    def test_rows_equal_annotate_rows(self, capsys, tmp_path):
        # a numeral kept as written is flagged by the word, in either command
        words = ["3.5", "2nd", "leaves", "sentence", "zzxq"]
        code, out, _ = run(capsys, "syllabify", *words, "--dict", DICT, "--corpus", CORPUS)
        assert code == 0
        assert [row.split("\t")[-1] for row in out.splitlines()[:2]] == [
            "count-mismatch,no-stress,numeral-unsupported,oov"] * 2
        prompts, annotated = tmp_path / "p.txt", tmp_path / "a.tsv"
        prompts.write_text(" ".join(words) + "\n")
        code, _, _ = run(capsys, "annotate", str(prompts), "--dict", DICT,
                         "--corpus", CORPUS, "--out", str(annotated))
        assert code == 0
        assert out.splitlines() == [row.split("\t", 2)[2] for row in
                                    annotated.read_text().splitlines()[1:]]

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
        # a line break inside an argument splits it into words, as on stdin
        code, out, err = run(capsys, "syllabify", "lea|ves", "ca\nt", "do\rg",
                             "leaves", "--dict", DICT, "--method", "ssp-dtw")
        assert code == 0
        assert [row.split("\t")[0] for row in out.split("\n")[:-1]] == [
            "ca", "t", "do", "g", "leaves"]
        assert "\r" not in out
        assert err == "warning: skipped 1 words holding the reserved '|'\n"

    def test_argument_with_line_break_read_as_stdin_lines(self, capsys, monkeypatch):
        options = ("--dict", DICT, "--method", "ssp-dtw")
        code, from_argv, argv_err = run(capsys, "syllabify", "ca\nt", "lea|ves",
                                        "a|b", *options)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"ca\nt\nlea|ves\na|b\n")))
        _, from_stdin, stdin_err = run(capsys, "syllabify", *options)
        assert code == 0 and from_argv == from_stdin
        assert [row.split("\t")[0] for row in from_argv.splitlines()] == ["ca", "t"]
        assert argv_err == stdin_err == (
            "warning: skipped 2 words holding the reserved '|'\n")

    def test_argument_split_into_words_as_a_stdin_line(self, capsys, monkeypatch):
        code, from_argv, _ = run(capsys, "syllabify", "a b", "leaves\tsentence",
                                 "--dict", DICT)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"a b\nleaves\tsentence\n")))
        _, from_stdin, _ = run(capsys, "syllabify", "--dict", DICT)
        assert code == 0 and from_argv == from_stdin
        assert [row.split("\t")[0] for row in from_argv.splitlines()] == [
            "a", "b", "leaves", "sentence"]

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
        # the gutenberg preset spelled out as layout flags
        base = ("syllabify", "beautiful", "--dict", DICT, "--corpus", CORPUS,
                "--method", "lkp-ssp-dtw")
        _, preset_out, _ = run(capsys, *base, "--corpus-format", "gutenberg")
        _, custom_out, _ = run(capsys, *base, "--col-sep", "", "--syll-sep", "-")
        assert preset_out == custom_out
        assert preset_out.split("\t")[5] == "corpus-lookup"

    @pytest.mark.parametrize("rows, layout", [
        ("beau.ti.ful\n", ["--syll-sep", "."]),
        ("beautiful,beau-ti-ful\n", ["--col-sep", ","]),
        ("beau-ti-ful\tx\tbeautiful\n", ["--col-sep", "\t", "--word-col", "2",
                                           "--syll-col", "0"]),
        ("word\tsyll\nbeautiful\tbeau-ti-ful\n", ["--corpus-format", "lexique"]),
        ("word|syll\nbeautiful|beau-ti-ful\n", ["--corpus-format", "lexique",
                                               "--col-sep", "|"]),
        ("word\nbeau-ti-ful\n", ["--corpus-header"]),
    ], ids=["syll-sep", "col-sep", "columns", "lexique", "lexique-col-sep", "header"])
    def test_layout_flags_override_the_preset(self, capsys, tmp_path, rows, layout):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(rows, encoding="utf-8")
        code, out, _ = run(capsys, "syllabify", "beautiful", "--dict", DICT,
                           "--corpus", str(corpus), *layout)
        assert code == 0
        assert out.split("\t")[3:6] == ["beau|ti|ful", "0", "corpus-lookup"]

    @pytest.mark.parametrize("layout", [
        ["--word-col", "3", "--syll-col", "7"],
        ["--syll-col", "1"],
        ["--col-sep", "", "--corpus-format", "lexique", "--word-col", "0"],
    ], ids=["gutenberg", "syll-col", "empty-col-sep"])
    def test_column_flags_without_separator_exit_2(self, capsys, layout):
        code, out, err = run(capsys, "syllabify", "beautiful", "--dict", DICT,
                             "--corpus", CORPUS, *layout)
        assert code == 2 and out == ""
        assert err == ("error: --word-col/--syll-col need a column separator "
                       "(--col-sep or --corpus-format lexique)\n")

    def test_config_column_key_without_separator_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus_path = {CORPUS}\ncorpus_format = gutenberg\n"
                       "word_col = 2\n")
        code, out, err = run(capsys, "syllabify", "beautiful", "--dict", DICT,
                             "--config", str(cfg))
        assert code == 2 and out == ""
        assert "--word-col/--syll-col need a column separator" in err

    @pytest.mark.parametrize("columns", [["--word-col", "-2", "--syll-col", "-1"],
                                         ["--syll-col", "-1"]], ids=["both", "syll"])
    def test_negative_column_exits_2(self, capsys, tmp_path, columns):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("beautiful\n")  # a row of one column
        code, out, err = run(capsys, "syllabify", "beautiful", "--dict", DICT,
                             "--corpus", str(corpus), "--col-sep", ",", *columns)
        assert code == 2 and out == ""
        assert err == "error: --word-col/--syll-col must be 0 or more\n"

    def test_config_negative_column_exits_2(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("beautiful\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus_path = {corpus}\ncol_sep = ,\nword_col = -2\n")
        code, out, err = run(capsys, "syllabify", "beautiful", "--dict", DICT,
                             "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: --word-col/--syll-col must be 0 or more\n"

    def test_empty_syllable_separator_exits_2(self, capsys):
        code, _, err = run(capsys, "syllabify", "beautiful", "--dict", DICT,
                           "--corpus", CORPUS, "--syll-sep", "")
        assert code == 2 and "--syll-sep must not be empty" in err

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

    def test_no_nucleus_word_same_row_under_every_method(self, capsys, tmp_path):
        # no DTW runs for a word without a vowel, so no method names it
        lexicon = tmp_path / "d.dict"
        lexicon.write_text("HMM  HH M\n")
        rows = {run(capsys, "syllabify", "hmm", "--dict", str(lexicon),
                    "--method", method)[1] for method in METHOD_CHOICES}
        assert rows == {"hmm\tHH M\tHH M\thmm\t-\tssp-letters\tno-nucleus,no-stress\n"}


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

    def test_units_with_reserved_separator_counted_on_stderr(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a|b cat |a\nx||y. cat the|\n")
        out_path = tmp_path / "ann.tsv"
        code, _, err = run(capsys, "annotate", str(corpus), "--dict", DICT,
                           "--method", "ssp", "--out", str(out_path))
        assert code == 0
        words = [ln.split("\t")[2] for ln in out_path.read_text().splitlines()[1:]]
        assert words == ["cat", "a", "cat", "the"]  # "|a" and "the|" still yield words
        warning, accuracy = err.splitlines()
        assert warning == "warning: dropped 2 prompt units holding the reserved '|'"
        assert accuracy.startswith("word_accuracy\t")

    @pytest.mark.parametrize("method", METHOD_CHOICES)
    def test_report_and_accuracy_equal_per_token_records(self, capsys, tmp_path,
                                                         mini_resources, method):
        # "3.5" and "2nd" are flagged numeral-unsupported alone and inside a
        # hyphenated unit alike, so each has one record; flagged words repeat
        prompts = ["3.5 zzxq a-3.5 the 3.5 sentence", "2nd x-2nd zzxq sentence.",
                   "zzxq 2nd leaves x"]
        corpus, rep = tmp_path / "c.txt", tmp_path / "rep.tsv"
        corpus.write_text("\n".join(prompts) + "\n")
        code, _, err = run(capsys, "annotate", str(corpus), "--dict", DICT,
                           "--corpus", CORPUS, "--method", method,
                           "--out", str(tmp_path / "a.tsv"), "--report", str(rep))
        assert code == 0
        tokens = [rec for recs in sentence_records(prompts, mini_resources, method)
                  for rec in recs]
        assert {(r.word, r.flags) for r in tokens if r.word == "3.5"} == {
            ("3.5", frozenset({"oov", "no-stress", "count-mismatch",
                               "numeral-unsupported"}))}
        once = [(rec, 1) for rec in tokens]
        assert rep.read_text() == consistency_report(once)
        assert err == (f"word_accuracy\t{word_accuracy(once):.2f}"
                       f"\twords\t{len(tokens)}\n")

    def test_clean_prompt_prints_only_word_accuracy(self, capsys, tmp_path):
        code, _, err = run(capsys, "annotate", PROMPTS, "--dict", DICT,
                           "--method", "ssp", "--out", str(tmp_path / "ann.tsv"))
        assert code == 0
        assert len(err.splitlines()) == 1 and err.startswith("word_accuracy\t")

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

    def test_deterministic_bytes(self, tmp_path):
        # each run in a fresh interpreter with its own string hash seed, over
        # hyphenated numerals and acronyms and flagged numerals that repeat
        prompts = tmp_path / "prompts.txt"
        prompts.write_text((DATA / "fixture_prompts.txt").read_text() + "\n".join([
            '( extra_0001 "The 1990-1995 FBI-agent report gave 3.5 of the 3.5 stars." )',
            '( extra_0002 "A 3,000-strong twenty-1 BBC-TV crew saw the 2nd-floor a-3.5." )',
            '( extra_0003 "2nd 3.5 1990-1995 the FBI agent 2nd" )']) + "\n")
        outs = []
        for seed in (1, 2, 3):
            out_path = tmp_path / f"ann{seed}.tsv"
            rep_path = tmp_path / f"rep{seed}.tsv"
            proc = subprocess.run(
                [sys.executable, "-m", "syllab.cli", "annotate", str(prompts),
                 "--dict", DICT, "--corpus", CORPUS,
                 "--out", str(out_path), "--report", str(rep_path)],
                capture_output=True, timeout=60,
                env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC,
                     "PYTHONHASHSEED": str(seed)})
            assert proc.returncode == 0, proc.stderr
            outs.append(out_path.read_bytes() + rep_path.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        rows = [row.split("\t") for row in (tmp_path / "ann1.tsv").read_text().splitlines()]
        flagged = [row[2] for row in rows if "numeral-unsupported" in row[-1]]
        assert flagged == ["3.5", "3.5", "2nd", "3.5", "2nd", "3.5", "2nd"]

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
                           "--sample-size", "10", "--seed", "1")
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

    @pytest.mark.parametrize("option", [("--dict", "nonexistent.dict"), ("--sample", "0"),
                                        ("--seed", "3")])
    def test_annotations_reject_dictionary_options(self, capsys, tmp_path, option):
        ann = tmp_path / "ann.tsv"
        ann.write_text(f"s1\t0\t{LEAVES_ROW}\n")
        expect_error(capsys, "histogram", "--annotations", str(ann), *option,
                     needle="do not apply to --annotations")


    def test_annotations_reject_every_dictionary_option(self, capsys, tmp_path):
        ann = tmp_path / "ann.tsv"
        ann.write_text(f"s1\t0\t{LEAVES_ROW}\n")
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        _, by_name = _build_parser()
        group = next(g for g in by_name["histogram"]._action_groups
                     if g.title == "dictionary")
        for action in group._group_actions:
            option = action.option_strings[0]
            value = ([] if action.nargs == 0 else
                     [next(c for c in action.choices if c != action.default)]
                     if action.choices else [str(empty)])
            expect_error(capsys, "histogram", "--annotations", str(ann), option, *value,
                         needle=f"options that do not apply to --annotations: {option}")
        expect_error(capsys, "histogram", "--annotations", str(ann),
                     "--phone-table", "nonexistent.tsv", "--lenient",
                     needle="do not apply to --annotations: --phone-table, --lenient")


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


    @pytest.mark.parametrize("value, code", [
        ("yes", 0), ("true", 0), ("no", 2), ("TRUE", 0), ("0", 2), ("ture", 2),
        ("on", 2), ("", 2)])
    def test_config_lenient(self, capsys, tmp_path, value, code):
        bad = tmp_path / "bad.dict"
        bad.write_text("CAT  K AE1 T\nJUNK\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dict_path = {bad}\nlenient = {value}\n")
        got, out, err = run(capsys, "syllabify", "cat", "--config", str(cfg))
        assert got == code
        if value.lower() in ("no", "0", "false"):  # strict: a malformed line ends the run
            assert out == "" and err == f"error: {bad}:2: expected 'WORD  PHONES...'\n"
        elif code:  # not a boolean: the run ends before loading anything
            assert out == "" and err == \
                f"error: config key 'lenient': {value!r} is not a boolean\n"
        else:  # the line is skipped
            assert out.startswith("cat\t")

    @pytest.mark.parametrize("value, method", [("true", "ssp-dtw"),
                                               ("no", "corpus-lookup")])
    def test_config_corpus_header(self, capsys, tmp_path, value, method):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("beau-ti-ful\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus_path = {corpus}\ncorpus_header = {value}\n")
        code, out, _ = run(capsys, "syllabify", "beautiful", "--dict", DICT,
                           "--config", str(cfg))
        # a header line is skipped, so the word is not in the corpus
        assert code == 0 and out.split("\t")[5] == method


class TestResourceRootEnv:
    def test_relative_paths_resolve_against_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SYLLAB_RESOURCES", str(DATA))
        code, out, _ = run(capsys, "syllabify", "leaves",
                           "--dict", "mini_cmu.dict")
        assert code == 0 and out.startswith("leaves\t")

    @pytest.mark.parametrize("option, row, column, value", [
        ("--letter-table", "w\tvowel\n", 3, "w|a|ter"),
        ("--phone-table", "W\tvowel\n", 2, "W . AO1 . T ER0"),
    ], ids=["letter-table", "phone-table"])
    def test_symbol_tables_resolve_against_env(self, capsys, monkeypatch, tmp_path,
                                               option, row, column, value):
        (tmp_path / "table.tsv").write_text(row)
        monkeypatch.setenv("SYLLAB_RESOURCES", str(tmp_path))
        monkeypatch.chdir(DATA)
        code, out, _ = run(capsys, "syllabify", "water", "--dict", "mini_cmu.dict",
                           "--method", "ssp", option, "table.tsv")
        assert code == 0 and out.split("\t")[column] == value

    @pytest.mark.parametrize("option, what", [
        ("--dict", "dictionary"),
        ("--corpus", "syllabified corpus"),
        ("--secondary", "secondary transcription file"),
        ("--phone-table", "phone table"),
        ("--letter-table", "letter table"),
    ])
    def test_missing_resource_names_it(self, capsys, monkeypatch, tmp_path,
                                       option, what):
        monkeypatch.setenv("SYLLAB_RESOURCES", str(tmp_path))
        argv = ["syllabify", "water", "--dict", DICT, option, "absent.tsv"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {what} not found: absent.tsv\n"


# options of other subcommands that would not change this one's output, each with
# a value the subcommands that take it accept
REMOVED_OPTIONS = {
    "histogram": {
        "--lang": "en", "--label": "Z", "--corpus": CORPUS,
        "--corpus-format": "gutenberg", "--word-col": "0", "--syll-col": "1",
        "--col-sep": "\t", "--syll-sep": "-", "--corpus-header": None,
        "--fallback-cmd": "false", "--secondary": str(DATA / "secondary_espeak.tsv"),
        "--letter-table": os.devnull, "--method": "ssp"},
    "ablate": {"--method": "ssp", "--fallback-cmd": "false",
               "--secondary": str(DATA / "secondary_espeak.tsv")},
    "syllabify": {"--label": "Q"},
    "annotate": {"--label": "Q"},
}
COMMAND_ARGV = {"histogram": ["histogram"], "ablate": ["ablate", "--sample-size", "5"],
                "syllabify": ["syllabify", "leaves"], "annotate": ["annotate", PROMPTS]}
REMOVED = [(command, option) for command, options in REMOVED_OPTIONS.items()
           for option in options]


class TestOptionsPerSubcommand:
    """A subcommand takes only the options that can change its output."""

    @pytest.mark.parametrize("command, option", REMOVED)
    def test_removed_option_exits_2(self, capsys, tmp_path, command, option):
        value = REMOVED_OPTIONS[command][option]
        argv = COMMAND_ARGV[command] + ["--dict", DICT, "--out", str(tmp_path / "o"),
                                        option] + ([] if value is None else [value])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", REMOVED)
    def test_removed_option_config_key_exits_2(self, capsys, tmp_path, command, option):
        key = {"--corpus": "corpus_path", "--secondary": "secondary_path"}.get(
            option, option[2:].replace("-", "_"))
        value = REMOVED_OPTIONS[command][option]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dict_path = {DICT}\n{key} = {value or 'true'}\n")
        code, out, err = run(capsys, *COMMAND_ARGV[command], "--config", str(cfg),
                             "--out", str(tmp_path / "o"))
        assert code == 2 and out == ""
        assert err == f"error: unknown config key {key!r}\n"


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
        "leaves\tL IY1 V Z\tL IY1 V Z\tleaves\t0\tsingle-vowel\t",
        "leaves\tL IY1 V Z\tL IY1 V Z\tleaves\t0\tsingle-vowel\tno-stress,,oov",
        "leaves\tL IY1 V Z\t\tleaves\t0\tsingle-vowel\t-",
        "leaves\tL IY1 V Z\tL IY1 V Z\tleaves\t7\tsingle-vowel\t-",
        "leaves\tL IY1 V Z\tL IY1 V Z\tleaves\t-1\tsingle-vowel\t-",
        "zzxq\t-\t-\tzzxq\t0\toov-unresolved\tno-stress,oov",
        "leaves\tL IY1 V Z\tL IY1 V Z\tleaves\t0\tsingle-vowel\t ",
        "leaves\tL IY1 V Z\tL IY1 V Z\tleaves\t0\tnot-a-method\t-",
        "leaves\tL IY1 V Z\tL IY1 V Z\tleaves\t0\tsingle-vowel\tmade-up-flag",
        "zzxq\t-\t-\tzzxq\t-\toov-unresolved\toov,no-stress",
        "zzxq\t-\t-\tzzxq\t-\toov-unresolved\tno-stress,no-stress",
        "leaves\tL IY1 V Z\tL IY1 V S\tleaves\t0\tsingle-vowel\t-",
        "author\tAO1 TH ER0\tAO1 . TH ER0 K\tau|thor\t0\tcorpus-lookup\t-",
        "author\tAO1 TH ER0\tAO1 . TH ER0\tau|thur\t0\tcorpus-lookup\t-",
        "author\tAO1 TH ER0\tAO1 . TH ER0\tau|th\t0\tcorpus-lookup\t-",
        "author\tAO1 TH ER0\tAO1 . TH ER0\tau|thor\t01\tcorpus-lookup\t-",
        "leaves\tL  IY1 V Z\tL IY1 V Z\tleaves\t0\tsingle-vowel\t-",
        "zzxq\t-\tZ IH1 K S\tzzxq\t-\toov-unresolved\tcount-mismatch,no-stress,oov",
    ], ids=["stress-not-int", "empty-text-syllable", "empty-flags", "empty-flag-name",
            "empty-phone-syllables", "stress-past-last-syllable", "stress-negative",
            "stress-without-phones", "blank-flag", "unknown-method", "unknown-flag",
            "unsorted-flags", "repeated-flag", "phone-syllables-not-the-phones",
            "extra-phone", "text-syllables-not-the-word", "text-syllables-short",
            "stress-leading-zero", "phones-double-space", "phone-syllables-without-phones"])
    def test_malformed_annotation_row(self, capsys, tmp_path, command, row):
        ann = tmp_path / "ann.tsv"
        ann.write_text(f"s1\t0\t{LEAVES_ROW}\ns1\t1\t{row}\n")
        args = [str(ann)] if command == "report" else ["--annotations", str(ann)]
        expect_error(capsys, command, *args, needle=f"{ann}:2: ")

    @pytest.mark.parametrize("command", ["report", "histogram"])
    @pytest.mark.parametrize("line", [
        "s1\t1\t" + LEAVES_ROW.rsplit("\t", 1)[0],
        f"s1\t1\t{LEAVES_ROW}\t-",
        "",
        "\t".join(ANNOTATION_COLUMNS),
    ], ids=["8-columns", "10-columns", "blank-line", "header-not-first"])
    def test_annotation_line_of_another_shape(self, capsys, tmp_path, command, line):
        ann = tmp_path / "ann.tsv"
        ann.write_text("\t".join(ANNOTATION_COLUMNS) + f"\ns1\t0\t{LEAVES_ROW}\n{line}\n"
                       f"s1\t2\t{LEAVES_ROW}\n")
        args = [str(ann)] if command == "report" else ["--annotations", str(ann)]
        expect_error(capsys, command, *args, needle=f"{ann}:3: ")

    @pytest.mark.parametrize("command", ["report", "histogram"])
    @pytest.mark.parametrize("index", ["abc", "-1", "01", "+1", " 1", "\uff11"],
                             ids=["letters", "negative", "leading-zero", "plus-sign",
                                  "leading-space", "fullwidth-digit"])
    def test_token_index_annotate_cannot_write(self, capsys, tmp_path, command, index):
        ann = tmp_path / "ann.tsv"
        ann.write_text(f"s1\t0\t{LEAVES_ROW}\ns1\t{index}\t{LEAVES_ROW}\n")
        args = [str(ann)] if command == "report" else ["--annotations", str(ann)]
        expect_error(capsys, command, *args, needle=f"{ann}:2: token_index")

    @pytest.mark.parametrize("command", ["report", "histogram"])
    def test_reads_an_empty_sentence_id(self, capsys, tmp_path, command):
        # annotate writes an empty id for an id<TAB>text prompt whose id is empty
        written = DATA / "annotate_empty_sentence_id.tsv"
        prompts, out = tmp_path / "p.txt", tmp_path / "a.tsv"
        prompts.write_text("\tThe author.\n")
        run(capsys, "annotate", str(prompts), "--dict", DICT, "--corpus", CORPUS,
            "--out", str(out))
        assert out.read_bytes() == written.read_bytes()
        args = [str(written)] if command == "report" else ["--annotations", str(written)]
        code, out, err = run(capsys, command, *args)
        assert code == 0 and err == "" and out

    @pytest.mark.parametrize("command", ["report", "histogram"])
    def test_reads_the_rows_of_annotate_and_syllabify(self, capsys, tmp_path, command):
        ann, syl = tmp_path / "ann.tsv", tmp_path / "syl.tsv"
        run(capsys, "annotate", PROMPTS, "--dict", DICT, "--out", str(ann))
        run(capsys, "syllabify", "leaves", "zzxq", "--dict", DICT, "--out", str(syl))
        both = tmp_path / "both.tsv"
        both.write_text(ann.read_text() + syl.read_text())
        args = [str(both)] if command == "report" else ["--annotations", str(both)]
        code, out, err = run(capsys, command, *args)
        assert code == 0 and err == "" and out

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


def test_import_loads_only_what_every_run_uses():
    # modules that serve one option (G2P, JSON, sampling) or no run at all
    unused = ("dataclasses", "typing", "inspect", "subprocess", "shlex", "json",
              "random", "logging", "contextlib")
    script = (f"import sys; sys.path.insert(0, {SRC!r}); import syllab.cli; "
              f"print(' '.join(m for m in {unused!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def with_stock_formatter(parsers):
    for p in parsers:
        p.formatter_class = argparse.HelpFormatter


@pytest.mark.parametrize("command", [["annotate", PROMPTS, "--report", os.devnull],
                                     ["ablate", "--sample-size", "100"]])
def test_run_that_prints_no_help_loads_no_help_machinery(tmp_path, monkeypatch, command):
    # argparse asks the terminal for its width, importing shutil and the
    # compression modules with it, only to format help or usage text
    help_only = ("shutil", "fnmatch", "zlib", "bz2", "lzma")
    argv = [*command, "--dict", DICT, "--corpus", CORPUS, "--out", str(tmp_path / "o")]
    script = (f"import sys; sys.path.insert(0, {SRC!r}); from syllab.cli import main; "
              f"code = main({argv!r}); "
              f"print(code, *(m for m in {help_only!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["0"], proc.stderr
    proc = subprocess.run([sys.executable, "-m", "syllab.cli", command[0], "-h"],
                          capture_output=True, text=True, timeout=60,
                          env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC,
                               "COLUMNS": "80"})
    monkeypatch.setenv("COLUMNS", "80")
    _, by_name = _build_parser()
    with_stock_formatter(by_name.values())
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == by_name[command[0]].format_help()


class TestParserIsUnchanged:
    """The parser formats and parses as a full parser with argparse's own formatter."""

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    def test_help_and_usage_equal_the_stock_formatter(self, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", columns)
        parser, by_name = _build_parser()
        parsers = [parser, *by_name.values()]
        ours = [(p.format_help(), p.format_usage()) for p in parsers]
        with_stock_formatter(parsers)
        assert ours == [(p.format_help(), p.format_usage()) for p in parsers]

    @pytest.mark.parametrize("argv", [[], ["nope"], ["annotate"],
                                      ["annotate", "x", "--bogus"]])
    def test_usage_errors_keep_their_text(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "70")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        ours = capsys.readouterr()
        parser, by_name = _build_parser()
        with_stock_formatter([parser, *by_name.values()])
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert ours == capsys.readouterr() and ours.err.startswith("usage: syllab")

    @pytest.mark.parametrize("name", list(_build_parser()[1]))
    def test_parser_for_a_name_has_the_full_parsers_actions(self, name):
        def actions(p):
            return [(a.option_strings, a.dest, a.default, a.choices) for a in p._actions]

        full_parser, full = _build_parser()
        parser, named = _build_parser([name])
        assert actions(named[name]) == actions(full[name])
        assert named[name].get_default("func") is full[name].get_default("func")
        assert parser.format_help() == full_parser.format_help()
        # the other subcommands are listed, with their help only
        assert all(actions(p) == [(["-h", "--help"], "help", argparse.SUPPRESS, None)]
                   for other, p in named.items() if other != name)


@pytest.mark.parametrize("extra", [(), ("--fallback-cmd",
                                        f"{sys.executable} {DATA / 'fake_g2p.py'} ok")])
def test_run_that_warns_nothing_never_imports_logging(tmp_path, extra):
    # the second run sends OOV prompt words to a G2P that resolves them all;
    # the letters of "café" are not in the English letter table
    prompts = tmp_path / "p.txt"
    prompts.write_text("The author can write a sentence.\nBlorping zorbles.\n"
                       "The café.\n")
    argv = ["annotate", str(prompts), "--dict", DICT, "--corpus", CORPUS,
            "--out", str(tmp_path / "a.tsv"), *extra]
    script = (f"import sys; sys.path.insert(0, {SRC!r}); from syllab.cli import main; "
              f"code = main({argv!r}); print(code, 'logging' in sys.modules)")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["0", "False"], proc.stderr
    assert "warning" not in proc.stderr


def test_annotate_one_huge_oov_token_ends(tmp_path):
    # break detection takes time linear in the length of a word
    prompts = tmp_path / "p.txt"
    prompts.write_text("ba" * 200_000 + "\n")
    out = tmp_path / "a.tsv"
    proc = subprocess.run([sys.executable, "-m", "syllab.cli", "annotate", str(prompts),
                           "--dict", DICT, "--corpus", CORPUS, "--out", str(out)],
                          capture_output=True, text=True, timeout=30,
                          env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    row = out.read_text().splitlines()[1].split("\t")
    assert row[5] == "|".join(["ba"] * 200_000) and row[8] == "count-mismatch,no-stress,oov"


def run_limited(argv, tmp_path):
    """Run the CLI in a child whose address space is capped at 1 GiB."""
    script = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from syllab.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=30, cwd=tmp_path,
                          env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC})


def test_annotate_with_g2p_flooding_stdout_ends(tmp_path):
    # the G2P prints without end; the run reads at most the output cap per
    # word, kills it and flags the word, well before the 30 s G2P timeout
    prompts = tmp_path / "p.txt"
    prompts.write_text("the zzxq leaves\n")
    fake = shlex.join([sys.executable, "-I", "-S", str(DATA / "fake_g2p.py"),
                       "stdout-flood"])
    proc = run_limited(["annotate", str(prompts), "--dict", DICT, "--out", "a.tsv",
                        "--fallback-cmd", fake], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "printed more than 4096 bytes for 1 words" in proc.stderr
    row = (tmp_path / "a.tsv").read_text().splitlines()[2].split("\t")
    assert row[2] == "zzxq" and "oov" in row[8].split(",")


def test_syllabify_dictionary_word_past_dtw_budget(tmp_path):
    # a 20,000-letter word would need a 30,000 x 30,000 cost matrix
    word = "ba" * 10_000
    dictionary = tmp_path / "long.dict"
    dictionary.write_text(f"{word.upper()}  " + " ".join(["B AA1"] + ["B AA0"] * 9_999)
                          + "\n")
    proc = run_limited(["syllabify", word, "--dict", str(dictionary),
                        "--method", "ssp-dtw"], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    row = proc.stdout.splitlines()[0].split("\t")
    assert row[3] == "|".join(["ba"] * 10_000)
    assert row[5] == "ssp-letters" and "projection-skipped" in row[6].split(",")


def test_annotate_g2p_word_past_dtw_budget(tmp_path):
    prompts = tmp_path / "p.txt"
    prompts.write_text("ba" * 10_000 + "\n")
    out = tmp_path / "a.tsv"
    proc = run_limited(["annotate", str(prompts), "--dict", DICT, "--method", "ssp-dtw",
                        "--fallback-cmd", f"{sys.executable} {DATA / 'fake_g2p.py'} ok",
                        "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    row = out.read_text().splitlines()[1].split("\t")
    assert row[7] == "ssp-letters"
    assert row[8].split(",") == ["oov", "projection-skipped"]
