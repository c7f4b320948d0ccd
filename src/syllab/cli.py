"""Command-line interface.

Subcommands: normalize, syllabify, annotate, ablate, histogram, report.
Resource paths can be given relative to $SYLLAB_RESOURCES; defaults can be
collected in a key=value config file (explicit flags always win).  All
outputs are UTF-8 TSV/JSON with LF line endings.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import re
import sys

from . import evaluate, pipeline
from .align import alignment_debug_tsv, dtw
from .errors import ConfigurationError, DictParseError, SyllabError, open_utf8
from .lexicon import (
    CorpusFormat,
    FallbackConfig,
    Pronunciation,
    load_pron_dict,
    load_syllabified_corpus,
)
from .pipeline import (
    Resources,
    WordRecord,
    analyze_words,
    annotate_corpus,
    consistency_report,
    load_secondary_stress,
    word_record,
)
from .sonority import hierarchy_for
from .ssp import Syllabification
from .textnorm import normalize

PHONE_SYL_SEP = " . "
TEXT_SYL_SEP = "|"

RECORD_COLUMNS = ("word", "phones", "phone_syllables", "text_syllables",
                  "stress", "method", "flags")
ANNOTATION_COLUMNS = ("sentence_id", "token_index") + RECORD_COLUMNS

_FESTIVAL_LINE = re.compile(r'^\(\s*(\S+)\s+"(.*)"\s*\)\s*$')


def format_record_row(rec: WordRecord) -> str:
    phones = str(rec.pronunciations[0]) if rec.pronunciations else "-"
    return "\t".join((
        rec.word,
        phones,
        rec.phone_syll.phone_text(PHONE_SYL_SEP) if rec.phone_syll.symbols else "-",
        rec.text_syll.text(TEXT_SYL_SEP),
        "-" if rec.stress_index is None else str(rec.stress_index),
        rec.method,
        ",".join(sorted(rec.flags)) if rec.flags else "-",
    ))


def parse_record_row(row: str) -> WordRecord:
    """Rebuild a WordRecord from its TSV row (round-trip of the essentials)."""
    fields = row.rstrip("\n").split("\t")
    if len(fields) != len(RECORD_COLUMNS):
        raise ValueError(f"expected {len(RECORD_COLUMNS)} columns, got {len(fields)}")
    word, phones, phone_syl, text_syl, stress, method, flags = fields
    prons = [] if phones == "-" else [Pronunciation(tuple(phones.split()))]
    phone_syll = _syll_from_groups(
        [] if phone_syl == "-" else
        [g.split(" ") for g in phone_syl.split(PHONE_SYL_SEP)])
    text_syll = _syll_from_groups([list(p) for p in text_syl.split(TEXT_SYL_SEP)])
    return WordRecord(
        word=word,
        pronunciations=prons,
        phone_syll=phone_syll,
        text_syll=text_syll,
        stress_index=None if stress == "-" else int(stress),
        method=method,
        flags=frozenset() if flags == "-" else frozenset(flags.split(",")),
    )


def _syll_from_groups(groups) -> Syllabification:
    symbols, breaks = [], []
    for group in groups:
        if symbols:
            breaks.append(len(symbols))
        symbols.extend(group)
    return Syllabification(tuple(symbols), tuple(breaks))


def record_to_json(rec: WordRecord) -> dict:
    return {
        "word": rec.word,
        "phones": list(rec.pronunciations[0].raw) if rec.pronunciations else None,
        "variants": [list(p.raw) for p in rec.pronunciations],
        "phone_syllables": [list(s) for s in rec.phone_syll.syllables()],
        "text_syllables": ["".join(s) for s in rec.text_syll.syllables()],
        "stress_index": rec.stress_index,
        "method": rec.method,
        "flags": sorted(rec.flags),
    }


# --- configuration ------------------------------------------------------------


def _resource_path(path: str | None) -> str | None:
    if path is None:
        return None
    root = os.environ.get("SYLLAB_RESOURCES")
    if root and not os.path.isabs(path) and not os.path.exists(path):
        candidate = os.path.join(root, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _read_config_file(path) -> dict[str, str]:
    values = {}
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{line_no}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip().strip('"')
    return values


def _add_resource_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("resources")
    group.add_argument("--dict", dest="dict_path", help="pronunciation dictionary file")
    group.add_argument("--dict-format", choices=("cmu", "mfa"), default="cmu")
    group.add_argument("--lang", default="en", help="letter-domain language (en/fr/es)")
    group.add_argument("--label", default=None,
                       help="language/variant label for reports (default: derived)")
    group.add_argument("--corpus", dest="corpus_path",
                       help="syllabified-words corpus file")
    group.add_argument("--corpus-format", choices=("gutenberg", "lexique", "custom"),
                       default="gutenberg")
    group.add_argument("--word-col", type=int, default=0)
    group.add_argument("--syll-col", type=int, default=1)
    group.add_argument("--col-sep", default="\t")
    group.add_argument("--syll-sep", default="-")
    group.add_argument("--corpus-header", action="store_true",
                       help="skip the first corpus line (column header)")
    group.add_argument("--fallback-cmd", default=None,
                       help="external G2P command for OOV words")
    group.add_argument("--secondary", dest="secondary_path",
                       help="word<TAB>stress-marked-phones file for stress merging")
    group.add_argument("--phone-table", default=None,
                       help="symbol<TAB>class overrides for the phone hierarchy")
    group.add_argument("--letter-table", default=None,
                       help="symbol<TAB>class overrides for the letter hierarchy")
    group.add_argument("--lenient", action="store_true",
                       help="skip unparseable dictionary lines instead of failing")
    parser.add_argument("--method", choices=pipeline.METHOD_CHOICES,
                        default="lkp-ssp-dtw")
    parser.add_argument("--config", default=None,
                        help="key=value file of defaults (flags win)")


def _corpus_format(args) -> CorpusFormat:
    if args.corpus_format != "custom":
        fmt = CorpusFormat.preset(args.corpus_format)
        if args.corpus_header:
            fmt = CorpusFormat(fmt.syllable_separator, fmt.column_separator,
                               fmt.word_column, fmt.syllable_column, True)
        return fmt
    return CorpusFormat(
        syllable_separator=args.syll_sep,
        column_separator=args.col_sep if args.col_sep else None,
        word_column=args.word_col,
        syllable_column=args.syll_col,
        has_header=args.corpus_header,
    )


def build_resources(args) -> Resources:
    if not args.dict_path:
        raise ConfigurationError("a pronunciation dictionary is required (--dict)")
    dict_path = _resource_path(args.dict_path)
    if not os.path.exists(dict_path):
        raise ConfigurationError(f"dictionary not found: {dict_path}")
    lexicon = load_pron_dict(dict_path, args.dict_format, strict=not args.lenient)
    phoneset = "cmu-arpabet" if args.dict_format == "cmu" else "mfa-ipa"
    phone_h = hierarchy_for(phoneset, args.lang, table_path=args.phone_table)
    letter_h = hierarchy_for("letters", args.lang, table_path=args.letter_table)

    syllabified = None
    if args.corpus_path:
        corpus_path = _resource_path(args.corpus_path)
        if not os.path.exists(corpus_path):
            raise ConfigurationError(f"syllabified corpus not found: {corpus_path}")
        syllabified = load_syllabified_corpus(corpus_path, _corpus_format(args),
                                              args.lang)

    secondary = None
    if args.secondary_path:
        sec_path = _resource_path(args.secondary_path)
        if not os.path.exists(sec_path):
            raise ConfigurationError(f"secondary transcription file not found: {sec_path}")
        secondary = load_secondary_stress(sec_path, hierarchy_for("mfa-ipa", args.lang))

    fallback = FallbackConfig(args.fallback_cmd) if args.fallback_cmd else None
    label = args.label or ("CMU" if args.dict_format == "cmu" else args.lang)
    return Resources(lexicon, phone_h, letter_h, syllabified, fallback,
                     secondary, label)


def _warn_if_lookup_disabled(args, resources: Resources) -> None:
    if resources.syllabified is None and args.method.startswith("lkp"):
        print(f"warning: method {args.method} without a syllabified corpus; "
              "lookup step disabled", file=sys.stderr)


def _utf8_args(words: list[str]) -> list[str]:
    """Command-line words; one whose bytes are not UTF-8 ends the run."""
    for w in words:
        try:
            w.encode("utf-8")
        except UnicodeEncodeError:
            raise SyllabError(f"argument {w!r}: not UTF-8 text") from None
    return words


def _stdin_lines() -> list[str]:
    """Lines of stdin, decoded as strict UTF-8 whatever the locale."""
    try:
        text = sys.stdin.buffer.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SyllabError(f"<stdin>: not UTF-8 text ({exc.reason})") from None
    return [ln.rstrip("\n") for ln in io.StringIO(text, newline=None)]


def _write_output(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ---------------------------------------------------------------


def cmd_normalize(args) -> int:
    lines = _utf8_args(args.text) if args.text else _stdin_lines()
    for line in lines:
        print(" ".join(tok.core for tok in normalize(line, args.lang)))
    return 0


def cmd_syllabify(args) -> int:
    resources = build_resources(args)
    _warn_if_lookup_disabled(args, resources)
    if args.words:
        words = _utf8_args(args.words)
    else:
        words = [w for line in _stdin_lines() for w in line.split()]
    usable = []
    for w in words:
        if "\t" in w or TEXT_SYL_SEP in w:
            print(f"warning: skipping {w!r}: reserved separator characters",
                  file=sys.stderr)
        elif w:
            usable.append(w)
    analyses = {a.word: a for a in analyze_words(usable, resources)}
    records = [word_record(analyses[w.lower()], args.method) for w in usable]
    if args.format == "json":
        out = json.dumps([record_to_json(r) for r in records],
                         ensure_ascii=False, indent=2) + "\n"
    else:
        out = "".join(format_record_row(r) + "\n" for r in records)
    _write_output(out, args.out)
    if args.dump_alignment:
        _dump_alignments(analyses.values(), args.dump_alignment)
    return 0


def _dump_alignments(analyses, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for a in analyses:
        if a.phone_seq is None or a.letter_seq is None:
            continue
        path = dtw(a.phone_seq, a.letter_seq)
        with open(os.path.join(directory, f"{a.word}.tsv"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(alignment_debug_tsv(path, a.phone_seq, a.letter_seq))


def read_corpus_file(path) -> list[tuple[str, str]]:
    """(sentence_id, text) pairs from festival prompts, id<TAB>text, or plain lines."""
    pairs = []
    with open_utf8(path) as fh:
        for i, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            m = _FESTIVAL_LINE.match(line)
            if m:
                pairs.append((m.group(1), m.group(2)))
            elif "\t" in line:
                sid, _, text = line.partition("\t")
                pairs.append((sid, text))
            else:
                pairs.append((f"s{i:04d}", line))
    return pairs


def cmd_annotate(args) -> int:
    resources = build_resources(args)
    _warn_if_lookup_disabled(args, resources)
    pairs = read_corpus_file(args.corpus_file)
    sentence_keys, table = annotate_corpus([text for _, text in pairs], args.lang,
                                           resources, args.method)
    rows = {key: format_record_row(rec) for key, rec in table.items()}
    lines = ["\t".join(ANNOTATION_COLUMNS)]
    records = []
    for (sid, _), keys in zip(pairs, sentence_keys):
        for token_index, key in enumerate(keys):
            records.append(table[key])
            lines.append(f"{sid}\t{token_index}\t{rows[key]}")
    _write_output("\n".join(lines) + "\n", args.out)

    report = consistency_report(records)
    report_path = args.report
    if report_path is None and args.out and args.out != "-":
        report_path = args.out + ".report.tsv"
    _write_output(report.to_tsv(), report_path)

    if records:
        acc = evaluate.word_accuracy(records)
        print(f"word_accuracy\t{acc:.2f}\twords\t{len(records)}", file=sys.stderr)
    else:
        print("word_accuracy\tundefined (no words)", file=sys.stderr)
    return 0


def cmd_ablate(args) -> int:
    resources = build_resources(args)
    try:
        result = evaluate.run_ablation(resources, args.sample_size, args.seed)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    out = (evaluate.ablation_json(result) if args.format == "json"
           else evaluate.ablation_tsv(result))
    _write_output(out, args.out)
    return 0


def cmd_histogram(args) -> int:
    if args.annotations:
        records = read_annotation_file(args.annotations)
    else:
        resources = build_resources(args)
        words = sorted(resources.lexicon.entries)
        if args.sample is not None:
            if not 0 < args.sample <= len(words):
                raise ConfigurationError(
                    f"sample must be in [1, {len(words)}], got {args.sample}")
            words = random.Random(args.seed).sample(words, args.sample)
        # the histogram reads only the phone-domain syllables of each analysis
        records = analyze_words(words, resources)
    hist = evaluate.syllable_histogram(records)
    _write_output(evaluate.format_histogram(hist, args.format), args.out)
    return 0


def read_annotation_file(path) -> list[WordRecord]:
    records, header = [], list(ANNOTATION_COLUMNS)
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, 1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) == len(header) and fields != header:
                fields = fields[2:]  # drop sentence_id and token_index
            if len(fields) != len(RECORD_COLUMNS):
                continue  # blank line, header or foreign row
            try:
                records.append(parse_record_row("\t".join(fields)))
            except ValueError as exc:
                raise DictParseError(path, line_no, str(exc)) from None
    return records


def cmd_report(args) -> int:
    records = read_annotation_file(args.annotations)
    _write_output(consistency_report(records).to_tsv(), args.out)
    return 0


# --- entry point ----------------------------------------------------------------


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="syllab",
        description="Phonetic transcription, stress, and unified syllabification "
                    "in the pronunciation and spelling domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    by_name: dict[str, argparse.ArgumentParser] = {}

    p = by_name["normalize"] = sub.add_parser(
        "normalize", help="text to dictionary-ready tokens")
    p.add_argument("text", nargs="*", help="sentences (stdin when omitted)")
    p.add_argument("--lang", default="en")
    p.set_defaults(func=cmd_normalize)

    p = by_name["syllabify"] = sub.add_parser(
        "syllabify", help="annotate words given on argv or stdin")
    p.add_argument("words", nargs="*")
    _add_resource_args(p)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out", default=None)
    p.add_argument("--dump-alignment", default=None, metavar="DIR",
                   help="write per-word DTW path TSVs for curve plotting")
    p.set_defaults(func=cmd_syllabify)

    p = by_name["annotate"] = sub.add_parser(
        "annotate", help="annotate a sentence corpus file")
    p.add_argument("corpus_file")
    _add_resource_args(p)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_annotate)

    p = by_name["ablate"] = sub.add_parser(
        "ablate", help="per-method word accuracies on a dictionary sample")
    _add_resource_args(p)
    p.add_argument("--sample-size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

    p = by_name["histogram"] = sub.add_parser(
        "histogram", help="syllable-count distribution")
    p.add_argument("--annotations", default=None,
                   help="existing annotation TSV (otherwise the dictionary is used)")
    _add_resource_args(p)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("tsv", "csv", "json"), default="tsv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_histogram)

    p = by_name["report"] = sub.add_parser(
        "report", help="consistency report from an annotation file")
    p.add_argument("annotations")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser, by_name


def _config_defaults(path, sub_parser: argparse.ArgumentParser) -> dict:
    """The config file's values, checked and typed as defaults of `sub_parser`."""
    # only options can be configured; positionals come from the command line
    actions = {a.dest: a for a in sub_parser._actions if a.option_strings}
    defaults = {}
    for key, value in _read_config_file(path).items():
        if key not in actions or key in ("help", "config"):
            raise ConfigurationError(f"unknown config key {key!r}")
        action = actions[key]
        if isinstance(action, argparse._StoreTrueAction):
            parsed = value.lower() in ("1", "true", "yes")
        elif action.type is int:
            try:
                parsed = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"config key {key!r}: {value!r} is not an integer") from None
        else:
            parsed = value
            if action.choices and parsed not in action.choices:
                raise ConfigurationError(
                    f"config key {key!r}: {value!r} not in {sorted(action.choices)}")
        defaults[key] = parsed
    return defaults


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, by_name = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # config values become defaults, so every flag given, in any
            # spelling argparse accepts, wins over them
            sub_parser = by_name[args.command]
            sub_parser.set_defaults(**_config_defaults(args.config, sub_parser))
            args = parser.parse_args(argv)
        return args.func(args)
    except (SyllabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
