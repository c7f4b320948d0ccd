"""Command-line interface.

Subcommands: normalize, syllabify, annotate, ablate, histogram, report.
Resource paths can be given relative to $SYLLAB_RESOURCES; defaults can be
collected in a key=value config file (explicit flags always win).  All
outputs are UTF-8 TSV/JSON with LF line endings.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from . import evaluate, pipeline
from .errors import ConfigurationError, SyllabError
from .lexicon import (
    CorpusFormat,
    FallbackConfig,
    load_pron_dict,
    load_syllabified_corpus,
    _parse_phones,
)
from .pipeline import (
    Resources,
    WordRecord,
    annotate_corpus,
    consistency_report,
    load_secondary_stress,
    resolve_oov,
    syllabify_word,
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
    phones = str(rec.pronunciations[rec.chosen_variant]) if rec.pronunciations else "-"
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
    prons = []
    if phones != "-":
        prons = [_parse_phones(phones.split(), "cmu")]
    phone_syll = _syll_from_groups(
        [] if phone_syl == "-" else
        [g.split(" ") for g in phone_syl.split(PHONE_SYL_SEP)])
    text_syll = _syll_from_groups([list(p) for p in text_syl.split(TEXT_SYL_SEP)])
    return WordRecord(
        word=word,
        pronunciations=prons,
        chosen_variant=0 if prons else None,
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
        "phones": list(rec.pronunciations[rec.chosen_variant].raw)
                  if rec.pronunciations else None,
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
    with open(path, encoding="utf-8") as fh:
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
    lexicon = load_pron_dict(dict_path, args.dict_format, args.lang,
                             strict=not args.lenient)
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
    elif args.method.startswith("lkp"):
        print(f"warning: method {args.method} without a syllabified corpus; "
              "lookup step disabled", file=sys.stderr)

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


def _write_output(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ---------------------------------------------------------------


def cmd_normalize(args) -> int:
    lines = args.text if args.text else [ln.rstrip("\n") for ln in sys.stdin]
    for line in lines:
        print(" ".join(tok.core for tok in normalize(line, args.lang)))
    return 0


def cmd_syllabify(args) -> int:
    resources = build_resources(args)
    if args.words:
        words = list(args.words)
    else:
        words = [w for line in sys.stdin for w in line.split()]
    usable = []
    for w in words:
        if "\t" in w or TEXT_SYL_SEP in w:
            print(f"warning: skipping {w!r}: reserved separator characters",
                  file=sys.stderr)
        elif w:
            usable.append(w)
    resolve_oov(usable, resources)
    records = [syllabify_word(w, resources, args.method) for w in usable]
    if args.format == "json":
        out = json.dumps([record_to_json(r) for r in records],
                         ensure_ascii=False, indent=2) + "\n"
    else:
        out = "".join(format_record_row(r) + "\n" for r in records)
    _write_output(out, args.out)
    if args.dump_alignment:
        _dump_alignments(usable, resources, args.dump_alignment)
    return 0


def _dump_alignments(words, resources: Resources, directory: str) -> None:
    from .align import alignment_debug_tsv, dtw
    from .sonority import sonority_sequence

    os.makedirs(directory, exist_ok=True)
    for word in words:
        prons = resources.lexicon.entries.get(word.lower())
        if not prons:
            continue
        try:
            a = sonority_sequence(prons[0].raw, resources.phone_hierarchy)
            b = sonority_sequence(tuple(word.lower()), resources.letter_hierarchy)
            path = dtw(a, b)
        except SyllabError:
            continue
        with open(os.path.join(directory, f"{word.lower()}.tsv"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(alignment_debug_tsv(path, a, b))


def read_corpus_file(path) -> list[tuple[str, str]]:
    """(sentence_id, text) pairs from festival prompts, id<TAB>text, or plain lines."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
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
    pairs = read_corpus_file(args.corpus_file)
    annotations = annotate_corpus([text for _, text in pairs], args.lang,
                                  resources, args.method, jobs=args.jobs)
    lines = ["\t".join(ANNOTATION_COLUMNS)]
    records = []
    for (sid, _), ann in zip(pairs, annotations):
        for token_index, rec in ann.records:
            records.append(rec)
            lines.append(f"{sid}\t{token_index}\t{format_record_row(rec)}")
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
        if args.sample:
            if args.sample > len(words):
                raise ConfigurationError(
                    f"sample {args.sample} exceeds lexicon size {len(words)}")
            words = random.Random(args.seed).sample(words, args.sample)
        records = [syllabify_word(w, resources, args.method) for w in words]
    hist = evaluate.syllable_histogram(records)
    if args.format == "json":
        out = evaluate.histogram_json(hist)
    elif args.format == "csv":
        out = evaluate.histogram_csv(hist)
    else:
        out = evaluate.histogram_tsv(hist)
    _write_output(out, args.out)
    return 0


def read_annotation_file(path) -> list[WordRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line == "\t".join(ANNOTATION_COLUMNS):
                continue
            fields = line.split("\t")
            if len(fields) == len(ANNOTATION_COLUMNS):
                records.append(parse_record_row("\t".join(fields[2:])))
            elif len(fields) == len(RECORD_COLUMNS):
                records.append(parse_record_row(line))
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
    p.add_argument("--jobs", type=int, default=1)
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


def _apply_config(args, sub_parser: argparse.ArgumentParser, argv) -> None:
    """Fill in config-file values for options not given on the command line."""
    defaults = _read_config_file(args.config)
    actions = {a.dest: a for a in sub_parser._actions}
    for key, value in defaults.items():
        if key not in actions or key in ("help", "config", "func"):
            raise ConfigurationError(f"unknown config key {key!r}")
        action = actions[key]
        explicit = any(tok == opt or tok.startswith(opt + "=")
                       for opt in action.option_strings for tok in argv)
        if explicit:
            continue
        if isinstance(action, argparse._StoreTrueAction):
            parsed = value.lower() in ("1", "true", "yes")
        elif action.type is int:
            parsed = int(value)
        else:
            parsed = value
            if action.choices and parsed not in action.choices:
                raise ConfigurationError(
                    f"config key {key!r}: {value!r} not in {sorted(action.choices)}")
        setattr(args, key, parsed)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, by_name = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args, by_name[args.command], argv)
        return args.func(args)
    except (SyllabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
