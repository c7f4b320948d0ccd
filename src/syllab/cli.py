"""Command-line interface.

Subcommands: normalize, syllabify, annotate, ablate, histogram, report.
Resource paths can be given relative to $SYLLAB_RESOURCES; defaults can be
collected in a key=value config file (explicit flags always win).  All
outputs are UTF-8 TSV/JSON with LF line endings.
"""

import argparse
import itertools
import os
import re
import sys
from collections import Counter
from collections.abc import Iterable

from . import errors, evaluate, pipeline
from .align import alignment_debug_tsv, curve, dtw
from .errors import ConfigurationError, DictParseError, SyllabError
from .lexicon import (
    CorpusFormat,
    FallbackConfig,
    Pronunciation,
    load_pron_dict,
    load_syllabified_corpus,
)
from .pipeline import (
    RECORD_FLAGS,
    RECORD_METHODS,
    Resources,
    WordRecord,
    analyze_words,
    annotate_corpus,
    consistency_report,
    load_secondary_stress,
    word_record,
)
from .sonority import hierarchy_for
from .ssp import PHONE_SYL_SEP, TEXT_SYL_SEP, Syllabification
from .textnorm import normalize

RECORD_COLUMNS = ("word", "phones", "phone_syllables", "text_syllables",
                  "stress", "method", "flags")
ANNOTATION_COLUMNS = ("sentence_id", "token_index") + RECORD_COLUMNS

_FESTIVAL_LINE = re.compile(r'^\(\s*(\S+)\s+"(.*)"\s*\)\s*$')
# a token index as `annotate` writes it: str(i) for some i >= 0
_TOKEN_INDEX = re.compile(r"0|[1-9][0-9]*")


def format_record_row(rec: WordRecord) -> str:
    """The TSV row of a record, the one definition of a valid row: it refuses an empty
    word, a method or flag outside the vocabulary and a stress outside the syllables."""
    if rec.method not in RECORD_METHODS or not rec.flags <= RECORD_FLAGS:
        raise ValueError(f"{rec.word!r}: method or flags outside the record vocabulary")
    if not rec.word:
        raise ValueError("empty word")
    n = rec.phone_syll.n_syllables
    if rec.stress_index is not None and not 0 <= rec.stress_index < n:
        raise ValueError(f"{rec.word!r}: stress index {rec.stress_index} "
                         f"outside the {n} phone syllables")
    return "\t".join((
        rec.word,
        str(rec.pronunciations[0]) if rec.pronunciations else "-",
        rec.phone_syll.phone_text() if rec.phone_syll.symbols else "-",
        rec.text_syll.text(),
        "-" if rec.stress_index is None else str(rec.stress_index),
        rec.method,
        ",".join(sorted(rec.flags)) if rec.flags else "-",
    ))


def _cut(symbols: tuple, parts: list) -> Syllabification:
    """`symbols` broken after the parts but the last; no break falls outside them."""
    cuts = {b for b in itertools.accumulate(map(len, parts[:-1])) if 0 < b < len(symbols)}
    return Syllabification(symbols, tuple(sorted(cuts)))


def parse_record_row(row: str) -> WordRecord:
    """The record that `format_record_row` writes as `row`, its syllables cut from
    the word's letters and the phones; else `ValueError` names the first column
    that the record does not write back unchanged."""
    fields = row.split("\t")
    if len(fields) != len(RECORD_COLUMNS):
        raise ValueError(f"expected {len(RECORD_COLUMNS)} columns, got {len(fields)}")
    word, phones, phone_syl, text_syl, stress, method, flags = fields
    symbols = () if phones == "-" else tuple(phones.split())
    rec = WordRecord(  # fields in column order
        word, [Pronunciation(symbols)] if symbols else [],
        _cut(() if phone_syl == "-" else symbols,
             [part.split() for part in phone_syl.split(PHONE_SYL_SEP)]),
        _cut(tuple(word), text_syl.split(TEXT_SYL_SEP)),
        None if stress == "-" else int(stress), method,
        frozenset() if flags == "-" else frozenset(flags.split(",")))
    written = format_record_row(rec).split("\t")
    for column, got, want in zip(RECORD_COLUMNS, fields, written):
        if got != want:
            raise ValueError(f"{column} {got!r} is not written back ({want!r})")
    return rec


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


def _resource_path(path: str | None, what: str) -> str | None:
    """`path` as given, or else under $SYLLAB_RESOURCES; None when not given."""
    if not path:
        return None
    for candidate in (path, os.path.join(os.environ.get("SYLLAB_RESOURCES", ""), path)):
        if os.path.exists(candidate):
            return candidate
    raise ConfigurationError(f"{what} not found: {path}")


def _read_config_file(path) -> dict[str, str]:
    values = {}
    for line_no, line in enumerate(errors.read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip().strip('"')
    return values


def _add_dictionary_args(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("dictionary")
    group.add_argument("--dict", dest="dict_path", help="pronunciation dictionary file")
    group.add_argument("--dict-format", choices=("cmu", "mfa"), default="cmu")
    group.add_argument("--phone-table", default=None,
                       help="symbol<TAB>class overrides for the phone hierarchy")
    group.add_argument("--lenient", action="store_true",
                       help="skip unparseable dictionary lines instead of failing")
    group.add_argument("--config", default=None,
                       help="key=value file of defaults (flags win)")
    return group


def _add_spelling_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("spelling")
    group.add_argument("--lang", default="en", help="letter-domain language (en/fr/es)")
    group.add_argument("--letter-table", default=None,
                       help="symbol<TAB>class overrides for the letter hierarchy")
    group.add_argument("--corpus", dest="corpus_path",
                       help="syllabified-words corpus file")
    group.add_argument("--corpus-format", choices=("gutenberg", "lexique"),
                       default="gutenberg",
                       help="corpus layout; each layout flag given overrides its field")
    group.add_argument("--word-col", type=int)
    group.add_argument("--syll-col", type=int)
    group.add_argument("--col-sep", help="'' if the whole line is the syllabified word")
    group.add_argument("--syll-sep")
    group.add_argument("--corpus-header", action="store_true",
                       help="skip the first corpus line (column header)")


def _add_annotation_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("annotation")
    group.add_argument("--fallback-cmd", default=None,
                       help="external G2P command for OOV words")
    group.add_argument("--secondary", dest="secondary_path",
                       help="word<TAB>stress-marked-phones file for stress merging")
    group.add_argument("--method", choices=pipeline.METHOD_CHOICES,
                       default="lkp-ssp-dtw")


def build_resources(args) -> Resources:
    """The resources `args` name; an option the subcommand lacks counts as unset."""
    opt = vars(args).get
    if not args.dict_path:
        raise ConfigurationError("a pronunciation dictionary is required (--dict)")
    dict_path = _resource_path(args.dict_path, "dictionary")
    corpus_path = _resource_path(opt("corpus_path"), "syllabified corpus")
    sec_path = _resource_path(opt("secondary_path"), "secondary transcription file")
    phone_table = _resource_path(args.phone_table, "phone table")
    letter_table = _resource_path(opt("letter_table"), "letter table")
    fallback = None
    if opt("fallback_cmd"):
        try:
            fallback = FallbackConfig(opt("fallback_cmd"))
        except ValueError as exc:
            raise ConfigurationError(f"--fallback-cmd: {exc}") from None
    lang = opt("lang", "en")
    lexicon = load_pron_dict(dict_path, args.dict_format, strict=not args.lenient)
    symbol_set = {"cmu": "cmu-arpabet", "mfa": "mfa-ipa"}[args.dict_format]
    phone_h = hierarchy_for(symbol_set, lang, phone_table)
    letter_h = hierarchy_for("letters", lang, letter_table)

    syllabified = None
    if corpus_path:
        layout = {"syllable_separator": args.syll_sep, "column_separator": args.col_sep,
                  "word_column": args.word_col, "syllable_column": args.syll_col,
                  "has_header": args.corpus_header or None}
        fmt = CorpusFormat.preset(args.corpus_format)._replace(
            **{k: v for k, v in layout.items() if v is not None})
        if not fmt.syllable_separator:
            raise ConfigurationError("--syll-sep must not be empty")
        if not fmt.column_separator and (args.word_col, args.syll_col) != (None, None):
            raise ConfigurationError("--word-col/--syll-col need a column separator "
                                     "(--col-sep or --corpus-format lexique)")
        if min(fmt.word_column, fmt.syllable_column) < 0:
            raise ConfigurationError("--word-col/--syll-col must be 0 or more")
        syllabified = load_syllabified_corpus(corpus_path, fmt, lang)

    secondary = (load_secondary_stress(sec_path, hierarchy_for("mfa-ipa", lang))
                 if sec_path else None)
    label = opt("label") or ("CMU" if args.dict_format == "cmu" else lang)
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
    return errors.decode_lines(sys.stdin.buffer.read(), "<stdin>")


def _write_output(chunks: Iterable[str], out_path: str | None) -> None:
    """Write `chunks` in order to `out_path`, or to stdout for None or "-"."""
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# --- subcommands ---------------------------------------------------------------


def cmd_normalize(args) -> int:
    lines = _utf8_args(args.text) if args.text else _stdin_lines()
    for line in lines:
        print(" ".join(normalize(line, args.lang)))
    return 0


def cmd_syllabify(args) -> int:
    resources = build_resources(args)
    _warn_if_lookup_disabled(args, resources)
    # an argument is split into words at whitespace, as a line of stdin is
    lines = _utf8_args(args.words) if args.words else _stdin_lines()
    words = [w for line in lines for w in line.split()]
    usable = [w for w in words if TEXT_SYL_SEP not in w]
    if len(usable) < len(words):
        print(f"warning: skipped {len(words) - len(usable)} words holding the "
              f"reserved {TEXT_SYL_SEP!r}", file=sys.stderr)
    analyses = {a.word: a for a in analyze_words(usable, resources, (args.method,))}
    records = [word_record(analyses[w.lower()], args.method) for w in usable]
    if args.format == "json":
        import json
        out = json.dumps([record_to_json(r) for r in records],
                         ensure_ascii=False, indent=2) + "\n"
    else:
        out = "".join(format_record_row(r) + "\n" for r in records)
    _write_output((out,), args.out)
    if args.dump_alignment:
        _dump_alignments(analyses.values(), args.dump_alignment)
    return 0


def _dump_alignments(analyses, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    analyses = [a for a in analyses if a.phone_seq is not None and a.letter_seq is not None]
    paths = dtw([(curve(a.phone_seq), curve(a.letter_seq)) for a in analyses])
    for a, path in zip(analyses, paths):
        if path is None:
            continue  # past the DTW cell budget
        with open(os.path.join(directory, f"{a.word}.tsv"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(alignment_debug_tsv(path[0], a.phone_seq, a.letter_seq))


def read_corpus_file(path) -> list[tuple[str, str]]:
    """(sentence_id, text) pairs from festival prompts, id<TAB>text, or plain lines."""
    pairs = []
    for i, line in enumerate(errors.read_lines(path), 1):
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
    sentence_words, table = annotate_corpus([text for _, text in pairs], args.lang,
                                            resources, args.method)
    # normalize drops a unit whose core holds the reserved separator
    dropped = sum(1 for _, text in pairs if TEXT_SYL_SEP in text
                  for unit in text.split()
                  if TEXT_SYL_SEP in unit and not normalize(unit, args.lang))
    rows = {word: format_record_row(rec) for word, rec in table.items()}
    _write_output(itertools.chain(
        ("\t".join(ANNOTATION_COLUMNS) + "\n",),
        (f"{sid}\t{token_index}\t{rows[word]}\n"
         for (sid, _), words in zip(pairs, sentence_words)
         for token_index, word in enumerate(words))), args.out)

    # the report and the accuracy read each distinct word once, with its token count
    tokens = Counter(itertools.chain.from_iterable(sentence_words))
    counted = [(table[word], n) for word, n in tokens.items()]
    report_path = args.report
    if report_path is None and args.out and args.out != "-":
        report_path = args.out + ".report.tsv"
    _write_output((consistency_report(counted),), report_path)

    if dropped:
        print(f"warning: dropped {dropped} prompt units holding the reserved "
              f"{TEXT_SYL_SEP!r}", file=sys.stderr)
    if counted:
        acc = evaluate.word_accuracy(counted)
        print(f"word_accuracy\t{acc:.2f}\twords\t{tokens.total()}", file=sys.stderr)
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
    _write_output((out,), args.out)
    return 0


def cmd_histogram(args) -> int:
    if args.annotations:
        given = [action.option_strings[0] for action in args.unused_by_annotations
                 if getattr(args, action.dest) != action.default]
        if given:
            raise ConfigurationError(
                f"options that do not apply to --annotations: {', '.join(given)}")
        records = read_annotation_file(args.annotations)
    else:
        resources = build_resources(args)
        words = sorted(resources.lexicon)
        if args.sample is not None:
            if not 0 < args.sample <= len(words):
                raise ConfigurationError(
                    f"sample must be in [1, {len(words)}], got {args.sample}")
            import random
            words = random.Random(args.seed).sample(words, args.sample)
        # the histogram reads only the phone-domain syllables of each analysis
        records = analyze_words(words, resources)
    hist = evaluate.syllable_histogram(records)
    _write_output((evaluate.format_histogram(hist, args.format),), args.out)
    return 0


def read_annotation_file(path) -> list[WordRecord]:
    """The records of an `annotate` output or of `syllabify` TSV rows: line 1 may
    be the `annotate` header, and every other line is an `annotate` row (a
    sentence id and a token index before the record's columns) or a record row,
    else `DictParseError`."""
    records = []
    for line_no, line in enumerate(errors.read_lines(path), 1):
        fields = line.split("\t")
        if line_no == 1 and fields == list(ANNOTATION_COLUMNS):
            continue
        try:
            if len(fields) not in (len(ANNOTATION_COLUMNS), len(RECORD_COLUMNS)):
                raise ValueError(f"expected {len(ANNOTATION_COLUMNS)} or "
                                 f"{len(RECORD_COLUMNS)} columns, got {len(fields)}")
            if (len(fields) == len(ANNOTATION_COLUMNS)
                    and not _TOKEN_INDEX.fullmatch(fields[1])):
                raise ValueError(f"token_index {fields[1]!r} is not one annotate writes")
            records.append(parse_record_row("\t".join(fields[-len(RECORD_COLUMNS):])))
        except ValueError as exc:
            raise DictParseError(path, line_no, str(exc)) from None
    return records


def cmd_report(args) -> int:
    records = read_annotation_file(args.annotations)
    _write_output((consistency_report((rec, 1) for rec in records),), args.out)
    return 0


# --- entry point ----------------------------------------------------------------


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help formatter, which asks the terminal for its width (and so
    imports `shutil`) only when it formats text, not each time an option is added."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None,
                 **kwargs):
        super().__init__(prog, indent_increment, max_help_position,
                         0 if width is None else width, **kwargs)
        if width is None:
            self._stock = (prog, indent_increment, max_help_position, kwargs)
            del self._width, self._max_help_position

    def __getattr__(self, name):
        if name not in ("_width", "_max_help_position"):
            raise AttributeError(name)
        prog, indent_increment, max_help_position, kwargs = self._stock
        stock = argparse.HelpFormatter(prog, indent_increment, max_help_position,
                                       **kwargs)
        self._width, self._max_help_position = stock._width, stock._max_help_position
        return getattr(self, name)


def _normalize_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("text", nargs="*", help="sentences (stdin when omitted)")
    p.add_argument("--lang", default="en")
    p.set_defaults(func=cmd_normalize)


def _syllabify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("words", nargs="*")
    _add_dictionary_args(p)
    _add_spelling_args(p)
    _add_annotation_args(p)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out", default=None)
    p.add_argument("--dump-alignment", default=None, metavar="DIR",
                   help="write per-word DTW path TSVs for curve plotting")
    p.set_defaults(func=cmd_syllabify)


def _annotate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("corpus_file")
    _add_dictionary_args(p)
    _add_spelling_args(p)
    _add_annotation_args(p)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_annotate)


def _ablate_options(p: argparse.ArgumentParser) -> None:
    _add_dictionary_args(p)
    _add_spelling_args(p)
    p.add_argument("--label", default=None,
                   help="language/variant label for the report "
                        "(default: CMU for a cmu dictionary, else --lang)")
    p.add_argument("--sample-size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)


def _histogram_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--annotations", default=None,
                   help="existing annotation TSV (otherwise the dictionary is used)")
    # --annotations refuses every dictionary option given, and --sample and --seed
    p.set_defaults(unused_by_annotations=[
        *_add_dictionary_args(p)._group_actions,
        p.add_argument("--sample", type=int, default=None),
        p.add_argument("--seed", type=int, default=0)])
    p.add_argument("--format", choices=("tsv", "csv", "json"), default="tsv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_histogram)


def _report_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("annotations")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)


# name -> (help line, function that adds the subcommand's options)
_SUBCOMMANDS = {
    "normalize": ("text to dictionary-ready tokens", _normalize_options),
    "syllabify": ("annotate words given on argv or stdin", _syllabify_options),
    "annotate": ("annotate a sentence corpus file", _annotate_options),
    "ablate": ("per-method word accuracies on a dictionary sample", _ablate_options),
    "histogram": ("syllable-count distribution", _histogram_options),
    "report": ("consistency report from an annotation file", _report_options),
}


def _build_parser(argv: list[str] | None = None
                  ) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers. Every subcommand is listed, but only
    one named in `argv` gets its options; with no `argv`, every one does."""
    parser = argparse.ArgumentParser(
        prog="syllab", formatter_class=_HelpFormatter,
        description="Phonetic transcription, stress, and unified syllabification "
                    "in the pronunciation and spelling domains.")
    # argparse would format the usage, and so ask for the terminal, to find `prog`
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    by_name: dict[str, argparse.ArgumentParser] = {}
    for name, (help_line, add_options) in _SUBCOMMANDS.items():
        p = by_name[name] = sub.add_parser(name, help=help_line,
                                           formatter_class=_HelpFormatter)
        if argv is None or name in argv:
            add_options(p)
    return parser, by_name


# the values a config file may give a flag, in any case
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


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
            parsed = _BOOLEANS.get(value.lower())
            if parsed is None:
                raise ConfigurationError(
                    f"config key {key!r}: {value!r} is not a boolean")
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
    parser, by_name = _build_parser(argv)
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
