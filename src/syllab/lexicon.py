"""Pronunciation dictionaries, syllabified-word corpora, and the G2P fallback hook."""

from __future__ import annotations

import logging
import re
import shlex
import subprocess
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .errors import DictParseError
from .sonority import VOWEL_LETTERS

log = logging.getLogger(__name__)

_CMU_VARIANT = re.compile(r"^(.*)\((\d+)\)$")
_NUMERIC_FIELD = re.compile(r"^\d+(?:\.\d+)?$")


class Phone(NamedTuple):
    symbol: str
    stress: int | None = None  # ARPABET vowel stress digit (0/1/2)

    @property
    def raw(self) -> str:
        return self.symbol if self.stress is None else f"{self.symbol}{self.stress}"


@dataclass(frozen=True)
class Pronunciation:
    phones: tuple[Phone, ...]

    def __post_init__(self):
        if not self.phones:
            raise ValueError("a pronunciation needs at least one phone")

    @property
    def raw(self) -> tuple[str, ...]:
        return tuple(p.raw for p in self.phones)

    def __str__(self) -> str:
        return " ".join(self.raw)


@dataclass
class Lexicon:
    entries: dict[str, list[Pronunciation]] = field(default_factory=dict)
    phoneset: str = "cmu-arpabet"  # "cmu-arpabet" | "mfa-ipa"
    language: str = "en"

    def __len__(self) -> int:
        return len(self.entries)


def _parse_phones(tokens: Sequence[str], fmt: str) -> Pronunciation:
    phones = []
    for tok in tokens:
        if fmt == "cmu" and len(tok) > 1 and tok[-1].isdigit():
            phones.append(Phone(tok[:-1], int(tok[-1])))
        else:
            phones.append(Phone(tok))
    return Pronunciation(tuple(phones))


def _read_text(path) -> list[str]:
    # CMU dict releases are Latin-1; MFA dictionaries are UTF-8.
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return data.decode("latin-1").splitlines()


def load_pron_dict(path, format: str = "cmu", language: str = "en",
                   strict: bool = True) -> Lexicon:
    """Load a pronunciation dictionary.

    `cmu` lines look like ``WORD  P1 P2 ...`` with ``WORD(1)`` variant
    suffixes and ``;;;`` comments; `mfa` lines are ``word<TAB>phones``
    where extra numeric tab fields (probabilities) are ignored.
    """
    if format not in ("cmu", "mfa"):
        raise ValueError(f"unknown dictionary format {format!r}")
    lex = Lexicon({}, "cmu-arpabet" if format == "cmu" else "mfa-ipa", language)
    skipped = 0
    for line_no, line in enumerate(_read_text(path), 1):
        line = line.rstrip()
        if not line or line.startswith(";;;"):
            continue
        try:
            word, pron = _parse_dict_line(line, format)
        except ValueError as exc:
            if strict:
                raise DictParseError(path, line_no, str(exc)) from exc
            skipped += 1
            log.warning("%s:%d: skipped (%s)", path, line_no, exc)
            continue
        lex.entries.setdefault(word, []).append(pron)
    if skipped:
        log.warning("%s: skipped %d unparseable lines", path, skipped)
    return lex


def _parse_dict_line(line: str, fmt: str) -> tuple[str, Pronunciation]:
    if fmt == "cmu":
        parts = line.split()
        if len(parts) < 2:
            raise ValueError("expected 'WORD  PHONES...'")
        word = parts[0]
        m = _CMU_VARIANT.match(word)
        if m:
            word = m.group(1)
        return word.lower(), _parse_phones(parts[1:], fmt)
    fields = line.split("\t")
    if len(fields) < 2 or not fields[0]:
        raise ValueError("expected 'word<TAB>phones'")
    word = fields[0]
    phone_fields = [f for f in fields[1:] if f and not _NUMERIC_FIELD.match(f)]
    tokens = " ".join(phone_fields).split()
    if not tokens:
        raise ValueError("no phones on line")
    return word.lower(), _parse_phones(tokens, fmt)


def lookup(lexicon: Lexicon, word: str) -> list[Pronunciation]:
    """All pronunciation variants in file order; empty list means OOV."""
    return lexicon.entries.get(word.lower(), [])


@dataclass(frozen=True)
class FallbackConfig:
    """External G2P command: words on stdin, one phone sequence per line out.

    `timeout` (seconds) applies to each invocation of the command.
    """

    command: str | tuple[str, ...]
    timeout: float = 30.0

    def argv(self) -> list[str]:
        if isinstance(self.command, str):
            return shlex.split(self.command)
        return list(self.command)


def g2p_fallback(words: Sequence[str], config: FallbackConfig | None,
                 phone_format: str = "cmu") -> list[Pronunciation | None]:
    """Ask the configured external command for the pronunciations of `words`.

    Every distinct word goes to one invocation as one line on stdin.  The
    result has one entry per input word: None where no command is
    configured or the command gave no phones for the word.  An invocation
    that fails (non-zero exit, timeout, OSError, output that is not UTF-8,
    or a wrong line count) is logged once and retried as two halves, down
    to single words, so only the words that cause the failure come back
    None.  A word that is not exactly one line (empty, or holding a line
    break) would shift the lines of the words after it; it is not sent and
    comes back None.
    """
    if isinstance(words, str):
        raise TypeError("g2p_fallback takes a sequence of words, not a str")
    distinct = [w for w in dict.fromkeys(words) if w.splitlines() == [w]]
    if config is None or not distinct:
        return [None] * len(words)
    found = dict(zip(distinct, _g2p_batch(distinct, config, phone_format)))
    return [found.get(w) for w in words]


def _g2p_batch(words: list[str], config: FallbackConfig,
               phone_format: str) -> list[Pronunciation | None]:
    lines = _run_g2p(words, config)
    if lines is None:
        if len(words) == 1:
            return [None]
        mid = len(words) // 2
        return (_g2p_batch(words[:mid], config, phone_format)
                + _g2p_batch(words[mid:], config, phone_format))
    return [_parse_phones(line.split(), phone_format) if line.split() else None
            for line in lines]


def _run_g2p(words: list[str], config: FallbackConfig) -> list[str] | None:
    """One invocation: the output line of each word, or None if it failed.

    A batch of n > 1 words must print exactly n lines; for a single word the
    first non-empty line is its answer.
    """
    try:
        proc = subprocess.run(
            config.argv(), input="".join(w + "\n" for w in words).encode("utf-8"),
            capture_output=True, timeout=config.timeout)
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            reason = f"exited {proc.returncode}: {stderr[-200:]}"
        else:
            lines = proc.stdout.decode("utf-8").split("\n")
            if lines[-1] == "":
                lines.pop()
            if len(words) == 1:
                return [next((line for line in lines if line.split()), "")]
            if len(lines) == len(words):
                return lines
            reason = f"printed {len(lines)} lines for {len(words)} words"
    except subprocess.TimeoutExpired:
        reason = f"timed out after {config.timeout:g} s"
    except UnicodeError as exc:
        reason = f"not UTF-8 ({exc})"
    except OSError as exc:
        reason = str(exc)
    log.warning("g2p: invocation for %d word(s) failed: %s", len(words), reason)
    return None


def sc_correction(syllables: Sequence[str],
                  vowels: set[str] | None = None) -> list[str]:
    """Merge vowel-less syllables into their neighbour until none remain.

    A syllable with no vowel letter joins the following syllable (the
    preceding one when it is last).  Words without any vowel letter come
    back as a single syllable.
    """
    if not syllables:
        raise ValueError("need at least one syllable")
    if vowels is None:
        vowels = VOWEL_LETTERS["en"]
    syls = [s for s in syllables if s]

    def vowelless(s: str) -> bool:
        return not any(ch in vowels for ch in s.lower())

    changed = True
    while changed and len(syls) > 1:
        changed = False
        for i, syl in enumerate(syls):
            if vowelless(syl):
                if i + 1 < len(syls):
                    syls[i:i + 2] = [syl + syls[i + 1]]
                else:
                    syls[i - 1:i + 1] = [syls[i - 1] + syl]
                changed = True
                break
    return syls


@dataclass(frozen=True)
class CorpusFormat:
    """Column/separator layout of a syllabified-word corpus file.

    With `column_separator` None the whole line is the syllabified form and
    the word is its concatenation (Gutenberg hyphenation list style); with a
    separator the word and syllabification columns are indexed fields
    (Lexique383 style).
    """

    syllable_separator: str = "-"
    column_separator: str | None = None
    word_column: int = 0
    syllable_column: int = 1
    has_header: bool = False

    @classmethod
    def preset(cls, name: str) -> "CorpusFormat":
        """Layouts of the files scripts/fetch_resources.py produces.

        `gutenberg` is the normalized Moby list (one hyphenated word per
        line); `lexique` is the extracted word<TAB>syll file.  Raw corpus
        files with other layouts use explicit column/separator settings.
        """
        if name == "gutenberg":
            return cls(syllable_separator="-", column_separator=None)
        if name == "lexique":
            return cls(syllable_separator="-", column_separator="\t",
                       word_column=0, syllable_column=1, has_header=True)
        raise ValueError(f"unknown corpus preset {name!r}")


@dataclass
class SyllabifiedLexicon:
    entries: dict[str, tuple[str, ...]] = field(default_factory=dict)
    language: str = "en"
    skipped_rows: int = 0

    def __len__(self) -> int:
        return len(self.entries)


def load_syllabified_corpus(path, fmt: CorpusFormat,
                            language: str = "en") -> SyllabifiedLexicon:
    """Load manually syllabified words, applying `sc_correction` to each.

    Rows whose syllables do not re-concatenate to the word (or with missing
    columns) are skipped and counted in `skipped_rows`.
    """
    vowels = VOWEL_LETTERS.get(language, VOWEL_LETTERS["en"])
    out = SyllabifiedLexicon({}, language)
    for line_no, line in enumerate(_read_text(path), 1):
        if fmt.has_header and line_no == 1:
            continue
        if not line.strip():
            continue
        if fmt.column_separator is None:
            syl_field = line.strip()
            word = syl_field.replace(fmt.syllable_separator, "")
        else:
            fields = line.split(fmt.column_separator)
            if len(fields) <= max(fmt.word_column, fmt.syllable_column):
                out.skipped_rows += 1
                continue
            word = fields[fmt.word_column].strip()
            syl_field = fields[fmt.syllable_column].strip()
        word = word.lower()
        syllables = [s for s in syl_field.lower().split(fmt.syllable_separator) if s]
        if not word or not syllables or "".join(syllables) != word:
            out.skipped_rows += 1
            continue
        out.entries[word] = tuple(sc_correction(syllables, vowels))
    return out
