"""Pronunciation dictionaries, syllabified-word corpora, and the G2P fallback hook."""

import re
from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence, Set
from itertools import compress, count, repeat
from operator import itemgetter, le, ne, or_

from .errors import CheckedFields, DictParseError, LazyLogger, read_lines, warn_skipped
from .sonority import VOWEL_LETTERS

log = LazyLogger(__name__)

# the G2P time of a run, in timeouts: once this many timeouts' worth of wall
# time has passed, no more invocations start and the words not yet answered
# stay unresolved, so a command that hangs or fails slowly costs at most
# this many timeouts
G2P_TIMEOUT_LIMIT = 4
# bytes of stdout an invocation may print per word of its batch (16 per
# character for a longer word); past them the command is killed and the
# invocation fails
G2P_OUTPUT_LIMIT = 4096

_CMU_VARIANT = re.compile(r"^(.*)\(([0-9]+)\)$")
# a probability column; ASCII only, so a phone written in other digits stays
_NUMERIC_FIELD = re.compile(r"^[0-9]+(?:\.[0-9]+)?$")


class Pronunciation(CheckedFields, namedtuple("Pronunciation", "raw")):
    """The phone symbols of one pronunciation as written, stress digits included."""

    __slots__ = ()

    def __new__(cls, raw: tuple[str, ...]):
        if not raw:
            raise ValueError("a pronunciation needs at least one phone")
        return tuple.__new__(cls, (raw,))

    def __str__(self) -> str:
        return " ".join(self.raw)


class ParsedOnAccess(Mapping):
    """Read-only mapping that keeps each key's raw value and parses it on access.

    A loader fills `raw` in one pass over its file, with every check that
    can reject a line, so a malformed file still fails or warns at load;
    `parse` turns one raw value into the entry a caller sees.  Nothing is
    memoized: each access parses again, and every subcommand reads each
    distinct word once.  `skipped` counts the lines or rows the loader
    skipped.
    """

    def __init__(self, raw: dict, parse: Callable, skipped: int = 0):
        self._raw = raw
        self._parse = parse
        self.skipped = skipped

    def __getitem__(self, key):
        return self._parse(self._raw[key])

    def get(self, key, default=None):
        raw = self._raw.get(key)  # the loaders store no None
        return default if raw is None else self._parse(raw)

    def __contains__(self, key) -> bool:
        return key in self._raw

    def __iter__(self):
        return iter(self._raw)

    def __len__(self) -> int:
        return len(self._raw)


def load_pron_dict(path, format: str = "cmu", strict: bool = True,
                   ) -> ParsedOnAccess:
    """Load a pronunciation dictionary: lower-cased word -> its pronunciations.

    `cmu` lines look like ``WORD  P1 P2 ...`` with ``WORD(1)`` variant
    suffixes and ``;;;`` comments; `mfa` lines are ``word<TAB>phones``
    where extra numeric tab fields (probabilities) are ignored.  Load checks
    every line and keeps its phone text; a word's `Pronunciation`s are
    built when it is looked up, in file order.  A malformed line raises
    `DictParseError`, or with `strict` off is skipped, counted in the
    result's `skipped` and in one warning per file.  A file that is not
    UTF-8 is read as Latin-1, as CMU dict releases are.
    """
    if format not in ("cmu", "mfa"):
        raise ValueError(f"unknown dictionary format {format!r}")
    phones_of: dict[str, str] = {}  # word -> phone text of each variant, one per line
    skipped: list[tuple[int, str]] = []  # (line number, reason)
    for line_no, line in enumerate(read_lines(path, latin1=True), 1):
        line = line.rstrip()
        if not line or line.startswith(";;;"):
            continue
        try:
            word, phones = _split_dict_line(line, format)
        except ValueError as exc:
            if strict:
                raise DictParseError(path, line_no, str(exc)) from exc
            skipped.append((line_no, str(exc)))
            continue
        known = phones_of.get(word)
        phones_of[word] = phones if known is None else f"{known}\n{phones}"
    warn_skipped(log, path, skipped)
    return ParsedOnAccess(phones_of, _pronunciations, len(skipped))


def _split_dict_line(line: str, fmt: str) -> tuple[str, str]:
    """The lower-cased word of a dictionary line and its phone text."""
    if fmt == "cmu":
        parts = line.split(None, 1)
        if len(parts) < 2:
            raise ValueError("expected 'WORD  PHONES...'")
        word, phones = parts
        if word[-1] == ")":  # run the regex only on a possible (N) suffix
            m = _CMU_VARIANT.match(word)
            if m:
                word = m.group(1)
        return word.lower(), phones
    fields = line.split("\t")
    if len(fields) < 2 or not fields[0]:
        raise ValueError("expected 'word<TAB>phones'")
    phones = " ".join(f for f in fields[1:] if f and not _NUMERIC_FIELD.match(f))
    if not phones.strip():
        raise ValueError("no phones on line")
    return fields[0].lower(), phones


def _pronunciations(phone_lines: str) -> list[Pronunciation]:
    return [Pronunciation(tuple(text.split())) for text in phone_lines.split("\n")]


def lookup(lexicon: Mapping[str, list[Pronunciation]], word: str,
           ) -> list[Pronunciation]:
    """All pronunciation variants in file order; empty list means OOV."""
    return lexicon.get(word.lower(), [])


class FallbackConfig(CheckedFields, namedtuple("FallbackConfig", "command timeout")):
    """External G2P command: words on stdin, one phone sequence per line out.

    `command`, a shell-style string or an argument sequence, is split here,
    once; an unbalanced quote or an empty command raises `ValueError`.
    `timeout` (seconds) applies to each invocation of the command.
    """

    __slots__ = ()

    def __new__(cls, command: str | Sequence[str], timeout: float = 30.0):
        if isinstance(command, str):
            import shlex
            command = shlex.split(command)
        command = tuple(command)
        if not command:
            raise ValueError("empty G2P command")
        return tuple.__new__(cls, (command, timeout))


def g2p_fallback(words: Sequence[str], config: FallbackConfig | None,
                 ) -> list[Pronunciation | None]:
    """Ask the configured external command for the pronunciations of `words`.

    Every distinct word goes to one invocation as one line on stdin.  The
    result has one entry per input word: None where no command is
    configured or the command gave no phones for the word.  An invocation
    that fails (non-zero exit, timeout, OSError, output that is not UTF-8 or
    passes `G2P_OUTPUT_LIMIT`, or a wrong line count) is retried as two
    halves, down to single words, so only the words that cause the failure
    come back None; one warning counts the failed invocations by kind and
    names the first failure.  The invocations of a call share a budget of
    `G2P_TIMEOUT_LIMIT` timeouts of wall time, and each may take the
    timeout or what is left of the budget, whichever is less; once it is
    spent no more are started: the words not yet answered come back None,
    and one warning counts them.  A word that is not exactly one line
    (empty, or holding a line break) would shift the lines of the words
    after it; it is not sent and comes back None.
    """
    if isinstance(words, str):
        raise TypeError("g2p_fallback takes a sequence of words, not a str")
    distinct = [w for w in dict.fromkeys(words) if w.splitlines() == [w]]
    if config is None or not distinct:
        return [None] * len(words)
    import time
    budget = G2P_TIMEOUT_LIMIT * config.timeout
    deadline = time.monotonic() + budget
    timeouts = left = invocations = 0
    failed: dict[str, int] = {}  # kind of failure -> invocations
    first = None  # (words, reason) of the first failed invocation

    def batch(words: list[str]) -> list[Pronunciation | None]:
        nonlocal timeouts, left, invocations, first
        budget_left = deadline - time.monotonic()
        if budget_left <= 0:
            left += len(words)
            return [None] * len(words)
        lines, failure = _run_g2p(words, config.command,
                                  min(config.timeout, budget_left))
        invocations += 1
        if failure is not None:
            kind, reason = failure
            failed[kind] = failed.get(kind, 0) + 1
            first = first or (len(words), reason)
            timeouts += kind == "timed out"
            if len(words) == 1:
                return [None]
            mid = len(words) // 2
            return batch(words[:mid]) + batch(words[mid:])
        return [Pronunciation(tuple(line.split())) if line.split() else None
                for line in lines]

    found = dict(zip(distinct, batch(distinct)))
    if failed:
        log.warning("g2p: %d of %d invocations failed (%s); the first, for %d "
                    "word(s): %s", sum(failed.values()), invocations,
                    ", ".join(f"{n} {kind}" for kind, n in failed.items()), *first)
    if left:
        # G2P_TIMEOUT_LIMIT timeouts spend the whole budget
        log.warning("g2p: %d word(s) left unresolved after %s", left,
                    f"{timeouts} timed-out invocations, the limit per run"
                    if timeouts == G2P_TIMEOUT_LIMIT else
                    f"{budget:g} s of invocations, the G2P time per run")
    return [found.get(w) for w in words]


def _run_g2p(words: list[str], command: tuple[str, ...], timeout: float,
             ) -> tuple[list[str] | None, tuple[str, str] | None]:
    """One invocation of `command`, killed after `timeout` seconds: the
    output line of each word, or None and the kind and reason of its failure.

    A batch of n > 1 words must print exactly n lines; for a single word the
    first non-empty line is its answer.
    """
    import subprocess
    cap = sum(max(G2P_OUTPUT_LIMIT, 16 * len(w)) for w in words)
    try:
        with subprocess.Popen(command, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                stdout, stderr = _exchange(
                    proc, "".join(w + "\n" for w in words).encode("utf-8"), cap,
                    timeout)
            finally:
                proc.kill()  # nothing to do once it has been waited for
        if stdout is None:
            return None, ("over the output cap",
                          f"printed more than {cap} bytes for {len(words)} words")
        if proc.returncode != 0:
            stderr = stderr.decode("utf-8", "replace").strip()
            return None, ("non-zero exit", f"exited {proc.returncode}: {stderr[-200:]}")
        lines = stdout.decode("utf-8").split("\n")
        if lines[-1] == "":
            lines.pop()
        if len(words) == 1:
            return [next((line for line in lines if line.split()), "")], None
        if len(lines) == len(words):
            return lines, None
        return None, ("wrong line count",
                      f"printed {len(lines)} lines for {len(words)} words")
    except subprocess.TimeoutExpired:
        return None, ("timed out", f"timed out after {timeout:.3g} s")
    except UnicodeError as exc:
        return None, ("not UTF-8", f"not UTF-8 ({exc})")
    except OSError as exc:
        return None, ("not started", str(exc))


def _exchange(proc, data: bytes, cap: int, timeout: float,
              ) -> tuple[bytes | None, bytes]:
    """Write `data` to the stdin of `proc` while reading its stdout and stderr
    until both close and it exits.  Returns its stdout, or None as soon as
    that passes `cap` bytes, and the last 4 KiB of its stderr; raises
    `subprocess.TimeoutExpired` once `timeout` seconds have passed."""
    import os
    import select
    import selectors
    import subprocess
    import time
    deadline = time.monotonic() + timeout
    out, err, sent = bytearray(), b"", 0
    with selectors.DefaultSelector() as streams:
        streams.register(proc.stdin, selectors.EVENT_WRITE)
        streams.register(proc.stdout, selectors.EVENT_READ)
        streams.register(proc.stderr, selectors.EVENT_READ)
        while streams.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            for key, _ in streams.select(left):
                stream = key.fileobj
                if stream is proc.stdin:
                    try:
                        sent += os.write(key.fd, data[sent:sent + select.PIPE_BUF])
                    except BrokenPipeError:  # the command stopped reading
                        sent = len(data)
                    if sent == len(data):
                        streams.unregister(stream)
                        stream.close()
                    continue
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    streams.unregister(stream)
                    stream.close()
                elif stream is proc.stdout:
                    out += chunk
                    if len(out) > cap:
                        return None, err
                else:
                    err = (err + chunk)[-4096:]
    proc.wait(max(0.0, deadline - time.monotonic()))
    return bytes(out), err


def sc_correction(syllables: Sequence[str],
                  vowels: Set[str] | None = None) -> list[str]:
    """Merge vowel-less syllables into a neighbour, in one left-to-right pass.

    A syllable with no vowel letter joins the next syllable that has one; a
    run of them at the end joins the last syllable that has one.  Empty
    syllables vanish, and words without any vowel letter come back as a
    single syllable.
    """
    if not syllables:
        raise ValueError("need at least one syllable")
    if vowels is None:
        vowels = VOWEL_LETTERS["en"]
    syls: list[str] = []
    pending = ""
    for syl in syllables:
        pending += syl
        if not vowels.isdisjoint(syl.lower()):
            syls.append(pending)
            pending = ""
    if syls:
        syls[-1] += pending
    elif pending:
        syls.append(pending)
    return syls


class CorpusFormat(namedtuple(
        "CorpusFormat",
        "syllable_separator column_separator word_column syllable_column has_header",
        defaults=("-", None, 0, 1, False))):
    """Column/separator layout of a syllabified-word corpus file.

    With `column_separator` None or empty the whole line is the syllabified
    form and the word is its concatenation (Gutenberg hyphenation list
    style); with a separator the word and syllabification columns are
    indexed fields (Lexique383 style).
    """

    __slots__ = ()

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


def load_syllabified_corpus(path, fmt: CorpusFormat,
                            language: str = "en") -> ParsedOnAccess:
    """Load manually syllabified words: lower-cased word -> its syllables.

    `sc_correction` applies on access.  Rows whose syllables do not
    re-concatenate to the word (or with missing columns) are skipped at load,
    counted in `skipped` and in one warning per file.  Non-UTF-8 is read as
    Latin-1.  Keys and checks come from passes over the text of the whole
    file; a row is read on its own only when it fails a check.
    """
    vowels = VOWEL_LETTERS.get(language, VOWEL_LETTERS["en"])
    sep = fmt.syllable_separator
    if not sep:
        raise ValueError("empty syllable separator")
    lines = read_lines(path, latin1=True)
    if fmt.has_header and lines:
        lines[0] = ""
    skipped: list[tuple[int, str]] = []  # (line number, reason)

    def rejoin(text: str) -> str:
        # no line holds a line break, but a joined text does between lines
        return text if "\n" in sep else text.replace(sep, "")

    if fmt.column_separator:
        need = max(fmt.word_column, fmt.syllable_column)
        rows = list(map(str.split, lines, repeat(fmt.column_separator)))
        for line_no in compress(count(1), map(le, map(len, rows), repeat(need))):
            if lines[line_no - 1].strip():
                skipped.append((line_no, "missing columns"))
            lines[line_no - 1] = ""
            rows[line_no - 1] = [""] * (need + 1)
        stripped = list(map(str.strip, lines))  # "" for a row skipped uncounted
        syls = list(map(str.strip, map(itemgetter(fmt.syllable_column), rows)))
        words = "\n".join(map(str.strip, map(itemgetter(fmt.word_column), rows)))
    else:  # the word is the line with its separators removed
        stripped = syls = list(map(str.strip, lines))
    text = "\n".join(syls)
    # lower-casing stops at a line break, so the whole text lowers line by line
    lowered = text.lower()
    keys_text = (words if fmt.column_separator else rejoin(text)).lower()
    keys = keys_text.split("\n")
    rejoined = rejoin(lowered)
    if rejoined != keys_text or keys.count("") != stripped.count(""):
        # a row fails when its lower-cased syllables do not rejoin to its
        # lower-cased word, or its word is empty
        failed = map(or_, map(ne, rejoined.split("\n"), keys),
                     map(ne, map(bool, keys), map(bool, stripped)))
        for line_no in compress(count(1), failed):
            skipped.append((line_no, "syllables do not rejoin to the word"))
            keys[line_no - 1] = ""
        skipped.sort()
    warn_skipped(log, path, skipped)
    syllables_of = dict(zip(keys, lowered.split("\n")))  # word -> syllabified form
    syllables_of.pop("", None)  # blank and skipped rows

    def corrected(syl_field: str) -> tuple[str, ...]:
        return tuple(sc_correction(syl_field.split(sep), vowels))

    return ParsedOnAccess(syllables_of, corrected, len(skipped))
