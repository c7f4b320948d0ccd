"""Unified per-word syllabification with consensus checks and stress merging.

Order of operations for every word: dictionary lookup (external G2P
fallback for OOV words, in one batch per run), single-vowel short circuit,
optional syllabified-corpus lookup accepted only when its syllable count
matches the phone-domain nucleus count, then cross-domain projection (or
plain letters-SSP for the non-DTW methods).  Anomalies never raise; they
become record flags.  `analyze_words` turns the distinct words of a run
into one `WordAnalysis` each, from which `word_record` derives the record
of any method; it analyzes the words in chunks of `ANALYSIS_CHUNK`, so
that the words of a chunk are aligned with one DTW.  An analysis keeps its
facts in slots and fills the costlier ones (letter curve, letters-SSP,
projection) on first read, so a chunk holds no more than its words need.
"""

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain, compress, islice, product

from .align import dtw, fits_budget, project_breaks
from .errors import LazyLogger, UnknownSymbolError, read_lines, warn_skipped
from .lexicon import ParsedOnAccess, Pronunciation, g2p_fallback, lookup
from .sonority import (
    VOWEL_LEVEL,
    SonorityHierarchy,
    SonoritySequence,
    sonority_sequence,
)
from .ssp import Syllabification, ssp_breaks, syllabify_symbols
from .textnorm import normalize

log = LazyLogger(__name__)

METHOD_CHOICES = ("ssp", "lkp-ssp", "ssp-dtw", "lkp-ssp-dtw")
# a record's `method`: the step that made its letter syllabification
RECORD_METHODS = ("corpus-lookup", "single-vowel", "ssp-dtw", "ssp-letters",
                  "oov-unresolved")
# every flag a record can carry: its analysis's, its method's and its token's
RECORD_FLAGS = frozenset({"oov", "no-stress", "no-nucleus", "degenerate-projection",
                          "projection-skipped", "count-mismatch",
                          "numeral-unsupported"})

# the most distinct words `analyze_words` holds analyzed before it yields
# them: their DTW runs as one batch, and a larger chunk packs the kernel's
# lanes better but holds more analyses at once.  An analysis with its curves,
# breaks and DTW path holds about 2.3 KB, so a chunk about 2.4 MB.  On the
# benchmark's inputs 1024 was faster than 512, and than 2048 on annotate
# (on ablate 2048 tied, holding twice the memory)
ANALYSIS_CHUNK = 1024


Resources = namedtuple(
    "Resources", "lexicon phone_hierarchy letter_hierarchy syllabified fallback "
    "secondary_stress variant", defaults=(None, None, None, ""))
Resources.__doc__ = ("Loaded inputs shared by every word of a run.  `lexicon` maps "
                     "a lower-cased word to its pronunciations and `syllabified` "
                     "to its syllables; `variant` is a label such as "
                     '"CMU" or "en_US", printed only by the ablation.')

WordRecord = namedtuple("WordRecord", "word pronunciations phone_syll text_syll "
                        "stress_index method flags")
WordRecord.__doc__ = "The annotation of a word under the method it names."


def merge_stress(phone_syll: Syllabification, secondary_syll_count: int,
                 secondary_stress_index: int) -> int | None:
    """Adopt the secondary transcription's stress index iff counts agree."""
    if not 0 <= secondary_stress_index < secondary_syll_count:
        raise ValueError("stress index outside the secondary syllable range")
    if secondary_syll_count == phone_syll.n_syllables:
        return secondary_stress_index
    return None


def _arpabet_stress(pron: Pronunciation, phone_syll: Syllabification) -> int | None:
    """Syllable of the first ARPABET phone that ends in the ASCII digit 1."""
    for pos, symbol in enumerate(pron.raw):
        if len(symbol) > 1 and symbol[-1] == "1":
            return phone_syll.syllable_of(pos)
    return None


class WordAnalysis:
    """The method-independent part of a word's annotation.

    `phone_seq` is None when the word has no pronunciation whose phones the
    hierarchy classifies; `corpus_syll` is the syllabified-corpus entry
    accepted by count consensus, if any; `alignment`, the DTW (pairs, cost)
    of the phone curve onto the letter curve, is None until `align` sets
    it.  The letter curve, the letters as one syllable (`unbroken`),
    letters-SSP and the DTW projection are slots filled on first read, at
    most once.  Analyses with equal flags share one frozenset.
    """

    _LAZY = ("letter_seq", "unbroken", "letters_ssp", "projection")
    __slots__ = ("word", "pronunciations", "phone_seq", "phone_syll", "nuclei",
                 "corpus_syll", "stress_index", "flags", "letter_hierarchy",
                 "alignment") + _LAZY

    def __init__(self, word: str, pronunciations: list[Pronunciation],
                 phone_seq: SonoritySequence | None, phone_syll: Syllabification,
                 nuclei: int, corpus_syll: Syllabification | None,
                 stress_index: int | None, flags: frozenset[str],
                 letter_hierarchy: SonorityHierarchy):
        self.word = word
        self.pronunciations = pronunciations
        self.phone_seq = phone_seq
        self.phone_syll = phone_syll
        self.nuclei = nuclei
        self.corpus_syll = corpus_syll
        self.stress_index = stress_index
        self.flags = flags
        self.letter_hierarchy = letter_hierarchy
        self.alignment = None

    def __getattr__(self, name: str):
        # only the read of an unset slot gets here: fill a lazy one
        if name not in WordAnalysis._LAZY:
            raise AttributeError(f"'WordAnalysis' object has no attribute {name!r}")
        value = getattr(self, "_" + name)()
        setattr(self, name, value)
        return value

    def _letter_seq(self) -> SonoritySequence | None:
        try:
            return sonority_sequence(tuple(self.word), self.letter_hierarchy)
        except UnknownSymbolError:  # the letters stay unbroken
            return None

    def _unbroken(self) -> Syllabification:
        return Syllabification(tuple(self.word), ())

    def _letters_ssp(self) -> Syllabification:
        if self.letter_seq is None:
            return self.unbroken
        return ssp_breaks(self.letter_seq)

    def _projection(self) -> tuple[Syllabification, bool] | None:
        """DTW-projected letter syllabification and its degenerate flag;
        None when the DTW would exceed its cell budget.  DTW runs only when
        there is a break to carry; unless `align` has run, a batch of one."""
        if self.letter_seq is None:
            return self.unbroken, False
        if not fits_budget(self.phone_seq, self.letter_seq):
            return None
        if not self.phone_syll.breaks:
            return Syllabification(self.letter_seq.symbols, ()), False
        if self.alignment is None:
            align([self])
        return project_breaks(self.phone_syll, self.alignment[0], self.phone_seq,
                              self.letter_seq)


def align(analyses: list[WordAnalysis]) -> None:
    """Set the alignment of each analysis that has none yet and has both
    curves within the cell budget, with one `dtw` call over them all."""
    todo = [a for a in analyses if a.alignment is None and a.phone_seq is not None
            and a.letter_seq is not None and fits_budget(a.phone_seq, a.letter_seq)]
    for a, path in zip(todo, dtw([(a.phone_seq, a.letter_seq) for a in todo])):
        a.alignment = path


def analyze_words(words: Iterable[str], resources: Resources, methods=(),
                  ) -> Iterator[WordAnalysis]:
    """One analysis per distinct lower-cased word of `words`, in first-seen order.

    The analyses are made `ANALYSIS_CHUNK` at a time as the result is
    consumed: first the facts of each word of a chunk, then one DTW over
    those whose records under one of `methods` read a projection.  Every
    distinct word is looked up once, by its chunk, or up front when an
    external G2P is configured: the lexicon misses go to it in one batch.
    The words whose phones the phone hierarchy does not classify are counted
    in one warning, logged when the result is exhausted or dropped.
    """
    # word -> its pronunciations, or None until its chunk looks it up
    found = dict.fromkeys(map(str.lower, words))
    g2p = {}
    if resources.fallback is not None:
        found = {word: lookup(resources.lexicon, word) for word in found}
        missing = [word for word, prons in found.items() if not prons]
        if missing:
            results = g2p_fallback(missing, resources.fallback)
            g2p = {word: [pron] for word, pron in zip(missing, results)
                   if pron is not None}
            unresolved = len(missing) - len(g2p)
            if unresolved:
                log.warning("g2p: %d of %d OOV words unresolved",
                            unresolved, len(missing))
    # as text_syllabification reads them: a word of two or more nuclei under
    # a DTW method, unless every such method is a lookup and the corpus has it
    projects = any(m.endswith("dtw") for m in methods)
    lookup_first = all(m.startswith("lkp") for m in methods if m.endswith("dtw"))
    unclassified: list[tuple[str, UnknownSymbolError]] = []
    items = iter(found.items())

    def analysis(word, prons):
        if prons is None:
            prons = lookup(resources.lexicon, word)
        return analyze_word(word, resources, prons or g2p.get(word, []), oov=not prons,
                            unclassified=unclassified)

    try:
        while chunk := [analysis(*item) for item in islice(items, ANALYSIS_CHUNK)]:
            if projects:
                align([a for a in chunk if a.nuclei > 1 and a.phone_syll.breaks
                       and not (lookup_first and a.corpus_syll is not None)])
            yield from chunk
    finally:
        if unclassified:
            log.warning("%d word(s) with phones the hierarchy does not classify, "
                        "treating as unresolved (first %r: %s)",
                        len(unclassified), *unclassified[0])


# an analysis's flags by (oov, no-stress, no-nucleus): one frozenset for
# each combination, which every analysis with those flags shares
_FLAG_SETS = {key: frozenset(compress(("oov", "no-stress", "no-nucleus"), key))
              for key in product((False, True), repeat=3)}


def analyze_word(word: str, resources: Resources,
                 prons: list[Pronunciation], oov: bool,
                 unclassified: list | None = None) -> WordAnalysis:
    """The phone curve, SSP breaks, corpus entry and stress of a lower-cased word.

    `prons` come from the lexicon or, for an `oov` word, from the G2P.  A
    word whose phones the phone hierarchy does not classify is handled as
    OOV, and the word and the error are appended to `unclassified`, if given.
    """
    phone_seq = None
    if prons:
        try:
            phone_seq = sonority_sequence(prons[0].raw, resources.phone_hierarchy)
        except UnknownSymbolError as exc:
            # hierarchy does not cover this entry's phones; same handling as OOV
            if unclassified is not None:
                unclassified.append((word, exc))
            oov = True

    if phone_seq is None:
        return WordAnalysis(word, prons, None, Syllabification((), ()), 0, None,
                            None, _FLAG_SETS[oov, True, False],
                            resources.letter_hierarchy)

    phone_syll = ssp_breaks(phone_seq)
    nuclei = phone_seq.levels.count(VOWEL_LEVEL)

    corpus_syll = None
    if nuclei > 1 and resources.syllabified is not None:
        # a caller's mapping may hold entries with empty or wrong syllables
        entry = resources.syllabified.get(word, ())
        if len(entry) == nuclei and all(entry) and "".join(entry) == word:
            corpus_syll = Syllabification.from_parts(entry)

    stress = (_arpabet_stress(prons[0], phone_syll)
              if resources.phone_hierarchy.symbol_set == "cmu-arpabet" else None)
    if stress is None and resources.secondary_stress:
        sec = resources.secondary_stress.get(word)
        if sec is not None:
            stress = merge_stress(phone_syll, sec[0], sec[1])

    return WordAnalysis(word, prons, phone_seq, phone_syll, nuclei, corpus_syll,
                        stress, _FLAG_SETS[oov, stress is None, nuclei == 0],
                        resources.letter_hierarchy)


def text_syllabification(analysis: WordAnalysis, method: str,
                         ) -> tuple[Syllabification, str]:
    """The letter syllabification of an analyzed word under `method`, and
    the name of the step that made it (a record's `method`)."""
    if method not in METHOD_CHOICES:
        raise ValueError(f"unknown method {method!r}")
    a = analysis
    if a.phone_seq is None:
        return a.letters_ssp, "oov-unresolved"
    if a.nuclei < 2:
        if a.nuclei == 1:
            return a.unbroken, "single-vowel"
        return a.unbroken, "ssp-dtw" if method.endswith("dtw") else "ssp-letters"
    if method.startswith("lkp") and a.corpus_syll is not None:
        return a.corpus_syll, "corpus-lookup"
    if method.endswith("dtw") and a.projection is not None:
        return a.projection[0], "ssp-dtw"
    return a.letters_ssp, "ssp-letters"


def word_record(analysis: WordAnalysis, method: str,
                extra_flags=()) -> WordRecord:
    """The record of an analyzed word under `method`, with the token's flags."""
    a = analysis
    text_syll, method_used = text_syllabification(a, method)
    flags = set(extra_flags) | a.flags
    # ssp-dtw projects only a word of two or more nuclei
    if method_used == "ssp-dtw" and a.nuclei > 1 and a.projection[1]:
        flags.add("degenerate-projection")
    elif method_used == "ssp-letters" and method.endswith("dtw"):
        # a DTW method falls back to letters-SSP only past the DTW cell budget
        flags.add("projection-skipped")
    if a.phone_syll.n_syllables != text_syll.n_syllables:
        flags.add("count-mismatch")
    else:
        flags.discard("count-mismatch")
    return WordRecord(a.word, a.pronunciations, a.phone_syll, text_syll,
                      a.stress_index, method_used, frozenset(flags))


def syllabify_word(word: str, resources: Resources,
                   method: str = "lkp-ssp-dtw",
                   extra_flags=()) -> WordRecord:
    """Produce the unified annotation record for one word token."""
    return word_record(next(analyze_words([word], resources, (method,))), method,
                       extra_flags)


# a phone token starting with a primary mark carries primary stress; the
# leading marks are stripped from every token
_PRIMARY_MARKS, _MARKS = "ˈ'", "ˈˌ',"
# primary stress in a phone field: a token that starts with a primary mark
# and keeps a symbol after its leading marks, as `_marked_symbols` reads it
_PRIMARY = (rf"[^\t\n]*?[{_PRIMARY_MARKS}](?<!\S[{_PRIMARY_MARKS}])"
            rf"[{_MARKS}]*[^\s{_MARKS}]")
# per line that is neither empty nor a comment: (word, phones) of an entry
# whose phone field carries primary stress, ("", "") for any other line;
# compiled on first use, so a run without a secondary file never compiles it
_STRESS_ENTRY = rf"(?m)^(?!#)(?:([^\t\n]*)\t({_PRIMARY}[^\t\n]*)|[^\n]+)"


def load_secondary_stress(path, hierarchy: SonorityHierarchy,
                          ) -> Mapping[str, tuple[int, int]]:
    """Read `word<TAB>phones-with-stress-marks` transcriptions.

    A token prefixed with ˈ (or ') carries primary stress; the entry maps
    the word to (syllable count, stressed syllable index) computed by the
    engine's own break detection on the stripped phone sequence, when the
    word is looked up.  Lines without a tab or a primary-stress mark, or
    with a symbol the hierarchy does not classify, are skipped at load,
    counted in the result's `skipped` and in one warning per file.  Each
    distinct symbol of the file is checked against the hierarchy once; the
    lines are read one by one only when some line fails a check.
    """
    lines = read_lines(path)
    entries = re.findall(_STRESS_ENTRY, "\n".join(lines))
    words, phones = zip(*entries) if entries else ((), ())
    tokens = set(chain.from_iterable(map(str.split, phones)))
    symbols = {tok.lstrip(_MARKS) for tok in tokens}
    symbols.discard("")
    unknown = {}  # symbol -> why the hierarchy rejects it
    for symbol in symbols:
        try:
            hierarchy.level(symbol)
        except UnknownSymbolError as exc:
            unknown[symbol] = str(exc)
    skipped: list[tuple[int, str]] = []  # (line number, reason)
    if "" in phones or unknown:
        # some line is no entry or holds a rejected symbol: read each line
        # on its own, to name every skipped line and its reason
        phones_of = {}
        for line_no, line in enumerate(lines, 1):
            if not line or line.startswith("#"):
                continue
            reason = _stress_line_fault(line, unknown)
            if reason:
                skipped.append((line_no, reason))
            else:
                word, phone_field = line.split("\t", 2)[:2]
                phones_of[word.lower()] = phone_field
    else:
        phones_of = dict(zip(map(str.lower, words), phones))
    warn_skipped(log, path, skipped)

    def stress(phones: str) -> tuple[int, int]:
        symbols, stress_pos = _marked_symbols(phones)
        syll = syllabify_symbols(symbols, hierarchy)
        return syll.n_syllables, syll.syllable_of(stress_pos)

    return ParsedOnAccess(phones_of, stress, len(skipped))


def _stress_line_fault(line: str, unknown: Mapping[str, str]) -> str | None:
    """Why a line of a secondary stress file is skipped, given the reason
    of each symbol the hierarchy rejects; None for an entry."""
    fields = line.split("\t")
    if len(fields) < 2:
        return "expected word<TAB>phones"
    symbols, stress_pos = _marked_symbols(fields[1])
    if stress_pos is None:
        return "no primary stress mark"
    return next((unknown[s] for s in symbols if s in unknown), None)


def _marked_symbols(phones: str) -> tuple[list[str], int | None]:
    """The phone symbols without stress marks, and the index of the first
    one marked for primary stress (None when none is)."""
    symbols, stress_pos = [], None
    for tok in phones.split():
        primary = tok[0] in _PRIMARY_MARKS
        tok = tok.lstrip(_MARKS)
        if not tok:
            continue
        if primary and stress_pos is None:
            stress_pos = len(symbols)
        symbols.append(tok)
    return symbols, stress_pos


def annotate_corpus(sentences, lang: str, resources: Resources,
                    method: str = "lkp-ssp-dtw",
                    ) -> tuple[list[list[tuple]], dict[tuple, WordRecord]]:
    """Annotate sentences in order, analyzing each distinct word once.

    Each sentence is normalized once into the (word, token flags) keys of
    its tokens.  Returns those keys per sentence and the table of records:
    every distinct key gets one record, which all its occurrences share.
    The records of a word's keys are made from its analysis, which is then
    dropped.
    """
    sentence_keys = [normalize(s, lang) for s in sentences]
    by_word: dict[str, list] = {}
    for key in dict.fromkeys(key for ks in sentence_keys for key in ks):
        by_word.setdefault(key[0], []).append(key)
    records = {key: word_record(analysis, method, key[1])
               for keys, analysis in zip(by_word.values(),
                                         analyze_words(by_word, resources,
                                                       (method,)))
               for key in keys}
    return sentence_keys, records


class Report(namedtuple("Report", "counts groups")):
    """Flagged records grouped by flag (`groups`: flag -> list of
    `WordRecord`s), with per-flag counts (`counts`: flag -> int)."""

    __slots__ = ()

    def to_tsv(self) -> str:
        lines = ["# flag counts"]
        for flag in sorted(self.counts):
            lines.append(f"# {flag}\t{self.counts[flag]}")
        lines.append("flag\tword\tphone_syllables\ttext_syllables\tmethod")
        for flag in sorted(self.groups):
            for rec in self.groups[flag]:
                lines.append("\t".join((
                    flag, rec.word, rec.phone_syll.phone_text(),
                    rec.text_syll.text(), rec.method)))
        return "\n".join(lines) + "\n"


def consistency_report(counted) -> Report:
    """The report over `counted` (record, count) pairs: each record stands for
    `count` tokens, so the records of a run's distinct keys give the same
    report as one record per token."""
    groups: dict[str, list[WordRecord]] = {}
    for rec, n in sorted(counted, key=lambda pair: pair[0].word):
        for flag in rec.flags:
            groups.setdefault(flag, []).extend([rec] * n)
    groups = dict(sorted(groups.items()))
    return Report({f: len(rs) for f, rs in groups.items()}, groups)
