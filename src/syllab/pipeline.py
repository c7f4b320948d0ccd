"""Unified per-word syllabification with consensus checks and stress merging.

Order of operations for every word: dictionary lookup (external G2P
fallback for OOV words, in one batch per run), single-vowel short circuit,
optional syllabified-corpus lookup accepted only when its syllable count
matches the phone-domain syllable count, then cross-domain projection (or
plain letters-SSP for the non-DTW methods).  Anomalies never raise; they
become record flags.  `analyze_words` turns the distinct words of a run
into one `WordAnalysis` each, from which `word_record` derives the record
of any method; it analyzes the words in chunks of `ANALYSIS_CHUNK`, so
that the words of a chunk are projected with one DTW.  An analysis keeps
its facts in slots, never a DTW path, and fills the costlier ones (letter
levels, letters-SSP, projection) on first read, as its records need them.
"""

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain, compress, islice, product

from .align import project_words
from .errors import LazyLogger, UnknownSymbolError, read_lines, warn_skipped
from .lexicon import ParsedOnAccess, Pronunciation, g2p_fallback, lookup
from .sonority import (
    VOWEL_LEVEL,
    SonorityHierarchy,
    SonoritySequence,
    sonority_sequence,
)
from .ssp import Syllabification, ssp_breaks, syllabify_symbols
from .textnorm import kept_numeral, normalize

log = LazyLogger(__name__)

METHOD_CHOICES = ("ssp", "lkp-ssp", "ssp-dtw", "lkp-ssp-dtw")
# a record's `method`: the step that made its letter syllabification
RECORD_METHODS = ("corpus-lookup", "single-vowel", "ssp-dtw", "ssp-letters",
                  "oov-unresolved")
# every flag a record can carry: its analysis's, its method's, and
# `numeral-unsupported` for a word that is a numeral or ordinal in digits
RECORD_FLAGS = frozenset({"oov", "no-stress", "no-nucleus", "degenerate-projection",
                          "projection-skipped", "count-mismatch",
                          "numeral-unsupported"})

# the most distinct words `analyze_words` holds analyzed before it yields
# them: their DTW runs as one batch, and a larger chunk packs the kernel's
# lanes better but holds more analyses at once.  An analysis with its levels
# and breaks holds about 1.5 KB, so a chunk about 1.5 MB.  On the
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
    accepted by count consensus, if any.  The letters' levels, the letters
    as one syllable (`unbroken`), letters-SSP and the DTW projection are
    slots filled on first read, at most once; no DTW path is kept.  Analyses
    with equal flags share one frozenset.
    """

    _LAZY = ("letter_seq", "unbroken", "letters_ssp", "projection")
    __slots__ = ("word", "pronunciations", "phone_seq", "phone_syll", "corpus_syll",
                 "stress_index", "flags", "letter_hierarchy") + _LAZY

    def __init__(self, word: str, pronunciations: list[Pronunciation],
                 phone_seq: SonoritySequence | None, phone_syll: Syllabification,
                 corpus_syll: Syllabification | None,
                 stress_index: int | None, flags: frozenset[str],
                 letter_hierarchy: SonorityHierarchy):
        self.word = word
        self.pronunciations = pronunciations
        self.phone_seq = phone_seq
        self.phone_syll = phone_syll
        self.corpus_syll = corpus_syll
        self.stress_index = stress_index
        self.flags = flags
        self.letter_hierarchy = letter_hierarchy

    def __getattr__(self, name: str):
        # only the read of an unset slot gets here: fill a lazy one
        if name not in WordAnalysis._LAZY:
            raise AttributeError(f"'WordAnalysis' object has no attribute {name!r}")
        value = getattr(self, "_" + name)()
        setattr(self, name, value)
        return value

    def _letter_seq(self) -> SonoritySequence | None:
        try:
            return sonority_sequence(self.word, self.letter_hierarchy)
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
        None when the DTW would exceed its cell budget.  Read only for a word
        with a phone break to carry, and projected alone unless its chunk was."""
        if self.letter_seq is None:
            return self.unbroken, False
        return _projections([self])[0]


def _projections(analyses: list[WordAnalysis]) -> list:
    """Each analysis's projection, as `_projection` gives it, by one DTW."""
    results = project_words([(a.phone_syll, a.phone_seq, a.letter_seq) for a in analyses])
    return [None if result is None else result[1] for result in results]


def analyze_words(words: Iterable[str], resources: Resources, methods=(),
                  ) -> Iterator[WordAnalysis]:
    """One analysis per distinct lower-cased word of `words`, in first-seen order.

    The analyses are made `ANALYSIS_CHUNK` at a time as the result is
    consumed: first the facts of each word of a chunk, then, by one DTW, the
    projection of those whose records under one of `methods` read one.  Every
    distinct word is looked up once, by its chunk, or up front when an
    external G2P is configured: the lexicon misses go to it in one batch.
    The words whose phones the phone hierarchy does not classify are counted
    in one warning, logged when the result is exhausted or dropped; the run
    keeps only the first of their errors.
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
    # as text_syllabification reads them: a word with a phone break under a
    # DTW method, unless every such method is a lookup and the corpus has it
    projects = any(m.endswith("dtw") for m in methods)
    lookup_first = all(m.startswith("lkp") for m in methods if m.endswith("dtw"))
    # how many words have phones the phone hierarchy does not classify, and
    # the first of them with its error, as `analyze_word` records them
    unclassified = [0, None]
    items = iter(found.items())

    def analysis(word, prons):
        if prons is None:
            prons = lookup(resources.lexicon, word)
        return analyze_word(word, resources, prons or g2p.get(word, []), oov=not prons,
                            unclassified=unclassified)

    try:
        while chunk := [analysis(*item) for item in islice(items, ANALYSIS_CHUNK)]:
            if projects:
                todo = [a for a in chunk if a.phone_syll.breaks
                        and not (lookup_first and a.corpus_syll is not None)
                        and a.letter_seq is not None]
                for a, projection in zip(todo, _projections(todo)):
                    a.projection = projection
            yield from chunk
    finally:
        count, first = unclassified
        if count:
            log.warning("%d word(s) with phones the hierarchy does not classify, "
                        "treating as unresolved (first %r: %s)", count, *first)


# an analysis's flags by (oov, no-stress, no-nucleus): one frozenset for
# each combination, which every analysis with those flags shares
_FLAG_SETS = {key: frozenset(compress(("oov", "no-stress", "no-nucleus"), key))
              for key in product((False, True), repeat=3)}


def analyze_word(word: str, resources: Resources,
                 prons: list[Pronunciation], oov: bool,
                 unclassified: list | None = None) -> WordAnalysis:
    """The phone levels, SSP breaks, corpus entry and stress of a lower-cased word.

    `prons` come from the lexicon or, for an `oov` word, from the G2P.  A
    word whose phones the phone hierarchy does not classify is handled as
    OOV; if `unclassified`, a `[count, first]` pair, is given, the word is
    counted in it, and the word and its error become `first` if it is None.
    """
    phone_seq = None
    if prons:
        try:
            phone_seq = sonority_sequence(prons[0].raw, resources.phone_hierarchy)
        except UnknownSymbolError as exc:
            # hierarchy does not cover this entry's phones; same handling as OOV
            if unclassified is not None:
                unclassified[0] += 1
                if unclassified[1] is None:
                    unclassified[1] = (word, exc)
            oov = True

    if phone_seq is None:
        return WordAnalysis(word, prons, None, Syllabification((), ()), None, None,
                            _FLAG_SETS[oov, True, False], resources.letter_hierarchy)

    # SSP breaks once between consecutive nuclei, so a word of n >= 1 nuclei
    # has n phone syllables, and one of no nucleus has no break
    phone_syll = ssp_breaks(phone_seq)

    corpus_syll = None
    if phone_syll.breaks and resources.syllabified is not None:
        # a caller's mapping may hold entries with empty or wrong syllables
        entry = resources.syllabified.get(word, ())
        if len(entry) == phone_syll.n_syllables and all(entry) and "".join(entry) == word:
            corpus_syll = Syllabification.from_parts(entry)

    stress = (_arpabet_stress(prons[0], phone_syll)
              if resources.phone_hierarchy.symbol_set == "cmu-arpabet" else None)
    if stress is None and resources.secondary_stress:
        # the secondary transcription's stress index, adopted iff its
        # syllable count is the phones'; a caller's entry may be out of range
        count, index = resources.secondary_stress.get(word, (0, 0))
        if 0 <= index < count == phone_syll.n_syllables:
            stress = index

    return WordAnalysis(word, prons, phone_seq, phone_syll, corpus_syll, stress,
                        _FLAG_SETS[oov, stress is None,
                                   VOWEL_LEVEL not in phone_seq.levels],
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
    if not a.phone_syll.breaks:  # no DTW runs for a word of one nucleus or none
        return a.unbroken, "ssp-letters" if "no-nucleus" in a.flags else "single-vowel"
    if method.startswith("lkp") and a.corpus_syll is not None:
        return a.corpus_syll, "corpus-lookup"
    if method.endswith("dtw") and a.projection is not None:
        return a.projection[0], "ssp-dtw"
    return a.letters_ssp, "ssp-letters"


def word_record(analysis: WordAnalysis, method: str) -> WordRecord:
    """The record of an analyzed word under `method`."""
    a = analysis
    text_syll, method_used = text_syllabification(a, method)
    flags = set(a.flags)
    if kept_numeral(a.word):
        flags.add("numeral-unsupported")
    if method_used == "ssp-dtw" and a.projection[1]:
        flags.add("degenerate-projection")
    elif method_used == "ssp-letters" and method.endswith("dtw") and a.phone_syll.breaks:
        # a DTW method falls back to letters-SSP only past the DTW cell budget
        flags.add("projection-skipped")
    if a.phone_syll.n_syllables != text_syll.n_syllables:
        flags.add("count-mismatch")
    return WordRecord(a.word, a.pronunciations, a.phone_syll, text_syll,
                      a.stress_index, method_used, frozenset(flags))


def syllabify_word(word: str, resources: Resources,
                   method: str = "lkp-ssp-dtw") -> WordRecord:
    """Produce the unified annotation record for one word."""
    return word_record(next(analyze_words([word], resources, (method,))), method)


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
    distinct symbol of the file is checked against the hierarchy once, and
    the file is read in one regex pass.
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
        # some line is no entry or holds a rejected symbol: the entries are
        # those of the lines neither empty nor comments, in order
        numbered = [n for n, line in enumerate(lines, 1)
                    if line and not line.startswith("#")]
        phones_of = {}
        for line_no, word, field in zip(numbered, words, phones):
            reason = None
            if not field:
                reason = ("no primary stress mark" if "\t" in lines[line_no - 1]
                          else "expected word<TAB>phones")
            elif unknown:  # the first symbol the hierarchy rejects, if any
                reason = next(filter(None, (unknown.get(tok.lstrip(_MARKS))
                                            for tok in field.split())), None)
            if reason:
                skipped.append((line_no, reason))
            else:
                phones_of[word.lower()] = field
    else:
        phones_of = dict(zip(map(str.lower, words), phones))
    warn_skipped(log, path, skipped)

    def stress(phones: str) -> tuple[int, int]:
        symbols, stress_pos = _marked_symbols(phones)
        syll = syllabify_symbols(symbols, hierarchy)
        return syll.n_syllables, syll.syllable_of(stress_pos)

    return ParsedOnAccess(phones_of, stress, len(skipped))


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
                    ) -> tuple[list[list[str]], dict[str, WordRecord]]:
    """Annotate sentences in order, analyzing each distinct word once.

    Each sentence is normalized once into its words.  Returns those words
    per sentence and the table of records: every distinct word gets one
    record, which all its occurrences share, made from its analysis, which
    is then dropped.
    """
    sentence_words = [normalize(s, lang) for s in sentences]
    records = {a.word: word_record(a, method)
               for a in analyze_words(chain.from_iterable(sentence_words),
                                      resources, (method,))}
    return sentence_words, records


def consistency_report(counted) -> str:
    """The report TSV over `counted` (record, count) pairs: each record stands
    for `count` tokens, so the records of a run's distinct words give the same
    report as one record per token.  Records are stably sorted by word, and
    the groups by flag."""
    groups: dict[str, list[tuple[WordRecord, int]]] = {}
    for rec, n in sorted(counted, key=lambda pair: pair[0].word):
        for flag in rec.flags:
            groups.setdefault(flag, []).append((rec, n))
    flags = sorted(groups)
    lines = ["# flag counts", *(f"# {flag}\t{sum(n for _, n in groups[flag])}"
                                for flag in flags),
             "flag\tword\tphone_syllables\ttext_syllables\tmethod"]
    for flag in flags:
        for rec, n in groups[flag]:
            lines += ["\t".join((flag, rec.word, rec.phone_syll.phone_text(),
                                 rec.text_syll.text(), rec.method))] * n
    return "\n".join(lines) + "\n"
