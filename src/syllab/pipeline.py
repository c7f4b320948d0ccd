"""Unified per-word syllabification with consensus checks and stress merging.

Order of operations for every word: dictionary lookup (external G2P
fallback for OOV words, in one batch per run), single-vowel short circuit,
optional syllabified-corpus lookup accepted only when its syllable count
matches the phone-domain nucleus count, then cross-domain projection (or
plain letters-SSP for the non-DTW methods).  Anomalies never raise; they
become record flags.  `analyze_words` turns the distinct words of a run
into one `WordAnalysis` each, from which `word_record` derives the record
of any method.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .align import project_ssp
from .errors import UnknownSymbolError, open_utf8
from .lexicon import (
    FallbackConfig,
    Lexicon,
    Pronunciation,
    SyllabifiedLexicon,
    g2p_fallback,
    lookup,
)
from .sonority import (
    VOWEL_LEVEL,
    SonorityHierarchy,
    SonoritySequence,
    sonority_sequence,
)
from .ssp import Syllabification, ssp_breaks, syllabify_symbols
from .textnorm import normalize

log = logging.getLogger(__name__)

METHOD_CHOICES = ("ssp", "lkp-ssp", "ssp-dtw", "lkp-ssp-dtw")

FLAG_NAMES = ("oov", "count-mismatch", "degenerate-projection",
              "no-nucleus", "no-stress", "numeral-unsupported")


@dataclass(frozen=True)
class Resources:
    """Loaded inputs shared by every word of a run."""

    lexicon: Lexicon
    phone_hierarchy: SonorityHierarchy
    letter_hierarchy: SonorityHierarchy
    syllabified: SyllabifiedLexicon | None = None
    fallback: FallbackConfig | None = None
    secondary_stress: dict[str, tuple[int, int]] | None = None
    variant: str = ""  # label such as "CMU" or "en_US", used in reports


@dataclass(frozen=True)
class WordRecord:
    word: str
    pronunciations: list[Pronunciation]
    phone_syll: Syllabification
    text_syll: Syllabification
    stress_index: int | None
    method: str
    flags: frozenset[str]


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


def _syll_from_parts(word: str, parts) -> Syllabification | None:
    if "".join(parts) != word:
        return None
    breaks, pos = [], 0
    for part in parts[:-1]:
        pos += len(part)
        breaks.append(pos)
    return Syllabification(tuple(word), tuple(breaks))


@dataclass(frozen=True)
class WordAnalysis:
    """The method-independent part of a word's annotation.

    `phone_seq` is None when the word has no pronunciation whose phones the
    hierarchy classifies; `corpus_syll` is the syllabified-corpus entry
    accepted by count consensus, if any.  The letter curve, letters-SSP and
    the DTW projection are each computed on first use, at most once.
    """

    word: str
    pronunciations: list[Pronunciation]
    phone_seq: SonoritySequence | None
    phone_syll: Syllabification
    nuclei: int
    corpus_syll: Syllabification | None
    stress_index: int | None
    flags: frozenset[str]
    letter_hierarchy: SonorityHierarchy = field(compare=False, repr=False)

    @cached_property
    def letter_seq(self) -> SonoritySequence | None:
        try:
            return sonority_sequence(tuple(self.word), self.letter_hierarchy)
        except UnknownSymbolError as exc:
            log.debug("letters of %r not classifiable (%s); kept unbroken",
                      self.word, exc)
            return None

    @cached_property
    def letters_ssp(self) -> Syllabification:
        if self.letter_seq is None:
            return Syllabification(tuple(self.word), ())
        return ssp_breaks(self.letter_seq)

    @cached_property
    def projection(self) -> tuple[Syllabification, bool]:
        """DTW-projected letter syllabification and its degenerate flag."""
        if self.letter_seq is None:
            return Syllabification(tuple(self.word), ()), False
        return project_ssp(self.phone_syll, self.phone_seq, self.letter_seq)


def analyze_words(words: Iterable[str], resources: Resources,
                  ) -> Iterator[WordAnalysis]:
    """One analysis per distinct lower-cased word of `words`, in first-seen order.

    Every distinct word is looked up once; the lexicon misses go to the
    external G2P, if one is configured, in one batch.  The analyses are
    made one at a time as the result is consumed.
    """
    found = {word: lookup(resources.lexicon, word)
             for word in dict.fromkeys(map(str.lower, words))}
    g2p = {}
    missing = [word for word, prons in found.items() if not prons]
    if resources.fallback is not None and missing:
        results = g2p_fallback(missing, resources.fallback)
        g2p = {word: [pron] for word, pron in zip(missing, results)
               if pron is not None}
        unresolved = len(missing) - len(g2p)
        log.log(logging.WARNING if unresolved else logging.INFO,
                "g2p: %d of %d OOV words unresolved", unresolved, len(missing))
    for word, prons in found.items():
        yield analyze_word(word, resources, prons or g2p.get(word, []),
                           oov=not prons)


def analyze_word(word: str, resources: Resources,
                 prons: list[Pronunciation] | None = None,
                 oov: bool = False) -> WordAnalysis:
    """The phone curve, SSP breaks, corpus entry and stress of a lower-cased word.

    `prons` come from the lexicon or, for an `oov` word, from the G2P;
    without them the word goes through `analyze_words` alone.
    """
    if prons is None:
        return next(analyze_words([word], resources))
    flags = {"oov"} if oov else set()

    phone_seq = None
    if prons:
        try:
            phone_seq = sonority_sequence(prons[0].raw, resources.phone_hierarchy)
        except UnknownSymbolError as exc:
            # hierarchy does not cover this entry's phones; same handling as OOV
            log.warning("%r: %s; treating as unresolved", word, exc)
            flags.add("oov")

    if phone_seq is None:
        flags.add("no-stress")
        return WordAnalysis(word, prons, None, Syllabification((), ()), 0, None,
                            None, frozenset(flags), resources.letter_hierarchy)

    phone_syll = ssp_breaks(phone_seq)
    nuclei = phone_seq.levels.count(VOWEL_LEVEL)
    if nuclei == 0:
        flags.add("no-nucleus")

    corpus_syll = None
    if nuclei > 1 and resources.syllabified is not None:
        entry = resources.syllabified.entries.get(word)
        if entry is not None and len(entry) == nuclei:
            corpus_syll = _syll_from_parts(word, entry)

    stress = (_arpabet_stress(prons[0], phone_syll)
              if resources.lexicon.phoneset == "cmu-arpabet" else None)
    if stress is None and resources.secondary_stress:
        sec = resources.secondary_stress.get(word)
        if sec is not None:
            stress = merge_stress(phone_syll, sec[0], sec[1])
    if stress is None:
        flags.add("no-stress")

    return WordAnalysis(word, prons, phone_seq, phone_syll, nuclei, corpus_syll,
                        stress, frozenset(flags), resources.letter_hierarchy)


def word_record(analysis: WordAnalysis, method: str,
                extra_flags=()) -> WordRecord:
    """The record of an analyzed word under `method`, with the token's flags."""
    if method not in METHOD_CHOICES:
        raise ValueError(f"unknown method {method!r}")
    a = analysis
    flags = set(extra_flags) | a.flags
    if a.phone_seq is None:
        text_syll, method_used = a.letters_ssp, "oov-unresolved"
    elif a.nuclei < 2:
        text_syll = Syllabification(tuple(a.word), ())
        if a.nuclei == 1:
            method_used = "single-vowel"
        else:
            method_used = "ssp-dtw" if method.endswith("dtw") else "ssp-letters"
    elif method.startswith("lkp") and a.corpus_syll is not None:
        text_syll, method_used = a.corpus_syll, "corpus-lookup"
    elif method.endswith("dtw"):
        text_syll, degenerate = a.projection
        if degenerate:
            flags.add("degenerate-projection")
        method_used = "ssp-dtw"
    else:
        text_syll, method_used = a.letters_ssp, "ssp-letters"

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
    return word_record(analyze_word(word, resources), method, extra_flags)


def load_secondary_stress(path, hierarchy: SonorityHierarchy,
                          ) -> dict[str, tuple[int, int]]:
    """Read `word<TAB>phones-with-stress-marks` transcriptions.

    A token prefixed with ˈ (or ') carries primary stress; the entry maps
    the word to (syllable count, stressed syllable index) computed by the
    engine's own break detection on the stripped phone sequence.
    """
    out: dict[str, tuple[int, int]] = {}
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                log.warning("%s:%d: expected word<TAB>phones", path, line_no)
                continue
            word = fields[0].lower()
            symbols, stress_pos = [], None
            for tok in fields[1].split():
                marked = tok[0] in "ˈ'"
                tok = tok.lstrip("ˈˌ',")
                if not tok:
                    continue
                if marked and stress_pos is None:
                    stress_pos = len(symbols)
                symbols.append(tok)
            if stress_pos is None or not symbols:
                continue
            try:
                syll = syllabify_symbols(symbols, hierarchy)
            except UnknownSymbolError as exc:
                log.warning("%s:%d: %s", path, line_no, exc)
                continue
            out[word] = (syll.n_syllables, syll.syllable_of(stress_pos))
    return out


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
    sentence_keys = [[(tok.core, tok.flags) for tok in normalize(s, lang)]
                     for s in sentences]
    by_word: dict[str, list] = {}
    for key in dict.fromkeys(key for ks in sentence_keys for key in ks):
        by_word.setdefault(key[0].lower(), []).append(key)
    records = {key: word_record(analysis, method, key[1])
               for keys, analysis in zip(by_word.values(),
                                         analyze_words(by_word, resources))
               for key in keys}
    return sentence_keys, records


@dataclass
class Report:
    """Flagged records grouped by flag, with per-flag counts."""

    counts: dict[str, int]
    groups: dict[str, list[WordRecord]]

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


def consistency_report(records) -> Report:
    groups: dict[str, list[WordRecord]] = {}
    for rec in sorted(records, key=lambda r: r.word):
        for flag in rec.flags:
            groups.setdefault(flag, []).append(rec)
    groups = dict(sorted(groups.items()))
    return Report({f: len(rs) for f, rs in groups.items()}, groups)
