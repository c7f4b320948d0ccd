"""Unified per-word syllabification with consensus checks and stress merging.

Order of operations for every word: dictionary lookup (external G2P fallback
for OOV words), single-vowel short circuit, optional syllabified-corpus
lookup accepted only when its syllable count matches the phone-domain
nucleus count, then cross-domain projection (or plain letters-SSP for the
non-DTW methods).  Anomalies never raise; they become record flags.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .align import ssp_dtw_syllabify
from .errors import UnknownSymbolError
from .lexicon import (
    FallbackConfig,
    Lexicon,
    Pronunciation,
    SyllabifiedLexicon,
    g2p_fallback,
    lookup,
)
from .sonority import VOWEL_LEVEL, SonorityHierarchy, sonority_sequence
from .ssp import Syllabification, ssp_breaks, syllabify_symbols
from .textnorm import normalize

log = logging.getLogger(__name__)

METHOD_CHOICES = ("ssp", "lkp-ssp", "ssp-dtw", "lkp-ssp-dtw")

FLAG_NAMES = ("oov", "count-mismatch", "degenerate-projection",
              "no-nucleus", "no-stress", "numeral-unsupported")


@dataclass
class Resources:
    """Loaded inputs shared by every word of a run, plus its G2P cache."""

    lexicon: Lexicon
    phone_hierarchy: SonorityHierarchy
    letter_hierarchy: SonorityHierarchy
    syllabified: SyllabifiedLexicon | None = None
    fallback: FallbackConfig | None = None
    secondary_stress: dict[str, tuple[int, int]] | None = None
    variant: str = ""  # label such as "CMU" or "en_US", used in reports
    # external G2P results of this run, by lower-cased OOV word
    g2p_cache: dict[str, Pronunciation | None] = field(default_factory=dict)

    @property
    def phone_format(self) -> str:
        return "cmu" if self.lexicon.phoneset == "cmu-arpabet" else "mfa"


@dataclass
class WordRecord:
    word: str
    pronunciations: list[Pronunciation]
    chosen_variant: int | None
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
    for pos, phone in enumerate(pron.phones):
        if phone.stress == 1:
            return phone_syll.syllable_of(pos)
    return None


def _letters_syllabify(word: str, letter_h: SonorityHierarchy) -> Syllabification:
    try:
        return syllabify_symbols(tuple(word), letter_h)
    except UnknownSymbolError as exc:
        log.debug("letters of %r not classifiable (%s); kept unbroken", word, exc)
        return Syllabification(tuple(word), ())


def _syll_from_parts(word: str, parts) -> Syllabification | None:
    if "".join(parts) != word:
        return None
    breaks, pos = [], 0
    for part in parts[:-1]:
        pos += len(part)
        breaks.append(pos)
    return Syllabification(tuple(word), tuple(breaks))


def syllabify_word(word: str, resources: Resources,
                   method: str = "lkp-ssp-dtw",
                   extra_flags=()) -> WordRecord:
    """Produce the unified annotation record for one word token."""
    if method not in METHOD_CHOICES:
        raise ValueError(f"unknown method {method!r}")
    word = word.lower()
    flags = set(extra_flags)

    prons = lookup(resources.lexicon, word)
    if not prons:
        flags.add("oov")
        if resources.fallback is not None:
            cache = resources.g2p_cache
            if word not in cache:
                cache[word] = g2p_fallback([word], resources.fallback,
                                           resources.phone_format)[0]
            if cache[word] is not None:
                prons = [cache[word]]

    phone_seq = None
    if prons:
        try:
            phone_seq = sonority_sequence(prons[0].raw, resources.phone_hierarchy)
        except UnknownSymbolError as exc:
            # hierarchy does not cover this entry's phones; same handling as OOV
            log.warning("%r: %s; treating as unresolved", word, exc)
            flags.add("oov")

    if phone_seq is None:
        text_syll = _letters_syllabify(word, resources.letter_hierarchy)
        record = WordRecord(word, prons, 0 if prons else None,
                            Syllabification((), ()), text_syll, None,
                            "oov-unresolved", frozenset())
        flags.add("no-stress")
        return _finish(record, flags)

    phone_syll = ssp_breaks(phone_seq)
    nuclei = sum(1 for p in phone_seq.points if p.level == VOWEL_LEVEL)

    text_syll = None
    if nuclei == 0:
        flags.add("no-nucleus")
        text_syll = Syllabification(tuple(word), ())
        method_used = "ssp-dtw" if method.endswith("dtw") else "ssp-letters"
    elif nuclei == 1:
        text_syll = Syllabification(tuple(word), ())
        method_used = "single-vowel"
    else:
        if method.startswith("lkp") and resources.syllabified is not None:
            entry = resources.syllabified.entries.get(word)
            if entry is not None and len(entry) == nuclei:
                text_syll = _syll_from_parts(word, entry)
                method_used = "corpus-lookup"
        if text_syll is None:
            if method.endswith("dtw"):
                try:
                    text_syll, degenerate = ssp_dtw_syllabify(
                        word, prons[0].raw,
                        resources.phone_hierarchy, resources.letter_hierarchy)
                except UnknownSymbolError:
                    text_syll, degenerate = Syllabification(tuple(word), ()), False
                if degenerate:
                    flags.add("degenerate-projection")
                method_used = "ssp-dtw"
            else:
                text_syll = _letters_syllabify(word, resources.letter_hierarchy)
                method_used = "ssp-letters"

    stress = _arpabet_stress(prons[0], phone_syll)
    if stress is None and resources.secondary_stress:
        sec = resources.secondary_stress.get(word)
        if sec is not None:
            stress = merge_stress(phone_syll, sec[0], sec[1])
    if stress is None:
        flags.add("no-stress")

    record = WordRecord(word, prons, 0, phone_syll, text_syll, stress,
                        method_used, frozenset())
    return _finish(record, flags)


def _finish(record: WordRecord, flags: set[str]) -> WordRecord:
    if record.phone_syll.n_syllables != record.text_syll.n_syllables:
        flags.add("count-mismatch")
    else:
        flags.discard("count-mismatch")
    record.flags = frozenset(flags)
    return record


def load_secondary_stress(path, hierarchy: SonorityHierarchy,
                          ) -> dict[str, tuple[int, int]]:
    """Read `word<TAB>phones-with-stress-marks` transcriptions.

    A token prefixed with ˈ (or ') carries primary stress; the entry maps
    the word to (syllable count, stressed syllable index) computed by the
    engine's own break detection on the stripped phone sequence.
    """
    out: dict[str, tuple[int, int]] = {}
    with open(path, encoding="utf-8") as fh:
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


@dataclass
class SentenceAnnotation:
    index: int
    sentence: str
    records: list[tuple[int, WordRecord]] = field(default_factory=list)


def annotate_sentence(index: int, sentence: str, lang: str,
                      resources: Resources, method: str) -> SentenceAnnotation:
    ann = SentenceAnnotation(index, sentence)
    for token_index, tok in enumerate(normalize(sentence, lang)):
        rec = syllabify_word(tok.core, resources, method, extra_flags=tok.flags)
        ann.records.append((token_index, rec))
    return ann


def resolve_oov(words, resources: Resources) -> None:
    """Put the G2P results of the OOV words among `words` in the run's cache.

    Lexicon misses not cached yet go to the external G2P in one batch, each
    distinct word once, in first-seen order.  Without a configured fallback
    this does nothing and does not consume `words`.
    """
    if resources.fallback is None:
        return
    cache = resources.g2p_cache
    missing = list(dict.fromkeys(
        w for w in map(str.lower, words)
        if w not in cache and not lookup(resources.lexicon, w)))
    if not missing:
        return
    results = g2p_fallback(missing, resources.fallback, resources.phone_format)
    cache.update(zip(missing, results))
    unresolved = results.count(None)
    log.log(logging.WARNING if unresolved else logging.INFO,
            "g2p: %d of %d OOV words unresolved", unresolved, len(missing))


def annotate_corpus(sentences, lang: str, resources: Resources,
                    method: str = "lkp-ssp-dtw", jobs: int = 1,
                    ) -> list[SentenceAnnotation]:
    """Annotate sentences in order; `jobs` > 1 fans out with order restored.

    The OOV words of all sentences are resolved by one G2P batch first.
    """
    sentences = list(sentences)
    resolve_oov((tok.core for s in sentences for tok in normalize(s, lang)),
                resources)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(
                lambda pair: annotate_sentence(pair[0], pair[1], lang, resources, method),
                enumerate(sentences)))
    return [annotate_sentence(i, s, lang, resources, method)
            for i, s in enumerate(sentences)]


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
