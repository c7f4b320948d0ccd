"""Word accuracy, syllable-count histograms, and the method ablation.

The reference for word accuracy is the phone-domain SSP syllable count of
the same record, so every number here is reproducible from the dictionaries
alone, without human-annotated gold syllabifications.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass

from .errors import UndefinedMetricError
from .pipeline import METHOD_CHOICES, Resources, analyze_words, word_record


def word_accuracy(records) -> float:
    """Percentage of records whose text and phone syllable counts agree."""
    records = list(records)
    if not records:
        raise UndefinedMetricError("word accuracy over an empty record set")
    ok = sum(1 for r in records
             if r.text_syll.n_syllables == r.phone_syll.n_syllables)
    return 100.0 * ok / len(records)


def syllable_histogram(records) -> dict[int, float]:
    """Share (in %) of records or word analyses per phone-domain syllable count."""
    counts = Counter(r.phone_syll.n_syllables for r in records)
    total = sum(counts.values())
    if not total:
        raise UndefinedMetricError("histogram over an empty record set")
    return {k: 100.0 * v / total for k, v in sorted(counts.items())}


@dataclass
class AblationResult:
    language_variant: str
    accuracies: dict[str, float | None]  # method -> %, None when unavailable
    sample_size: int
    seed: int


def run_ablation(resources: Resources, sample_size: int, seed: int,
                 methods=METHOD_CHOICES) -> AblationResult:
    """Word accuracy of each method over a seeded uniform dictionary sample.

    Lookup methods are reported as None when no syllabified corpus is
    loaded, mirroring the empty cells of the per-language results table.
    """
    lexicon = resources.lexicon
    if not 0 < sample_size <= len(lexicon):
        raise ValueError(
            f"sample_size must be in [1, {len(lexicon)}], got {sample_size}")
    words = random.Random(seed).sample(sorted(lexicon.entries), sample_size)
    # each word is analyzed once and scored under every active method
    hits = {m: 0 for m in methods
            if not (m.startswith("lkp") and resources.syllabified is None)}
    for analysis in analyze_words(words, resources):
        for method in hits:
            rec = word_record(analysis, method)
            hits[method] += rec.text_syll.n_syllables == rec.phone_syll.n_syllables
    accuracies = {m: 100.0 * hits[m] / sample_size if m in hits else None
                  for m in methods}
    return AblationResult(resources.variant, accuracies, sample_size, seed)


def ablation_tsv(result: AblationResult) -> str:
    lines = [f"# language_variant={result.language_variant}"
             f"\tsample_size={result.sample_size}\tseed={result.seed}",
             "method\taccuracy"]
    for method, acc in result.accuracies.items():
        lines.append(f"{method}\t{'-' if acc is None else f'{acc:.1f}'}")
    return "\n".join(lines) + "\n"


def ablation_json(result: AblationResult) -> str:
    return json.dumps({
        "language_variant": result.language_variant,
        "sample_size": result.sample_size,
        "seed": result.seed,
        "accuracies": {m: None if a is None else round(a, 1)
                       for m, a in result.accuracies.items()},
    }, ensure_ascii=False, indent=2) + "\n"


def format_histogram(histogram: dict[int, float], fmt: str) -> str:
    """The histogram as `tsv`, `csv` or `json` text."""
    rows = sorted(histogram.items())
    if fmt == "json":
        return json.dumps({str(k): round(v, 2) for k, v in rows}, indent=2) + "\n"
    sep = {"tsv": "\t", "csv": ","}[fmt]
    return f"n_syllables{sep}percentage\n" + "".join(
        f"{k}{sep}{v:.2f}\n" for k, v in rows)
