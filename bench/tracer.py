"""In-process span tracer for the benchmark's traced run.

The tracer wraps public functions of the syllab modules from the outside:
each wrapper records a span (name, start, end, parent span, request id) and
hands the call's arguments and result to an observer that counts what the
layer did (tokens out, lookup hits, DTW cells, ...).  A wrapper is installed
in every syllab module namespace that binds the original function, so calls
through ``from .x import f`` bindings are traced too.  Spans stay in memory
until ``write_spans``.

A target that no longer exists, or an observer that fails on a changed
signature, leaves a note with the reason on its metrics; the wrapped call
itself always runs and returns unchanged.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

# Spans that start a request: each sentence of annotate, and each word that
# is not already inside a sentence (ablate).
_SENTENCE = "pipeline.annotate_sentence"
_WORD = "pipeline.syllabify_word"


class CountingDict(dict):
    """dict whose ``get`` counts lookups and hits (corpus consensus input)."""

    def __init__(self, data, counts: Counter):
        super().__init__(data)
        self._counts = counts

    def get(self, key, default=None):
        value = super().get(key, default)
        self._counts["pipeline.corpus_lookup.found" if value is not None
                     else "pipeline.corpus_lookup.missing"] += 1
        return value


@dataclass(frozen=True)
class Target:
    module: str
    name: str
    metrics: tuple[str, ...]          # per-layer metrics that depend on it
    observe: Callable | None = None   # (tracer, args, kwargs, result) -> None

    @property
    def span(self) -> str:
        return f"{self.module}.{self.name}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, request]
        self._stack: list[int] = []
        self._requests = 0
        self.counts: Counter = Counter()
        self.words: set = set()       # distinct (word, method) pairs
        self.absent: dict[str, str] = {}   # metric -> why it lacks its data
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, targets) -> None:
        for t in targets:
            try:
                module = importlib.import_module(f"syllab.{t.module}")
                original = getattr(module, t.name)
            except (ImportError, AttributeError) as exc:
                self._mark_absent(t.metrics, f"syllab.{t.span} not found ({exc})")
                continue
            wrapper = self._wrap(t, original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "syllab" and not name.startswith("syllab."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def _mark_absent(self, metrics, reason: str) -> None:
        for m in metrics:
            self.absent.setdefault(m, reason)

    def _wrap(self, target: Target, fn):
        name = target.span
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            request = spans[parent][4] if parent >= 0 else None
            if name == _SENTENCE or (name == _WORD and request is None):
                self._requests += 1
                request = self._requests
            span = [name, 0, 0, parent, request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if target.observe is not None:
                try:
                    target.observe(self, args, kwargs, result)
                except Exception as exc:  # a changed signature must not break the run
                    self._mark_absent(target.metrics,
                                      f"observer for {name} failed: {exc!r}")
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def span_stats(self) -> dict[str, dict[str, int]]:
        """calls, total and self nanoseconds per span name."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict[str, int]] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            s = stats[name]
            s["calls"] += 1
            s["total_ns"] += end - start
            s["self_ns"] += end - start - children
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{request}\n")


# -- observers ----------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _normalize(tr, args, kwargs, result):
    tr.counts["textnorm.tokens_out"] += len(result)


def _lookup(tr, args, kwargs, result):
    tr.counts["lexicon.lookup.hits"] += bool(result)


def _g2p(tr, args, kwargs, result):
    tr.counts["lexicon.g2p_fallback.failed"] += result is None


def _corpus(tr, args, kwargs, result):
    result.entries = CountingDict(result.entries, tr.counts)


def _sonority(tr, args, kwargs, result):
    hierarchy = _arg(args, kwargs, 1, "hierarchy")
    domain = "letter" if hierarchy.symbol_set == "letters" else "phone"
    tr.counts[f"sonority.sonority_sequence.{domain}.calls"] += 1


def _dtw(tr, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    tr.counts["align.dtw.cells"] += len(a.levels) * len(b.levels)


def _project(tr, args, kwargs, result):
    tr.counts["align.project_breaks.degenerate"] += bool(result[1])


def _syllabify(tr, args, kwargs, result):
    word = _arg(args, kwargs, 0, "word")
    method = args[2] if len(args) > 2 else kwargs.get("method", "lkp-ssp-dtw")
    tr.words.add((word.lower(), method))
    tr.counts[f"pipeline.method_share.{result.method}"] += 1


RECORD_METHODS = ("corpus-lookup", "single-vowel", "ssp-dtw", "ssp-letters",
                  "oov-unresolved")

TARGETS = (
    Target("textnorm", "normalize",
           ("textnorm.normalize.calls", "textnorm.normalize.self_share",
            "textnorm.tokens_out"), _normalize),
    Target("lexicon", "lookup",
           ("lexicon.lookup.calls", "lexicon.lookup.hit_ratio"), _lookup),
    Target("lexicon", "g2p_fallback",
           ("lexicon.g2p_fallback.calls", "lexicon.g2p_fallback.self_share",
            "lexicon.g2p_fallback.failed"), _g2p),
    Target("lexicon", "load_pron_dict", ("lexicon.load_pron_dict.s",)),
    Target("lexicon", "load_syllabified_corpus",
           ("lexicon.load_syllabified_corpus.self_share",
            "pipeline.corpus_lookup.rejected_share"), _corpus),
    Target("sonority", "sonority_sequence",
           ("sonority.sonority_sequence.phone.calls",
            "sonority.sonority_sequence.letter.calls",
            "sonority.sonority_sequence.us_per_call"), _sonority),
    Target("ssp", "ssp_breaks", ("ssp.ssp_breaks.calls", "ssp.ssp_breaks.us_per_call")),
    Target("align", "dtw",
           ("align.dtw.calls", "align.dtw.cells", "align.dtw.us_per_call"), _dtw),
    Target("align", "project_breaks",
           ("align.project_breaks.calls", "align.project_breaks.us_per_call",
            "align.project_breaks.degenerate_ratio"), _project),
    Target("pipeline", "syllabify_word",
           ("pipeline.syllabify_word.calls", "pipeline.syllabify_word.self_us_per_call",
            "pipeline.syllabify_word.distinct_ratio", "pipeline.corpus_lookup.rejected_share")
           + tuple(f"pipeline.method_share.{m}" for m in RECORD_METHODS), _syllabify),
    Target("pipeline", "annotate_sentence", ()),
    Target("pipeline", "load_secondary_stress", ("pipeline.load_secondary_stress.self_share",)),
    Target("pipeline", "consistency_report", ("pipeline.consistency_report.self_share",)),
    Target("evaluate", "run_ablation", ("evaluate.run_ablation.self_share",)),
    Target("cli", "build_resources", ("cli.build_resources.s",)),
    Target("cli", "read_corpus_file", ("cli.read_corpus_file.self_share",)),
    Target("cli", "format_record_row", ("cli.format_record_row.self_share",)),
)

# name -> unit, in the order BENCHMARK.json lists them.  Functions that every
# workload reaches are timed per call or in seconds; the others by their
# self time as a share of the traced run's wall time, which is a measured 0
# on a workload that never calls them.
METRICS = {
    "textnorm.normalize.calls": "count",
    "textnorm.normalize.self_share": "ratio",
    "textnorm.tokens_out": "count",
    "lexicon.lookup.calls": "count",
    "lexicon.lookup.hit_ratio": "ratio",
    "lexicon.g2p_fallback.calls": "count",
    "lexicon.g2p_fallback.self_share": "ratio",
    "lexicon.g2p_fallback.failed": "count",
    "lexicon.load_pron_dict.s": "s",
    "lexicon.load_syllabified_corpus.self_share": "ratio",
    "sonority.sonority_sequence.phone.calls": "count",
    "sonority.sonority_sequence.letter.calls": "count",
    "sonority.sonority_sequence.us_per_call": "us",
    "ssp.ssp_breaks.calls": "count",
    "ssp.ssp_breaks.us_per_call": "us",
    "align.dtw.calls": "count",
    "align.dtw.cells": "count",
    "align.dtw.us_per_call": "us",
    "align.project_breaks.calls": "count",
    "align.project_breaks.us_per_call": "us",
    "align.project_breaks.degenerate_ratio": "ratio",
    "pipeline.syllabify_word.calls": "count",
    "pipeline.syllabify_word.self_us_per_call": "us",
    "pipeline.syllabify_word.distinct_ratio": "ratio",
    **{f"pipeline.method_share.{m}": "ratio" for m in RECORD_METHODS},
    "pipeline.corpus_lookup.rejected_share": "ratio",
    "pipeline.load_secondary_stress.self_share": "ratio",
    "pipeline.consistency_report.self_share": "ratio",
    "evaluate.run_ablation.self_share": "ratio",
    "cli.build_resources.s": "s",
    "cli.read_corpus_file.self_share": "ratio",
    "cli.format_record_row.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Metrics that must repeat exactly for the same inputs.
COUNT_METRICS = tuple(m for m in METRICS if not m.startswith("trace.") and (
    m.endswith((".calls", ".cells", "_ratio", ".tokens_out", ".failed"))
    or ".method_share." in m or m == "pipeline.corpus_lookup.rejected_share"))


def layer_metrics(tr: Tracer, wall_s: float) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values of one traced run of ``wall_s`` seconds, and notes.

    Every metric gets a number.  A metric derived from no calls, because the
    workload never reaches the function or the function no longer exists, is
    0 and has a note with the reason, as has a metric whose observer failed.
    ``trace.overhead_ratio`` is left to the caller, which times both runs.
    """
    stats = tr.span_stats()
    counts = tr.counts

    def calls(span):
        return stats[span]["calls"] if span in stats else 0

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(span, key="total_ns"):
        return ratio(stats[span][key] / 1e3, calls(span)) if span in stats else 0.0

    def seconds(span):
        return stats[span]["total_ns"] / 1e9 if span in stats else 0.0

    def self_share(span):
        return stats[span]["self_ns"] / 1e9 / wall_s if span in stats else 0.0

    n_words = calls("pipeline.syllabify_word")
    accepted = counts["pipeline.method_share.corpus-lookup"]
    values = {
        "textnorm.normalize.calls": calls("textnorm.normalize"),
        "textnorm.normalize.self_share": self_share("textnorm.normalize"),
        "textnorm.tokens_out": counts["textnorm.tokens_out"],
        "lexicon.lookup.calls": calls("lexicon.lookup"),
        "lexicon.lookup.hit_ratio": ratio(counts["lexicon.lookup.hits"], calls("lexicon.lookup")),
        "lexicon.g2p_fallback.calls": calls("lexicon.g2p_fallback"),
        "lexicon.g2p_fallback.self_share": self_share("lexicon.g2p_fallback"),
        "lexicon.g2p_fallback.failed": counts["lexicon.g2p_fallback.failed"],
        "lexicon.load_pron_dict.s": seconds("lexicon.load_pron_dict"),
        "lexicon.load_syllabified_corpus.self_share": self_share("lexicon.load_syllabified_corpus"),
        "sonority.sonority_sequence.phone.calls": counts["sonority.sonority_sequence.phone.calls"],
        "sonority.sonority_sequence.letter.calls": counts["sonority.sonority_sequence.letter.calls"],
        "sonority.sonority_sequence.us_per_call": per_call("sonority.sonority_sequence"),
        "ssp.ssp_breaks.calls": calls("ssp.ssp_breaks"),
        "ssp.ssp_breaks.us_per_call": per_call("ssp.ssp_breaks"),
        "align.dtw.calls": calls("align.dtw"),
        "align.dtw.cells": counts["align.dtw.cells"],
        "align.dtw.us_per_call": per_call("align.dtw"),
        "align.project_breaks.calls": calls("align.project_breaks"),
        "align.project_breaks.us_per_call": per_call("align.project_breaks"),
        "align.project_breaks.degenerate_ratio": ratio(
            counts["align.project_breaks.degenerate"], calls("align.project_breaks")),
        "pipeline.syllabify_word.calls": n_words,
        "pipeline.syllabify_word.self_us_per_call": per_call("pipeline.syllabify_word",
                                                             "self_ns"),
        "pipeline.syllabify_word.distinct_ratio": ratio(len(tr.words), n_words),
        **{f"pipeline.method_share.{m}": ratio(counts[f"pipeline.method_share.{m}"], n_words)
           for m in RECORD_METHODS},
        # words found in the corpus whose entry consensus rejected, per word
        "pipeline.corpus_lookup.rejected_share": ratio(
            counts["pipeline.corpus_lookup.found"] - accepted, n_words),
        "pipeline.load_secondary_stress.self_share": self_share("pipeline.load_secondary_stress"),
        "pipeline.consistency_report.self_share": self_share("pipeline.consistency_report"),
        "evaluate.run_ablation.self_share": self_share("evaluate.run_ablation"),
        "cli.build_resources.s": seconds("cli.build_resources"),
        "cli.read_corpus_file.self_share": self_share("cli.read_corpus_file"),
        "cli.format_record_row.self_share": self_share("cli.format_record_row"),
    }
    notes = dict(tr.absent)
    for t in TARGETS:
        if t.span not in stats:
            for m in t.metrics:
                notes.setdefault(m, f"0: syllab.{t.span} not called on this workload")
    return values, notes
