"""Multilingual unified syllabification in the pronunciation and spelling domains."""

from .align import AlignmentPath, dtw, project_breaks
from .errors import (
    ConfigurationError,
    DictParseError,
    SyllabError,
    UndefinedMetricError,
    UnknownSymbolError,
    UnsupportedNumeralError,
)
from .evaluate import (
    AblationResult,
    run_ablation,
    syllable_histogram,
    word_accuracy,
)
from .lexicon import (
    CorpusFormat,
    FallbackConfig,
    Lexicon,
    Pronunciation,
    SyllabifiedLexicon,
    g2p_fallback,
    load_pron_dict,
    load_syllabified_corpus,
    lookup,
    sc_correction,
)
from .pipeline import (
    Resources,
    WordRecord,
    annotate_corpus,
    consistency_report,
    merge_stress,
    syllabify_word,
)
from .sonority import (
    SonorityHierarchy,
    SonoritySequence,
    hierarchy_for,
    sonority_sequence,
)
from .ssp import Syllabification, ssp_breaks, syllabify_symbols
from .textnorm import Token, expand_acronym, normalize, num_to_words, tokenize

__version__ = "0.1.0"

__all__ = [
    "AblationResult", "AlignmentPath", "ConfigurationError", "CorpusFormat",
    "DictParseError", "FallbackConfig", "Lexicon", "Pronunciation",
    "Resources", "SonorityHierarchy", "SonoritySequence", "SyllabError",
    "SyllabifiedLexicon", "Syllabification", "Token", "UndefinedMetricError",
    "UnknownSymbolError", "UnsupportedNumeralError", "WordRecord",
    "annotate_corpus", "consistency_report", "dtw", "expand_acronym",
    "g2p_fallback", "hierarchy_for", "load_pron_dict",
    "load_syllabified_corpus", "lookup", "merge_stress", "normalize",
    "num_to_words", "project_breaks", "run_ablation", "sc_correction",
    "sonority_sequence", "ssp_breaks", "syllabify_symbols", "syllabify_word",
    "syllable_histogram", "tokenize", "word_accuracy",
]
