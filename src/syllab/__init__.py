"""Multilingual unified syllabification in the pronunciation and spelling domains.

The package root exports the library surface the README documents; the
rest is imported from its module.
"""

from .errors import ConfigurationError, DictParseError, SyllabError
from .lexicon import FallbackConfig, Pronunciation, load_pron_dict
from .pipeline import Resources, WordRecord, annotate_corpus, syllabify_word
from .sonority import SonorityHierarchy, hierarchy_for
from .ssp import Syllabification

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DictParseError", "FallbackConfig", "Pronunciation",
    "Resources", "SonorityHierarchy", "SyllabError", "Syllabification",
    "WordRecord", "annotate_corpus", "hierarchy_for", "load_pron_dict",
    "syllabify_word",
]
