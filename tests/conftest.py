import os
import sys
from pathlib import Path

import pytest

from syllab import Resources, annotate_corpus, hierarchy_for, load_pron_dict
from syllab.lexicon import CorpusFormat, load_syllabified_corpus

DATA = Path(__file__).parent / "data"
REPO_RESOURCES = Path(__file__).parent.parent / "resources"


def real_resource(name: str) -> Path | None:
    """Locate an optional real resource file (fetched via scripts/fetch_resources.py).

    Search order: $SYLLAB_RESOURCES, then the repository's resources/ directory.
    """
    env = os.environ.get("SYLLAB_RESOURCES")
    for root in ([Path(env)] if env else []) + [REPO_RESOURCES]:
        candidate = root / name
        if candidate.exists():
            return candidate
    return None


def count_calls(monkeypatch, fn) -> list:
    """Record the arguments of every call of `fn` made through a syllab module."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "syllab" or name.startswith("syllab."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def aligned_words(dtw_calls) -> int:
    """The curve pairs that the recorded calls of `align.dtw` aligned."""
    return sum(len(args[0]) for args in dtw_calls)


def sentence_records(sentences, resources, method="lkp-ssp-dtw") -> list:
    """The records of each sentence's tokens, in order, from `annotate_corpus`."""
    sentence_words, records = annotate_corpus(sentences, "en", resources, method)
    return [[records[word] for word in words] for words in sentence_words]


@pytest.fixture(scope="session")
def arpabet():
    return hierarchy_for("cmu-arpabet")


@pytest.fixture(scope="session")
def letters_en():
    return hierarchy_for("letters", "en")


@pytest.fixture(scope="session")
def mini_lexicon():
    return load_pron_dict(DATA / "mini_cmu.dict", "cmu")


@pytest.fixture(scope="session")
def mini_corpus():
    return load_syllabified_corpus(
        DATA / "mini_syllables.txt", CorpusFormat.preset("gutenberg"))


@pytest.fixture(scope="session")
def mini_resources(mini_lexicon, mini_corpus, arpabet, letters_en):
    return Resources(
        lexicon=mini_lexicon,
        phone_hierarchy=arpabet,
        letter_hierarchy=letters_en,
        syllabified=mini_corpus,
        variant="fixture",
    )


@pytest.fixture(scope="session")
def mini_resources_nocorpus(mini_lexicon, arpabet, letters_en):
    return Resources(
        lexicon=mini_lexicon,
        phone_hierarchy=arpabet,
        letter_hierarchy=letters_en,
        variant="fixture",
    )
