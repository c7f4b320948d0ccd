"""Sonority hierarchies and sonority sequences.

A hierarchy assigns every symbol of an inventory (ARPABET phones, IPA phones,
or letters) to one of five classes: vowel(5) > approximant(4) > fricative(3)
> nasal(2) > stop(1).  A sonority sequence holds one level per symbol, as
one byte each.  Break detection reads these levels; the alignment expands
each vowel into two points (5 then 4), so that vowel-vowel contacts
(hiatus) expose a dip between the nuclei.
"""

import unicodedata
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence

from .errors import ConfigurationError, UnknownSymbolError, read_lines

CLASS_LEVELS = {
    "vowel": 5,
    "approximant": 4,
    "fricative": 3,
    "nasal": 2,
    "stop": 1,
}

VOWEL_LEVEL = CLASS_LEVELS["vowel"]

# Orthographic vowel letters per supported language.
VOWEL_LETTERS = {
    "en": set("aeiouy"),
    "fr": set("aeiouyéèêëàâîïôûùüœæ"),
    "es": set("aeiouáéíóúü"),
}

# CMU/ARPABET phone classes.  Stress digits are stripped before lookup.
_ARPABET_CLASSES = {
    "vowel": ["AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER", "EY",
              "IH", "IY", "OW", "OY", "UH", "UW"],
    "approximant": ["L", "R", "W", "Y"],
    "fricative": ["DH", "F", "HH", "S", "SH", "TH", "V", "Z", "ZH"],
    "nasal": ["M", "N", "NG"],
    # affricates CH/JH grouped with the stops
    "stop": ["B", "CH", "D", "G", "JH", "K", "P", "T"],
}

# IPA base characters.  Multi-character symbols (affricates, diphthongs such
# as "aj"/"ow", diacritic-carrying phones) resolve through normalization:
# exact match first, then the class of the first base character.
_IPA_CLASSES = {
    "vowel": list("aeiouyøœæɐɑɒɔəɘɚɛɜɝɞɤɨɪɯɵɶʉʊʌʏ"),
    "approximant": list("jwɥʍlɫɭʎʟrɹɻɾɽʀʁɰʋ"),
    "fricative": list("fvθðszʃʒʂʐɕʑçʝxɣχhɦħʕβ"),
    "nasal": list("mɱnɳɲŋɴ"),
    "stop": list("pbtdʈɖcɟkgɡqɢʔ"),
}
_IPA_MULTI = {
    "tʃ": "stop", "dʒ": "stop", "ts": "stop", "dz": "stop",
    "tɕ": "stop", "dʑ": "stop", "ʈʂ": "stop", "ɖʐ": "stop", "pf": "stop",
}
# stress/length marks that never carry sonority of their own
_IPA_STRIP = set("ˈˌːˑ˞‿.")

# Letter classes per language.  Consonant letters are classified by their
# dominant phonetic value; the apostrophe/hyphen/period that occur inside
# dictionary headwords are silent, lowest-level marks.
_SILENT_MARKS = ["'", "’", "-", "."]

_LETTER_CLASSES = {
    "en": {
        "vowel": sorted(VOWEL_LETTERS["en"]),
        "approximant": ["l", "r", "w"],
        "fricative": ["f", "h", "s", "v", "x", "z"],
        "nasal": ["m", "n"],
        "stop": ["b", "c", "d", "g", "j", "k", "p", "q", "t"] + _SILENT_MARKS,
    },
    "fr": {
        "vowel": sorted(VOWEL_LETTERS["fr"]),
        "approximant": ["l", "r", "w"],
        "fricative": ["f", "h", "j", "s", "v", "x", "z", "ç"],
        "nasal": ["m", "n"],
        "stop": ["b", "c", "d", "g", "k", "p", "q", "t"] + _SILENT_MARKS,
    },
    "es": {
        "vowel": sorted(VOWEL_LETTERS["es"]),
        "approximant": ["l", "r", "w", "y"],
        "fricative": ["f", "h", "j", "s", "v", "x", "z"],
        "nasal": ["m", "n", "ñ"],
        "stop": ["b", "c", "d", "g", "k", "p", "q", "t"] + _SILENT_MARKS,
    },
}


class _Levels(dict):
    """symbol -> level, each symbol classified on its first lookup and kept.

    An unknown symbol raises `UnknownSymbolError` and is never stored.
    """

    __slots__ = ("classify",)

    def __missing__(self, symbol):
        level = self[symbol] = CLASS_LEVELS[self.classify(symbol)]
        return level


class SonorityHierarchy:
    """Symbol -> class table with set-specific normalization.

    `levels` is the memo of the levels resolved so far; equality and repr
    ignore it.
    """

    def __init__(self, symbol_set: str, class_of: Mapping[str, str]):
        self.symbol_set = symbol_set  # "cmu-arpabet" | "mfa-ipa" | "letters" | "custom"
        self.class_of = class_of
        self.levels = _Levels()
        self.levels.classify = self.classify

    def __eq__(self, other):
        if not isinstance(other, SonorityHierarchy):
            return NotImplemented
        return (self.symbol_set, self.class_of) == (other.symbol_set, other.class_of)

    def __repr__(self) -> str:
        return (f"SonorityHierarchy(symbol_set={self.symbol_set!r}, "
                f"class_of={self.class_of!r})")

    def classify(self, symbol: str) -> str:
        cls = self._resolve(symbol)
        if cls is None:
            raise UnknownSymbolError(symbol, self.symbol_set)
        return cls

    def level(self, symbol: str) -> int:
        return self.levels[symbol]

    def _resolve(self, symbol: str) -> str | None:
        if symbol in self.class_of:
            return self.class_of[symbol]
        if self.symbol_set == "cmu-arpabet":
            base = symbol.rstrip("0123456789").upper()
            return self.class_of.get(base)
        if self.symbol_set == "letters":
            return self.class_of.get(symbol.lower())
        if self.symbol_set == "mfa-ipa":
            base = "".join(
                ch for ch in symbol
                if ch not in _IPA_STRIP and not unicodedata.combining(ch)
                and unicodedata.category(ch) != "Lm"  # modifier letters (ʰ ʲ ʷ ...)
            )
            if base in self.class_of:
                return self.class_of[base]
            if base and base[0] in self.class_of:
                return self.class_of[base[0]]
        return None


SonoritySequence = namedtuple("SonoritySequence", "symbols levels")
SonoritySequence.__doc__ = """A word's symbols and their sonority: `levels[k]`, one
byte, is the level of `symbols[k]`."""


def _table(classes: Mapping[str, Iterable[str]]) -> dict[str, str]:
    out: dict[str, str] = {}
    for cls, symbols in classes.items():
        for sym in symbols:
            out[sym] = cls
    return out


def hierarchy_for(symbol_set: str, lang: str = "en",
                  table_path=None) -> SonorityHierarchy:
    """Build the hierarchy for a phone set or for letters of a language.

    `table_path`, when given, points to a `symbol<TAB>class` text file whose
    entries extend or override the built-in table.
    """
    if symbol_set == "cmu-arpabet":
        table = _table(_ARPABET_CLASSES)
    elif symbol_set == "mfa-ipa":
        table = _table(_IPA_CLASSES)
        table.update(_IPA_MULTI)
    elif symbol_set == "letters":
        if lang not in _LETTER_CLASSES:
            raise ConfigurationError(
                f"no letter sonority table for language {lang!r} "
                f"(supported: {', '.join(sorted(_LETTER_CLASSES))})")
        table = _table(_LETTER_CLASSES[lang])
    else:
        raise ConfigurationError(f"unknown symbol set {symbol_set!r}")
    if table_path is not None:
        table.update(_read_table(table_path))
    return SonorityHierarchy(symbol_set, table)


def _read_table(path) -> dict[str, str]:
    table: dict[str, str] = {}
    for line_no, line in enumerate(read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in CLASS_LEVELS:
            raise ConfigurationError(
                f"{path}:{line_no}: expected 'symbol<TAB>class' with class "
                f"in {sorted(CLASS_LEVELS)}, got {line!r}")
        table[parts[0]] = parts[1]
    return table


def sonority_sequence(symbols: Sequence[str],
                      hierarchy: SonorityHierarchy) -> SonoritySequence:
    """The level of each symbol of `symbols`: phones, or the letters of a
    word given as one str."""
    return SonoritySequence(tuple(symbols),
                            bytes(map(hierarchy.levels.__getitem__, symbols)))
