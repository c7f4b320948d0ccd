"""Sentence text to its dictionary-ready words.

Each whitespace unit loses the punctuation at its ends (apostrophes stay)
and splits on hyphens; each part loses the punctuation at its ends and is
dropped if nothing alphanumeric is left.  Acronyms are spelled out letter
by letter and integer numerals are verbalized (en/fr/es cardinals); other
numerals and ordinals are kept as written, which `kept_numeral` tells.
"""

import re

from .errors import UnsupportedNumeralError
from .ssp import TEXT_SYL_SEP

# apostrophes stay inside the word: clitics like "don't" are dictionary entries
_KEEP = {"'", "’"}

_NUMERAL = re.compile(r"^[0-9]+(?:[.,][0-9]+)*$")
_ORDINAL = re.compile(r"^[0-9]+(?:st|nd|rd|th)$", re.IGNORECASE)
_GROUPED_INT = re.compile(r"^[0-9]{1,3}(?:,[0-9]{3})+$")

MAX_NUMERAL = 999_999_999


def _strip(raw: str) -> str:
    """`raw` without the punctuation at its ends."""
    start, end = 0, len(raw)
    while start < end and not raw[start].isalnum() and raw[start] not in _KEEP:
        start += 1
    while end > start and not raw[end - 1].isalnum() and raw[end - 1] not in _KEEP:
        end -= 1
    return raw[start:end]


# --- cardinal number verbalization ------------------------------------------

_EN_ONES = ["zero", "one", "two", "three", "four", "five", "six", "seven",
            "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
            "fifteen", "sixteen", "seventeen", "eighteen", "nineteen"]
_EN_TENS = [None, None, "twenty", "thirty", "forty", "fifty", "sixty",
            "seventy", "eighty", "ninety"]


def _en_under1000(n: int) -> list[str]:
    hundreds, rest = divmod(n, 100)
    parts = [_EN_ONES[hundreds], "hundred"] if hundreds else []
    if rest >= 20:
        tens, rest = divmod(rest, 10)
        parts.append(_EN_TENS[tens])
    if rest or not parts:
        parts.append(_EN_ONES[rest])
    return parts


_FR_SMALL = ["zéro", "un", "deux", "trois", "quatre", "cinq", "six", "sept",
             "huit", "neuf", "dix", "onze", "douze", "treize", "quatorze",
             "quinze", "seize"]
_FR_TENS = {2: "vingt", 3: "trente", 4: "quarante", 5: "cinquante", 6: "soixante"}


def _fr_under100(n: int) -> list[str]:
    if n <= 16:
        return [_FR_SMALL[n]]
    if n < 20:
        return ["dix", _FR_SMALL[n - 10]]
    if n < 70:
        tens, unit = divmod(n, 10)
        if unit == 0:
            return [_FR_TENS[tens]]
        if unit == 1:
            return [_FR_TENS[tens], "et", "un"]
        return [_FR_TENS[tens]] + _fr_under100(unit)
    if n < 80:
        if n == 71:
            return ["soixante", "et", "onze"]
        return ["soixante"] + _fr_under100(n - 60)
    if n == 80:
        return ["quatre", "vingts"]
    return ["quatre", "vingt"] + _fr_under100(n - 80)


def _fr_under1000(n: int) -> list[str]:
    hundreds, rest = divmod(n, 100)
    parts: list[str] = []
    if hundreds == 1:
        parts = ["cent"]
    elif hundreds > 1:
        # "cents" keeps its plural s only when nothing follows inside the group
        parts = [_FR_SMALL[hundreds], "cents" if rest == 0 else "cent"]
    if rest or not parts:
        parts += _fr_under100(rest)
    return parts


def _fr_depluralize(tokens: list[str]) -> list[str]:
    # vingt/cent lose their plural s before the numeral "mille"
    if tokens and tokens[-1] in ("vingts", "cents"):
        return tokens[:-1] + [tokens[-1][:-1]]
    return tokens


_ES_SMALL = ["cero", "uno", "dos", "tres", "cuatro", "cinco", "seis", "siete",
             "ocho", "nueve", "diez", "once", "doce", "trece", "catorce",
             "quince", "dieciséis", "diecisiete", "dieciocho", "diecinueve"]
_ES_TWENTIES = ["veinte", "veintiuno", "veintidós", "veintitrés",
                "veinticuatro", "veinticinco", "veintiséis", "veintisiete",
                "veintiocho", "veintinueve"]
_ES_TENS = {3: "treinta", 4: "cuarenta", 5: "cincuenta", 6: "sesenta",
            7: "setenta", 8: "ochenta", 9: "noventa"}
_ES_HUNDREDS = {1: "ciento", 2: "doscientos", 3: "trescientos",
                4: "cuatrocientos", 5: "quinientos", 6: "seiscientos",
                7: "setecientos", 8: "ochocientos", 9: "novecientos"}


def _es_under100(n: int) -> list[str]:
    if n < 20:
        return [_ES_SMALL[n]]
    if n < 30:
        return [_ES_TWENTIES[n - 20]]
    tens, unit = divmod(n, 10)
    if unit:
        return [_ES_TENS[tens], "y", _ES_SMALL[unit]]
    return [_ES_TENS[tens]]


def _es_under1000(n: int) -> list[str]:
    if n == 100:
        return ["cien"]
    hundreds, rest = divmod(n, 100)
    parts = [_ES_HUNDREDS[hundreds]] if hundreds else []
    if rest or not parts:
        parts += _es_under100(rest)
    return parts


def _es_apocope(tokens: list[str]) -> list[str]:
    # "uno" shortens before mil/millones: veintiún mil, treinta y un millones
    if tokens and tokens[-1] == "uno":
        return tokens[:-1] + ["un"]
    if tokens and tokens[-1] == "veintiuno":
        return tokens[:-1] + ["veintiún"]
    return tokens


# per language: the words for n < 1000 (zero included), and for each scale
# the words for a count of one, the scale word after a larger count and the
# change (or None) the count's words take before that word
_NUM_RULES = {
    "en": (_en_under1000, ((("one", "million"), "million", None),
                           (("one", "thousand"), "thousand", None))),
    "fr": (_fr_under1000, ((("un", "million"), "millions", None),
                           (("mille",), "mille", _fr_depluralize))),
    "es": (_es_under1000, ((("un", "millón"), "millones", _es_apocope),
                           (("mil",), "mil", _es_apocope))),
}
_SCALES = (1_000_000, 1_000)


def num_to_words(value: int, lang: str = "en") -> list[str]:
    """Cardinal reading of a non-negative integer as lowercase word tokens."""
    if lang not in _NUM_RULES:
        raise UnsupportedNumeralError(f"no numeral rules for language {lang!r}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise UnsupportedNumeralError(f"not an integer: {value!r}")
    if not 0 <= value <= MAX_NUMERAL:
        raise UnsupportedNumeralError(f"value out of range [0, {MAX_NUMERAL}]: {value}")
    under1000, scales = _NUM_RULES[lang]
    words: list[str] = []
    for scale, (one, name, agree) in zip(_SCALES, scales):
        count, value = divmod(value, scale)
        if count == 1:
            words += one
        elif count:
            head = under1000(count)
            words += (agree(head) if agree else head) + [name]
    if value or not words:
        words += under1000(value)
    return words


def _numeral_value(core: str) -> int:
    # commas are accepted only as strict thousands grouping; "3,5" and "3.5"
    # are decimals, which stay unexpanded with a review flag
    if core.isdigit():
        return int(core)
    if _GROUPED_INT.match(core):
        return int(core.replace(",", ""))
    raise UnsupportedNumeralError(f"unsupported numeral shape: {core!r}")


def kept_numeral(word: str) -> bool:
    """Whether `word` is a numeral or ordinal in digits, as `normalize` keeps
    those it cannot verbalize."""
    return bool(_NUMERAL.match(word) or _ORDINAL.match(word))


def normalize(text: str, lang: str = "en") -> list[str]:
    """The lower-cased words of `text`, in order.

    Each hyphen part of a unit takes the same rules as a whole unit.  A
    numeral or ordinal that stays as written is a word of its own.  A unit
    holding `TEXT_SYL_SEP` (`|`) is dropped: the output format reserves it
    as the syllable separator.
    """
    words: list[str] = []
    for unit in text.split():
        if unit.isalpha() and (len(unit) < 2 or not unit.isupper()):
            # a plain word, unless lower-casing adds a mark: "İ" becomes
            # "i" + U+0307, and the full path strips that mark at the edge
            word = unit.lower()
            if word.isalpha():
                words.append(word)
                continue
        if TEXT_SYL_SEP in _strip(unit):
            continue
        for part in unit.split("-"):
            part = _strip(part)
            if len(part) >= 2 and part.isalpha() and part.isupper():
                words.extend(ch.lower() for ch in part)  # acronym
                continue
            word = _strip(part.lower())
            if not any(ch.isalnum() for ch in word):
                continue
            if _NUMERAL.match(word):
                try:
                    words += num_to_words(_numeral_value(word), lang)
                    continue
                except UnsupportedNumeralError:
                    pass
            # a word, or a numeral or ordinal ("2nd") we cannot verbalize yet
            words.append(word)
    return words
