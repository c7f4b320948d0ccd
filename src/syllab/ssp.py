"""Syllable break detection on expanded sonority sequences.

Breaks are the qualifying local minima of the expanded curve:

* a candidate minimum is a point strictly below its left neighbour whose
  level rises again afterwards (on a flat bottom run only the first point
  is a candidate);
* it qualifies only if a nucleus (level-5 point) lies strictly after the
  previous accepted break and strictly before the minimum;
* a vowel-half minimum (the 4 of a 5,4 pair) puts the break after its
  vowel, a consonant minimum puts the break before itself;
* a break that would leave no nucleus in the remaining tail is rejected,
  which is what keeps sibilant-stop clusters attached to their vowel.
"""

from bisect import bisect_right
from collections import namedtuple

from .errors import CheckedFields
from .sonority import (
    VOWEL_LEVEL,
    SonorityHierarchy,
    SonoritySequence,
    sonority_sequence,
)

TEXT_SYL_SEP = "|"     # between syllables in text()
PHONE_SYL_SEP = " . "  # between syllables in phone_text()


class Syllabification(CheckedFields, namedtuple("Syllabification", "symbols breaks")):
    """A symbol sequence plus strictly increasing break positions.

    A break `b` marks a boundary immediately before `symbols[b]`.
    """

    __slots__ = ()

    def __new__(cls, symbols: tuple[str, ...], breaks: tuple[int, ...] = ()):
        prev = 0
        for b in breaks:
            if not prev < b < len(symbols):
                raise ValueError(f"break {b} out of range or out of order")
            prev = b
        return tuple.__new__(cls, (symbols, breaks))

    @classmethod
    def from_parts(cls, parts) -> "Syllabification":
        """The syllabification whose syllables are `parts`, each a symbol sequence."""
        symbols, breaks = [], []
        for part in parts:
            if symbols:
                breaks.append(len(symbols))
            symbols.extend(part)
        return cls(tuple(symbols), tuple(breaks))

    @property
    def n_syllables(self) -> int:
        if not self.symbols:
            return 0
        return len(self.breaks) + 1

    def _parts(self, form) -> list:
        """`form` applied to the symbols of each syllable, in order."""
        symbols, start, parts = self.symbols, 0, []
        for b in self.breaks:
            parts.append(form(symbols[start:b]))
            start = b
        parts.append(form(symbols[start:]))
        return parts

    def syllables(self) -> list[tuple[str, ...]]:
        return self._parts(tuple)

    def syllable_of(self, position: int) -> int:
        """Index of the syllable containing symbol `position`."""
        if not 0 <= position < len(self.symbols):
            raise IndexError(position)
        return bisect_right(self.breaks, position)

    def text(self) -> str:
        return TEXT_SYL_SEP.join(self._parts("".join))

    def phone_text(self) -> str:
        return PHONE_SYL_SEP.join(self._parts(" ".join))


def ssp_breaks(seq: SonoritySequence) -> Syllabification:
    """Place syllable breaks on an expanded sonority sequence, in linear time."""
    levels, sources = seq.levels, seq.sources
    n = len(levels)
    breaks: list[int] = []
    last_cut = 0  # expanded index of the first point after the last break
    nucleus = -1  # expanded index of the last nucleus before i
    last_nucleus = -1  # expanded index of the last nucleus
    if VOWEL_LEVEL in levels:
        last_nucleus = n - 1 - levels[::-1].index(VOWEL_LEVEL)

    for i in range(1, n - 1):
        lvl, prev = levels[i], levels[i - 1]
        if prev == VOWEL_LEVEL:
            nucleus = i - 1
        if prev <= lvl:
            continue
        # first level to differ on the right must be a rise
        k = i + 1
        while k < n and levels[k] == lvl:
            k += 1
        if k == n or levels[k] < lvl:
            continue
        # a nucleus must sit between the previous break and the minimum
        if nucleus < last_cut:
            continue
        if sources[i] == sources[i - 1]:
            # second half of a vowel pair: break after the vowel
            cut_source = sources[i] + 1
            cut_expanded = i + 1
        else:
            cut_source = sources[i]
            cut_expanded = i
        # the tail past the break must still contain a nucleus
        if last_nucleus < cut_expanded:
            continue
        breaks.append(cut_source)
        last_cut = cut_expanded

    return Syllabification(seq.symbols, tuple(breaks))


def syllabify_symbols(symbols, hierarchy: SonorityHierarchy) -> Syllabification:
    """Convenience: expand and break in one call."""
    return ssp_breaks(sonority_sequence(symbols, hierarchy))
