"""Syllable break detection on sonority sequences.

Each nucleus (a level-5 symbol) but the last closes its syllable at the
first dip of the sonority curve after it, where a vowel counts as the two
points 5, 4 and a consonant as one point:

* after a nucleus the levels fall through runs of 4, 3, 2 and 1 until they
  first rise; the break goes before the first symbol of the lowest of those
  runs, which is right after the vowel when the next symbol is a vowel
  (hiatus) or the fall holds only 4s;
* a nucleus with no later nucleus breaks nothing, which keeps a trailing
  cluster such as /s t/ attached to its vowel, and a word of n >= 1 nuclei
  gets n syllables.

The rule reads a few runs of five level values, so one regular expression
states it, and the end of each match is a break.
"""

import re
from bisect import bisect_right
from collections import namedtuple

from .errors import CheckedFields
from .sonority import SonorityHierarchy, SonoritySequence, sonority_sequence

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


# a nucleus, the fall after it up to the start of its lowest run, and a later
# nucleus; the alternatives stop at a run of 1s, 2s, 3s or 4s in that order
_BREAK = re.compile(rb"\x05(?:\x04*\x03*\x02*(?=\x01)|\x04*\x03*(?=\x02)|\x04*(?=\x03)|)"
                    rb"(?=[\x01-\x04]*\x05)")
_END = re.Match.end


def ssp_breaks(seq: SonoritySequence) -> Syllabification:
    """Place syllable breaks on a sonority sequence, in linear time."""
    return Syllabification(seq.symbols, tuple(map(_END, _BREAK.finditer(seq.levels))))


def syllabify_symbols(symbols, hierarchy: SonorityHierarchy) -> Syllabification:
    """Convenience: level and break in one call."""
    return ssp_breaks(sonority_sequence(symbols, hierarchy))
