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

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .sonority import (
    VOWEL_LEVEL,
    SonorityHierarchy,
    SonoritySequence,
    sonority_sequence,
)


@dataclass(frozen=True)
class Syllabification:
    """A symbol sequence plus strictly increasing break positions.

    A break `b` marks a boundary immediately before `symbols[b]`.
    """

    symbols: tuple[str, ...]
    breaks: tuple[int, ...] = ()

    def __post_init__(self):
        prev = 0
        for b in self.breaks:
            if not prev < b < len(self.symbols):
                raise ValueError(f"break {b} out of range or out of order")
            prev = b

    @property
    def n_syllables(self) -> int:
        if not self.symbols:
            return 0
        return len(self.breaks) + 1

    def syllables(self) -> list[tuple[str, ...]]:
        bounds = [0, *self.breaks, len(self.symbols)]
        return [self.symbols[a:b] for a, b in zip(bounds, bounds[1:])]

    def syllable_of(self, position: int) -> int:
        """Index of the syllable containing symbol `position`."""
        if not 0 <= position < len(self.symbols):
            raise IndexError(position)
        return bisect_right(self.breaks, position)

    def text(self, sep: str = "|") -> str:
        return sep.join("".join(s) for s in self.syllables())

    def phone_text(self, syllable_sep: str = " . ") -> str:
        return syllable_sep.join(" ".join(s) for s in self.syllables())


def ssp_breaks(seq: SonoritySequence) -> Syllabification:
    """Place syllable breaks on an expanded sonority sequence."""
    levels, sources = seq.levels, seq.sources
    n = len(levels)
    breaks: list[int] = []
    last_cut = 0  # expanded index of the first point after the last break

    for i in range(1, n - 1):
        lvl = levels[i]
        if levels[i - 1] <= lvl:
            continue
        # first level to differ on the right must be a rise
        k = i + 1
        while k < n and levels[k] == lvl:
            k += 1
        if k == n or levels[k] < lvl:
            continue
        # a nucleus must sit between the previous break and the minimum
        if VOWEL_LEVEL not in levels[last_cut:i]:
            continue
        if sources[i] == sources[i - 1]:
            # second half of a vowel pair: break after the vowel
            cut_source = sources[i] + 1
            cut_expanded = i + 1
        else:
            cut_source = sources[i]
            cut_expanded = i
        # the tail past the break must still contain a nucleus
        if VOWEL_LEVEL not in levels[cut_expanded:]:
            continue
        breaks.append(cut_source)
        last_cut = cut_expanded

    return Syllabification(seq.symbols, tuple(breaks))


def syllabify_symbols(symbols, hierarchy: SonorityHierarchy) -> Syllabification:
    """Convenience: expand and break in one call."""
    return ssp_breaks(sonority_sequence(symbols, hierarchy))
