"""Cross-domain projection of syllable breaks via dynamic time warping.

The pronunciation-domain and spelling-domain sonority curves of a word are
aligned with DTW (cost = absolute level difference, steps diagonal /
a-advance / b-advance).  Each phone-domain break is then carried over to
the letter whose expanded point is linked to the break's cut point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sonority import (
    VOWEL_LEVEL,
    SonorityHierarchy,
    SonoritySequence,
    sonority_sequence,
)
from .ssp import Syllabification, ssp_breaks


@dataclass(frozen=True)
class AlignmentPath:
    """Monotone warping path between two expanded sequences."""

    pairs: tuple[tuple[int, int], ...]
    cost: int

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("empty alignment path")


def dtw(a: SonoritySequence, b: SonoritySequence) -> AlignmentPath:
    """Minimal-cost monotone alignment of two sonority sequences.

    Ties between predecessors are resolved diagonal first, then a-advance,
    then b-advance, so the returned path is unique and reproducible.
    """
    la, lb = a.levels, b.levels
    m, n = len(la), len(lb)
    if m == 0 or n == 0:
        raise ValueError("dtw requires two non-empty sequences")

    big = float("inf")
    acc = [[big] * n for _ in range(m)]
    for i in range(m):
        ai = la[i]
        row = acc[i]
        prev_row = acc[i - 1] if i else None
        for j in range(n):
            c = abs(ai - lb[j])
            if i == 0 and j == 0:
                row[j] = c
            elif i == 0:
                row[j] = c + row[j - 1]
            elif j == 0:
                row[j] = c + prev_row[j]
            else:
                row[j] = c + min(prev_row[j - 1], prev_row[j], row[j - 1])

    # backtrack, preferring diagonal, then a-advance, then b-advance
    pairs = [(m - 1, n - 1)]
    i, j = m - 1, n - 1
    while i or j:
        if i and j:
            candidates = ((acc[i - 1][j - 1], 0, (i - 1, j - 1)),
                          (acc[i - 1][j], 1, (i - 1, j)),
                          (acc[i][j - 1], 2, (i, j - 1)))
            _, _, (i, j) = min(candidates)
        elif i:
            i -= 1
        else:
            j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return AlignmentPath(tuple(pairs), int(acc[m - 1][n - 1]))


def project_breaks(phone_syll: Syllabification, path: AlignmentPath,
                   phone_seq: SonoritySequence, letter_seq: SonoritySequence,
                   ) -> tuple[Syllabification, bool]:
    """Carry phone-domain breaks onto the letters through the DTW path.

    A break before phone `p` cuts the expanded curve at p's first point;
    the break lands before the source letter of the leftmost path link at
    that cut.  Returns the letter syllabification and a flag that is True
    when any projected break had to be dropped (collapsed links, edge
    positions, or a tail left without a vowel letter).
    """
    n_letters = len(letter_seq.symbols)
    letter_levels = letter_seq.levels
    n_points = len(letter_levels)

    cuts = []
    for brk in phone_syll.breaks:
        c = phone_seq.first_point_of(brk)
        j = min(j for i, j in path.pairs if i == c)
        cuts.append(letter_seq.points[j].source)

    degenerate = len(set(cuts)) < len(cuts)
    kept: list[int] = []
    for cut in sorted(set(cuts)):
        if not 0 < cut < n_letters:
            degenerate = True
            continue
        # never strand a tail without a vowel letter (mirrors ssp_breaks)
        cut_expanded = letter_seq.first_point_of(cut)
        if not any(letter_levels[j] == VOWEL_LEVEL
                   for j in range(cut_expanded, n_points)):
            degenerate = True
            continue
        kept.append(cut)

    return Syllabification(letter_seq.symbols, tuple(kept)), degenerate


def ssp_dtw_syllabify(word: str, pron_symbols, phone_h: SonorityHierarchy,
                      letter_h: SonorityHierarchy,
                      ) -> tuple[Syllabification, bool]:
    """Full composition: phone SSP breaks projected onto the word's letters."""
    if not word:
        raise ValueError("empty word")
    phone_seq = sonority_sequence(list(pron_symbols), phone_h)
    letter_seq = sonority_sequence(list(word), letter_h)
    return project_ssp(ssp_breaks(phone_seq), phone_seq, letter_seq)


def project_ssp(phone_syll: Syllabification, phone_seq: SonoritySequence,
                letter_seq: SonoritySequence) -> tuple[Syllabification, bool]:
    """Carry the SSP breaks `phone_syll` of `phone_seq` onto the letters.

    DTW runs only when there is a break to carry.
    """
    if not phone_syll.breaks:
        return Syllabification(letter_seq.symbols, ()), False
    path = dtw(phone_seq, letter_seq)
    return project_breaks(phone_syll, path, phone_seq, letter_seq)


def alignment_debug_tsv(path: AlignmentPath, a: SonoritySequence,
                        b: SonoritySequence) -> str:
    """Path dump as TSV rows (i, j, level_a, level_b) for curve plotting."""
    la, lb = a.levels, b.levels
    lines = ["i\tj\tlevel_a\tlevel_b"]
    for i, j in path.pairs:
        lines.append(f"{i}\t{j}\t{la[i]}\t{lb[j]}")
    return "\n".join(lines) + "\n"
