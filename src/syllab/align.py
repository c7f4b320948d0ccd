"""Cross-domain projection of syllable breaks via dynamic time warping.

The pronunciation-domain and spelling-domain sonority curves of a word are
aligned with DTW (cost = absolute level difference, steps diagonal /
a-advance / b-advance).  Each phone-domain break is then carried over to
the letter whose expanded point is linked to the break's cut point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .sonority import VOWEL_LEVEL, SonoritySequence
from .ssp import Syllabification


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

    # accumulated costs; the first row and column can only be reached straight
    row = list(accumulate(abs(la[0] - y) for y in lb))
    acc = [row]
    for x in la[1:]:
        prev, left = row, row[0] + abs(x - lb[0])
        row = [left]
        for y, diag, up in zip(lb[1:], prev, prev[1:]):
            left = abs(x - y) + min(diag, up, left)
            row.append(left)
        acc.append(row)

    # backtrack, preferring diagonal, then a-advance, then b-advance
    i, j = m - 1, n - 1
    pairs = [(i, j)]
    while i and j:
        diag, up, left = acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]
        if diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif up <= left:
            i -= 1
        else:
            j -= 1
        pairs.append((i, j))
    pairs += [(k, 0) for k in range(i - 1, -1, -1)]
    pairs += [(0, k) for k in range(j - 1, -1, -1)]
    pairs.reverse()
    return AlignmentPath(tuple(pairs), acc[-1][-1])


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
    cuts = []
    for brk in phone_syll.breaks:
        c = phone_seq.sources.index(brk)
        j = min(j for i, j in path.pairs if i == c)
        cuts.append(letter_seq.sources[j])

    # never strand a tail without a vowel letter (mirrors ssp_breaks)
    last_vowel = max((s for s, level in zip(letter_seq.sources, letter_seq.levels)
                      if level == VOWEL_LEVEL), default=-1)
    degenerate = len(set(cuts)) < len(cuts)
    kept: list[int] = []
    for cut in sorted(set(cuts)):
        if 0 < cut <= last_vowel:
            kept.append(cut)
        else:
            degenerate = True

    return Syllabification(letter_seq.symbols, tuple(kept)), degenerate


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
