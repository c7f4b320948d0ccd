"""Cross-domain projection of syllable breaks via dynamic time warping.

The pronunciation-domain and spelling-domain sonority curves of a word are
aligned with DTW (cost = absolute level difference, steps diagonal /
a-advance / b-advance).  Each phone-domain break is then carried over to
the letter whose expanded point is linked to the break's cut point.
"""

from collections import namedtuple
from itertools import accumulate

from .errors import CheckedFields
from .sonority import VOWEL_LEVEL, SonoritySequence
from .ssp import Syllabification


class AlignmentPath(CheckedFields, namedtuple("AlignmentPath", "pairs cost")):
    """Monotone warping path between two expanded sequences."""

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...], cost: int):
        if not pairs:
            raise ValueError("empty alignment path")
        return tuple.__new__(cls, (pairs, cost))


class _Distances(dict):
    """Level x -> the translation table mapping each byte y to |x - y|,
    built the first time x is seen."""

    def __missing__(self, x: int) -> bytes:
        table = self[x] = bytes(abs(x - y) for y in range(256))
        return table


_DISTANCES = _Distances()

# the most cost cells `project_ssp` lets one `dtw` fill: the whole matrix is
# kept for the backtrack, so one very long word could exhaust memory
DTW_CELL_BUDGET = 10 ** 5


def dtw(a: SonoritySequence, b: SonoritySequence) -> AlignmentPath:
    """Minimal-cost monotone alignment of two sonority sequences.

    Levels must be byte-sized (0-255; sonority levels are 1-5 by
    construction); any other level raises ValueError.  Ties between
    predecessors are resolved diagonal first, then a-advance, then
    b-advance, so the returned path is unique and reproducible.
    """
    la, lb = a.levels, b.levels
    m, n = len(la), len(lb)
    if m == 0 or n == 0:
        raise ValueError("dtw requires two non-empty sequences")

    # accumulated costs; the first row and column can only be reached
    # straight.  Levels are 1-5, so there are at most five cost rows, and a
    # cell needs only the cheapest predecessor's value: ties matter only to
    # the backtrack.  A cost row is b's levels as bytes, translated through
    # the distance table of the row's level.
    lb = bytes(lb)
    costs = {x: lb.translate(_DISTANCES[x]) for x in set(la)}
    row = list(accumulate(costs[la[0]]))
    acc = [row]
    for x in la[1:]:
        cost = costs[x]
        prev, left = row, row[0] + cost[0]
        row = [left]
        for c, diag, up in zip(cost[1:], prev, prev[1:]):
            if up < diag:
                diag = up
            if left < diag:
                diag = left
            left = diag + c
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
    # the path is monotone: over its reversal, a row's last link is its leftmost
    leftmost = dict(reversed(path.pairs))
    cuts = [letter_seq.sources[leftmost[phone_seq.sources.index(brk)]]
            for brk in phone_syll.breaks]

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
                letter_seq: SonoritySequence,
                ) -> tuple[Syllabification, bool] | None:
    """Carry the SSP breaks `phone_syll` of `phone_seq` onto the letters.

    None when the DTW would fill more than `DTW_CELL_BUDGET` cells; DTW
    runs only when there is a break to carry.
    """
    if len(phone_seq.levels) * len(letter_seq.levels) > DTW_CELL_BUDGET:
        return None
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
