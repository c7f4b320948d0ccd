"""Cross-domain projection of syllable breaks via dynamic time warping.

The pronunciation-domain and spelling-domain sonority curves of a word are
aligned with DTW (cost = absolute level difference, steps diagonal /
a-advance / b-advance).  Each phone-domain break is then carried over to
the letter whose expanded point is linked to the break's cut point.

`dtw` aligns many words at once.  It sorts the curve pairs by shape and
cuts them into chunks of at most `DTW_CHUNK_CELLS` padded cells.  One pass
of the kernel aligns a chunk, with cell (i, j) of every word of the chunk
in the lanes of one Python int, so one big-int operation serves a cell of
hundreds of words.  The memory of a pass is bounded by its chunk, whatever
the number of words aligned.  The more words a call gets, the fuller and
less padded its passes: the pipeline aligns up to `ANALYSIS_CHUNK` (1024)
words a call, which on the benchmark's inputs gives passes of 120-160 words
padded to about 1.55 times their cells.
"""

from itertools import accumulate

from .sonority import VOWEL_LEVEL, SonoritySequence
from .ssp import Syllabification

# the most cost cells one word's projection may fill: the kernel keeps a
# step code per cell for the backtrack, so one very long word could exhaust
# memory
DTW_CELL_BUDGET = 10 ** 5

# the most padded cells (words x rows x columns) one pass of the kernel
# fills; a word larger than this is aligned in a pass of its own
DTW_CHUNK_CELLS = 2 ** 16


def fits_budget(a: SonoritySequence, b: SonoritySequence) -> bool:
    """Whether the DTW of `a` and `b` fills at most `DTW_CELL_BUDGET` cells."""
    return len(a.levels) * len(b.levels) <= DTW_CELL_BUDGET


def dtw(curve_pairs) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """Minimal-cost monotone alignment of each (a, b) pair of sonority
    sequences, as (pairs, cost) in the order of `curve_pairs`.

    `pairs` is the warping path from (0, 0) to the last points of a and b.
    Levels must be byte-sized (0-255; sonority levels are 1-5 by
    construction); any other level raises ValueError, as does an empty
    sequence.  Ties between predecessors are resolved diagonal first, then
    a-advance, then b-advance, so each path is unique and reproducible, and
    the same whatever the other pairs of the batch.
    """
    levels = [(bytes(a.levels), bytes(b.levels)) for a, b in curve_pairs]
    shapes = [(len(a), len(b)) for a, b in levels]
    if not all(m and n for m, n in shapes):
        raise ValueError("dtw requires two non-empty sequences")

    results = [None] * len(levels)

    def run(chunk, rows, cols):
        paths = _dtw_lanes([levels[k] for k in chunk], rows, cols)
        for k, path in zip(chunk, paths):
            results[k] = path

    # a chunk closes before its padded cells would pass DTW_CHUNK_CELLS
    chunk, rows, cols = [], 0, 0
    for k in sorted(range(len(shapes)), key=shapes.__getitem__):
        m, n = shapes[k]
        if chunk and (len(chunk) + 1) * max(rows, m) * max(cols, n) > DTW_CHUNK_CELLS:
            run(chunk, rows, cols)
            chunk, rows, cols = [], 0, 0
        chunk.append(k)
        rows, cols = max(rows, m), max(cols, n)
    if chunk:
        run(chunk, rows, cols)
    return results


def _dtw_lanes(levels: list[tuple[bytes, bytes]], rows: int, cols: int) -> list:
    """The DTW of K curve pairs at once, each padded to `rows` x `cols` points.

    Lane k of each int holds the value of pair k at one cell (SWAR: SIMD
    within a register).  Levels are shifted down by the lowest level of the
    chunk, which also pads the curves, so a cost is at most `top`, the level
    range.  A diagonal-first path reaches cell (i, j) through max(i, j) + 1
    cells, so no accumulated cost exceeds top * max(rows, cols); a lane holds
    that in whole bytes, with its highest bit spare as the guard of the SWAR
    compare.
    """
    k_pairs = len(levels)
    lo = min(min(min(a), min(b)) for a, b in levels)
    top = max(max(max(a), max(b)) for a, b in levels) - lo
    width = (top * max(rows, cols)).bit_length() // 8 + 1  # bytes per lane
    s = 8 * width - 1  # the guard bit of a lane
    size = k_pairs * width
    guard = int.from_bytes((bytes(width - 1) + b"\x80") * k_pairs, "little")
    down, pad = bytes((v - lo) % 256 for v in range(256)), bytes([lo])

    def lanes(curves, length):
        """Point t of every curve, one per lane, for each t < length."""
        flat = b"".join([c.ljust(length, pad) for c in curves]).translate(down)
        lane = bytearray(size)
        points = []
        for t in range(length):
            lane[::width] = flat[t::length]
            points.append(int.from_bytes(lane, "little"))
        return points

    a_points = lanes([a for a, _ in levels], rows)
    b_points = lanes([b for _, b in levels], cols)

    def cost(a, b):
        # |a - b| = b - a + 2 (a - b) in the lanes where a >= b
        d = (a | guard) - b
        ge = d & guard
        return ((d & (ge - (ge >> s))) << 1) + b - a

    # A cell's step code is the top byte of its lane: 0x40 when the diagonal
    # is no dearer than the a-advance, 0x80 when the cheaper of those two is
    # no dearer than the b-advance.  Row 0 steps back along b, column 0
    # along a (the guard bits read 0x80).
    a = a_points[0]
    acc = [list(accumulate(cost(a, b) for b in b_points))]
    codes = bytearray(size * cols)
    back_along_a = guard.to_bytes(size, "little")
    for a in a_points[1:]:
        a_guarded = a | guard
        prev = acc[-1]
        left = prev[0] + cost(a, b_points[0])
        row = [left]
        codes += back_along_a
        for b, diag, up in zip(b_points[1:], prev, prev[1:]):
            d = a_guarded - b  # the cost, as in cost(a, b)
            ge = d & guard
            c = ((d & (ge - (ge >> s))) << 1) + b - a
            # the diagonal unless the a-advance is cheaper
            d = (up | guard) - diag
            ge1 = d & guard
            up -= d & (ge1 - (ge1 >> s))
            # that unless the b-advance is cheaper
            d = (left | guard) - up
            ge2 = d & guard
            left += c - (d & (ge2 - (ge2 >> s)))
            row.append(left)
            codes += ((ge1 >> 1) | ge2).to_bytes(size, "little")
        acc.append(row)

    # backtrack each pair along its own lane of step codes
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    step = [1] * 256
    step[0x80], step[0xC0] = cols, cols + 1
    lane_mask = (1 << 8 * width) - 1
    paths = []
    for k, (la, lb) in enumerate(levels):
        own = codes[k * width + width - 1::size]
        p = (len(la) - 1) * cols + len(lb) - 1
        pairs = [cells[p]]
        while p:
            p -= step[own[p]]
            pairs.append(cells[p])
        pairs.reverse()
        total = acc[len(la) - 1][len(lb) - 1] >> 8 * width * k
        paths.append((tuple(pairs), total & lane_mask))
    return paths


def project_breaks(phone_syll: Syllabification, pairs, phone_seq: SonoritySequence,
                   letter_seq: SonoritySequence) -> tuple[Syllabification, bool]:
    """Carry phone-domain breaks onto the letters through the DTW path `pairs`.

    A break before phone `p` cuts the expanded curve at p's first point;
    the break lands before the source letter of the leftmost path link at
    that cut.  Returns the letter syllabification and a flag that is True
    when any projected break had to be dropped (collapsed links, edge
    positions, or a tail left without a vowel letter).
    """
    # the path is monotone: over its reversal, a row's last link is its leftmost
    leftmost = dict(reversed(pairs))
    cuts = [letter_seq.sources[leftmost[phone_seq.sources.index(brk)]]
            for brk in phone_syll.breaks]

    # never strand a tail without a vowel letter (mirrors ssp_breaks); the
    # sources never fall along the curve, so the last vowel point is the
    # last vowel letter's
    levels = letter_seq.levels
    last_vowel = -1
    if VOWEL_LEVEL in levels:
        last_vowel = letter_seq.sources[len(levels) - 1 - levels[::-1].index(VOWEL_LEVEL)]
    kept = [cut for cut in sorted(set(cuts)) if 0 < cut <= last_vowel]
    # a cut is lost when two breaks share it or it is dropped at an edge
    return Syllabification(letter_seq.symbols, tuple(kept)), len(kept) < len(cuts)


def alignment_debug_tsv(pairs, a: SonoritySequence, b: SonoritySequence) -> str:
    """Path dump as TSV rows (i, j, level_a, level_b) for curve plotting."""
    la, lb = a.levels, b.levels
    lines = ["i\tj\tlevel_a\tlevel_b"]
    for i, j in pairs:
        lines.append(f"{i}\t{j}\t{la[i]}\t{lb[j]}")
    return "\n".join(lines) + "\n"
