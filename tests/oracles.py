"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately built with different mechanics from the
package code: the break oracle reasons per inter-nucleus gap instead of
scanning with mutable state, and the alignment oracles search the path
space top-down (exhaustively for small grids, with memoization above).
`sequence_from_levels` builds the curves they are given straight from
expanded levels, with placeholder symbols.
"""

import itertools
from functools import lru_cache

from syllab.sonority import VOWEL_LEVEL, SonoritySequence


def oracle_breaks(points):
    """Expected syllable cuts for an expanded (level, source) point list.

    Between each pair of consecutive nuclei there is exactly one break, at
    the first dip (strictly below its left neighbour, with the next
    differing level higher) inside the gap; a vowel-half dip cuts after its
    vowel, a consonant dip cuts before itself.  Material before the first
    nucleus or after the last one never hosts a break.
    """
    levels = [lvl for lvl, _ in points]
    n = len(levels)
    nuclei = [i for i, lvl in enumerate(levels) if lvl == 5]
    breaks = []
    for left, right in zip(nuclei, nuclei[1:]):
        for i in range(left + 1, right):
            if levels[i - 1] <= levels[i]:
                continue
            k = i + 1
            while k < n and levels[k] == levels[i]:
                k += 1
            if k == n or levels[k] < levels[i]:
                continue
            src = points[i][1]
            breaks.append(src + 1 if points[i - 1][1] == src else src)
            break
    return breaks


def valid_expansion(levels):
    """True when every 5 is followed by its 4-half (decodable expansion)."""
    i = 0
    while i < len(levels):
        if levels[i] == 5:
            if i + 1 >= len(levels) or levels[i + 1] != 4:
                return False
            i += 2
        else:
            i += 1
    return True


def all_level_tuples(max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product(range(1, 6), repeat=length)


def all_expanded_sequences(max_len):
    for levels in all_level_tuples(max_len):
        if valid_expansion(levels):
            yield levels


def enum_min_cost(a, b):
    """Ground-truth DTW cost: walk every monotone path (admissible pruning)."""
    m, n = len(a), len(b)
    best = [float("inf")]

    def walk(i, j, cost):
        cost += abs(a[i] - b[j])
        if cost >= best[0]:
            return
        if i == m - 1 and j == n - 1:
            best[0] = cost
            return
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1, cost)
        if i + 1 < m:
            walk(i + 1, j, cost)
        if j + 1 < n:
            walk(i, j + 1, cost)

    walk(0, 0, 0)
    return best[0]


def recursive_min_cost(a, b):
    """Top-down suffix search with memoization; agrees with enum_min_cost."""
    m, n = len(a), len(b)

    @lru_cache(maxsize=None)
    def suffix(i, j):
        if i == m - 1 and j == n - 1:
            return 0
        options = []
        if i + 1 < m and j + 1 < n:
            options.append(abs(a[i + 1] - b[j + 1]) + suffix(i + 1, j + 1))
        if i + 1 < m:
            options.append(abs(a[i + 1] - b[j]) + suffix(i + 1, j))
        if j + 1 < n:
            options.append(abs(a[i] - b[j + 1]) + suffix(i, j + 1))
        return min(options)

    return abs(a[0] - b[0]) + suffix(0, 0)


def enum_tie_path(a, b):
    """Ground-truth DTW path and cost, tie order included.

    Walks every monotone path backwards from the last cell to (0, 0),
    keeps the minimum-cost ones and, among those, the one whose step codes
    read from the end are lexicographically least (diagonal 0, a-advance 1,
    b-advance 2).  Returns (pairs from (0, 0), cost).
    """
    steps = ((1, 1), (1, 0), (0, 1))  # indexed by step code
    best = []

    def walk(i, j, cost, codes, cells):
        cost += abs(a[i] - b[j])
        cells = cells + [(i, j)]
        if i == 0 and j == 0:
            best.append(((cost, codes), cells))
            return
        for code, (di, dj) in enumerate(steps):
            if i >= di and j >= dj:
                walk(i - di, j - dj, cost, codes + (code,), cells)

    walk(len(a) - 1, len(b) - 1, 0, (), [])
    (cost, _), cells = min(best)
    return tuple(reversed(cells)), cost


def random_expanded_levels(rng, max_points):
    """Random valid expanded level list with at most `max_points` points."""
    budget = rng.randint(1, max_points)
    levels = []
    while budget > 0:
        if budget >= 2 and rng.random() < 0.4:
            levels += [5, 4]
            budget -= 2
        else:
            levels.append(rng.randint(1, 4))
            budget -= 1
    return levels


def sequence_from_levels(levels):
    """A sonority sequence with the given expanded levels.

    Every 5 must be followed by a 4; the pair is attributed to one source
    symbol, exactly as `sonority_sequence` emits a vowel.
    """
    sources, symbols = [], []
    i = 0
    while i < len(levels):
        lvl = levels[i]
        if lvl == VOWEL_LEVEL:
            if i + 1 >= len(levels) or levels[i + 1] != VOWEL_LEVEL - 1:
                raise ValueError("level 5 must be followed by its level-4 half")
            sources += (len(symbols), len(symbols))
            symbols.append("V")
            i += 2
        else:
            if not 1 <= lvl < VOWEL_LEVEL:
                raise ValueError(f"level out of range: {lvl}")
            sources.append(len(symbols))
            symbols.append(f"C{lvl}")
            i += 1
    return SonoritySequence(tuple(symbols), tuple(levels), tuple(sources))
