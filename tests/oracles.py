"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately built with different mechanics from the
package code: the break oracle reasons per inter-nucleus gap instead of
scanning with mutable state, and the alignment oracles search the path
space top-down (exhaustively for small grids, with memoization above).
`row_dtw` is the definition that the lane-batched DTW kernel replaced: one
word, a full cost matrix and a backtrack in tie order.
`sequence_from_levels` builds the sequences they are given straight from
expanded levels, with placeholder symbols, and `points` expands a
sequence's per-symbol levels back into the (level, source) points that the
sequences once held.  The loader oracles parse every
line of a resource file at once, the way the loaders did before they
deferred parsing to lookup.  The text oracles are the definitions that
faster code replaced: `normalize` with every unit on the full path, the
syllable joins through a list of bounds and one generator per syllable, and
`zip_project_breaks`, the projection with the last vowel letter from a
generator over the whole letter curve and the degenerate flag from a set.
"""

import itertools
import re
from functools import lru_cache

from syllab.errors import DictParseError, UnknownSymbolError, UnsupportedNumeralError
from syllab.lexicon import Pronunciation, sc_correction
from syllab.sonority import VOWEL_LETTERS, VOWEL_LEVEL, SonoritySequence
from syllab.ssp import PHONE_SYL_SEP, TEXT_SYL_SEP, Syllabification, syllabify_symbols
from syllab.textnorm import _NUMERAL, _ORDINAL, _numeral_value, num_to_words


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


def row_dtw(a, b):
    """DTW path and cost of one pair of level lists: the whole accumulated
    cost matrix, then a backtrack that prefers the diagonal, then the
    a-advance, then the b-advance.  Polynomial, so it checks any length."""
    inf = float("inf")
    acc = []
    for i, x in enumerate(a):
        row = []
        for j, y in enumerate(b):
            prev = min(acc[i - 1][j - 1] if i and j else inf,
                       acc[i - 1][j] if i else inf,
                       row[j - 1] if j else inf)
            row.append((0 if i == j == 0 else prev) + abs(x - y))
        acc.append(row)
    i, j = len(a) - 1, len(b) - 1
    pairs = [(i, j)]
    while i or j:
        diag = acc[i - 1][j - 1] if i and j else inf
        up = acc[i - 1][j] if i else inf
        left = acc[i][j - 1] if j else inf
        if diag <= min(up, left):
            i, j = i - 1, j - 1
        elif up <= left:
            i -= 1
        else:
            j -= 1
        pairs.append((i, j))
    return tuple(reversed(pairs)), acc[-1][-1]


def leftmost_links(pairs):
    """The leftmost b point linked to each a row of an alignment path.

    Pass the pairs of `enum_tie_path`: the projection oracle carries a
    phone cut at row i to the letter point leftmost_links(pairs)[i].
    """
    rows = {}
    for i, j in pairs:
        rows[i] = min(rows.get(i, j), j)
    return rows


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
    """The sonority sequence whose expanded curve is `levels`.

    Every 5 must be followed by a 4; the pair is one vowel symbol "V", and
    any other level one consonant symbol.
    """
    symbol_levels, symbols = [], []
    i = 0
    while i < len(levels):
        lvl = levels[i]
        if lvl == VOWEL_LEVEL:
            if i + 1 >= len(levels) or levels[i + 1] != VOWEL_LEVEL - 1:
                raise ValueError("level 5 must be followed by its level-4 half")
            symbols.append("V")
            i += 2
        else:
            if not 1 <= lvl < VOWEL_LEVEL:
                raise ValueError(f"level out of range: {lvl}")
            symbols.append(f"C{lvl}")
            i += 1
        symbol_levels.append(lvl)
    return SonoritySequence(tuple(symbols), bytes(symbol_levels))


def points(seq):
    """The expanded curve of a sonority sequence as (level, source) points:
    a vowel (5) of symbol s is the points (5, s) and (4, s), any other
    symbol s the one point (level, s)."""
    out = []
    for source, level in enumerate(seq.levels):
        out.append((level, source))
        if level == VOWEL_LEVEL:
            out.append((VOWEL_LEVEL - 1, source))
    return out


def point_levels(seq):
    """The levels of the expanded curve of `seq`, as a tuple."""
    return tuple(level for level, _ in points(seq))


def point_sources(seq):
    """The source symbol of each point of the expanded curve of `seq`."""
    return tuple(source for _, source in points(seq))


def _file_lines(path):
    """Lines broken at LF, CRLF and CR only; UTF-8, else Latin-1."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text = data.decode("latin-1")
    return re.split("\r\n|\r|\n", text)


def eager_pron_dict(path, fmt="cmu", strict=True):
    """({word: [Pronunciation, ...]}, skipped (line, reason) pairs) with every
    line parsed at load."""
    entries, skipped = {}, []
    for line_no, line in enumerate(_file_lines(path), 1):
        line = line.rstrip()
        if not line or line.startswith(";;;"):
            continue
        if fmt == "cmu":
            parts = line.split()
            ok = len(parts) >= 2
            reason = "expected 'WORD  PHONES...'"
            if ok:
                m = re.match(r"^(.*)\(([0-9]+)\)$", parts[0])
                word, tokens = (m.group(1) if m else parts[0]), parts[1:]
                if not word:
                    ok, reason = False, "blank headword"
        else:
            fields = line.split("\t")
            ok = len(fields) >= 2 and bool(fields[0])
            reason = "expected 'word<TAB>phones'"
            if ok and not fields[0].strip():
                ok, reason = False, "blank headword"
            if ok:
                word = fields[0]
                tokens = " ".join(f for f in fields[1:] if f and not
                                  re.match(r"^[0-9]+(?:\.[0-9]+)?$", f)).split()
                ok, reason = bool(tokens), "no phones on line"
        if not ok:
            if strict:
                raise DictParseError(path, line_no, reason)
            skipped.append((line_no, reason))
            continue
        entries.setdefault(word.lower(), []).append(Pronunciation(tuple(tokens)))
    return entries, skipped


def restart_sc_correction(syllables, vowels):
    """`sc_correction` by the restart rule: merge the first vowel-less
    syllable into the next one (the previous one when it is last), then
    scan again from the start, until no vowel-less syllable is left or one
    syllable remains."""
    syls = [s for s in syllables if s]
    changed = True
    while changed and len(syls) > 1:
        changed = False
        for i, syl in enumerate(syls):
            if vowels.isdisjoint(syl.lower()):
                if i + 1 < len(syls):
                    syls[i:i + 2] = [syl + syls[i + 1]]
                else:
                    syls[i - 1:i + 1] = [syls[i - 1] + syl]
                changed = True
                break
    return syls


def eager_syllabified_corpus(path, fmt, language="en"):
    """({word: syllables}, skipped (line, reason) pairs) with `sc_correction`
    applied at load."""
    vowels = VOWEL_LETTERS.get(language, VOWEL_LETTERS["en"])
    entries, skipped = {}, []
    for line_no, line in enumerate(_file_lines(path), 1):
        if (fmt.has_header and line_no == 1) or not line.strip():
            continue
        if not fmt.column_separator:
            syl_field = line.strip()
            word = syl_field.replace(fmt.syllable_separator, "")
        else:
            fields = line.split(fmt.column_separator)
            if len(fields) <= max(fmt.word_column, fmt.syllable_column):
                skipped.append((line_no, "missing columns"))
                continue
            word = fields[fmt.word_column].strip()
            syl_field = fields[fmt.syllable_column].strip()
        word = word.lower()
        syllables = [s for s in syl_field.lower().split(fmt.syllable_separator) if s]
        if not word or not syllables or "".join(syllables) != word:
            skipped.append((line_no, "syllables do not rejoin to the word"))
            continue
        entries[word] = tuple(sc_correction(syllables, vowels))
    return entries, skipped


def eager_secondary_stress(path, hierarchy):
    """({word: (syllable count, stressed syllable)}, skipped (line, reason)
    pairs) with every line syllabified."""
    entries, skipped = {}, []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            fields = line.split("\t")
            if not line or line.startswith("#"):
                continue
            if len(fields) < 2:
                skipped.append((line_no, "expected word<TAB>phones"))
                continue
            symbols, stress_pos = [], None
            for tok in fields[1].split():
                marked = tok[0] in "ˈ'"
                tok = tok.lstrip("ˈˌ',")
                if tok and marked and stress_pos is None:
                    stress_pos = len(symbols)
                if tok:
                    symbols.append(tok)
            if stress_pos is None:
                skipped.append((line_no, "no primary stress mark"))
                continue
            try:
                syll = syllabify_symbols(symbols, hierarchy)
            except UnknownSymbolError as exc:
                skipped.append((line_no, str(exc)))
                continue
            entries[fields[0].lower()] = (syll.n_syllables, syll.syllable_of(stress_pos))
    return entries, skipped


def _strip_edges(raw):
    """`raw` without the characters at its ends that are neither
    alphanumeric nor apostrophes."""
    def edge(ch):
        return not ch.isalnum() and ch not in "'’"
    head = "".join(itertools.dropwhile(edge, raw))
    return "".join(itertools.dropwhile(edge, reversed(head)))[::-1]


def full_path_normalize(text, lang="en"):
    """`normalize` with every whitespace unit taking the punctuation and hyphen
    path, plain words included, and every hyphen part the punctuation,
    numeral and acronym rules of a unit: each word paired with whether it is a
    numeral or ordinal kept as written."""
    pairs = []
    for unit in text.split():
        core = _strip_edges(unit)
        if TEXT_SYL_SEP in core:
            continue
        for part in map(_strip_edges, core.split("-")):
            if not any(ch.isalnum() for ch in part):
                continue
            if len(part) >= 2 and part.isalpha() and part.isupper():
                pairs.extend((ch.lower(), False) for ch in part)
                continue
            word = _strip_edges(part.lower())
            if _NUMERAL.match(part):
                try:
                    words = num_to_words(_numeral_value(word), lang)
                except UnsupportedNumeralError:
                    pairs.append((word, True))
                else:
                    pairs.extend((w, False) for w in words)
            elif _ORDINAL.match(word):
                pairs.append((word, True))
            elif any(ch.isalnum() for ch in word):
                pairs.append((word, False))
    return pairs


def bounds_syllables(syll):
    """The symbols of each syllable, sliced between consecutive bounds."""
    bounds = [0, *syll.breaks, len(syll.symbols)]
    return [syll.symbols[a:b] for a, b in zip(bounds, bounds[1:])]


def per_syllable_text(syll):
    return TEXT_SYL_SEP.join("".join(s) for s in bounds_syllables(syll))


def per_syllable_phone_text(syll):
    return PHONE_SYL_SEP.join(" ".join(s) for s in bounds_syllables(syll))


def zip_project_breaks(phone_syll, pairs, phone_seq, letter_seq):
    """`align.project_breaks` as it was before its reverse-index rewrite,
    reading the sources of the expanded points."""
    leftmost = dict(reversed(pairs))
    phone_sources, letter_points = point_sources(phone_seq), points(letter_seq)
    cuts = [letter_points[leftmost[phone_sources.index(brk)]][1]
            for brk in phone_syll.breaks]
    last_vowel = max((s for level, s in letter_points if level == VOWEL_LEVEL),
                     default=-1)
    degenerate = len(set(cuts)) < len(cuts)
    kept = []
    for cut in sorted(set(cuts)):
        if 0 < cut <= last_vowel:
            kept.append(cut)
        else:
            degenerate = True
    return Syllabification(letter_seq.symbols, tuple(kept)), degenerate
