"""Reference job for bench/run.py: a fixed pure-Python workload.

    python3 -S bench/reference.py

It reads no file and imports nothing from syllab or from the benchmark's
input generator, so its amount of work never changes: bench/run.py times it
around every measured invocation to follow the speed of the machine.  The
mix resembles syllab's per-word work (string building and splitting, dict
counting, a small dynamic-programming table per word pair).  It checks its
own result and exits 1 if the result ever differs, so that an edit that
changes the work does not pass silently.

Do not edit it: every change rescales the figures of all workloads.
"""

import sys

WORDS = 2000
ROUNDS = 3
EXPECTED = 868471571


def words(n):
    """n pseudo-words from a linear congruential generator."""
    onsets = ("b", "br", "k", "d", "str", "m", "n", "p", "pl", "s", "t", "tr", "v")
    nuclei = ("a", "e", "i", "o", "u", "ai", "ou", "ee")
    state = 12345
    out = []
    for _ in range(n):
        parts = []
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        for _ in range(1 + state % 4):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            parts.append(onsets[state % len(onsets)] + nuclei[(state >> 8) % len(nuclei)])
        out.append("".join(parts))
    return out


def distance(a, b):
    """Edit distance, one row at a time."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        row = [i]
        for j, cb in enumerate(b, 1):
            row.append(min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = row
    return prev[-1]


def main():
    vocab = words(WORDS)
    total = 0
    for r in range(ROUNDS):
        counts = {}
        for w in vocab:
            key = w[r:] + w[:r]
            counts[key] = counts.get(key, 0) + 1
        text = " ".join(sorted(counts)).upper().split()
        for i in range(1, len(text)):
            total = (total * 31 + distance(text[i - 1], text[i]) + len(counts)) % 2**31
    if total != EXPECTED:
        print(f"reference checksum {total} != {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
