"""Deterministic stand-in for an external G2P model (stdlib only).

Follows the protocol syllab's ``--fallback-cmd`` expects: words on stdin, one
line of ARPABET phones out per word, in input order.  Letters map to phones
by a fixed table (a few digraphs first); the first vowel carries primary
stress, later vowels are unstressed.  A word with no mappable letter gets an
empty line, so line counts always match.

The benchmark runs it as ``python -I -S fake_g2p.py`` so its start-up cost
does not depend on the environment or on installed packages.
"""

import sys

_DIGRAPHS = {"th": ["TH"], "sh": ["SH"], "ch": ["CH"], "ng": ["NG"],
             "ee": ["IY"], "ou": ["AW"], "ai": ["EY"]}
_LETTERS = {
    "a": ["AE"], "b": ["B"], "c": ["K"], "d": ["D"], "e": ["EH"], "f": ["F"],
    "g": ["G"], "h": ["HH"], "i": ["IH"], "j": ["JH"], "k": ["K"], "l": ["L"],
    "m": ["M"], "n": ["N"], "o": ["AA"], "p": ["P"], "q": ["K"], "r": ["R"],
    "s": ["S"], "t": ["T"], "u": ["AH"], "v": ["V"], "w": ["W"],
    "x": ["K", "S"], "y": ["IY"], "z": ["Z"],
}
_VOWELS = {"AE", "EH", "IH", "AA", "AH", "IY", "AW", "EY"}


def phones(word: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(word):
        pair = word[i:i + 2]
        if pair in _DIGRAPHS:
            out += _DIGRAPHS[pair]
            i += 2
            continue
        out += _LETTERS.get(word[i], [])
        i += 1
    stressed = False
    for k, p in enumerate(out):
        if p in _VOWELS:
            out[k] = p + ("0" if stressed else "1")
            stressed = True
    return out


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(" ".join(phones(line.strip().lower())) + "\n")


if __name__ == "__main__":
    main()
