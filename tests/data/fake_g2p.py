"""Scriptable stand-in for an external G2P command (``--fallback-cmd``).

Usage: fake_g2p.py [--count FILE] MODE [WORD]

It reads one word per stdin line.  In mode ``ok`` it prints one line of
ARPABET phones per word, derived from that word's letters alone (the first
vowel gets primary stress); a word with no mappable letter gets an empty
line.  The other modes misbehave the way a broken G2P can:

  hang            sleep until killed
  exit            print the good output, then exit with status 3
  fewer           leave out the last line
  more            add one line at the end
  unknown-phones  print symbols no phone hierarchy knows
  stderr-flood    write 1 MiB to stderr, then the good output
  non-utf8        print bytes that are not UTF-8
  poison WORD     exit with status 1 whenever WORD is in the batch

``--count FILE`` appends one line to FILE per invocation first.
"""

import sys
import time

_PHONES = {
    "a": "AE", "b": "B", "c": "K", "d": "D", "e": "EH", "f": "F", "g": "G",
    "h": "HH", "i": "IH", "j": "JH", "k": "K", "l": "L", "m": "M", "n": "N",
    "o": "AA", "p": "P", "q": "K", "r": "R", "s": "S", "t": "T", "u": "AH",
    "v": "V", "w": "W", "x": "K S", "y": "IY", "z": "Z",
}
_VOWELS = {"AE", "EH", "IH", "AA", "AH", "IY"}


def phones(word: str) -> str:
    out = " ".join(_PHONES[ch] for ch in word.lower() if ch in _PHONES).split()
    stressed = False
    for k, p in enumerate(out):
        if p in _VOWELS:
            out[k] = p + ("0" if stressed else "1")
            stressed = True
    return " ".join(out)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--count"]:
        with open(argv[1], "a", encoding="utf-8") as fh:
            fh.write("call\n")
        argv = argv[2:]
    mode = argv[0]
    words = sys.stdin.buffer.read().decode("utf-8").split("\n")
    if words[-1] == "":
        words.pop()
    lines = [phones(w) for w in words]
    if mode == "hang":
        time.sleep(60)
    elif mode == "fewer":
        lines = lines[:-1]
    elif mode == "more":
        lines.append("AH1")
    elif mode == "unknown-phones":
        lines = ["QQ1 XX" for _ in words]
    elif mode == "stderr-flood":
        sys.stderr.write("x" * (1 << 20))
        sys.stderr.flush()
    elif mode == "non-utf8":
        sys.stdout.buffer.write(b"\xff\xfe B AH1\n" * len(words))
        return 0
    elif mode == "poison" and argv[1] in words:
        return 1
    sys.stdout.buffer.write("".join(line + "\n" for line in lines).encode("utf-8"))
    return 3 if mode == "exit" else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
