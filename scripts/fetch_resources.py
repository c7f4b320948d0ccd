#!/usr/bin/env python3
"""Fetch the public linguistic resources used by the full evaluation suite.

Downloads into resources/ (or $SYLLAB_RESOURCES):

  cmudict-0.7b          CMU pronouncing dictionary (ARPABET)
  moby_hyphenated.txt   Gutenberg ebook 3204 (Moby Hyphenator II), normalized
                        to one lowercase word per line with '-' separators
  Lexique383.tsv        French lexical database (Lexique 3.83)
  lexique_syllables.tsv word<TAB>syllabification, the 'ortho' and
                        'orthosyll' columns of the above
  cmuarctic.data        the 1132 CMU ARCTIC prompts (festival format)

Needs network access.  Every step is idempotent: existing files are kept.
Exits 1 when a fetch or a conversion failed, 0 otherwise.
"""

import os
import sys
import urllib.request
from pathlib import Path

RESOURCES = Path(os.environ.get("SYLLAB_RESOURCES") or
                 Path(__file__).parent.parent / "resources")

CMUDICT_URL = "http://svn.code.sf.net/p/cmusphinx/code/trunk/cmudict/cmudict-0.7b"
MOBY_URL = "https://www.gutenberg.org/files/3204/files/mhyph.txt"
LEXIQUE_URL = "http://www.lexique.org/databases/Lexique383/Lexique383.tsv"
ARCTIC_URL = "http://festvox.org/cmu_arctic/cmuarctic.data"

# Hyphenation points in the Moby file are the byte 0xA5 (bullet in its
# original encoding); real hyphens and spaces mark compounds we skip.
MOBY_SEP = 0xA5


def fetch(url: str, dest: Path) -> bytes | None:
    if dest.exists():
        print(f"  {dest.name}: already present")
        return dest.read_bytes()
    print(f"  fetching {url}")
    try:
        with urllib.request.urlopen(url, timeout=120) as resp:
            data = resp.read()
    except OSError as exc:
        print(f"  FAILED: {exc}")
        return None
    dest.write_bytes(data)
    print(f"  wrote {dest} ({len(data)} bytes)")
    return data


def normalize_moby(raw: bytes, dest: Path) -> bool:
    if dest.exists():
        print(f"  {dest.name}: already present")
        return True
    lines = []
    for line in raw.splitlines():
        line = line.strip()
        if not line or b" " in line or b"-" in line:
            continue
        text = line.replace(bytes([MOBY_SEP]), b"-").decode("latin-1").lower()
        parts = text.split("-")
        if all(p.isalpha() or "'" in p for p in parts if p):
            lines.append(text)
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    print(f"  wrote {dest} ({len(lines)} entries)")
    return True


def extract_lexique_syllables(raw: bytes, dest: Path) -> bool:
    """Write the word and its spelling split into syllables, one row per
    Lexique row.  Lexique's `syll` column is the phonological syllabification,
    in its phone code ("ba-to" for bateau); `orthosyll` is the orthographic
    one ("ba-teau"), whose syllables rejoin to the word."""
    if dest.exists():
        print(f"  {dest.name}: already present")
        return True
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        print(f"  FAILED: Lexique file is not UTF-8 ({exc})")
        return False
    lines = text.splitlines()
    header = lines[0].split("\t") if lines else []
    try:
        ortho_col, syll_col = header.index("ortho"), header.index("orthosyll")
    except ValueError:
        print("  FAILED: Lexique header without ortho/orthosyll columns")
        return False
    out = ["word\tsyll"]
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) > max(ortho_col, syll_col):
            out.append(f"{fields[ortho_col]}\t{fields[syll_col]}")
    dest.write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")
    print(f"  wrote {dest} ({len(out) - 1} entries)")
    return True


def main() -> int:
    RESOURCES.mkdir(parents=True, exist_ok=True)
    print(f"resource root: {RESOURCES}")

    print("CMU pronouncing dictionary")
    ok = fetch(CMUDICT_URL, RESOURCES / "cmudict-0.7b") is not None

    print("Moby hyphenated word list (Gutenberg 3204)")
    raw = fetch(MOBY_URL, RESOURCES / "mhyph.txt")
    ok &= raw is not None and normalize_moby(raw, RESOURCES / "moby_hyphenated.txt")

    print("Lexique383 (French)")
    raw = fetch(LEXIQUE_URL, RESOURCES / "Lexique383.tsv")
    ok &= raw is not None and extract_lexique_syllables(
        raw, RESOURCES / "lexique_syllables.tsv")

    print("CMU ARCTIC prompts")
    ok &= fetch(ARCTIC_URL, RESOURCES / "cmuarctic.data") is not None

    if not ok:
        print("FAILED: some resources are missing; see the lines above")
        return 1
    print("done; rerun the test suite to enable the resource-dependent "
          "acceptance criteria")
    return 0


if __name__ == "__main__":
    sys.exit(main())
