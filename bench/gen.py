"""Seeded synthetic inputs for the syllab benchmark.

The public resources (cmudict, Moby, Lexique, ARCTIC) are not in the
repository, so every workload runs on inputs built here from the bundled
fixtures in tests/data:

* a CMU-format lexicon: every fixture entry, plus compounds of 2-4 fixture
  words with spelling and phones concatenated (part count drawn from
  ``part_weights``);
* a Gutenberg-style syllabified corpus: fixture syllabifications, and for a
  share of the compounds either the full syllabification (every part is in
  mini_syllables.txt, so consensus accepts it) or a split at the seams only
  (so consensus rejects it on count);
* a secondary stress file (word<TAB>IPA with a primary-stress mark);
* festival-style prompts with Zipf-distributed words (fixture words at the
  head, compounds in the tail), numerals, acronyms, hyphenation and
  punctuation, optionally with a share of out-of-vocabulary pseudo-words.

Alongside the prompt file the generator returns the word tokens that text
normalization must produce for every sentence, derived from how each token
was written, so the benchmark can check the annotation rows independently
of the program.

Run ``python3 bench/gen.py --workload NAME --seed N --out DIR`` to write a
workload's inputs without running anything.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "data"

# ARPABET -> IPA for the secondary stress file; every symbol resolves in the
# program's mfa-ipa hierarchy.
_IPA = {
    "AA": "ɑ", "AE": "æ", "AH": "ʌ", "AO": "ɔ", "AW": "aʊ", "AY": "aɪ",
    "EH": "ɛ", "ER": "ɝ", "EY": "eɪ", "IH": "ɪ", "IY": "i", "OW": "oʊ",
    "OY": "ɔɪ", "UH": "ʊ", "UW": "u", "B": "b", "CH": "tʃ", "D": "d",
    "DH": "ð", "F": "f", "G": "ɡ", "HH": "h", "JH": "dʒ", "K": "k", "L": "l",
    "M": "m", "N": "n", "NG": "ŋ", "P": "p", "R": "ɹ", "S": "s", "SH": "ʃ",
    "T": "t", "TH": "θ", "V": "v", "W": "w", "Y": "j", "Z": "z", "ZH": "ʒ",
}

# English cardinal words, to read generated numerals back (the numerals are
# drawn so that every word of their reading is a fixture entry).
_ONES = ["zero", "one", "two", "three", "four", "five", "six", "seven",
         "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
         "fifteen", "sixteen", "seventeen", "eighteen", "nineteen"]
_TENS = [None, None, "twenty", "thirty", "forty", "fifty", "sixty",
         "seventy", "eighty", "ninety"]

_ONSETS = ["b", "bl", "br", "d", "dr", "f", "fl", "g", "gr", "k", "kl", "l",
           "m", "n", "p", "pl", "pr", "r", "s", "sk", "st", "t", "tr", "v", "z"]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ou", "ee"]
_CODAS = ["", "", "", "n", "r", "s", "l", "m", "t", "nd", "st"]


def cardinal_words(n: int) -> list[str]:
    if n < 20:
        return [_ONES[n]]
    if n < 100:
        tens, unit = divmod(n, 10)
        return [_TENS[tens]] + ([_ONES[unit]] if unit else [])
    for value, name in ((1_000_000, "million"), (1_000, "thousand"), (100, "hundred")):
        if n >= value:
            head, rest = divmod(n, value)
            return cardinal_words(head) + [name] + (cardinal_words(rest) if rest else [])
    raise ValueError(n)


@dataclass(frozen=True)
class Fixture:
    entries: dict[str, list[tuple[str, ...]]]  # word -> variants, file order
    syllables: dict[str, list[str]]            # word -> syllable parts
    syllable_lines: list[str]
    secondary_lines: list[str]


def load_fixture(root: Path = FIXTURES) -> Fixture:
    entries: dict[str, list[tuple[str, ...]]] = {}
    for line in (root / "mini_cmu.dict").read_text(encoding="latin-1").splitlines():
        if not line.strip() or line.startswith(";;;"):
            continue
        head, *phones = line.split()
        word = head.split("(")[0].lower()
        entries.setdefault(word, []).append(tuple(phones))
    syllable_lines = [ln.strip() for ln in
                      (root / "mini_syllables.txt").read_text(encoding="utf-8").splitlines()
                      if ln.strip()]
    syllables = {ln.lower().replace("-", ""): ln.lower().split("-")
                 for ln in syllable_lines}
    secondary_lines = [ln for ln in
                       (root / "secondary_espeak.tsv").read_text(encoding="utf-8").splitlines()
                       if ln.strip()]
    return Fixture(entries, syllables, syllable_lines, secondary_lines)


@dataclass
class Spec:
    """Size and shape parameters of one workload's inputs."""

    compounds: int
    part_weights: tuple[float, float, float]  # P(2 parts), P(3), P(4)
    corpus_share: float = 0.0     # share of compounds listed in the corpus
    secondary_share: float = 0.0  # share of compounds in the secondary file
    sentences: int = 0
    oov_share: float = 0.0        # share of word slots that draw a pseudo-word
    oov_pool: int = 0


@dataclass
class Inputs:
    lexicon: dict[str, list[tuple[str, ...]]]
    corpus_lines: list[str] = field(default_factory=list)
    secondary_lines: list[str] = field(default_factory=list)
    prompts: list[tuple[str, str]] = field(default_factory=list)
    expected: list[list[str]] = field(default_factory=list)  # tokens per prompt
    oov_pool: list[str] = field(default_factory=list)
    oov_tokens: int = 0

    @property
    def tokens(self) -> int:
        return sum(len(t) for t in self.expected)


def _stress_ipa(phones: tuple[str, ...]) -> str:
    """IPA rendering with ˈ on the first primary-stressed (else first) vowel."""
    vowels = [i for i, p in enumerate(phones) if p[-1].isdigit()]
    primary = next((i for i in vowels if phones[i].endswith("1")),
                   vowels[0] if vowels else None)
    out = []
    for i, p in enumerate(phones):
        sym = _IPA[p.rstrip("012")]
        if p.startswith("AH") and p.endswith("0"):
            sym = "ə"
        out.append(("ˈ" + sym) if i == primary else sym)
    return " ".join(out)


def make_lexicon(rng: random.Random, fx: Fixture, spec: Spec, inputs: Inputs
                 ) -> list[str]:
    """Fill the lexicon, corpus and secondary lines; return the compounds."""
    lexicon = {w: list(v) for w, v in fx.entries.items()}
    parts_pool = sorted(w for w in fx.entries if w.isalpha() and len(w) > 1)
    compounds: list[str] = []
    cum = list(itertools.accumulate(spec.part_weights))
    corpus, secondary = [], []
    while len(compounds) < spec.compounds:
        k = 2 + bisect.bisect_right(cum, rng.random() * cum[-1])
        parts = [rng.choice(parts_pool) for _ in range(k)]
        word = "".join(parts)
        if word in lexicon:
            continue
        phones = tuple(p for part in parts for p in fx.entries[part][0])
        lexicon[word] = [phones]
        compounds.append(word)
        if rng.random() < spec.corpus_share:
            if all(p in fx.syllables for p in parts):
                corpus.append("-".join(s for p in parts for s in fx.syllables[p]))
            else:
                corpus.append("-".join(parts))
        if rng.random() < spec.secondary_share:
            secondary.append(f"{word}\t{_stress_ipa(phones)}")
    inputs.lexicon = lexicon
    if spec.corpus_share:
        inputs.corpus_lines = fx.syllable_lines + corpus
    if spec.secondary_share:
        # fixture words without an ARPABET primary stress are the ones whose
        # stress comes from the secondary file
        unstressed = [f"{w}\t{_stress_ipa(v[0])}" for w, v in fx.entries.items()
                      if w.isalpha() and not any(p.endswith("1") for p in v[0])]
        inputs.secondary_lines = fx.secondary_lines + unstressed + secondary
    return compounds


def _pseudo_word(rng: random.Random) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
                   for _ in range(rng.randint(2, 4)))


def _numeral(rng: random.Random, vocab) -> tuple[str, list[str]]:
    while True:
        r = rng.random()
        n = (rng.randrange(0, 100) if r < 0.5 else
             rng.randrange(100, 1000) if r < 0.8 else rng.randrange(1000, 100_000))
        words = cardinal_words(n)
        if all(w in vocab for w in words):
            text = f"{n:,}" if n >= 1000 and rng.random() < 0.5 else str(n)
            return text, words


def make_prompts(rng: random.Random, spec: Spec, vocab: list[str],
                 lexicon, inputs: Inputs, prefix: str) -> None:
    cum = list(itertools.accumulate(1.0 / rank for rank in range(1, len(vocab) + 1)))
    letters = sorted(w for w in lexicon if len(w) == 1 and w.isalpha())
    while len(inputs.oov_pool) < spec.oov_pool:
        w = _pseudo_word(rng)
        if w not in lexicon and w not in inputs.oov_pool:
            inputs.oov_pool.append(w)

    oov_due = 0.0

    def word() -> str:
        nonlocal oov_due
        # every 1/oov_share-th word slot is OOV, so the OOV count, which sets
        # the G2P cost, does not vary with the seed
        oov_due += spec.oov_share
        if oov_due >= 1.0:
            oov_due -= 1.0
            inputs.oov_tokens += 1
            # repeats: the pool is drawn with a mild Zipf skew too
            return inputs.oov_pool[min(int(rng.paretovariate(1.2)) - 1,
                                       len(inputs.oov_pool) - 1)]
        return vocab[bisect.bisect_left(cum, rng.random() * cum[-1])]

    for s in range(spec.sentences):
        units: list[str] = []
        expected: list[str] = []
        for pos in range(rng.randint(6, 16)):
            r = rng.random()
            if r < 0.03:
                text, words = _numeral(rng, lexicon)
            elif r < 0.04:
                abbr = [rng.choice(letters) for _ in range(rng.randint(2, 4))]
                text, words = "".join(abbr).upper(), abbr
            elif r < 0.06:
                a, b = word(), word()
                text, words = f"{a}-{b}", [a, b]
            else:
                w = word()
                text, words = (w.capitalize() if pos == 0 else w), [w]
            q = rng.random()
            if q < 0.08:
                text += ","
            elif q < 0.09:
                text = f"({text})"
            elif q < 0.10:
                units.append("—")  # punctuation-only tokens are dropped
            units.append(text)
            expected.extend(words)
        units[-1] += rng.choice(".....?!")
        inputs.prompts.append((f"{prefix}_{s:05d}", " ".join(units)))
        inputs.expected.append(expected)


# Workload shapes.  Sizes are chosen so that one CLI invocation does about a
# second or two of work on a 2-core machine; see bench/README.md.
SPECS = {
    "annotate-zipf": Spec(compounds=12_000, part_weights=(0.5, 0.3, 0.2),
                          corpus_share=0.8, secondary_share=0.25,
                          sentences=1200),
    "ablate-lexicon": Spec(compounds=4_000, part_weights=(0.5, 0.3, 0.2),
                           corpus_share=0.8),
    "annotate-g2p": Spec(compounds=3_000, part_weights=(0.5, 0.3, 0.2),
                         sentences=160, oov_share=0.08, oov_pool=300),
}


def generate(workload: str, seed: int) -> Inputs:
    spec = SPECS[workload]
    fx = load_fixture()
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs({})
    compounds = make_lexicon(rng, fx, spec, inputs)
    if spec.sentences:
        head = [w for w in fx.entries if w.replace("'", "").isalpha()]
        rng.shuffle(head)
        tail = list(compounds)
        rng.shuffle(tail)
        make_prompts(rng, spec, head + tail, inputs.lexicon, inputs, workload)
    return inputs


def write_lexicon(path: Path, lexicon) -> None:
    lines = []
    for word, variants in lexicon.items():
        for i, phones in enumerate(variants):
            head = word.upper() if i == 0 else f"{word.upper()}({i})"
            lines.append(f"{head}  {' '.join(phones)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(f"{ln}\n" for ln in lines), encoding="utf-8")


def write_prompts(path: Path, prompts) -> None:
    write_lines(path, (f'( {pid} "{text}" )' for pid, text in prompts))


def write_inputs(inputs: Inputs, out: Path) -> dict[str, Path]:
    """Write every generated file into `out`; return them by role."""
    out.mkdir(parents=True, exist_ok=True)
    files = {"dict": out / "lexicon.dict"}
    write_lexicon(files["dict"], inputs.lexicon)
    if inputs.corpus_lines:
        files["corpus"] = out / "corpus.txt"
        write_lines(files["corpus"], inputs.corpus_lines)
    if inputs.secondary_lines:
        files["secondary"] = out / "secondary.tsv"
        write_lines(files["secondary"], inputs.secondary_lines)
    if inputs.prompts:
        files["prompts"] = out / "prompts.txt"
        write_prompts(files["prompts"], inputs.prompts)
        files["empty_prompts"] = out / "empty_prompts.txt"
        write_lines(files["empty_prompts"], [])
    return files


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(SPECS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    inputs = generate(args.workload, args.seed)
    for role, path in write_inputs(inputs, args.out).items():
        print(f"{role}\t{path}")
    print(f"lexicon_entries\t{len(inputs.lexicon)}\ttokens\t{inputs.tokens}"
          f"\toov_tokens\t{inputs.oov_tokens}")


if __name__ == "__main__":
    main()
