"""The published layouts of the public resources, offline.

Each fixture is written here from its format's documentation, so these tests
need no network and no fetched file: they run the conversions of
scripts/fetch_resources.py and the loaders on small excerpts in the same
layouts.
"""

import importlib.util
from pathlib import Path

import pytest

from syllab.cli import read_corpus_file
from syllab.lexicon import CorpusFormat, load_pron_dict, load_syllabified_corpus

SCRIPT = Path(__file__).parent.parent / "scripts" / "fetch_resources.py"
_spec = importlib.util.spec_from_file_location("fetch_resources", SCRIPT)
fetch_resources = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fetch_resources)

# Lexique 3.83 (lexique.org, Lexique383.tsv): UTF-8, tab-separated, one
# header line.  The manual gives `syll` as the phonological syllabification
# in Lexique's phone code and `orthosyll` as the orthographic one, both with
# "-" between syllables: only `orthosyll` rejoins to the word.
LEXIQUE_COLUMNS = (
    "ortho phon lemme cgram genre nombre freqlemfilms2 freqlemlivres freqfilms2 "
    "freqlivres infover nbhomogr nbhomoph islem nblettres nbphons cvcv p_cvcv "
    "voisorth voisphon puorth puphon syll nbsyll cv-cv orthrenv phonrenv "
    "orthosyll cgramortho deflem defobs old20 pld20 morphoder nbmorph").split()
# (ortho, phon, syll, orthosyll) of each row; the other fields are filler
LEXIQUE_ROWS = [
    ("bateau", "bato", "ba-to", "ba-teau"),
    ("maison", "mEz§", "mE-z§", "mai-son"),
    ("élève", "elEv", "e-lEv", "é-lève"),
    ("abricot", "abRiko", "a-bRi-ko", "a-bri-cot"),
    ("forêt", "foRE", "fo-RE", "fo-rêt"),
]


def lexique_file(rows=LEXIQUE_ROWS) -> bytes:
    lines = ["\t".join(LEXIQUE_COLUMNS)]
    for ortho, phon, syll, orthosyll in rows:
        fields = dict.fromkeys(LEXIQUE_COLUMNS, "0")
        fields.update(ortho=ortho, phon=phon, syll=syll, orthosyll=orthosyll,
                      lemme=ortho, cgram="NOM")
        lines.append("\t".join(fields[c] for c in LEXIQUE_COLUMNS))
    return ("\n".join(lines) + "\n").encode("utf-8")


# Moby Hyphenator II (Gutenberg ebook 3204, mhyph.txt): one entry per line,
# CRLF line ends, the byte 0xA5 between syllables; compounds hold a space or
# a hyphen.
MOBY = (b"a\xa5ba\xa5cus\r\n"
        b"ab\xa5bey\r\n"
        b"beau\xa5ti\xa5ful\r\n"
        b"Ca\xa5na\xa5da\r\n"
        b"ab\xa5bey road\r\n"
        b"self-help\r\n"
        b"o'\xa5clock\r\n")

# cmudict-0.7b: Latin-1, `WORD  P1 P2 ...` with two spaces, `;;;` comments
# and `WORD(1)` for a word's second pronunciation
CMUDICT = ";;; # CMUdict  --  Major Version: 0.07\n".encode("latin-1") + \
    ";;; # ©1993-2015 Carnegie Mellon University\n".encode("latin-1") + \
    b"!EXCLAMATION-POINT  EH2 K S K L AH0 M EY1 SH AH0 N P OY2 N T\n" \
    b"'BOUT  B AW1 T\n" \
    b"ABACUS  AE1 B AH0 K AH0 S\n" \
    b"EITHER  IY1 DH ER0\n" \
    b"EITHER(1)  AY1 DH ER0\n" \
    b"TOMATO  T AH0 M EY1 T OW2\n" \
    b"TOMATO(1)  T AH0 M AA1 T OW2\n"

# CMU ARCTIC prompts (festvox.org, cmuarctic.data): one festival utterance
# `( id "text" )` per line
ARCTIC = ('( arctic_a0001 "Author of the danger trail, Philip Steels, etc." )\n'
          '( arctic_a0002 "Not at this particular case, Tom, apologized '
          'Whittemore." )\n'
          '( arctic_b0539 "The outfit is one thousand dollars." )\n')


class TestLexique:
    def test_orthographic_rows_load_with_none_skipped(self, tmp_path):
        dest = tmp_path / "lexique_syllables.tsv"
        assert fetch_resources.extract_lexique_syllables(lexique_file(), dest)
        corpus = load_syllabified_corpus(dest, CorpusFormat.preset("lexique"), "fr")
        assert corpus.skipped == 0
        assert sorted(corpus) == sorted(ortho for ortho, *_ in LEXIQUE_ROWS)
        assert corpus["bateau"] == ("ba", "teau")
        assert corpus["élève"] == ("é", "lève")

    def test_not_utf8_fails_and_writes_nothing(self, tmp_path, capsys):
        dest = tmp_path / "lexique_syllables.tsv"
        raw = lexique_file().replace("élève".encode(), "élève".encode("latin-1"))
        assert not fetch_resources.extract_lexique_syllables(raw, dest)
        assert not dest.exists()
        assert "FAILED: Lexique file is not UTF-8" in capsys.readouterr().out

    def test_header_without_orthosyll_fails(self, tmp_path, capsys):
        dest = tmp_path / "lexique_syllables.tsv"
        raw = b"ortho\tphon\tsyll\nbateau\tbato\tba-to\n"
        assert not fetch_resources.extract_lexique_syllables(raw, dest)
        assert not dest.exists()
        assert "without ortho/orthosyll columns" in capsys.readouterr().out


def test_moby_through_the_gutenberg_loader(tmp_path):
    dest = tmp_path / "moby_hyphenated.txt"
    assert fetch_resources.normalize_moby(MOBY, dest)
    assert dest.read_bytes() == b"a-ba-cus\nab-bey\nbeau-ti-ful\nca-na-da\no'-clock\n"
    corpus = load_syllabified_corpus(dest, CorpusFormat.preset("gutenberg"))
    assert corpus.skipped == 0
    assert corpus["abacus"] == ("a", "ba", "cus")
    assert corpus["canada"] == ("ca", "na", "da")
    assert "abbey road" not in corpus and "selfhelp" not in corpus


def test_cmudict_latin1_comments_and_variants(tmp_path):
    path = tmp_path / "cmudict-0.7b"
    path.write_bytes(CMUDICT)
    lexicon = load_pron_dict(path, "cmu")
    assert lexicon.skipped == 0
    assert sorted(lexicon) == ["!exclamation-point", "'bout", "abacus", "either",
                               "tomato"]
    assert [str(p) for p in lexicon["either"]] == ["IY1 DH ER0", "AY1 DH ER0"]
    assert [str(p) for p in lexicon["tomato"]] == ["T AH0 M EY1 T OW2",
                                                   "T AH0 M AA1 T OW2"]


def test_arctic_prompts_through_read_corpus_file(tmp_path):
    path = tmp_path / "cmuarctic.data"
    path.write_text(ARCTIC, encoding="utf-8")
    assert read_corpus_file(path) == [
        ("arctic_a0001", "Author of the danger trail, Philip Steels, etc."),
        ("arctic_a0002", "Not at this particular case, Tom, apologized Whittemore."),
        ("arctic_b0539", "The outfit is one thousand dollars."),
    ]


class TestMain:
    FILES = {"cmudict-0.7b": CMUDICT, "mhyph.txt": MOBY,
             "Lexique383.tsv": lexique_file(), "cmuarctic.data": ARCTIC.encode()}

    @pytest.fixture
    def root(self, tmp_path, monkeypatch):
        def no_network(url, timeout=None):
            raise OSError(f"offline: {url}")

        monkeypatch.setattr(fetch_resources, "RESOURCES", tmp_path)
        monkeypatch.setattr(fetch_resources.urllib.request, "urlopen", no_network)
        return tmp_path

    def test_all_present_exits_0(self, root, capsys):
        for name, data in self.FILES.items():
            (root / name).write_bytes(data)
        assert fetch_resources.main() == 0
        assert (root / "moby_hyphenated.txt").exists()
        assert (root / "lexique_syllables.tsv").exists()
        assert "FAILED" not in capsys.readouterr().out

    @pytest.mark.parametrize("missing", sorted(FILES))
    def test_failed_fetch_exits_1(self, root, capsys, missing):
        for name, data in self.FILES.items():
            if name != missing:
                (root / name).write_bytes(data)
        assert fetch_resources.main() == 1
        out = capsys.readouterr().out
        assert out.count("FAILED: offline") == 1 and "some resources are missing" in out

    def test_failed_conversion_exits_1(self, root):
        for name, data in self.FILES.items():
            (root / name).write_bytes(data)
        (root / "Lexique383.tsv").write_bytes(b"ortho\tphon\nbateau\tbato\n")
        assert fetch_resources.main() == 1
        assert not (root / "lexique_syllables.tsv").exists()
