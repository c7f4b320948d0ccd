import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllab.errors import UnsupportedNumeralError
from syllab.textnorm import kept_numeral, normalize, num_to_words

from oracles import full_path_normalize

# whether `kept_numeral` holds for a word (see `kept`)
PLAIN, UNSUPPORTED = False, True


def kept(text, lang="en"):
    """Each word of `text` with whether `kept_numeral` holds for it."""
    return [(word, kept_numeral(word)) for word in normalize(text, lang)]


class TestTokenize:
    """How `normalize` splits text into word tokens."""

    def test_punctuation_attached_to_words(self):
        assert kept("Hello, world.") == [("hello", PLAIN), ("world", PLAIN)]

    def test_kind_classification(self):
        assert normalize("The BBC aired 42 shows") == \
            ["the", "b", "b", "c", "aired", "forty", "two", "shows"]

    def test_empty_text(self):
        assert normalize("") == []

    def test_leading_punctuation(self):
        assert kept('"Quote (42 times).') == \
            [("quote", PLAIN), ("forty", PLAIN), ("two", PLAIN), ("times", PLAIN)]

    def test_apostrophes_stay_in_core(self):
        assert normalize("don't stop, it's o'clock") == ["don't", "stop", "it's", "o'clock"]

    def test_punctuation_only_token(self):
        assert normalize("stop -- now") == ["stop", "now"]

    def test_single_capital_is_a_word(self):
        assert normalize("I a A") == ["i", "a", "a"]

    def test_numeral_kind_implies_digit_pattern(self):
        # only ASCII digit runs joined by . or , are numerals; "a1" is a word
        assert kept("2nd 42 3.5 1,000 a1 9") == [
            ("2nd", UNSUPPORTED), ("forty", PLAIN), ("two", PLAIN),
            ("3.5", UNSUPPORTED), ("one", PLAIN), ("thousand", PLAIN),
            ("a1", PLAIN), ("nine", PLAIN)]

    def test_dotted_abbreviation_is_not_acronym(self):
        # internal dots disqualify: only solid capital runs count
        assert kept("U.S.A.") == [("u.s.a", PLAIN)]


class TestExpandAcronym:
    def test_bbc(self):
        assert kept("BBC") == [("b", PLAIN), ("b", PLAIN), ("c", PLAIN)]

    def test_usa(self):
        assert normalize("USA.") == ["u", "s", "a"]

    def test_non_acronym_rejected(self):
        assert normalize("Hello McDonald Ok NASA's") == ["hello", "mcdonald", "ok", "nasa's"]

    def test_letters_take_the_one_letter_unit_rule(self):
        # every letter whose doubling is an acronym: "İ" lower-cases to "i" +
        # U+0307, and loses the mark at its end in an acronym as alone
        letters = [ch for ch in map(chr, range(sys.maxunicode + 1))
                   if (ch * 2).isalpha() and (ch * 2).isupper()]
        assert len(letters) > 1000
        assert [ch for ch in letters if normalize(ch * 2) != normalize(ch) * 2] == []


# Hand-verified cardinal spellings; the grammar-level cross-check lives in
# the parser round-trip tests below.
EN_EXPECTED = {
    0: "zero",
    7: "seven",
    13: "thirteen",
    15: "fifteen",
    20: "twenty",
    21: "twenty one",
    42: "forty two",
    100: "one hundred",
    101: "one hundred one",
    115: "one hundred fifteen",
    999: "nine hundred ninety nine",
    1000: "one thousand",
    1999: "one thousand nine hundred ninety nine",
    30000: "thirty thousand",
    200000: "two hundred thousand",
    1000000: "one million",
    2000001: "two million one",
    999999999: "nine hundred ninety nine million nine hundred ninety nine "
               "thousand nine hundred ninety nine",
    # where two groups meet
    21021: "twenty one thousand twenty one",
    101000: "one hundred one thousand",
    1001000: "one million one thousand",
    2000100: "two million one hundred",
}

FR_EXPECTED = {
    0: "zéro",
    1: "un",
    16: "seize",
    17: "dix sept",
    20: "vingt",
    21: "vingt et un",
    31: "trente et un",
    42: "quarante deux",
    61: "soixante et un",
    70: "soixante dix",
    71: "soixante et onze",
    72: "soixante douze",
    79: "soixante dix neuf",
    80: "quatre vingts",
    81: "quatre vingt un",
    90: "quatre vingt dix",
    91: "quatre vingt onze",
    99: "quatre vingt dix neuf",
    100: "cent",
    101: "cent un",
    180: "cent quatre vingts",
    200: "deux cents",
    201: "deux cent un",
    1000: "mille",
    1001: "mille un",
    2000: "deux mille",
    80000: "quatre vingt mille",
    100000: "cent mille",
    200000: "deux cent mille",
    1000000: "un million",
    2000000: "deux millions",
    80000000: "quatre vingts millions",
    200000000: "deux cents millions",
    999999: "neuf cent quatre vingt dix neuf mille neuf cent quatre vingt dix neuf",
    # where two groups meet
    81000: "quatre vingt un mille",
    180000: "cent quatre vingt mille",
    200080: "deux cent mille quatre vingts",
    1001000: "un million mille",
    201000000: "deux cent un millions",
}

ES_EXPECTED = {
    0: "cero",
    1: "uno",
    15: "quince",
    16: "dieciséis",
    20: "veinte",
    21: "veintiuno",
    22: "veintidós",
    26: "veintiséis",
    30: "treinta",
    31: "treinta y uno",
    42: "cuarenta y dos",
    99: "noventa y nueve",
    100: "cien",
    101: "ciento uno",
    116: "ciento dieciséis",
    200: "doscientos",
    500: "quinientos",
    700: "setecientos",
    900: "novecientos",
    1000: "mil",
    1001: "mil uno",
    2000: "dos mil",
    21000: "veintiún mil",
    31000: "treinta y un mil",
    100000: "cien mil",
    101000: "ciento un mil",
    1000000: "un millón",
    2000000: "dos millones",
    21000000: "veintiún millones",
    100000000: "cien millones",
    # where two groups meet
    100100: "cien mil cien",
    121000: "ciento veintiún mil",
    1001000: "un millón mil",
    1100000: "un millón cien mil",
    201000000: "doscientos un millones",
}


# --- inverse oracles: words -> value parsers, independent of the generators ---

_EN_VALUES = {}
for i, w in enumerate("zero one two three four five six seven eight nine ten "
                      "eleven twelve thirteen fourteen fifteen sixteen seventeen "
                      "eighteen nineteen".split()):
    _EN_VALUES[w] = i
for i, w in enumerate("twenty thirty forty fifty sixty seventy eighty ninety".split()):
    _EN_VALUES[w] = 20 + 10 * i


def parse_en(tokens):
    total = cur = 0
    for tok in tokens:
        if tok == "hundred":
            cur *= 100
        elif tok == "thousand":
            total += cur * 1000
            cur = 0
        elif tok == "million":
            total += cur * 1_000_000
            cur = 0
        else:
            cur += _EN_VALUES[tok]
    return total + cur


_FR_VALUES = {}
for i, w in enumerate("zéro un deux trois quatre cinq six sept huit neuf dix "
                      "onze douze treize quatorze quinze seize".split()):
    _FR_VALUES[w] = i
_FR_VALUES.update(vingt=20, vingts=20, trente=30, quarante=40, cinquante=50,
                  soixante=60)


def parse_fr(tokens):
    total = cur = 0
    for tok in tokens:
        if tok == "et":
            continue
        if tok in ("vingt", "vingts"):
            # vigesimal: "quatre vingt(s)" multiplies instead of adding
            if cur and cur % 10 == 4:
                cur += 76  # 4 -> 80 on top of whatever hundreds are queued
            else:
                cur += 20
        elif tok in ("cent", "cents"):
            cur = max(cur, 1) * 100
        elif tok == "mille":
            total += max(cur, 1) * 1000
            cur = 0
        elif tok in ("million", "millions"):
            total += max(cur, 1) * 1_000_000
            cur = 0
        else:
            cur += _FR_VALUES[tok]
    return total + cur


_ES_VALUES = {}
for i, w in enumerate("cero uno dos tres cuatro cinco seis siete ocho nueve diez "
                      "once doce trece catorce quince dieciséis diecisiete "
                      "dieciocho diecinueve veinte veintiuno veintidós veintitrés "
                      "veinticuatro veinticinco veintiséis veintisiete veintiocho "
                      "veintinueve".split()):
    _ES_VALUES[w] = i
_ES_VALUES.update(treinta=30, cuarenta=40, cincuenta=50, sesenta=60, setenta=70,
                  ochenta=80, noventa=90, cien=100, ciento=100, doscientos=200,
                  trescientos=300, cuatrocientos=400, quinientos=500,
                  seiscientos=600, setecientos=700, ochocientos=800,
                  novecientos=900, un=1, veintiún=21)


def parse_es(tokens):
    total = cur = 0
    for tok in tokens:
        if tok == "y":
            continue
        if tok == "mil":
            total += max(cur, 1) * 1000
            cur = 0
        elif tok in ("millón", "millones"):
            total += max(cur, 1) * 1_000_000
            cur = 0
        else:
            cur += _ES_VALUES[tok]
    return total + cur


_PARSERS = {"en": parse_en, "fr": parse_fr, "es": parse_es}


class TestNumToWords:
    @pytest.mark.parametrize("value,expected", sorted(EN_EXPECTED.items()))
    def test_english(self, value, expected):
        assert num_to_words(value, "en") == expected.split()

    @pytest.mark.parametrize("value,expected", sorted(FR_EXPECTED.items()))
    def test_french(self, value, expected):
        assert num_to_words(value, "fr") == expected.split()

    @pytest.mark.parametrize("value,expected", sorted(ES_EXPECTED.items()))
    def test_spanish(self, value, expected):
        assert num_to_words(value, "es") == expected.split()

    @pytest.mark.parametrize("lang", ["en", "fr", "es"])
    def test_parser_round_trip_exhaustive_small(self, lang):
        parse = _PARSERS[lang]
        for n in range(0, 2101):
            assert parse(num_to_words(n, lang)) == n, n

    @pytest.mark.parametrize("lang", ["en", "fr", "es"])
    @given(value=st.integers(min_value=0, max_value=999_999_999))
    @settings(max_examples=300)
    def test_parser_round_trip_property(self, lang, value):
        assert _PARSERS[lang](num_to_words(value, lang)) == value

    @pytest.mark.parametrize("lang", ["en", "fr", "es"])
    @given(value=st.integers(min_value=0, max_value=999_999_999))
    @settings(max_examples=150)
    def test_tokens_are_letters_only(self, lang, value):
        for tok in num_to_words(value, lang):
            assert tok.isalpha() and tok == tok.lower()

    def test_out_of_range(self):
        with pytest.raises(UnsupportedNumeralError):
            num_to_words(1_000_000_000, "en")
        with pytest.raises(UnsupportedNumeralError):
            num_to_words(-1, "en")

    def test_unsupported_language(self):
        with pytest.raises(UnsupportedNumeralError):
            num_to_words(5, "de")

    def test_deterministic(self):
        assert num_to_words(123456, "fr") == num_to_words(123456, "fr")


class TestNormalize:
    def test_numeral_expansion(self):
        assert normalize("I saw 2 cats.") == ["i", "saw", "two", "cats"]

    def test_acronym_expansion(self):
        assert normalize("OK") == ["o", "k"]

    def test_plain_word_identity(self):
        assert kept("word") == [("word", PLAIN)]

    def test_punctuation_dropped(self):
        assert normalize("well -- yes !") == ["well", "yes"]

    def test_hyphenated_words_split(self):
        assert normalize("well-known fact") == ["well", "known", "fact"]

    def test_case_folding(self):
        assert normalize("The Debate") == ["the", "debate"]

    def test_unsupported_numeral_flagged_not_fatal(self):
        assert kept("worth 3.5 points") == \
            [("worth", PLAIN), ("3.5", UNSUPPORTED), ("points", PLAIN)]

    def test_ordinal_flagged(self):
        assert kept("the 2nd time") == \
            [("the", PLAIN), ("2nd", UNSUPPORTED), ("time", PLAIN)]

    def test_thousands_separator(self):
        assert normalize("1,000 men") == ["one", "thousand", "men"]

    def test_decimal_comma_not_misread(self):
        assert kept("3,5 points", "fr")[0] == ("3,5", UNSUPPORTED)

    def test_mixed_sentence_keys(self):
        # acronym, hyphen, ordinal, grouped thousands, decimal and quotes
        text = '"The BBC aired its well-known 2nd report," said 1,250 viewers -- 3.5 stars!'
        assert kept(text, "en") == [
            ("the", PLAIN), ("b", PLAIN), ("b", PLAIN), ("c", PLAIN),
            ("aired", PLAIN), ("its", PLAIN), ("well", PLAIN), ("known", PLAIN),
            ("2nd", UNSUPPORTED), ("report", PLAIN), ("said", PLAIN),
            ("one", PLAIN), ("thousand", PLAIN), ("two", PLAIN),
            ("hundred", PLAIN), ("fifty", PLAIN), ("viewers", PLAIN),
            ("3.5", UNSUPPORTED), ("stars", PLAIN),
        ]

    @pytest.mark.parametrize("lang", ["en", "fr", "es"])
    @given(text=st.text(max_size=80))
    @settings(max_examples=200)
    def test_keys_are_dictionary_ready(self, lang, text):
        for word in normalize(text, lang):
            assert word and any(ch.isalnum() for ch in word) and word == word.lower()
            assert "|" not in word and not any(ch.isspace() for ch in word)
            if kept_numeral(word):  # kept as written: it normalizes to itself
                assert normalize(word, lang) == [word]

    @given(st.text(alphabet=st.sampled_from("abc def' -."), max_size=60))
    @settings(max_examples=200)
    def test_idempotent_without_numerals_acronyms(self, text):
        once = normalize(text)
        assert normalize(" ".join(once)) == once


# letters of both cases, a capital that lower-cases to two code points (İ),
# a titlecase digraph (ǅ), Σ, a combining mark, digits, the punctuation the
# full path handles and whitespace
_UNIT_ALPHABET = ("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                  "İǅǄΣ\u0301" "0123456789" ".,-'’|()" " \t\n")


class TestPlainWordPath:
    """A plain word takes one step; every unit gets the words of the full path,
    and `kept_numeral` holds for those the full path keeps as numerals."""

    @pytest.mark.parametrize("lang", ["en", "fr", "es"])
    @given(text=st.text(alphabet=_UNIT_ALPHABET, max_size=60))
    @settings(max_examples=300)
    def test_equals_full_path(self, lang, text):
        assert kept(text, lang) == full_path_normalize(text, lang)

    @pytest.mark.parametrize("text", ["İ", "İstanbul", "I", "A", "BBC", "ǄA", "ǅ",
                                      "Σοφία", "cafe\u0301", "Hello"])
    def test_edge_cases_equal_full_path(self, text):
        assert kept(text) == full_path_normalize(text)

    def test_dotted_capital_i_loses_its_dot(self):
        # "İ".lower() is "i" + U+0307; the mark is stripped at the edge, as
        # it is from each letter of an acronym
        assert kept("İ") == [("i", PLAIN)]
        assert kept("İİ") == kept("İSTANBUL")[:1] * 2 == [("i", PLAIN)] * 2
        assert kept("İstanbul") == [("i\u0307stanbul", PLAIN)]

    def test_capitals(self):
        assert kept("I A") == [("i", PLAIN), ("a", PLAIN)]
        assert kept("BBC") == [("b", PLAIN), ("b", PLAIN), ("c", PLAIN)]
        assert kept("ǄA") == [("ǆ", PLAIN), ("a", PLAIN)]


_PART_ALPHABET = [ch for ch in _UNIT_ALPHABET if not ch.isspace() and ch not in "-|"]


class TestHyphenParts:
    """Each hyphen part of a unit takes the rules of a whole unit."""

    @pytest.mark.parametrize("lang", ["en", "fr", "es"])
    @given(a=st.text(alphabet=_PART_ALPHABET, max_size=15),
           b=st.text(alphabet=_PART_ALPHABET, max_size=15))
    @settings(max_examples=300)
    def test_parts_normalize_as_units(self, lang, a, b):
        assert normalize(a + "-" + b, lang) == normalize(a, lang) + normalize(b, lang)

    @pytest.mark.parametrize("text, expected", [
        ("1990-1995", num_to_words(1990) + num_to_words(1995)),
        ("twenty-1", ["twenty", "one"]),
        ("3,000-strong", ["three", "thousand", "strong"]),
        ("FBI-agent", ["f", "b", "i", "agent"]),
    ])
    def test_numerals_and_acronyms_in_parts(self, text, expected):
        assert normalize(text) == normalize(text.replace("-", " ")) == expected
        assert not any(map(kept_numeral, expected))

    def test_kept_numerals_in_parts(self):
        assert kept("a-3.5 2nd-floor") == [("a", PLAIN), ("3.5", UNSUPPORTED),
                                          ("2nd", UNSUPPORTED), ("floor", PLAIN)]
        assert kept("a-3.5") == kept("a 3.5")
