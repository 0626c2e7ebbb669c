"""Fast paths proved equal to the specs in `tests/oracles.py`.

The specs compare casefolded text. `catalog.text_runs`, the one reader of
runs for replay's index and phrases, is checked against `alnum_runs`.
ReplayBackend's inverted index and folded check are checked against
`linear_fetch`, a plain scan of `phrase_regex(fold_text(p))` over
`fold_text(text)`, and find_entity_matches against `alternation_matches`,
the catalog's one-alternation matcher searched in `text.casefold()`, its
spans mapped back through the folded length of each prefix. The generated
texts, names and queries are built from pieces chosen to reach the hard
cases: inner punctuation, `_` and digits next to a name, letters whose
casefold is longer ("ß", "ﬁ") or differs from IGNORECASE ("İ", "ı", "ſ",
the Kelvin sign), "\u0345", which casefold turns into a letter,
overlapping and self-overlapping names, and mixed whitespace runs. Both
`text_runs` and spotting read ASCII folded text with the ASCII run class,
checked against the Unicode one on every ASCII code point, and take a
whitespace word of letters and digits as one run without a regex
(spotting only where one whitespace character parts each word from the
next), on the premise, checked on every code point, that the run class
matches exactly the characters that `catalog._one_run` accepts, `\\s`
exactly the `str.isspace` ones, and no character is both. `clean_texts`
draws texts of such words, with " ", tab and "\x1c" between them, which
the mixed generator rarely does. Replay folds each text and phrase once,
on the premise, checked on every code point, that folding a folded text
changes nothing. The corpus generator's `pa_edge_list` is checked against
`weighted_pa_edge_list`, which hands random.choices the weights on every
draw. The one-regex decoders of the corpus and pattern formats, the corpus
loader's one-split loop and the snippet cache's one-stream read are checked
against the routines they replaced: equal results, and equal ValueError
messages, over text weighted toward backslashes, escape letters, spaces and
line ends, over lists of corpus lines built from tabs, backslashes, line
ends and escape letters, and over arbitrary cache file bytes.
"""

import os
import random
import re
import sys
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from snipgraph.catalog import (
    _ASCII_RUN,
    _RUN,
    _one_run,
    _run_pattern,
    find_entity_matches,
    fold_text,
    folded_phrase_test,
    text_runs,
)
from snipgraph.corpus import pa_edge_list
from snipgraph.extract import _escape_pattern, unescape_pattern
from snipgraph.search import (
    CorpusFormatError,
    CorpusRecord,
    ReplayBackend,
    SnippetCache,
    connectivity_query,
    entity_query,
    load_corpus,
    load_corpus_file,
    pair_query,
    unescape_field,
)

from conftest import make_catalog
from oracles import (
    _escape_pattern as old_escape_pattern,
    _unescape_pattern as old_unescape_pattern,
    alnum_runs,
    alternation_matches,
    linear_fetch,
    load_corpus as old_load_corpus,
    phrase_regex,
    snippet_cache_get as old_cache_get,
    unescape_field as old_unescape_field,
    weighted_pa_edge_list,
)

NAME_PIECES = (
    "Bo", "bo", "Ada", "Veil", "Quist", "Jean-Luc", "O'Brien", "o", "Brien",
    "Strauß", "strauss", "\u0130ris", "\u0131ris", "iris", "\u017fam", "Sam",
    "Kai", "\u212aai", "x_y", "7", "Bo2", "&", "Jr.", "-Bo", "(Bo)",
    "\ufb01", "\u0345",
)
FILLER = ("and", "with", "sandy", "_", "9", "-", ",", "'", "café", "x")
SEPARATORS = (
    " ", "  ", "\t", "\n", " \n\t", "\x0b", "\x0c", "\x1c", "\r",
    "", "-", "_", "'", ", ",
)

pieces = st.sampled_from(NAME_PIECES)
words = st.sampled_from(NAME_PIECES + FILLER)
separators = st.sampled_from(SEPARATORS)
spaces = st.sampled_from((" ", "  ", "\t", "\n"))


@st.composite
def joined(draw, parts, seps, min_size=1, max_size=4):
    items = draw(st.lists(parts, min_size=min_size, max_size=max_size))
    out = items[0]
    for item in items[1:]:
        out += draw(seps) + item
    return out


names = joined(pieces, spaces, max_size=3)
texts = joined(words, separators, max_size=12)
# letters and digits, before or after folding, one whitespace character
# apart: the texts whose words are their runs
CLEAN_PIECES = tuple(
    p for p in NAME_PIECES + FILLER if p.isalnum() or p.casefold().isalnum()
)
clean_texts = joined(
    st.sampled_from(CLEAN_PIECES), st.sampled_from((" ", "\t", "\x1c")), max_size=12
)

# FASTPATH_EXAMPLES raises the example budget of every property here, as CI
# does in a job of its own
SETTINGS = settings(
    max_examples=int(os.environ.get("FASTPATH_EXAMPLES", "250")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestEntitySpotting:
    @SETTINGS
    @given(
        first=st.lists(names, min_size=1, max_size=6),
        later=st.lists(names, max_size=4),
        batch=st.lists(st.one_of(texts, clean_texts), min_size=1, max_size=4),
    )
    @example(first=["Bo Quist"], later=["Bo Quist Senior"], batch=["met Bo Quist Senior"])
    @example(first=["Bo Bo"], later=["Bo Bo Bo"], batch=["Bo Bo Bo Bo"])
    @example(first=["Strauß"], later=["\u0131ris"], batch=["STRAUSS iris", "Strauß IRIS"])
    @example(first=["Jean-Luc O'Brien"], later=["O"], batch=["_Jean-Luc\tO'Brien 7"])
    @example(first=["Ada Bo", "Bo Bo"], later=[], batch=["Ada Bo Bo Bo"])
    @example(first=["\u0131ris Bo", "Bo Quist"], later=[], batch=["iris Bo Quist"])
    @example(first=["Bo Quist", "Bo-Quist"], later=[], batch=["Bo\x1cQuist Bo-Quist"])
    @example(first=["Bo Quist", "Quist Ada"], later=[], batch=["Bo-Quist Ada"])
    # where a second name is listed, a wrong span would block its real match
    @example(first=["Kai Jr."], later=[], batch=["Kai Jr.x Kai Jr. x"])
    @example(first=["Kai Jr.", "Jr"], later=[], batch=["Kai Jr, x", "Kai Jr."])
    @example(first=["-Bo", "Bo"], later=[], batch=["x +Bo", "x-Bo", "-Bo x"])
    @example(first=["& Bo"], later=[], batch=["x &\t Bo"])
    @example(first=["Bo - Quist", "Quist"], later=[], batch=["Bo-Quist", "Bo -\tQuist"])
    # spans mapped back past letters whose fold is longer, before and inside a name
    @example(first=["Kai Strauß Jr.", "ß"], later=[], batch=["ßx Kai STRAUSS Jr. \ufb01 ß"])
    # text that is ASCII only once folded, read with the ASCII run class
    @example(
        first=["Kai Quist", "Sam"], later=["Strauss"],
        batch=["\u212aai Quist", "\u017fam", "STRAUß", "\u212aai Quist \u017fam STRAUß"],
    )
    # clean text: spans mapped back past a longer fold, a name that ends the
    # text, and names with a lead or trail, which cannot match there; then
    # the same words, but not one whitespace character apart
    @example(
        first=["Bo Quist", "Ada"], later=[],
        batch=["Strauß Bo\tQuist Ada", "STRAUß  Ada", " Bo Quist", "Bo Quist\n"],
    )
    @example(first=["Bo Quist", "Quist"], later=["Ada Bo"], batch=["x\x1cAda Bo Quist"])
    @example(first=["Kai Jr.", "-Bo", "Kai"], later=["Jr"], batch=["Kai Jr Bo", "x Bo Kai"])
    # a head whose run tuple would run past the end of the text
    @example(first=["Bo Quist Senior", "Bo"], later=[], batch=["x Bo Quist"])
    # one head shared by names of 1, 2 and 3 runs
    @example(
        first=["Bo", "Bo Quist", "Bo Ada Veil"], later=["Bo-Ada"],
        batch=["Bo Ada Veil Bo Quist Bo-Ada x Bo"],
    )
    def test_equals_alternation_as_the_catalog_grows(self, first, later, batch):
        catalog = make_catalog(first)
        for text in batch:
            assert find_entity_matches(text, catalog) == alternation_matches(text, catalog)
        for name in later:
            catalog.add(name)
        for text in batch:
            assert find_entity_matches(text, catalog) == alternation_matches(text, catalog)


class TestTextRuns:
    @SETTINGS
    @given(text=st.one_of(texts, clean_texts, st.text()))
    # ASCII only once folded: the Kelvin sign, long s and sharp s
    @example(text="\u212aai Quist")
    @example(text="\u017fam")
    @example(text="STRAUß")
    # `_` parts runs; punctuation inside and after words; "\u0345" is no
    # letter until folded to "ι"; "İ" folds to "i" and a combining dot,
    # which parts runs; whitespace other than a space
    @example(text="x_y")
    @example(text="Jean-Luc O'Brien,")
    @example(text="\u0345x")
    @example(text="\u0130ris Bo")
    @example(text="Strauß\tBo\x1c7")
    def test_equals_the_runs_of_folded_text(self, text):
        for low in (text.casefold(), fold_text(text)):
            assert text_runs(low.split()) == alnum_runs(low)


class TestAsciiRuns:
    @SETTINGS
    @given(text=st.text(alphabet=st.characters(max_codepoint=127)))
    # ASCII only once folded: the Kelvin sign, long s and sharp s
    @example(text="\u212aai Quist")
    @example(text="\u017fam")
    @example(text="STRAUß")
    def test_chosen_class_reads_the_runs_of_folded_text(self, text):
        folded = text.casefold()
        assert _run_pattern(folded).split(folded) == _RUN.split(folded)

    def test_classes_agree_on_every_ascii_code_point(self):
        text = "".join(map(chr, range(128)))
        assert _ASCII_RUN.split(text) == _RUN.split(text)


def quoted_terms():
    padded = st.tuples(st.sampled_from(("", " ", "  ")), names, st.sampled_from(("", " ")))
    return st.one_of(names, padded.map("".join), st.sampled_from(FILLER + (" and ",)))


@st.composite
def queries(draw):
    terms = draw(st.lists(quoted_terms(), max_size=3))
    bare = draw(st.lists(st.sampled_from(("and", "with", "x")), max_size=2))
    return " ".join([f'"{term}"' for term in terms] + bare)


class TestReplayIndex:
    @SETTINGS
    @given(
        corpus=st.lists(st.one_of(texts, clean_texts), max_size=12),
        batch=st.lists(st.tuples(queries(), st.integers(0, 3), st.integers(1, 5)),
                       min_size=1, max_size=5),
    )
    @example(corpus=["sandy", "salt and pepper"], batch=[('" and "', 0, 5)])
    @example(corpus=["iris", "IRIS x"], batch=[('"\u0131ris"', 0, 5), ('"\u0130ris"', 0, 5)])
    @example(
        corpus=["\u212aai", "\u0130ris", "strauß", "\u017fam kai iris"],
        batch=[('"kai" "iris"', 0, 5), ('"sam"', 0, 5), ('"ss"', 0, 5)],
    )
    # the names share "bo": its list is the rarest run's, the intersection is smaller
    @example(
        corpus=["Ada Bo and Veil Bo", "Ada Bo met Quist", "Veil Bo", "Bo"],
        batch=[('"Ada Bo" "Veil Bo"', 0, 5)],
    )
    # every run of the phrase, but not the phrase
    @example(corpus=["Quist met Bo", "Bo Quist", "bo, quist"], batch=[('"Bo Quist" and', 0, 5)])
    # one backend, queries differing only in bare tokens or phrase order
    @example(
        corpus=["Ada Bo", "Bo and Ada", "Ada x", "bo ada bo", "Ada Veil"],
        batch=[
            ('"Bo" "Ada"', 0, 5), ('"Ada" "Bo"', 1, 5), ('"Ada" "Bo" and', 0, 2),
            ('"Ada" "Bo" with x', 2, 5), ('"Ada"', 0, 5), ('"Ada" and', 1, 1),
        ],
    )
    # the folded check: a later occurrence, each guard alone, and no guard off an edge
    @example(corpus=["Bo Quistx and Bo Quist"], batch=[('"Bo Quist"', 0, 5)])
    @example(corpus=["Bo Quistx Quist"], batch=[('"Bo Quist"', 0, 5)])
    @example(corpus=["x-Bo"], batch=[('"-Bo"', 0, 5)])
    @example(corpus=["xBo Quist bo"], batch=[('"Bo Quist"', 0, 5)])
    # clean records, whose words are their runs, and one that is clean only
    # once folded; the punctuated phrases hold runs of the clean records
    @example(
        corpus=["Ada\tBo Quist", "Strauß\x1cBo", "Bo Quist \u0345x", "bo quist and"],
        batch=[('"Bo Quist" "Ada"', 0, 5), ('"-Bo"', 0, 5), ('"Kai Jr." "Bo"', 0, 5),
               ('"strauss bo"', 0, 5), ('"\u0345x"', 0, 5)],
    )
    # pair queries over phrases already answered alone, in both orders and
    # from an offset; three phrases, the longest answer cutting the other two
    @example(
        corpus=["Ada Veil met Bo Quist", "Bo Quist", "Ada Veil", "Bo Quist and Ada Veil",
                "Ada Veil alone", "bo quist, ada veil"],
        batch=[('"Ada Veil"', 0, 5), ('"Bo Quist"', 0, 5), ('"Ada Veil" "Bo Quist"', 1, 5),
               ('"Bo Quist" "Ada Veil" and', 1, 2), ('"Bo" "Quist" "Veil"', 0, 5)],
    )
    # the same phrase twice
    @example(corpus=["Ada Veil", "Bo", "ada veil bo"],
             batch=[('"Ada Veil" "ADA VEIL"', 0, 5), ('"Bo" "Bo"', 1, 5)])
    # a phrase with no run, beside one with runs
    @example(corpus=["x-Bo", "Bo", "- Bo", "Ada -"], batch=[('"-" "Bo"', 0, 5), ('"Bo" "-"', 1, 5)])
    # no quoted phrase
    @example(corpus=["Ada", "Bo", "x"], batch=[("and x", 1, 5), ("", 0, 2)])
    # records holding one run twice, which their posting lists repeat
    @example(
        corpus=["Bo Bo Quist", "Bo", "Quist Bo Quist"],
        batch=[('"Bo"', 0, 5), ('"Bo Quist"', 0, 5), ('"Quist" "Bo"', 1, 5)],
    )
    def test_fetch_equals_linear_scan(self, corpus, batch):
        records = [CorpusRecord(f"u{i}", "d", text) for i, text in enumerate(corpus)]
        backend = ReplayBackend(records)
        for raw, offset, count in batch:
            expected = linear_fetch(records, raw, offset, count)
            assert backend.fetch(raw, offset, count) == expected


class TestFoldedPhrase:
    @SETTINGS
    @given(text=texts, term=quoted_terms())
    @example(text="xBo Quist bo", term="Bo Quist")
    # the guard is the folded edge's: "\u0345" folds to the letter "ι"
    @example(text="x\u0345Bo", term="\u0345Bo")
    def test_equals_phrase_regex_on_folded_text(self, text, term):
        folded = fold_text(text)
        found = phrase_regex(fold_text(term)).search(folded) is not None
        assert folded_phrase_test(term)(folded) == found

    def test_folding_a_folded_text_changes_nothing(self):
        for folded in map(fold_text, map(chr, range(sys.maxunicode + 1))):
            assert fold_text(folded) == folded, ascii(folded)

    def test_run_and_whitespace_classes_are_isalnum_and_isspace(self):
        # the premise of catalog._one_run, on every code point
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        alnum = "".join(_RUN.findall(chars))
        assert alnum == "".join(filter(_one_run, chars))
        space = "".join(re.findall(r"\s", chars))
        assert space == "".join(filter(str.isspace, chars))
        assert not set(alnum) & set(space)

    @SETTINGS
    @given(text=st.one_of(texts, clean_texts))
    @example(text="Strauß\tBo\x1c7")
    @example(text="\u0345x Bo")
    @example(text="\u0130ris Bo")
    def test_words_that_pass_the_check_are_the_runs(self, text):
        # the check of text_runs' fast path: words all letters and digits
        folded = fold_text(text)
        words = folded.split()
        if _one_run("".join(words)):
            assert words == _RUN.findall(folded)


class TestReplayCompiles:
    RECORDS = (
        "Ada Veil and Bo Quist", "bo quist with\tADA VEIL", "Ada Veilx and Bo",
        "x-Ada Veil, Bo Quist.", "Bo\nQuist", "Quist Bo and Ada",
    )
    QUERIES = (
        connectivity_query("Ada Veil", "and"), connectivity_query("Bo Quist", "with"),
        pair_query("Ada Veil", "Bo Quist"), pair_query("Bo Quist", "Ada"),
        entity_query("Bo Quist"), entity_query("Iris Quist"),
    )

    def fetch_checked(self, texts):
        """Fetch every query, checked against the reference scan."""
        records = [CorpusRecord(f"u{i}", "d", text) for i, text in enumerate(texts)]
        backend = ReplayBackend(records)
        for query in self.QUERIES:
            assert backend.fetch(query.raw, 0, 50) == linear_fetch(records, query.raw, 0, 50)
        return backend

    def test_ascii_corpus_compiles_nothing(self):
        backend = self.fetch_checked(self.RECORDS)
        assert all(backend.fetch(query.raw, 0, 50) for query in self.QUERIES[:-1])

    def test_records_match_by_casefold(self):
        texts = self.RECORDS + ("met \u0130ris Quist", "Johann Strauß", "JOHANN STRAUSS")
        backend = self.fetch_checked(texts)
        urls = [rec.url for rec in backend.fetch('"Johann Strauß"', 0, 50)]
        assert urls == ["u7", "u8"]
        assert backend.fetch('"Iris Quist"', 0, 50) == []


class TestPaEdgeList:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(2, 60),
        attach=st.integers(1, 4),
        exponent=st.sampled_from((0, 0.5, 1, 1.5, 3)),
    )
    def test_equals_weights_drawn_afresh(self, seed, n_nodes, attach, exponent):
        rng, reference = random.Random(seed), random.Random(seed)
        edges = pa_edge_list(n_nodes, attach, rng, exponent)
        assert edges == weighted_pa_edge_list(n_nodes, attach, reference, exponent)
        # the caller draws on from the same generator
        assert rng.getstate() == reference.getstate()


# text weighted toward what the escape languages act on: backslashes, the
# escape letters, spaces and line ends
escape_texts = st.one_of(
    st.text(),
    st.text(st.sampled_from("\\\\\\stnr  \t\n\r\u00e9x")),
)


def outcome(decode, value):
    """What `decode` returns for `value`, or the message of its ValueError."""
    try:
        return decode(value)
    except ValueError as exc:
        return ValueError, str(exc)


class TestFormatDecoders:
    @SETTINGS
    @given(value=escape_texts)
    @example(value="a\\tb\\\\c\\n\\r")
    @example(value="trailing\\")
    @example(value="a\\x")
    @example(value="\\\\\\")
    @example(value="\\\n")
    def test_unescape_field_equals_the_character_loop(self, value):
        assert outcome(unescape_field, value) == outcome(old_unescape_field, value)

    @SETTINGS
    @given(raw=escape_texts)
    @example(raw="\\s")
    @example(raw="\\\\\\s")
    @example(raw="a\\tb\\")
    @example(raw="\\\\s")
    def test_unescape_pattern_equals_the_character_loop(self, raw):
        assert unescape_pattern(raw) == old_unescape_pattern(raw)

    @SETTINGS
    @given(phrase=escape_texts)
    @example(phrase=" ")
    @example(phrase="   ")
    @example(phrase="  a b  ")
    # `$` would also match before the final newline
    @example(phrase="\\ \n")
    @example(phrase="a \n")
    def test_escape_pattern_equals_the_strip_arithmetic(self, phrase):
        escaped = _escape_pattern(phrase)
        assert escaped == old_escape_pattern(phrase)
        assert unescape_pattern(escaped) == phrase


CACHE_PIECES = (
    b"q", b"\t", b"\n", b"\r", b"\r\n", b"5", b"0", b"12", b"\\", b"\\t", b"\\x",
    b"u\td\tt", b"u\td\tt", b"\xff", b"\xc3\xa9", b"\t3", b" ",
)
cache_lines = st.lists(st.sampled_from(CACHE_PIECES), max_size=5).map(b"".join)
cache_files = st.one_of(
    st.none(),  # no file
    st.binary(max_size=40),
    # a header, often a sound one, and lines made mostly of record pieces
    st.tuples(
        st.one_of(st.sampled_from((b"q\t9", b"q\t12\n")), cache_lines),
        st.lists(cache_lines, max_size=4).map(b"\n".join),
    ).map(lambda parts: b"\n".join(parts)),
)


class TestSnippetCacheRead:
    @SETTINGS
    @given(data=cache_files, k=st.integers(-2, 20))
    @example(data=None, k=1)
    @example(data=b"", k=1)
    @example(data=b"q\n", k=0)  # a header with no tab
    @example(data=b"q\t5\ru\td\tt\n", k=1)  # a bare "\r" in the header
    @example(data=b"q\t5\r", k=1)
    @example(data=b"q\t5\r\nu\td\tt\n", k=1)
    @example(data=b"q\t5\nu\td\tt\rx\n", k=1)  # a bare "\r" in the body
    @example(data=b"q\t5\nu\td\tt\r\n\n", k=5)
    @example(data=b"q\t2\nu\td\tt\n", k=5)  # a shallower depth
    @example(data=b"q\t5\nu\td\tt\\x\n", k=1)  # a bad escape
    @example(data=b"q\t5\nu\td\t\xff\n", k=1)  # invalid UTF-8
    @example(data=b"q\t5\nu\td\tt\\tx\r\n\nv\td\tt", k=5)  # a hit
    def test_get_equals_reading_the_whole_file(self, data, k):
        query = pair_query("Ada Veil", "Bo Quist")
        with tempfile.TemporaryDirectory() as directory:
            cache = SnippetCache(directory)
            if data is not None:
                with open(cache._path(query.cache_key), "wb") as fh:
                    fh.write(data)
            assert cache.get(query, k) == old_cache_get(cache, query, k)


corpus_fields = st.text(st.sampled_from("\\tnrx\r") | st.characters(), max_size=3)
corpus_lines = st.lists(
    st.one_of(
        st.text(st.sampled_from("\t\\\r\n" + "tnrx")),
        st.text(),
        # two to four fields, so often three, with a line ending or none
        st.tuples(
            st.lists(corpus_fields, min_size=2, max_size=4).map("\t".join),
            st.sampled_from(("", "\n", "\r\n", "\r", "\r\r\n", "\n\n")),
        ).map("".join),
        st.sampled_from(("", "\n", "\r\n", "\r")),  # blank lines
    ),
    max_size=6,
)


def load_outcome(load, lines):
    """The records `load` makes of `lines`, each with its type, or the
    message of its CorpusFormatError."""
    try:
        return [(type(r), r) for r in load(lines)]
    except CorpusFormatError as exc:
        return str(exc)


class TestCorpusLoader:
    @SETTINGS
    @given(lines=corpus_lines)
    @example(lines=["", "\n", "\r\n", "\r", "u\td\tt\r\n"])
    @example(lines=["u\td\tt", "u\td\n"])  # a wrong field count
    @example(lines=[" ", "u\td\tt"])  # a line of blanks is not blank
    @example(lines=["u\td\tt\\x\n"])  # a bad escape
    @example(lines=["u\td\tt\\"])  # a backslash that ends the line
    @example(lines=["u\td\tt\r\r\n", "u\td\tt\n\n", "\t\t"])
    @example(lines=["u\\t\td\tt\\r\\n\\\\"])
    def test_load_equals_the_strip_then_split_loop(self, lines):
        assert load_outcome(load_corpus, lines) == load_outcome(old_load_corpus, lines)

    def test_file_lines_end_at_a_lone_cr_but_not_at_nel_or_ls(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(
            "u1\td\ta\x85b\u2028c\ru2\td\tt\r\n\nu3\td\tx\\ty\n".encode("utf-8")
        )
        with open(path, encoding="utf-8", newline="") as fh:
            expected = old_load_corpus(fh)
        assert expected == [
            CorpusRecord("u1", "d", "a\x85b\u2028c"),
            CorpusRecord("u2", "d", "t"),
            CorpusRecord("u3", "d", "x\ty"),
        ]
        assert load_corpus_file(str(path)) == expected
