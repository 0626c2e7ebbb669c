"""Pattern keys, pattern files, and edge/candidate extraction."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

import snipgraph.extract
from snipgraph.extract import (
    DEFAULT_MATCH_PATTERNS,
    DEFAULT_QUERY_PATTERNS,
    SPACE_PATTERN,
    PatternCandidate,
    candidate_score,
    dedupe_patterns,
    extract_edges,
    extract_pattern_candidates,
    load_patterns,
    pattern_key,
    save_patterns,
)
from snipgraph.search import connectivity_query

from conftest import make_snippet

LINE_TEXT = st.text(st.characters(exclude_characters="\n\r"))


class TestPatternKey:
    def test_trims_one_space_each_side(self):
        assert pattern_key(" and ") == "and"
        assert pattern_key("  and his wife  ") == "and his wife"

    def test_space_pattern_maps_to_empty(self):
        assert pattern_key(SPACE_PATTERN) == ""
        assert pattern_key("   ") == ""

    def test_collapses_internal_runs(self):
        assert pattern_key("speaks \t with") == "speaks with"
        assert pattern_key("a \n\t b  c") == "a b c"

    def test_case_sensitive(self):
        assert pattern_key("AND") != pattern_key("and")


def test_default_sets():
    assert DEFAULT_QUERY_PATTERNS == ("and",)
    assert "and" in DEFAULT_MATCH_PATTERNS
    assert SPACE_PATTERN in DEFAULT_MATCH_PATTERNS


def test_dedupe_patterns_first_wins():
    assert dedupe_patterns(["and", " and ", "y"]) == ["and", "y"]


class TestPatternFiles:
    def test_roundtrip_with_escapes(self):
        patterns = [" ", " and", "y", "a\\b"]
        buf = io.StringIO()
        save_patterns(patterns, buf)
        assert buf.getvalue() == "\\s\n\\sand\ny\na\\\\b\n"
        back = load_patterns(io.StringIO(buf.getvalue()))
        assert back == [" ", " and", "y", "a\\b"]

    def test_skips_blanks_and_comments(self):
        back = load_patterns(["# comment\n", "\n", "and\n", "  \n", "meets\n"])
        assert back == ["and", "meets"]

    def test_duplicate_keys_dropped(self):
        back = load_patterns(["and\n", " and \n"])
        assert back == ["and"]

    def test_phrase_that_would_read_as_a_comment_goes_out_behind_a_space(self):
        buf = io.StringIO()
        save_patterns(["#with", "and", " # x", "\t"], buf)
        assert buf.getvalue() == "\\s#with\nand\n\\s# x\n\\s\t\n"
        back = load_patterns(io.StringIO(buf.getvalue()))
        assert back == [" #with", "and", " # x", " \t"]
        assert pattern_key(back[0]) == pattern_key("#with")
        assert connectivity_query("Ada Veil", back[0]) == connectivity_query("Ada Veil", "#with")

    # a line break inside a phrase would end its line, so none is drawn
    @given(
        st.lists(
            st.one_of(
                LINE_TEXT,
                LINE_TEXT.map(lambda t: "#" + t),
                st.text(st.sampled_from(" \t#\\sw")),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_pattern_keys_survive_the_file_round_trip(self, phrases):
        buf = io.StringIO()
        save_patterns(phrases, buf)
        back = load_patterns(io.StringIO(buf.getvalue()))
        assert [pattern_key(p) for p in back] == [
            pattern_key(p) for p in dedupe_patterns(phrases)
        ]


ALL_PATTERNS = list(DEFAULT_MATCH_PATTERNS)


class TestExtractEdges:
    def test_sorted_pair_and_count(self, catalog):
        snippets = [
            make_snippet("saw Bo Quist and Ada Veil leave"),
            make_snippet("Ada Veil and Bo Quist arrive", domain="b.example"),
        ]
        edges = extract_edges(snippets, catalog, ALL_PATTERNS)
        assert edges == {("Ada Veil", "Bo Quist"): 2}

    def test_adjacent_pairs_only(self, catalog):
        snippets = [make_snippet("Ada Veil and Bo Quist and Cy Marsh")]
        edges = extract_edges(snippets, catalog, ALL_PATTERNS)
        assert set(edges) == {("Ada Veil", "Bo Quist"), ("Bo Quist", "Cy Marsh")}

    def test_same_entity_adjacent_skipped(self, catalog):
        snippets = [make_snippet("Ada Veil and ada veil")]
        assert extract_edges(snippets, catalog, ALL_PATTERNS) == {}

    def test_space_pattern(self, catalog):
        snippets = [make_snippet("photo of Ada Veil  Bo Quist smiling")]
        edges = extract_edges(snippets, catalog, ALL_PATTERNS)
        assert edges == {("Ada Veil", "Bo Quist"): 1}

    def test_punctuation_pattern_flush(self, catalog):
        snippets = [make_snippet("duet: Ada Veil&Bo Quist tonight")]
        edges = extract_edges(snippets, catalog, ALL_PATTERNS)
        assert ("Ada Veil", "Bo Quist") in edges

    def test_gap_comparison_is_case_sensitive(self, catalog):
        snippets = [make_snippet("Ada Veil AND Bo Quist")]
        assert extract_edges(snippets, catalog, ALL_PATTERNS) == {}

    def test_unknown_gap_ignored(self, catalog):
        snippets = [make_snippet("Ada Veil criticized Bo Quist")]
        assert extract_edges(snippets, catalog, ALL_PATTERNS) == {}

    def test_restricted_pattern_set(self, catalog):
        snippets = [make_snippet("Ada Veil meets Bo Quist und Cy Marsh")]
        edges = extract_edges(snippets, catalog, ["meets"])
        assert set(edges) == {("Ada Veil", "Bo Quist")}


class TestExtractPatternCandidates:
    def test_counts_n_m_d(self, catalog):
        snippets = [
            make_snippet("Ada Veil duets with Bo Quist", domain="a.example"),
            make_snippet("Ada Veil duets with Bo Quist again", domain="a.example"),
            make_snippet("Bo Quist duets with Cy Marsh", domain="b.example"),
            make_snippet("Ada Veil visits Cy Marsh", domain="a.example"),
        ]
        candidates = {c.phrase: c for c in extract_pattern_candidates(snippets, catalog)}
        duet = candidates["duets with"]
        assert (duet.n, duet.m, duet.d) == (3, 2, 2)
        assert duet.score == 3 * 2 * 4
        visit = candidates["visits"]
        assert (visit.n, visit.m, visit.d, visit.score) == (1, 1, 1, 1)

    def test_sorted_by_score_then_phrase(self, catalog):
        snippets = [
            make_snippet("Ada Veil alongside Bo Quist", domain="a.example"),
            make_snippet("Ada Veil alongside Bo Quist more", domain="b.example"),
            make_snippet("Ada Veil backs Bo Quist", domain="a.example"),
            make_snippet("Ada Veil assists Bo Quist", domain="a.example"),
        ]
        phrases = [c.phrase for c in extract_pattern_candidates(snippets, catalog)]
        assert phrases == ["alongside", "assists", "backs"]

    def test_whitespace_gap_becomes_space_pattern(self, catalog):
        snippets = [make_snippet("pictured Ada Veil  Bo Quist")]
        [cand] = extract_pattern_candidates(snippets, catalog)
        assert cand.phrase == SPACE_PATTERN

    def test_length_caps(self, catalog):
        # the caps are 8 tokens and 60 characters; one more of either drops
        snippets = [
            make_snippet("Ada Veil " + "w " * 8 + "Bo Quist"),
            make_snippet("Ada Veil " + "v " * 9 + "Bo Quist"),
            make_snippet("Ada Veil " + "x" * 60 + " Bo Quist"),
            make_snippet("Ada Veil " + "y" * 61 + " Bo Quist"),
            make_snippet("Ada Veil with Bo Quist"),
        ]
        phrases = [c.phrase for c in extract_pattern_candidates(snippets, catalog)]
        assert phrases == [" ".join("w" * 8), "with", "x" * 60]

    def test_caps_adjustable(self, catalog, monkeypatch):
        # the caps are the module constants, read at call time
        snippets = [make_snippet("Ada Veil one two three Bo Quist")]
        monkeypatch.setattr(snipgraph.extract, "MAX_PATTERN_TOKENS", 2)
        assert extract_pattern_candidates(snippets, catalog) == []
        monkeypatch.setattr(snipgraph.extract, "MAX_PATTERN_TOKENS", 3)
        assert len(extract_pattern_candidates(snippets, catalog)) == 1
        monkeypatch.setattr(snipgraph.extract, "MAX_PATTERN_CHARS", 12)
        assert extract_pattern_candidates(snippets, catalog) == []

    def test_gap_containing_entity_rejected(self, catalog, monkeypatch):
        # A gap can be a catalog name that spotting the snippet did not
        # find: in "Ada Veil& Co Bo Quist" the name "& Co" is not spotted,
        # because "&" sits right after a letter, yet the gap "& Co" alone is
        # that name, so only the guard rejects it. The patched spotter also
        # claims the gap phrase "alongside" is a name.
        catalog.add("& Co")
        real = snipgraph.extract.find_entity_matches

        def fake(text, cat, memo=None):
            if text == "alongside":
                return [("Cy Marsh", 0, len(text))]
            return real(text, cat, memo)

        monkeypatch.setattr(snipgraph.extract, "find_entity_matches", fake)
        snippets = [
            make_snippet("Ada Veil alongside Bo Quist"),
            make_snippet("Ada Veil& Co Bo Quist"),
            make_snippet("Ada Veil with Bo Quist"),
        ]
        phrases = [c.phrase for c in extract_pattern_candidates(snippets, catalog)]
        assert phrases == ["with"]


def test_candidate_score():
    assert candidate_score(2, 3, 4) == 96
    assert candidate_score(5, 1, 1) == 5
    assert candidate_score(0, 7, 7) == 0


def test_pattern_candidate_score_property():
    assert PatternCandidate("with", 3, 2, 2).score == 24
