"""Pattern keys, pattern files, and edge/candidate extraction."""

import io

import snipgraph.extract
from snipgraph.extract import (
    DEFAULT_MATCH_PATTERNS,
    DEFAULT_QUERY_PATTERNS,
    SPACE_PATTERN,
    Pattern,
    PatternCandidate,
    candidate_score,
    dedupe_patterns,
    extract_edges,
    extract_pattern_candidates,
    load_patterns,
    pattern_key,
    save_patterns,
)

from conftest import make_snippet


class TestPatternKey:
    def test_trims_one_space_each_side(self):
        assert pattern_key(" and ") == "and"
        assert pattern_key("  and his wife  ") == "and his wife"

    def test_space_pattern_maps_to_empty(self):
        assert pattern_key(SPACE_PATTERN) == ""
        assert pattern_key("   ") == ""

    def test_collapses_internal_runs(self):
        assert pattern_key("speaks \t with") == "speaks with"

    def test_case_sensitive(self):
        assert pattern_key("AND") != pattern_key("and")


def test_default_sets():
    assert DEFAULT_QUERY_PATTERNS == ("and",)
    assert "and" in DEFAULT_MATCH_PATTERNS
    assert SPACE_PATTERN in DEFAULT_MATCH_PATTERNS


def test_dedupe_patterns_first_wins():
    patterns = [Pattern("and", "seed"), Pattern(" and ", "mined"), Pattern("y", "seed")]
    kept = dedupe_patterns(patterns)
    assert [(p.phrase, p.origin) for p in kept] == [("and", "seed"), ("y", "seed")]


class TestPatternFiles:
    def test_roundtrip_with_escapes(self):
        patterns = [Pattern(" "), Pattern(" and"), Pattern("y"), Pattern("a\\b")]
        buf = io.StringIO()
        save_patterns(patterns, buf)
        assert buf.getvalue() == "\\s\n\\sand\ny\na\\\\b\n"
        back = load_patterns(io.StringIO(buf.getvalue()))
        assert [p.phrase for p in back] == [" ", " and", "y", "a\\b"]

    def test_skips_blanks_and_comments(self):
        back = load_patterns(["# comment\n", "\n", "and\n", "  \n", "meets\n"])
        assert [p.phrase for p in back] == ["and", "meets"]

    def test_duplicate_keys_dropped(self):
        back = load_patterns(["and\n", " and \n"])
        assert [p.phrase for p in back] == ["and"]

    def test_origin_applied(self):
        [pat] = load_patterns(["meets\n"], origin="mined")
        assert pat.origin == "mined"


ALL_PATTERNS = [Pattern(p) for p in DEFAULT_MATCH_PATTERNS]


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
        edges = extract_edges(snippets, catalog, [Pattern("meets")])
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
        # The in-snippet scanner already splits any gap holding a full
        # catalog name, so force the guard with a patched matcher that
        # claims the gap phrase itself is a name.
        real = snipgraph.extract.find_entity_matches

        def fake(text, cat, memo=None):
            if text == "alongside":
                return [("Cy Marsh", 0, len(text))]
            return real(text, cat, memo)

        monkeypatch.setattr(snipgraph.extract, "find_entity_matches", fake)
        snippets = [
            make_snippet("Ada Veil alongside Bo Quist"),
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
