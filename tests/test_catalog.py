"""Name normalization, catalog loading, and in-text entity matching."""

import pytest

from snipgraph.catalog import (
    CatalogLoadError,
    EntityCatalog,
    find_entity_matches,
    fold_text,
    load_catalog,
    load_catalog_file,
    normalize_name,
)

from conftest import make_catalog
from oracles import phrase_regex


class TestNormalizeName:
    def test_casefold_and_whitespace(self):
        assert normalize_name("  Ada \t VEIL \n") == "ada veil"

    def test_nfc_equivalence(self):
        composed = "René Falk"
        decomposed = "René Falk"
        assert normalize_name(composed) == normalize_name(decomposed)

    def test_casefold_beats_lower(self):
        # eszett only folds under casefold, not lower()
        assert normalize_name("Weiß") == "weiss"


class TestEntityCatalog:
    def test_add_and_lookup_variants(self):
        catalog = EntityCatalog()
        assert catalog.add("Ada Veil")
        assert "ada  VEIL" in catalog
        assert catalog.canonical(" ADA VEIL ") == "Ada Veil"
        assert catalog.canonical("Bo Quist") is None

    def test_add_rejects_blank_and_duplicates(self):
        catalog = EntityCatalog()
        assert not catalog.add("   ")
        assert catalog.add("Ada Veil")
        assert not catalog.add("ADA VEIL")
        # first spelling wins
        assert catalog.canonical("ada veil") == "Ada Veil"
        assert len(catalog) == 1

    def test_load_counts(self):
        lines = ["Ada Veil\n", "\n", "ada veil\n", "Bo Quist\n", "# not a comment, a name\n"]
        catalog = load_catalog(lines)
        assert len(catalog) == 3
        assert "# not a comment, a name" in catalog

    def test_load_file_bad_encoding(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_bytes(b"Ada Veil\n\xff\xfe broken\n")
        with pytest.raises(CatalogLoadError, match="invalid UTF-8"):
            load_catalog_file(str(path))

    @pytest.mark.parametrize(
        "data, offset",
        [
            (b"Ada Veil\n" * 1000 + b"Bo \xffQuist\n", 9006),
            (b"Ada\xff", 6),
        ],
        ids=["past-first-chunk", "first-line"],
    )
    def test_bad_byte_offset_counts_from_the_file_start(self, tmp_path, data, offset):
        # past the text reader's first chunk, and after a BOM
        path = tmp_path / "names.txt"
        path.write_bytes(b"\xef\xbb\xbf" + data)
        with pytest.raises(CatalogLoadError, match=f"at byte {offset}$"):
            load_catalog_file(str(path))


class TestPhraseRegex:
    def test_word_boundaries(self):
        rx = phrase_regex("and")
        assert rx.search("x and y")
        assert not rx.search("sandy")
        assert not rx.search("anders")

    def test_padded_phrase_keeps_guards(self):
        rx = phrase_regex(" and ")
        assert rx.search("x and y")
        assert not rx.search("sandy")

    def test_punctuation_flush(self):
        assert phrase_regex("&").search("A&B")

    def test_internal_whitespace_run(self):
        assert phrase_regex("speaks with").search("speaks \n with")

    def test_any_case(self):
        # case is matched by folding both sides, not by the regex
        assert phrase_regex(fold_text("and")).search(fold_text("AND"))
        assert phrase_regex(fold_text("Strauß")).search(fold_text("STRAUSS"))
        assert not phrase_regex("and").search("AND")


class TestFindEntityMatches:
    def test_simple_and_case_insensitive(self, catalog):
        hits = find_entity_matches("saw ADA  VEIL with Bo Quist", catalog)
        assert [name for name, _s, _e in hits] == ["Ada Veil", "Bo Quist"]

    def test_spans_slice_back_to_text(self, catalog):
        text = "gala: Ada Veil, Bo Quist."
        for name, start, end in find_entity_matches(text, catalog):
            assert normalize_name(text[start:end]) == normalize_name(name)

    def test_longest_match_wins(self):
        catalog = make_catalog(["Bo Quist", "Bo Quist Senior"])
        hits = find_entity_matches("met Bo Quist Senior today", catalog)
        assert [name for name, _s, _e in hits] == ["Bo Quist Senior"]

    def test_token_bounded(self, catalog):
        assert find_entity_matches("xAda Veil and Bo Quistx", catalog) == []
        assert len(find_entity_matches("(Ada Veil)", catalog)) == 1

    def test_empty_catalog(self):
        assert find_entity_matches("Ada Veil", EntityCatalog()) == []


class TestCasefoldedNames:
    """Names and text are compared by casefold, the fold that keys the catalog."""

    NAMES = ["Johann Strauß", "Anna Weiß"]

    def test_finds_names_spelled_with_eszett(self):
        hits = find_entity_matches("Johann Strauß und Anna Weiß", make_catalog(self.NAMES))
        assert [name for name, _s, _e in hits] == self.NAMES

    def test_finds_a_name_by_its_fold(self):
        hits = find_entity_matches("JOHANN STRAUSS", make_catalog(self.NAMES))
        assert hits == [("Johann Strauß", 0, 14)]

    @pytest.mark.parametrize(
        "text, spelled",
        [
            ("Johann Strauß und Anna Weiß", ["Johann Strauß", "Anna Weiß"]),
            ("ßx Johann Strauß", ["Johann Strauß"]),
            ("\ufb01ne, Anna Weiß", ["Anna Weiß"]),
            ("ß ß Anna WEISS and Johann Strauß", ["Anna WEISS", "Johann Strauß"]),
        ],
        ids=["two-names", "eszett-before", "ligature-before", "upper-after-eszetts"],
    )
    def test_spans_are_the_spelled_names(self, text, spelled):
        hits = find_entity_matches(text, make_catalog(self.NAMES))
        assert [text[start:end] for _name, start, end in hits] == spelled

