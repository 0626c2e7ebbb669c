"""Synthetic corpus generation: names, topology, planting, determinism."""

import random

import pytest

from snipgraph.catalog import EntityCatalog, load_catalog
from snipgraph.corpus import (
    DOMAIN_POOL,
    make_names,
    pa_edge_list,
    synthesize,
    synthesize_from_edges,
    write_names_file,
)
from snipgraph.extract import extract_edges


class TestMakeNames:
    def test_count_and_determinism(self):
        names = make_names(40)
        assert len(names) == 40
        assert names == make_names(40)
        assert names[:5] == make_names(5)

    def test_distinct(self):
        names = make_names(900)
        assert len(set(names)) == 900

    def test_limit(self):
        with pytest.raises(ValueError, match="at most 900 distinct names"):
            make_names(901)

    def test_two_word_shape(self):
        for name in make_names(50):
            first, last = name.split(" ")
            assert first and last


class TestPaEdgeList:
    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError, match="at least 2 nodes"):
            pa_edge_list(1, 1, rng)
        with pytest.raises(ValueError, match="attach must be >= 1"):
            pa_edge_list(5, 0, rng)
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            pa_edge_list(5, 1, rng, exponent=-1.0)

    def test_int_exponent_overflow_raises_value_error(self):
        # int ** int never overflows; the float total of its powers would
        with pytest.raises(ValueError, match="exponent 1024 is too large"):
            pa_edge_list(8, 2, random.Random(0), exponent=1024)

    def test_int_exponent_past_float_range_raises_value_error(self):
        with pytest.raises(ValueError, match="exponent is too large"):
            pa_edge_list(8, 2, random.Random(0), exponent=10**400)

    def test_edge_count_with_full_attachment(self):
        edges = pa_edge_list(6, 2, random.Random(7))
        assert len(edges) == 9
        assert len(set(edges)) == 9
        for a, b in edges:
            assert 0 <= a < b < 6

    def test_connected(self):
        edges = pa_edge_list(40, 1, random.Random(3))
        adjacency = {i: set() for i in range(40)}
        for a, b in edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert len(seen) == 40

    def test_deterministic_for_seed(self):
        assert pa_edge_list(30, 2, random.Random(11)) == pa_edge_list(
            30, 2, random.Random(11)
        )


class TestSynthesizeFromEdges:
    def test_record_count_matches_planted_weight(self):
        names = make_names(5)
        edges = [(names[0], names[1], 2), (names[1], names[2], 3)]
        corpus = synthesize_from_edges(edges, names, seed=5)
        assert len(corpus.records) == 5
        assert corpus.truth_edges == edges

    def test_each_snippet_embeds_its_pair(self):
        names = make_names(4)
        edges = [(names[0], names[1], 3), (names[2], names[3], 2)]
        corpus = synthesize_from_edges(edges, names, seed=9)
        for a, b, w in edges:
            hits = sum(
                f"{a} and {b}" in r.text or f"{b} and {a}" in r.text
                for r in corpus.records
            )
            assert hits == w

    def test_extraction_recovers_exact_truth(self):
        names = make_names(6)
        edges = [(names[0], names[1], 2), (names[1], names[2], 4)]
        corpus = synthesize_from_edges(edges, names, seed=1)
        catalog = EntityCatalog()
        for name in names:
            catalog.add(name)
        found = extract_edges(corpus.records, catalog, ["and"])
        assert found == {
            tuple(sorted((a, b))): w for a, b, w in edges
        }

    def test_truth_graph_includes_isolated_names(self):
        names = make_names(5)
        edges = [(names[0], names[1], 2)]
        graph = synthesize_from_edges(edges, names, seed=2).truth_graph()
        assert graph.node_count == 5
        assert graph.edge_count == 1
        assert graph.weight(names[0], names[1]) == 2

    def test_noise_adds_name_free_records(self):
        names = make_names(4)
        edges = [(names[0], names[1], 10)]
        corpus = synthesize_from_edges(edges, names, noise_ratio=0.5, seed=3)
        assert len(corpus.records) == 15
        noise = [
            r for r in corpus.records if not any(n in r.text for n in names)
        ]
        assert len(noise) == 5

    def test_domains_drawn_from_requested_pool(self):
        names = make_names(4)
        edges = [(names[0], names[1], 30)]
        corpus = synthesize_from_edges(edges, names, domains=3, seed=4)
        assert {r.domain for r in corpus.records} <= set(DOMAIN_POOL[:3])

    def test_domain_bounds(self):
        names = make_names(2)
        edges = [(names[0], names[1], 1)]
        with pytest.raises(ValueError, match="domains must be between"):
            synthesize_from_edges(edges, names, domains=0)

    def test_negative_noise_rejected(self):
        names = make_names(2)
        with pytest.raises(ValueError, match="noise_ratio must be >= 0"):
            synthesize_from_edges([(names[0], names[1], 1)], names, noise_ratio=-1)

    def test_pattern_spec_validation(self):
        names = make_names(2)
        edges = [(names[0], names[1], 1)]
        with pytest.raises(ValueError, match="pattern weights must be > 0"):
            synthesize_from_edges(edges, names, patterns={"and": 0.0})
        with pytest.raises(ValueError, match="at least one pattern"):
            synthesize_from_edges(edges, names, patterns=())

    def test_pattern_frequency_skew(self):
        names = make_names(2)
        edges = [(names[0], names[1], 200)]
        corpus = synthesize_from_edges(
            edges, names, patterns={"and": 9, "y": 1}, seed=6
        )
        with_and = sum(" and " in r.text for r in corpus.records)
        with_y = sum(" y " in r.text for r in corpus.records)
        assert with_and + with_y == 200
        assert with_and > with_y > 0

    def test_space_pattern_plants_bare_adjacency(self):
        names = make_names(2)
        a, b = names
        corpus = synthesize_from_edges(
            [(a, b, 3)], names, patterns=(" ",), seed=8
        )
        for record in corpus.records:
            assert f"{a} {b}" in record.text or f"{b} {a}" in record.text

    def test_same_seed_same_records(self):
        names = make_names(10)
        edges = [(names[0], names[i], 2) for i in range(1, 10)]
        first = synthesize_from_edges(edges, names, seed=12)
        second = synthesize_from_edges(edges, names, seed=12)
        assert first.records == second.records
        assert first.records != synthesize_from_edges(edges, names, seed=13).records


class TestSynthesize:
    def test_default_shape(self):
        corpus = synthesize(n_nodes=12, attach=2, seed=1)
        assert len(corpus.names) == 12
        assert len(corpus.records) == sum(w for _a, _b, w in corpus.truth_edges)
        for _a, _b, w in corpus.truth_edges:
            assert 2 <= w <= 4

    def test_weight_bounds_validated(self):
        with pytest.raises(ValueError, match="weight_low <= weight_high"):
            synthesize(weight_low=3, weight_high=2)
        with pytest.raises(ValueError, match="weight_low <= weight_high"):
            synthesize(weight_low=0)

    def test_deterministic(self):
        assert synthesize(n_nodes=15, seed=4).records == synthesize(
            n_nodes=15, seed=4
        ).records


class TestWriteNamesFile:
    def test_round_trip_through_catalog(self, tmp_path):
        names = make_names(8)
        path = tmp_path / "names.txt"
        write_names_file(names, str(path))
        catalog = load_catalog(path.read_text().splitlines())
        assert len(catalog) == 8
        for name in names:
            assert catalog.canonical(name) == name
