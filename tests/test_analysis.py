"""Distribution summaries, term/category MI (demos/terms.py), CSV output,
and the baseline."""

import io
import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snipgraph.analysis import (
    DistributionSummary,
    baseline_pairwise,
    overlap_coefficient,
    summarize,
    summarize_values,
    top_relations,
    write_histogram_csv,
    write_relations_csv,
)
from snipgraph.corpus import synthesize
from snipgraph.engine import TRANSPORT
from snipgraph.graph import SocialGraph
from snipgraph.search import (
    ENTITY,
    ReplayBackend,
    SearchGateway,
    TransportError,
    pair_query,
    requests_for,
)

from conftest import (
    CorpusBuilder,
    load_demo_module,
    make_catalog,
    respell,
    spotting_log,
    without_spotting_memo,
)
from oracles import stepwise_baseline_pairwise

terms = load_demo_module("terms")
TermCategoryTable = terms.TermCategoryTable
build_term_category_table = terms.build_term_category_table
mutual_information = terms.mutual_information
tokenize_terms = terms.tokenize_terms
top_terms = terms.top_terms

A, B, C, D = "Ada Veil", "Bo Quist", "Cy Marsh", "Dee Falk"


class TestSummarizeValues:
    def test_irregular_sample(self):
        s = summarize_values([2, 3, 5, 7, 11, 13])
        assert s.mean == pytest.approx(41 / 6, rel=1e-12)
        assert s.standard_deviation == pytest.approx(math.sqrt(581) / 6, rel=1e-12)
        assert s.median == 6.0
        assert s.histogram == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1, 13: 1}
        assert not s.empty

    def test_exact_sample(self):
        s = summarize_values([4, 4, 6, 6, 10, 12])
        assert s.mean == 7.0
        assert s.standard_deviation == 3.0
        assert s.median == 6.0
        assert s.population == 6

    def test_skewed_median(self):
        s = summarize_values([1, 1, 2, 100])
        assert s.mean == 26.0
        assert s.median == 1.5

    def test_empty(self):
        s = summarize_values([])
        assert s.empty
        assert s.population == 0
        assert (s.mean, s.standard_deviation, s.median) == (0.0, 0.0, 0.0)
        assert s.histogram == {}


class TestSummarizeGraph:
    def test_isolated_nodes_count_as_degree_zero(self):
        graph = SocialGraph()
        graph.add_edge(A, B, 3)
        graph.add_edge(B, C, 5)
        graph.add_node(D)
        degrees, weights = summarize(graph)
        assert degrees.mean == 1.0
        assert degrees.standard_deviation == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert degrees.median == 1.0
        assert degrees.histogram == {0: 1, 1: 2, 2: 1}
        assert degrees.population == graph.node_count
        assert weights.mean == 4.0
        assert weights.histogram == {3: 1, 5: 1}
        assert weights.population == graph.edge_count

    def test_empty_graph(self):
        degrees, weights = summarize(SocialGraph())
        assert degrees.empty and weights.empty

    def test_edgeless_graph_has_empty_weight_side(self):
        graph = SocialGraph()
        graph.add_node(A)
        degrees, weights = summarize(graph)
        assert not degrees.empty
        assert degrees.histogram == {0: 1}
        assert weights.empty


class TestRelations:
    def test_top_relations_orders_by_weight_then_names(self):
        graph = SocialGraph()
        graph.add_edge(B, C, 4)
        graph.add_edge(A, D, 4)
        graph.add_edge(A, B, 9)
        assert top_relations(graph, 2) == [(A, B, 9), (A, D, 4)]
        assert top_relations(graph, 10)[2] == (B, C, 4)

    def test_top_relations_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            top_relations(SocialGraph(), 0)


class TestTokenize:
    def test_stems_alphabetic_tokens(self):
        assert tokenize_terms("Speaks with old friends") == [
            "speak",
            "with",
            "old",
            "friend",
        ]

    def test_digits_and_underscores_are_not_term_characters(self):
        assert tokenize_terms("3rd_place x2") == ["rd", "place", "x"]
        assert tokenize_terms("42 & 7") == []


class TestTermCategoryTable:
    def test_add_accumulates_and_tracks_order(self):
        table = TermCategoryTable()
        table.add("sing", "famous", 2)
        table.add("sing", "politics")
        table.add("sing", "famous")
        assert table.count("sing", "famous") == 3
        assert table.count("sing", "politics") == 1
        assert table.count("sing", "sports") == 0
        assert table.categories == ["famous", "politics"]
        assert table.term_total("sing") == 4
        assert table.total == 4

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count must be >= 0"):
            TermCategoryTable().add("x", "c", -1)

    def test_build_from_weighted_phrases(self):
        table = build_term_category_table(
            {"famous": [("sings with", 2), "duets"], "politics": [("meets", 3)]}
        )
        assert table.categories == ["famous", "politics"]
        assert table.count("sing", "famous") == 2
        assert table.count("with", "famous") == 2
        assert table.count("duet", "famous") == 1
        assert table.count("meet", "politics") == 3
        assert table.total == 8


def square_table():
    """Two terms, two categories, counts [[8, 2], [2, 8]]."""
    table = TermCategoryTable()
    table.add("alpha", "c1", 8)
    table.add("alpha", "c2", 2)
    table.add("beta", "c1", 2)
    table.add("beta", "c2", 8)
    return table


class TestMutualInformation:
    def test_smoothed_square_table(self):
        ranked = mutual_information(square_table(), smoothing=1.0)
        assert [(t, c) for t, c, _s in ranked] == [
            ("alpha", "c1"),
            ("beta", "c1"),
            ("beta", "c2"),
            ("alpha", "c2"),
        ]
        scores = [s for _t, _c, s in ranked]
        assert scores[0] == pytest.approx(math.log(1.5), rel=1e-12)
        assert scores[1] == pytest.approx(math.log(0.5), rel=1e-12)
        assert scores[2] == pytest.approx(math.log(1.5), rel=1e-12)

    def test_unsmoothed_square_table(self):
        ranked = mutual_information(square_table(), smoothing=0.0)
        scores = {(t, c): s for t, c, s in ranked}
        assert scores["alpha", "c1"] == pytest.approx(math.log(1.6), rel=1e-12)
        assert scores["alpha", "c2"] == pytest.approx(math.log(0.4), rel=1e-12)

    def test_zero_joint_is_negative_infinity_without_smoothing(self):
        table = TermCategoryTable()
        table.add("alpha", "c1", 4)
        table.add("beta", "c2", 4)
        ranked = mutual_information(table, smoothing=0.0)
        scores = {(t, c): s for t, c, s in ranked}
        assert scores["alpha", "c1"] == pytest.approx(math.log(2), rel=1e-12)
        assert scores["alpha", "c2"] == float("-inf")
        assert ranked[0] == ("alpha", "c1", scores["alpha", "c1"])

    def test_zero_total_terms_excluded_even_with_smoothing(self):
        table = square_table()
        table.add("gamma", "c1", 0)
        ranked = mutual_information(table, smoothing=1.0)
        assert all(t != "gamma" for t, _c, _s in ranked)

    def test_scaling_invariance_without_smoothing(self):
        scaled = TermCategoryTable()
        scaled.add("alpha", "c1", 56)
        scaled.add("alpha", "c2", 14)
        scaled.add("beta", "c1", 14)
        scaled.add("beta", "c2", 56)
        base = mutual_information(square_table(), smoothing=0.0)
        bigger = mutual_information(scaled, smoothing=0.0)
        for (t1, c1, s1), (t2, c2, s2) in zip(base, bigger):
            assert (t1, c1) == (t2, c2)
            assert s1 == pytest.approx(s2, rel=1e-12)

    def test_equal_scores_tie_on_term(self):
        table = TermCategoryTable()
        for term in ("zed", "ace"):
            table.add(term, "c1", 3)
            table.add(term, "c2", 3)
        ranked = mutual_information(table, smoothing=0.0)
        assert [(t, c) for t, c, _s in ranked] == [
            ("ace", "c1"),
            ("zed", "c1"),
            ("ace", "c2"),
            ("zed", "c2"),
        ]

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing must be >= 0"):
            mutual_information(square_table(), smoothing=-0.5)

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf])
    def test_non_finite_smoothing_rejected(self, smoothing):
        with pytest.raises(ValueError, match="smoothing must be >= 0 and finite"):
            mutual_information(square_table(), smoothing=smoothing)

    def test_empty_table(self):
        assert mutual_information(TermCategoryTable()) == []

    def test_top_terms_slices_one_category(self):
        ranked = mutual_information(square_table())
        assert top_terms(ranked, "c2", 1) == [("beta", ranked[2][2])]
        assert top_terms(ranked, "missing", 5) == []


class TestCsvOutput:
    def test_histogram_rows_sorted_and_quoted(self):
        summary = DistributionSummary(0.0, 0.0, 0.0, {1: 2, 0: 1, 3: 1})
        buf = io.StringIO()
        write_histogram_csv(summary, buf, "degree")
        assert buf.getvalue() == (
            '"degree","count"\n"0","1"\n"1","2"\n"3","1"\n'
        )

    def test_relations_csv(self):
        buf = io.StringIO()
        write_relations_csv([(A, B, 3)], buf)
        assert buf.getvalue() == (
            '"entity_a","entity_b","weight"\n"Ada Veil","Bo Quist","3"\n'
        )


class TestOverlapCoefficient:
    def test_ratio_uses_smaller_single_count(self):
        assert overlap_coefficient(3, 10, 5) == 0.6
        assert overlap_coefficient(3, 5, 10) == 0.6

    def test_zero_single_count_scores_zero(self):
        assert overlap_coefficient(3, 0, 10) == 0.0


class TestBaselinePairwise:
    @pytest.mark.parametrize("t", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_validation(self, t):
        with pytest.raises(ValueError, match="threshold t must satisfy 0 < t < 1"):
            baseline_pairwise((A,), CorpusBuilder().gateway(), make_catalog(), t=t)

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            (dict(k=0), "k must be >= 1"),
            (dict(max_requests=0), "max_requests must be >= 1"),
            (dict(max_entities=0), "max_entities must be >= 1"),
        ],
    )
    def test_limit_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            baseline_pairwise(
                (A,), CorpusBuilder().gateway(), make_catalog(), **kwargs
            )

    def test_requires_known_seed(self):
        with pytest.raises(ValueError, match="at least one seed"):
            baseline_pairwise((), CorpusBuilder().gateway(), make_catalog())
        with pytest.raises(ValueError, match="seed entity not in catalog"):
            baseline_pairwise(("Nobody",), CorpusBuilder().gateway(), make_catalog())

    def test_cooccurrence_edge_and_memoized_singles(self):
        builder = CorpusBuilder()
        builder.add(f"{A} with {B} tonight")
        builder.add(f"{A} with {B} again")
        graph, report = baseline_pairwise((A,), builder.gateway(), make_catalog())
        assert sorted(graph.edges()) == [(A, B, 2)]
        # singles for A and B plus one pair query; B's step reuses the memo
        assert report.requests_used == 3
        assert report.queries_issued == 3
        assert [s.entity for s in report.steps] == [A, B]
        assert report.stopped_reason == "frontier-empty"
        assert report.complete

    def test_one_pair_snippet_makes_a_weight_one_edge(self):
        builder = CorpusBuilder()
        builder.add(f"{A} with {B} tonight")
        graph, report = baseline_pairwise((A,), builder.gateway(), make_catalog())
        assert sorted(graph.edges()) == [(A, B, 1)]
        assert report.steps[0].new_edges == [(A, B)]

    def test_repeated_single_queries_are_logged_cached(self):
        corpus = synthesize(n_nodes=30, attach=3, noise_ratio=1.0, seed=2)
        gateway = SearchGateway(ReplayBackend(corpus.records))
        _graph, report = baseline_pairwise(
            (corpus.names[0],), gateway, make_catalog(corpus.names)
        )
        log = gateway.ledger.log
        sent = set()
        for entry in log:
            # no disk cache: a row is cached exactly when it repeats a query
            assert entry.cached == (entry.raw in sent)
            if entry.cached:
                assert (entry.kind, entry.requests) == (ENTITY, 0)
            sent.add(entry.raw)
        assert sum(e.cached for e in log) == 84
        assert sum(not e.cached for e in log) == report.queries_issued
        assert sum(e.requests for e in log) == report.requests_used

    def test_threshold_is_strict(self):
        builder = CorpusBuilder()
        for i in range(18):
            builder.add(f"{A} alone {i}")
            builder.add(f"{B} alone {i}")
        builder.add(f"{A} with {B} one")
        builder.add(f"{A} with {B} two")
        # overlap 2/20 equals t exactly, so the edge must not appear
        graph, _report = baseline_pairwise((A,), builder.gateway(), make_catalog())
        assert graph.edge_count == 0
        assert not graph.has_node(B)

    def test_budget_stop(self):
        builder = CorpusBuilder()
        builder.add(f"{A} with {B} tonight")
        builder.add(f"{A} with {B} again")
        graph, report = baseline_pairwise(
            (A,), builder.gateway(), make_catalog(), max_requests=2
        )
        assert report.stopped_reason == "budget"
        assert report.requests_used == 2
        assert graph.edge_count == 0

    def test_entity_limit_stop(self):
        builder = CorpusBuilder()
        builder.add(f"{A} with {B} tonight")
        builder.add(f"{A} with {B} again")
        _graph, report = baseline_pairwise(
            (A,), builder.gateway(), make_catalog(), max_entities=1
        )
        assert report.stopped_reason == "entity-limit"
        assert len(report.steps) == 1

    def test_unqueryable_candidate_is_skipped(self):
        catalog = make_catalog([A, "Duo & Co"])
        builder = CorpusBuilder()
        builder.add(f"{A} with Duo & Co")
        builder.add(f"{A} with Duo & Co encore")
        graph, report = baseline_pairwise((A,), builder.gateway(), catalog)
        assert graph.edge_count == 0
        assert report.requests_used == 1
        assert [s.entity for s in report.steps] == [A, "Duo & Co"]
        assert report.steps[1].snippet_count == 0


class TestBaselineStops:
    @given(
        seed=st.integers(0, 10_000),
        n_nodes=st.integers(3, 30),
        ampersand=st.booleans(),
        max_requests=st.none() | st.integers(1, 60),
        max_entities=st.none() | st.integers(1, 12),
        k=st.sampled_from([20, 50, 200]),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_stops_and_totals(self, seed, n_nodes, ampersand, max_requests, max_entities, k):
        corpus = synthesize(n_nodes=n_nodes, attach=2, noise_ratio=0.5, seed=seed)
        records, names = corpus.records, corpus.names
        if ampersand:
            # an unqueryable name: the baseline steps over it without a search
            records, names = respell(corpus, (names[1].replace(" ", " & "),))
        gateway = SearchGateway(ReplayBackend(records))
        _graph, report = baseline_pairwise(
            (names[0],), gateway, make_catalog(names), k=k,
            max_requests=max_requests, max_entities=max_entities,
        )
        steps = report.steps
        assert [s.step for s in steps] == list(range(1, len(steps) + 1))
        assert max_entities is None or len(steps) <= max_entities
        last = steps[-1]
        assert (last.node_count, last.edge_count, last.requests_used) == (
            report.nodes_found, report.edges_found, report.requests_used
        )
        assert report.requests_used == sum(e.requests for e in gateway.ledger.log)
        if max_requests is not None:
            assert report.requests_used <= max_requests + requests_for(k) - 1
        assert report.stopped_reason in ("budget", "entity-limit", "frontier-empty")
        assert report.stopped_reason != "budget" or gateway.ledger.exhausted


class FailingFrom:
    """Replay whose backend calls fail from call number `fail_from` on, or
    that never fails when it is None."""

    def __init__(self, records, fail_from=None):
        self.inner = ReplayBackend(records)
        self.fail_from = fail_from
        self.calls = 0

    def fetch(self, raw_query, offset, count):
        self.calls += 1
        if self.fail_from is not None and self.calls >= self.fail_from:
            raise TransportError("down")
        return self.inner.fetch(raw_query, offset, count)


def baseline_outcome(baseline, records, names, fail_from, **limits):
    """One run of `baseline`: its graph, its report, its steps with
    each step's new nodes and edges sorted, and its ledger log."""
    gateway = SearchGateway(FailingFrom(records, fail_from), sleep=lambda _s: None)
    graph, report = baseline((names[0],), gateway, make_catalog(names), **limits)
    steps = [
        (s.step, s.entity, s.snippet_count, sorted(s.new_nodes), sorted(s.new_edges),
         s.node_count, s.edge_count, s.requests_used)
        for s in report.steps
    ]
    return graph, report, steps, gateway.ledger.log


class TestBaselineGrowsByWholeSteps:
    @given(
        seed=st.integers(0, 10_000),
        n_nodes=st.integers(3, 40),
        ampersand=st.booleans(),
        max_requests=st.none() | st.integers(1, 80),
        max_entities=st.none() | st.integers(1, 15),
        t=st.floats(0.01, 0.99),
        k=st.sampled_from([20, 50, 200]),
        failing=st.integers(0, 3),
        fail_from=st.integers(1, 80),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_same_steps_as_stepwise_reference(
        self, seed, n_nodes, ampersand, max_requests, max_entities, t, k, failing, fail_from
    ):
        corpus = synthesize(n_nodes=n_nodes, attach=2, noise_ratio=0.5, seed=seed)
        records, names = corpus.records, corpus.names
        if ampersand:
            records, names = respell(corpus, (names[1].replace(" ", " & "),))
        # one run in four has a backend that fails from some call on
        fail_from = fail_from if failing == 0 else None
        limits = dict(t=t, k=k, max_requests=max_requests, max_entities=max_entities)
        graph, report, steps, log = baseline_outcome(
            baseline_pairwise, records, names, fail_from, **limits
        )
        want_graph, want, want_steps, want_log = baseline_outcome(
            stepwise_baseline_pairwise, records, names, fail_from, **limits
        )
        assert steps == want_steps
        assert log == want_log
        assert report.stopped_reason == want.stopped_reason
        edges = sorted(graph.edges())
        if report.stopped_reason != TRANSPORT:
            assert edges == sorted(want_graph.edges())
            assert sorted(graph.nodes()) == sorted(want_graph.nodes())
            return
        # the interrupted step is dropped whole: the graph is the recorded steps
        recorded = [(s.node_count, s.edge_count) for s in report.steps]
        last = recorded[-1] if recorded else (1, 0)
        assert (graph.node_count, graph.edge_count) == last
        assert (report.nodes_found, report.edges_found) == last
        assert set(edges) <= set(want_graph.edges())

    def test_transport_failure_drops_the_interrupted_step(self):
        builder = CorpusBuilder()
        builder.add(f"{A} with {B} tonight")
        builder.add(f"{A} with {B} again")
        builder.add(f"{A} with {C} tonight")
        builder.add(f"{A} with {C} again")
        # calls: A alone, B alone, A with B (accepted), C alone, A with C (fails)
        gateway = SearchGateway(FailingFrom(builder.records, 5), sleep=lambda _s: None)
        graph, report = baseline_pairwise((A,), gateway, make_catalog())
        log = [(e.raw, e.snippets) for e in gateway.ledger.log]
        assert log[2] == (pair_query(A, B).raw, 2) and log[-1][0] == pair_query(A, C).raw
        assert report.stopped_reason == TRANSPORT
        last_edges = report.steps[-1].edge_count if report.steps else 0
        assert report.edges_found == last_edges == graph.edge_count == 0
        assert list(graph.nodes()) == [A]


def run_baseline(records, names):
    """One baseline run on a fresh gateway and catalog: everything it produced."""
    gateway = SearchGateway(ReplayBackend(records))
    graph, report = baseline_pairwise((names[0],), gateway, make_catalog(names))
    return list(graph.nodes()), list(graph.edges()), report, gateway.ledger


class TestBaselineSpottingMemo:
    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(4, 30), odd=st.booleans())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_memo_run_equals_spotting_every_text(self, seed, n_nodes, odd):
        corpus = synthesize(n_nodes=n_nodes, attach=3, noise_ratio=0.5, seed=seed)
        records, names = respell(corpus) if odd else (corpus.records, corpus.names)
        got = run_baseline(records, names)
        with without_spotting_memo():
            want = run_baseline(records, names)
        assert got == want

    def test_each_distinct_text_is_spotted_once_per_run(self):
        corpus = synthesize(n_nodes=30, attach=3, noise_ratio=1.0, seed=5)
        for _ in range(2):
            with spotting_log() as (handed, spotted):
                run_baseline(corpus.records, corpus.names)
            assert sum(handed.values()) > len(handed)
            assert spotted == Counter(dict.fromkeys(handed, 1))

    def test_name_added_between_runs_is_found(self):
        builder = CorpusBuilder()
        builder.add(f"{A} with Gus Ward tonight")
        builder.add(f"{A} with Gus Ward again")
        gateway = builder.gateway()
        catalog = make_catalog()
        graph, _ = baseline_pairwise((A,), gateway, catalog)
        assert not graph.has_node("Gus Ward")
        catalog.add("Gus Ward")
        graph, _ = baseline_pairwise((A,), gateway, catalog)
        assert graph.has_edge(A, "Gus Ward")
