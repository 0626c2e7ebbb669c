"""Expansion engines: static frontier growth and pattern-mining iterations."""

import dataclasses
import io
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snipgraph.engine import (
    BUDGET,
    FIXED_POINT,
    FRONTIER_EMPTY,
    MAX_ITER,
    MODE_BF,
    MODE_PATTERN_ITER,
    MODE_PRIO,
    TRANSPORT,
    Run,
    RunConfig,
    expand_static,
    expand_with_pattern_mining,
    write_trace_csv,
)
from snipgraph.corpus import synthesize
from snipgraph.extract import pattern_key
from snipgraph.search import (
    CONNECTIVITY,
    PAIR,
    ReplayBackend,
    SearchGateway,
    SnippetCache,
    TransportError,
    connectivity_query,
    is_queryable_phrase,
)

from conftest import (
    CorpusBuilder,
    make_catalog,
    respell,
    spotting_log,
    without_spotting_memo,
)

A, B, C, D = "Ada Veil", "Bo Quist", "Cy Marsh", "Dee Falk"


def chain_corpus():
    builder = CorpusBuilder()
    builder.pair(A, B, times=2)
    builder.pair(B, C, times=2)
    return builder


def run_static(builder, catalog=None, **overrides):
    config = RunConfig(seeds=(A,), **overrides)
    gateway = builder.gateway()
    return expand_static(config, gateway, catalog or make_catalog()), gateway


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig(seeds=(A,))
        assert config.tau == 2
        assert config.sigma == 5
        assert config.h == 100
        assert config.k == 200
        assert config.max_requests is None
        assert config.mode == MODE_BF
        assert config.query_patterns == ("and",)

    def test_frozen(self):
        config = RunConfig(seeds=(A,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.tau = 3

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            (dict(seeds=()), "at least one seed"),
            (dict(query_patterns=()), "at least one query pattern"),
            (dict(tau=0), "tau must be >= 1"),
            (dict(sigma=0), "sigma must be >= 1"),
            (dict(alpha=-0.1), "alpha must be >= 0"),
            (dict(h=0), "h must be >= 1"),
            (dict(k=0), "k must be >= 1"),
            (dict(max_requests=0), "max_requests must be >= 1"),
            (dict(max_iterations=0), "max_iterations must be >= 1"),
            (dict(mode="dfs"), "mode must be bf, prio, or pattern-iter"),
            (dict(alpha=float("nan")), "alpha must be >= 0"),
            (dict(alpha=float("inf")), "alpha must be >= 0"),
            (dict(alpha=float("-inf")), "alpha must be >= 0"),
            (dict(query_patterns=(" ", ",", "&")), "no query pattern can be queried"),
        ],
    )
    def test_validation(self, overrides, message):
        config = RunConfig(**{"seeds": (A,), **overrides})
        with pytest.raises(ValueError, match=message):
            config.validate()


class TestSeeds:
    def test_canonicalized_and_deduplicated(self):
        builder = chain_corpus()
        config = RunConfig(seeds=("ada  veil", "ADA VEIL"))
        _graph, report = expand_static(config, builder.gateway(), make_catalog())
        assert report.seeds == [A]

    def test_unknown_seed_rejected(self):
        config = RunConfig(seeds=("Nobody Here",))
        with pytest.raises(ValueError, match="seed entity not in catalog: 'Nobody Here'"):
            expand_static(config, CorpusBuilder().gateway(), make_catalog())


class TestExpandStatic:
    def test_mode_gating(self):
        config = RunConfig(seeds=(A,), mode=MODE_PATTERN_ITER)
        with pytest.raises(ValueError, match="expand_static requires mode bf or prio"):
            expand_static(config, CorpusBuilder().gateway(), make_catalog())

    def test_chain_discovery_and_weights(self):
        (graph, report), _gw = run_static(chain_corpus())
        # each planted pair is re-counted from both endpoints' steps
        assert sorted(graph.edges()) == [(A, B, 4), (B, C, 4)]
        assert [s.entity for s in report.steps] == [A, B, C]
        assert report.complete
        assert report.stopped_reason == FRONTIER_EMPTY
        assert report.nodes_found == 3
        assert report.edges_found == 2

    def test_each_combination_queried_once(self):
        (_graph, report), gateway = run_static(chain_corpus())
        raws = [entry.raw for entry in gateway.ledger.log]
        assert len(raws) == len(set(raws)) == 3
        assert report.queries_issued == 3

    def test_query_patterns_always_match(self):
        # empty match set still extracts through the query pattern itself
        (graph, report), _gw = run_static(chain_corpus(), match_patterns=())
        assert graph.has_edge(A, B)
        assert report.patterns == ["and"]

    def test_unqueryable_pattern_matches_but_never_queries(self):
        builder = CorpusBuilder()
        builder.pair(A, B, times=2)
        builder.pair(B, C, phrase=" ", times=2)
        (graph, _report), gateway = run_static(
            builder, query_patterns=("and", " "), match_patterns=()
        )
        assert graph.has_edge(B, C)
        assert all(entry.raw.endswith(" and") for entry in gateway.ledger.log)

    def test_unqueryable_entity_marked_dead(self):
        catalog = make_catalog([A, B, "Duo & Co"])
        builder = CorpusBuilder()
        builder.pair(A, B, times=2)
        config = RunConfig(seeds=("Duo & Co", A))
        graph, report = expand_static(config, builder.gateway(), catalog)
        assert graph.has_edge(A, B)
        dead_step = report.steps[0]
        assert dead_step.entity == "Duo & Co"
        assert dead_step.snippet_count == 0
        assert report.complete

    def test_snippet_order_invariance(self):
        base = chain_corpus().records
        seen = set()
        for seed in range(3):
            records = list(base)
            random.Random(seed).shuffle(records)
            gateway = SearchGateway(ReplayBackend(records))
            graph, _report = expand_static(
                RunConfig(seeds=(A,)), gateway, make_catalog()
            )
            seen.add(tuple(sorted(graph.edges())))
        assert len(seen) == 1

    def test_prio_full_drain_matches_bf(self):
        builder = chain_corpus()
        builder.pair(A, C, times=2)
        builder.pair(C, D, times=3)
        (bf_graph, _), _ = run_static(builder, mode=MODE_BF)
        (prio_graph, _), _ = run_static(builder, mode=MODE_PRIO, alpha=0.1)
        assert sorted(bf_graph.edges()) == sorted(prio_graph.edges())

    def test_fresh_ledger_and_warm_cache_across_runs(self, tmp_path):
        builder = chain_corpus()
        gateway = builder.gateway(cache=SnippetCache(tmp_path / "cache"))
        config = RunConfig(seeds=(A,))
        graph1, report1 = expand_static(config, gateway, make_catalog())
        graph2, report2 = expand_static(config, gateway, make_catalog())
        assert report1.requests_used == 3
        assert report2.requests_used == 0
        assert all(entry.cached for entry in gateway.ledger.log)
        assert sorted(graph1.edges()) == sorted(graph2.edges())


class TestBudget:
    def test_stop_after_exhausting_entity(self):
        builder = chain_corpus()
        builder.pair(C, D, times=2)
        (graph, report), _gw = run_static(builder, max_requests=2)
        assert report.stopped_reason == BUDGET
        assert report.complete
        assert [s.entity for s in report.steps] == [A, B]
        assert [s.requests_used for s in report.steps] == [1, 2]
        # C was discovered but never expanded
        assert graph.has_node(C)
        assert not graph.has_edge(C, D)

    def test_overshoot_is_bounded_by_one_batch(self):
        builder = CorpusBuilder()
        for i in range(60):
            builder.add(f"press {A} and {B} note {i}")
        (_graph, report), _gw = run_static(builder, max_requests=1)
        assert report.requests_used == 2
        assert report.stopped_reason == BUDGET
        patterns = 1
        assert report.requests_used - 1 < patterns * 4


class PoisonBackend:
    """Replay that fails permanently for one entity's queries."""

    def __init__(self, records, poison):
        self.inner = ReplayBackend(records)
        self.poison = poison

    def fetch(self, raw_query, offset, count):
        if self.poison in raw_query:
            raise TransportError("boom")
        return self.inner.fetch(raw_query, offset, count)


class TestTransportAbort:
    def test_partial_graph_preserved(self):
        backend = PoisonBackend(chain_corpus().records, f'"{B}"')
        gateway = SearchGateway(backend, sleep=lambda _s: None)
        graph, report = expand_static(RunConfig(seeds=(A,)), gateway, make_catalog())
        assert not report.complete
        assert report.stopped_reason == TRANSPORT
        assert graph.has_edge(A, B)
        assert [s.entity for s in report.steps] == [A]


class TestTrace:
    def test_trace_csv_and_curve(self):
        (_graph, report), _gw = run_static(chain_corpus())
        buf = io.StringIO()
        write_trace_csv(report, buf)
        assert buf.getvalue() == (
            "step,entity,snippets,new_nodes,new_edges,nodes,edges,requests\n"
            f"1,{A},2,1,1,2,1,1\n"
            f"2,{B},4,1,1,3,2,2\n"
            f"3,{C},2,0,0,3,2,3\n"
        )
        last = report.steps[-1]
        assert (last.requests_used, last.node_count, last.edge_count) == (
            report.requests_used,
            report.nodes_found,
            report.edges_found,
        )

    def test_counters_monotone(self):
        builder = chain_corpus()
        builder.pair(C, D, times=2)
        builder.pair(B, D, times=2)
        (_graph, report), _gw = run_static(builder)
        for earlier, later in zip(report.steps, report.steps[1:]):
            assert later.node_count >= earlier.node_count
            assert later.edge_count >= earlier.edge_count
            assert later.requests_used >= earlier.requests_used
            assert later.step == earlier.step + 1


def mining_corpus():
    """Base pair joined by "and" plus planted connector phrases.

    Scores over the single pair query: "beside" 6*1*1 = 6 (admitted),
    "alongside" 5*1*1 = 5 (blocked by the strict threshold).
    """
    builder = CorpusBuilder()
    builder.pair(A, B, times=2)
    builder.pair(A, B, phrase="alongside", times=5)
    builder.pair(A, B, phrase="beside", times=6)
    return builder


def run_mining(builder, **overrides):
    config = RunConfig(seeds=(A,), mode=MODE_PATTERN_ITER, **overrides)
    gateway = builder.gateway()
    graph, report, patterns = expand_with_pattern_mining(
        config, gateway, make_catalog()
    )
    return graph, report, patterns, gateway


class TestPatternMining:
    def test_mode_gating(self):
        config = RunConfig(seeds=(A,), mode=MODE_BF)
        with pytest.raises(ValueError, match="requires mode pattern-iter"):
            expand_with_pattern_mining(config, CorpusBuilder().gateway(), make_catalog())

    def test_sigma_is_strict(self):
        _graph, report, _patterns, _gw = run_mining(mining_corpus())
        first = report.iterations[0]
        by_phrase = {c.phrase: c for c in first.candidates}
        assert by_phrase["alongside"].score == 5
        assert by_phrase["beside"].score == 6
        assert first.admitted == ["beside"]

    def test_known_patterns_not_readmitted(self):
        _graph, report, _patterns, _gw = run_mining(mining_corpus())
        admitted = [p for it in report.iterations for p in it.admitted]
        assert "and" not in admitted

    def test_fixed_point_stop(self):
        _graph, report, _patterns, _gw = run_mining(mining_corpus())
        assert len(report.iterations) == 2
        assert report.iterations[1].admitted == []
        assert report.stopped_reason == FIXED_POINT
        assert report.complete

    def test_revisits_accumulate_through_new_pattern(self):
        graph, report, _patterns, _gw = run_mining(mining_corpus())
        # iteration 1: 2+2 through "and"; iteration 2 re-pools each side
        # under {and, beside}: twice (2 + 6) more
        assert report.iterations[0].edge_count == 1
        assert graph.weight(A, B) == 20

    def test_admitted_queryable_pattern_joins_query_set(self):
        _graph, _report, _patterns, gateway = run_mining(mining_corpus())
        assert f'"{A}" beside' in [entry.raw for entry in gateway.ledger.log]

    def test_admitted_unqueryable_pattern_matches_only(self):
        builder = CorpusBuilder()
        builder.pair(A, B, times=2)
        builder.pair(A, B, phrase="& guest", times=6)
        _graph, _report, patterns, gateway = run_mining(builder)
        assert "& guest" in patterns
        assert all("& guest" not in entry.raw for entry in gateway.ledger.log)

    def test_pattern_set_grows_monotonically(self):
        builder = CorpusBuilder()
        builder.pair(A, B, times=2)
        builder.pair(B, C, times=2)
        builder.pair(A, B, phrase="beside", times=6)
        builder.pair(B, C, phrase="joins", times=6)
        _graph, report, patterns, _gw = run_mining(builder)
        assert report.patterns_active == len(patterns)
        seen = set()
        for iteration in report.iterations:
            for pat in iteration.admitted:
                assert pattern_key(pat) not in seen
                seen.add(pattern_key(pat))

    def test_single_iteration_matches_static_graph(self):
        graph, report, _patterns, _gw = run_mining(mining_corpus(), max_iterations=1)
        (static_graph, _), _ = run_static(mining_corpus())
        assert sorted(graph.edges()) == sorted(static_graph.edges())
        assert report.stopped_reason == MAX_ITER

    def test_new_pattern_reaches_new_entity(self):
        builder = CorpusBuilder()
        builder.pair(A, B, times=2)
        builder.pair(B, C, times=2)
        for i in range(3):
            builder.pair(A, B, phrase="meets with", domain=f"c{i}.example")
            builder.pair(B, C, phrase="meets with", domain=f"c{i}.example")
        builder.pair(C, D, phrase="meets with", times=2)
        graph, report, _patterns, _gw = run_mining(builder)
        assert report.iterations[0].admitted == ["meets with"]
        assert graph.has_edge(C, D)
        assert graph.has_node(D)
        assert report.iterations[1].node_count > report.iterations[0].node_count

    def test_unqueryable_name_found_mid_run(self):
        duo = "Duo & Co"
        builder = CorpusBuilder()
        builder.pair(A, B, times=2)
        builder.pair(A, duo, times=2)
        for i in range(3):
            builder.pair(A, B, phrase="beside", domain=f"c{i}.example")
            builder.pair(B, C, phrase="beside", domain=f"c{i}.example")
        config = RunConfig(seeds=(A,), mode=MODE_PATTERN_ITER)
        gateway = builder.gateway()
        graph, report, _patterns = expand_with_pattern_mining(
            config, gateway, make_catalog([A, B, C, duo])
        )
        first, second = report.iterations[:2]
        assert [(s.entity, s.snippet_count) for s in first.steps] == [
            (A, 7),
            (B, 8),
            (duo, 0),
        ]
        assert first.admitted == ["beside"]
        assert [s.entity for s in second.steps] == [A, B, C]
        assert len(gateway.ledger.log) == 9
        assert all(duo not in entry.raw for entry in gateway.ledger.log)
        assert graph.weight(A, duo) == 4

    def test_unqueryable_seed_expanded_once_as_in_static(self):
        duo = "Duo & Co"
        catalog = make_catalog([A, B, duo])
        builder = CorpusBuilder()
        builder.pair(A, B, times=2)
        config = RunConfig(seeds=(duo, A), mode=MODE_PATTERN_ITER)
        _graph, report, _patterns = expand_with_pattern_mining(
            config, builder.gateway(), catalog
        )
        static_config = dataclasses.replace(config, mode=MODE_BF)
        _graph, static_report = expand_static(static_config, builder.gateway(), catalog)
        steps = [(s.entity, s.snippet_count) for s in report.steps]
        assert steps == [(duo, 0), (A, 2), (B, 2)]
        assert steps == [(s.entity, s.snippet_count) for s in static_report.steps]

    def test_round_two_sends_only_the_admitted_patterns_of_round_one(self):
        duo = "Duo & Co"
        builder = CorpusBuilder()
        builder.pair(A, B, times=2)
        builder.pair(B, C, phrase="with", times=2)
        builder.pair(A, duo, times=2)
        for i in range(3):
            builder.pair(A, B, phrase="beside", domain=f"c{i}.example")
            builder.pair(A, B, phrase="& guest", domain=f"c{i}.example")
        config = RunConfig(
            seeds=(A,), query_patterns=("and", "with"), mode=MODE_PATTERN_ITER,
            max_iterations=2,
        )
        gateway = builder.gateway()
        _graph, report, _patterns = expand_with_pattern_mining(
            config, gateway, make_catalog([A, B, C, duo])
        )
        first = report.iterations[0]
        assert [s.entity for s in first.steps] == [A, B, duo, C]
        assert first.admitted == ["& guest", "beside"]
        log = gateway.ledger.log
        first_pair = next(i for i, e in enumerate(log) if e.kind == PAIR)
        round_one = [e.raw for e in log[:first_pair]]
        round_two = [e.raw for e in log[first_pair:] if e.kind == CONNECTIVITY]
        # each queryable entity of round 1 sends each queryable admitted
        # pattern once, and nothing it sent in round 1
        expected = [
            connectivity_query(s.entity, p).raw
            for s in first.steps
            for p in first.admitted
            if is_queryable_phrase(s.entity) and is_queryable_phrase(p)
        ]
        assert Counter(round_two) == Counter(expected)
        assert len(expected) == 3
        assert not set(round_one) & set(round_two)

    def test_budget_cuts_mining_pass(self):
        builder = CorpusBuilder()
        builder.pair(A, B, times=2)
        builder.pair(B, C, times=2)
        _graph, report, _patterns, _gw = run_mining(builder, max_requests=4)
        assert report.stopped_reason == BUDGET
        assert len(report.iterations) == 1
        assert report.iterations[0].pair_queries_issued == 1
        assert report.pair_queries_issued == 1

    def test_budget_cuts_expansion(self):
        builder = CorpusBuilder()
        builder.pair(A, B, times=2)
        builder.pair(B, C, times=2)
        _graph, report, _patterns, _gw = run_mining(builder, max_requests=2)
        assert report.stopped_reason == BUDGET
        assert report.iterations == []
        assert len(report.steps) == 2

    def test_iteration_records_partition_steps(self):
        _graph, report, _patterns, _gw = run_mining(mining_corpus())
        from_iterations = [s for it in report.iterations for s in it.steps]
        assert from_iterations == report.steps

    @pytest.mark.parametrize(
        "h, candidates, admitted, hit, requests",
        [
            # the h heaviest edges were all found through "and", so their
            # pair snippets hold no other phrase and the run stops at half
            # the graph
            (3, [("and", 2304)], [[]], 85, 60),
            (
                100,
                [("and", 2350080), ("performs beside", 282240), ("dines with", 127776)],
                [["performs beside", "dines with"], []],
                174,
                286,
            ),
        ],
    )
    def test_heaviest_pairs_can_hide_every_planted_phrase(
        self, h, candidates, admitted, hit, requests
    ):
        corpus = synthesize(n_nodes=60, attach=3, noise_ratio=1.0, seed=1, patterns=MINED)
        gateway = SearchGateway(ReplayBackend(corpus.records))
        config = RunConfig(seeds=(corpus.names[0],), mode=MODE_PATTERN_ITER, h=h)
        graph, report, _patterns = expand_with_pattern_mining(
            config, gateway, make_catalog(corpus.names)
        )
        assert [(c.phrase, c.score) for c in report.iterations[0].candidates] == candidates
        assert [it.admitted for it in report.iterations] == admitted
        assert report.stopped_reason == FIXED_POINT
        truth = {(a, b) for a, b, _w in corpus.truth_graph().edges()}
        found = {(a, b) for a, b, _w in graph.edges()}
        assert (len(found & truth), len(truth)) == (hit, 174)  # recall 0.489, then 1.0
        assert report.requests_used == requests


def no_memo_search(self, query):
    """Oracle for the run's answer memo, patched over Run.search: sends
    every query afresh."""
    snippets, _ = self.gateway.search(query, self.k)
    return snippets


class CountingBackend(ReplayBackend):
    """Replay that counts fetches per (raw query, offset)."""

    def __init__(self, records):
        super().__init__(records)
        self.fetched = Counter()

    def fetch(self, raw_query, offset, count):
        self.fetched[raw_query, offset] += 1
        return super().fetch(raw_query, offset, count)


class TestPairQueryMemo:
    @staticmethod
    def run(corpus):
        backend = CountingBackend(corpus.records)
        gateway = SearchGateway(backend)
        config = RunConfig(seeds=tuple(corpus.names[:1]), mode=MODE_PATTERN_ITER)
        graph, report, patterns = expand_with_pattern_mining(
            config, gateway, make_catalog(corpus.names)
        )
        pair_raws = {e.raw for e in gateway.ledger.log if e.kind == PAIR}
        pair_fetches = [n for (raw, _), n in backend.fetched.items() if raw in pair_raws]
        return graph, report, patterns, pair_fetches

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_memo_run_equals_resending_run(self, seed, monkeypatch):
        corpus = synthesize(
            n_nodes=40,
            attach=3,
            patterns={"and": 3, "performs beside": 2, "dines with": 1},
            noise_ratio=1.0,
            seed=seed,
        )
        graph, report, patterns, pair_fetches = self.run(corpus)
        monkeypatch.setattr(Run, "search", no_memo_search)
        o_graph, o_report, o_patterns, o_pair_fetches = self.run(corpus)

        assert sorted(graph.edges()) == sorted(o_graph.edges())
        without_requests = [
            dataclasses.replace(s, requests_used=0) for s in report.steps
        ]
        assert without_requests == [
            dataclasses.replace(s, requests_used=0) for s in o_report.steps
        ]
        assert [
            (it.candidates, it.admitted, it.pair_queries_issued)
            for it in report.iterations
        ] == [
            (it.candidates, it.admitted, it.pair_queries_issued)
            for it in o_report.iterations
        ]
        assert patterns == o_patterns
        assert report.pair_queries_issued == o_report.pair_queries_issued

        # the corpus plants two mined phrases, so a second pass always runs
        assert len(report.iterations) >= 2
        assert report.requests_used < o_report.requests_used
        assert pair_fetches and max(pair_fetches) == 1
        assert max(o_pair_fetches) > 1


class TestAnswerMemo:
    def test_case_variant_patterns_share_one_search(self):
        corpus = synthesize(n_nodes=30, attach=3, noise_ratio=1.0, seed=2)

        def run(query_patterns):
            gateway = SearchGateway(ReplayBackend(corpus.records))
            config = RunConfig(seeds=(corpus.names[0],), query_patterns=query_patterns)
            graph, report = expand_static(config, gateway, make_catalog(corpus.names))
            trace = io.StringIO()
            write_trace_csv(report, trace)
            return sorted(graph.edges()), trace.getvalue(), report, gateway.ledger.log

        edges, trace, report, log = run(("and", "And"))
        want_edges, want_trace, want, _log = run(("and",))
        assert edges == want_edges
        assert trace == want_trace
        # `"X" And` shares `"X" and`'s cache key, so the memo answers it
        assert report.requests_used == want.requests_used == 30
        assert [e.cached for e in log if e.raw.endswith(" And")] == [True] * 30

    def test_mined_case_variant_recovers_every_truth_edge(self):
        corpus = synthesize(
            n_nodes=40, attach=3, noise_ratio=1.0, seed=3, patterns={"and": 3, "And": 2}
        )
        gateway = SearchGateway(ReplayBackend(corpus.records))
        config = RunConfig(seeds=(corpus.names[0],), mode=MODE_PATTERN_ITER)
        graph, report, _patterns = expand_with_pattern_mining(
            config, gateway, make_catalog(corpus.names)
        )
        assert report.iterations[0].admitted == ["And"]
        truth = sorted(corpus.truth_graph().edges())
        assert len(truth) == 114
        assert [(a, b) for a, b, _w in sorted(graph.edges())] == [(a, b) for a, b, _w in truth]
        # the edges planted only as "A And B" come from the revisits after `And`
        # is admitted, which the memo answers: the first round ends at 74
        assert report.iterations[0].edge_count == 74


MINED = {"and": 3, "performs beside": 2, "dines with": 1}


def run_engine(records, names, mode):
    """One run on a fresh gateway and catalog: everything it produced."""
    gateway = SearchGateway(ReplayBackend(records))
    catalog = make_catalog(names)
    config = RunConfig(seeds=(names[0],), mode=mode, alpha=0.01)
    patterns = None
    if mode == MODE_PATTERN_ITER:
        graph, report, patterns = expand_with_pattern_mining(config, gateway, catalog)
    else:
        graph, report = expand_static(config, gateway, catalog)
    return list(graph.nodes()), list(graph.edges()), report, patterns, gateway.ledger


class TestSpottingMemo:
    @given(
        seed=st.integers(0, 10_000),
        n_nodes=st.integers(4, 36),
        odd=st.booleans(),
        mode=st.sampled_from([MODE_BF, MODE_PRIO, MODE_PATTERN_ITER]),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_memo_run_equals_spotting_every_text(self, seed, n_nodes, odd, mode):
        corpus = synthesize(
            n_nodes=n_nodes, attach=3, patterns=MINED, noise_ratio=0.5, seed=seed
        )
        records, names = respell(corpus) if odd else (corpus.records, corpus.names)
        got = run_engine(records, names, mode)
        with without_spotting_memo():
            want = run_engine(records, names, mode)
        assert got == want

    @pytest.mark.parametrize("mode", [MODE_BF, MODE_PRIO, MODE_PATTERN_ITER])
    def test_each_distinct_text_is_spotted_once_per_run(self, mode):
        corpus = synthesize(n_nodes=30, attach=3, patterns=MINED, noise_ratio=1.0, seed=5)
        for _ in range(2):
            with spotting_log() as (handed, spotted):
                run_engine(corpus.records, corpus.names, mode)
            # texts repeat within a run, yet each is spotted once
            assert sum(handed.values()) > len(handed)
            assert spotted == Counter(dict.fromkeys(handed, 1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_respelled_names_keep_every_planted_edge(self, seed):
        # "Kai Strauß Jr." is keyed "kai strauss jr." and spelled with "ß" in the text
        corpus = synthesize(n_nodes=30, attach=3, noise_ratio=1.0, seed=seed)
        records, names = respell(corpus)
        spelled = dict(zip(corpus.names, names))
        config = RunConfig(seeds=(names[0],), mode=MODE_PRIO, alpha=0.01)
        gateway = SearchGateway(ReplayBackend(records))
        graph, _ = expand_static(config, gateway, make_catalog(names))
        planted = [(spelled[a], spelled[b]) for a, b, _w in corpus.truth_edges]
        assert len(planted) == 84
        assert [edge for edge in planted if not graph.has_edge(*edge)] == []

    def test_name_added_between_runs_is_found(self):
        builder = chain_corpus().pair(C, "Gus Ward", times=2)
        gateway = builder.gateway()
        catalog = make_catalog()
        config = RunConfig(seeds=(A,))
        graph, _ = expand_static(config, gateway, catalog)
        assert not graph.has_node("Gus Ward")
        catalog.add("Gus Ward")
        graph, _ = expand_static(config, gateway, catalog)
        assert graph.has_edge(C, "Gus Ward")
