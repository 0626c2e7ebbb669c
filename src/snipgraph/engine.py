"""Graph construction engines.

expand_static grows a graph from seed entities with a fixed pattern set:
pop an entity, issue one connectivity query per query pattern, extract
pattern-connected pairs from the pooled snippets, merge them under the tau
threshold, and enqueue newly discovered entities. The request budget is
checked after each expanded entity, so the final entity may overshoot it.

expand_with_pattern_mining wraps the same loop in iterations. After each
frontier exhaustion it issues pair queries over the heaviest edges, scores
the phrases found between entities, and admits high-scoring ones as new
patterns (queryable ones also join the query set). Each entity/pattern
combination is queried at most once per run, and no query is sent twice in
one run: a mining pass that meets an edge an earlier pass already
pair-queried takes its snippets from the run's answer memo for no request.
Later iterations thus only spend requests on what the new patterns unlock.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from .catalog import EntityCatalog
from .extract import (
    DEFAULT_MATCH_PATTERNS,
    DEFAULT_QUERY_PATTERNS,
    Pattern,
    PatternCandidate,
    dedupe_patterns,
    extract_edges,
    extract_pattern_candidates,
    pattern_key,
)
from .frontier import FIFO, PRIORITY, Frontier
from .graph import SocialGraph
from .search import (
    BudgetLedger,
    CorpusRecord,
    Query,
    QueryError,
    SearchGateway,
    TransportError,
    connectivity_query,
    is_queryable_phrase,
    pair_query,
)

MODE_BF = "bf"
MODE_PRIO = "prio"
MODE_PATTERN_ITER = "pattern-iter"
MODES = (MODE_BF, MODE_PRIO, MODE_PATTERN_ITER)

BUDGET = "budget"
FRONTIER_EMPTY = "frontier-empty"
TRANSPORT = "transport-error"
FIXED_POINT = "fixed-point"
MAX_ITER = "max-iterations"


@dataclass(frozen=True)
class RunConfig:
    """Everything one extraction run needs besides the backend and catalog.

    seeds: starting entities, all of which must be known to the catalog.
    query_patterns: phrases used to build connectivity queries, in query
    order. match_patterns: phrases recognized in snippet gaps; the effective
    match set is their union with the query patterns. tau: minimum per-step
    evidence for a new edge. sigma: pattern admission threshold (strict).
    h: heaviest edges pair-queried per mining pass. max_requests of None
    disables the budget. mode picks the engine: bf and prio drive
    expand_static, pattern-iter drives expand_with_pattern_mining.
    """

    seeds: tuple[str, ...] = ()
    query_patterns: tuple[str, ...] = DEFAULT_QUERY_PATTERNS
    match_patterns: tuple[str, ...] = DEFAULT_MATCH_PATTERNS
    tau: int = 2
    sigma: int = 5
    alpha: float = 0.0
    h: int = 100
    k: int = 200
    max_requests: int | None = None
    max_iterations: int = 3
    mode: str = MODE_BF

    def validate(self) -> None:
        if not self.seeds:
            raise ValueError("at least one seed entity is required")
        if not self.query_patterns:
            raise ValueError("at least one query pattern is required")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.sigma < 1:
            raise ValueError("sigma must be >= 1")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be >= 0 and finite")
        if self.h < 1:
            raise ValueError("h must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_requests is not None and self.max_requests < 1:
            raise ValueError("max_requests must be >= 1 or unset")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.mode not in MODES:
            raise ValueError("mode must be bf, prio, or pattern-iter")


@dataclass
class StepRecord:
    """One expanded entity: what it pulled in and the totals afterwards."""

    step: int
    entity: str
    snippet_count: int
    new_nodes: list[str]
    new_edges: list[tuple[str, str]]
    node_count: int
    edge_count: int
    requests_used: int


@dataclass
class IterationRecord:
    """One mining iteration: its expansion steps and the mining pass."""

    index: int
    steps: list[StepRecord]
    pair_queries_issued: int
    candidates: list[PatternCandidate]
    admitted: list[Pattern]
    node_count: int
    edge_count: int
    requests_used: int


@dataclass
class RunReport:
    """Everything a finished (or aborted) run produced besides the graph."""

    seeds: list[str]
    steps: list[StepRecord] = field(default_factory=list)
    iterations: list[IterationRecord] = field(default_factory=list)
    patterns: list[Pattern] = field(default_factory=list)
    nodes_found: int = 0
    edges_found: int = 0
    requests_used: int = 0
    queries_issued: int = 0
    complete: bool = True
    stopped_reason: str = FRONTIER_EMPTY

    @property
    def patterns_active(self) -> int:
        return len(self.patterns)

    @property
    def pair_queries_issued(self) -> int:
        return sum(it.pair_queries_issued for it in self.iterations)


def write_trace_csv(report: RunReport, fh: IO[str]) -> None:
    """One row per expansion step with cumulative totals."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["step", "entity", "snippets", "new_nodes", "new_edges", "nodes", "edges", "requests"]
    )
    for s in report.steps:
        writer.writerow(
            [
                s.step,
                s.entity,
                s.snippet_count,
                len(s.new_nodes),
                len(s.new_edges),
                s.node_count,
                s.edge_count,
                s.requests_used,
            ]
        )


def canonical_seeds(seeds: Iterable[str], catalog: EntityCatalog) -> list[str]:
    """Catalog names of `seeds` in order, each kept at its first occurrence.

    Raises ValueError for a seed the catalog does not know.
    """
    resolved: list[str] = []
    seen: set[str] = set()
    for raw in seeds:
        canonical = catalog.canonical(raw)
        if canonical is None:
            raise ValueError(f"seed entity not in catalog: {raw!r}")
        if canonical not in seen:
            seen.add(canonical)
            resolved.append(canonical)
    return resolved


class Run:
    """What every graph-growing run shares: a fresh request ledger installed
    in the gateway, the answer memo of every query searched at depth k, a
    graph seeded with the canonical seeds, the spotting memo, and one
    StepRecord per expanded entity."""

    def __init__(
        self,
        seeds: Iterable[str],
        gateway: SearchGateway,
        catalog: EntityCatalog,
        max_requests: int | None,
        k: int,
    ) -> None:
        self.gateway = gateway
        self.catalog = catalog
        self.k = k
        # snippets of every query searched so far, by Query.cache_key
        self.answers: dict[str, list[CorpusRecord]] = {}
        self.ledger = BudgetLedger(max_requests)
        gateway.ledger = self.ledger
        self.graph = SocialGraph()
        self.seeds = canonical_seeds(seeds, catalog)
        for seed in self.seeds:
            self.graph.add_node(seed)
        # find_entity_matches results by text; the catalog is fixed for a run
        self.spotted: dict[str, list[tuple[str, int, int]]] = {}
        self.steps: list[StepRecord] = []

    def search(self, query: Query) -> list[CorpusRecord]:
        """Up to k snippets for `query`. A query this run already searched
        is answered from its memo for no request (the ledger logs a cached
        entry); any other goes to the gateway and its answer is kept."""
        snippets = self.answers.get(query.cache_key)
        if snippets is not None:
            self.ledger.note_cached(query.raw, kind=query.kind, snippets=len(snippets))
            return snippets
        snippets, _ = self.gateway.search(query, self.k)
        self.answers[query.cache_key] = snippets
        return snippets

    def search_pooled(self, queries: Iterable[Query]) -> list[CorpusRecord]:
        """Search each query in turn and pool the results, keeping the first
        copy of each (url, text) in the order first seen. `queries` is consumed
        lazily, so a generator can check state between searches."""
        pooled: list[CorpusRecord] = []
        seen: set[tuple[str, str]] = set()
        for query in queries:
            for snippet in self.search(query):
                key = (snippet.url, snippet.text)
                if key not in seen:
                    seen.add(key)
                    pooled.append(snippet)
        return pooled

    def record_step(
        self,
        entity: str,
        snippet_count: int,
        new_nodes: list[str],
        new_edges: list[tuple[str, str]],
    ) -> StepRecord:
        """Append the step that expanded `entity`, with the totals after it."""
        record = StepRecord(
            step=len(self.steps) + 1,
            entity=entity,
            snippet_count=snippet_count,
            new_nodes=new_nodes,
            new_edges=new_edges,
            node_count=self.graph.node_count,
            edge_count=self.graph.edge_count,
            requests_used=self.ledger.used_requests,
        )
        self.steps.append(record)
        return record

    def report(self, stopped_reason: str, complete: bool) -> RunReport:
        return RunReport(
            seeds=list(self.seeds),
            steps=self.steps,
            nodes_found=self.graph.node_count,
            edges_found=self.graph.edge_count,
            requests_used=self.ledger.used_requests,
            queries_issued=self.ledger.queries_issued,
            complete=complete,
            stopped_reason=stopped_reason,
        )


class _Run(Run):
    """One engine run: the shared scaffold plus its patterns and query state."""

    def __init__(
        self,
        config: RunConfig,
        gateway: SearchGateway,
        catalog: EntityCatalog,
    ) -> None:
        config.validate()
        super().__init__(config.seeds, gateway, catalog, config.max_requests, config.k)
        self.config = config
        self.query_patterns = dedupe_patterns(
            Pattern(p, "seed") for p in config.query_patterns
        )
        # queries also match, so the effective match set covers both lists
        self.match_patterns = dedupe_patterns(
            Pattern(p, "seed")
            for p in (*config.match_patterns, *config.query_patterns)
        )
        self.iterations: list[IterationRecord] = []
        self.queried: set[tuple[str, str]] = set()
        self.dead: set[str] = set()

    def new_frontier(self) -> Frontier:
        mode = PRIORITY if self.config.mode == MODE_PRIO else FIFO
        return Frontier(mode, self.config.alpha)

    def pending_patterns(self, entity: str) -> list[Pattern]:
        return [
            p
            for p in self.query_patterns
            if is_queryable_phrase(p.phrase) and (entity, p.key) not in self.queried
        ]

    def has_pending(self, entity: str) -> bool:
        return entity not in self.dead and bool(self.pending_patterns(entity))

    def expand_entity(self, entity: str) -> StepRecord:
        """Query every pending pattern for one entity and merge the evidence.

        The per-pattern results are pooled by the run, so a snippet
        returned by several of this entity's queries counts once. A later
        revisit (new patterns admitted by mining) pools afresh: its
        extraction pass runs under the grown match set, which is what lets
        admitted patterns contribute edges. An entity whose name cannot be
        queried is marked dead.
        """

        def queries() -> Iterator[Query]:
            for pat in self.pending_patterns(entity):
                self.queried.add((entity, pat.key))
                try:
                    query = connectivity_query(entity, pat.phrase)
                except QueryError:
                    self.dead.add(entity)
                    return
                yield query

        pooled = self.search_pooled(queries())
        evidence = extract_edges(pooled, self.catalog, self.match_patterns, self.spotted)
        new_nodes, new_edges = self.graph.merge_evidence(evidence, self.config.tau)
        return self.record_step(entity, len(pooled), new_nodes, new_edges)

    def run_frontier(self, frontier: Frontier) -> str | None:
        """Expand until the frontier drains; returns a stop reason or None.

        The budget is checked after each expanded entity, never before, so
        the final entity's queries may overshoot the cap.
        """
        while True:
            entry = frontier.pop_next(self.graph, len(self.steps))
            if entry is None:
                return None
            record = self.expand_entity(entry.name)
            for name in record.new_nodes:
                frontier.push(name, len(self.steps))
            if self.ledger.exhausted:
                return BUDGET

    def report(self, stopped_reason: str, complete: bool) -> RunReport:
        report = super().report(stopped_reason, complete)
        report.iterations = self.iterations
        report.patterns = list(self.match_patterns)
        return report


def expand_static(
    config: RunConfig,
    gateway: SearchGateway,
    catalog: EntityCatalog,
) -> tuple[SocialGraph, RunReport]:
    """Grow a graph from the configured seeds with a fixed pattern set.

    Stops when the frontier drains or the budget is spent; a transport
    failure aborts the run and the report carries the partial state with
    complete=False.
    """
    if config.mode not in (MODE_BF, MODE_PRIO):
        raise ValueError("expand_static requires mode bf or prio")
    run = _Run(config, gateway, catalog)
    frontier = run.new_frontier()
    for seed in run.seeds:
        frontier.push(seed, 0)
    try:
        stop = run.run_frontier(frontier)
    except TransportError:
        return run.graph, run.report(TRANSPORT, complete=False)
    return run.graph, run.report(stop or FRONTIER_EMPTY, complete=True)


def _mine_patterns(run: _Run) -> tuple[int, list[PatternCandidate], list[Pattern]]:
    """Pair-query the heaviest edges and admit high-scoring phrases.

    Returns (pair queries issued, candidates, admitted patterns). The budget
    is checked before each pair query; candidates are scored over whatever
    was fetched before the cutoff. A pair query an earlier pass already sent
    is answered from the run's memo for no request, so the candidates are
    those of a pass that sent every query afresh. The count issued includes
    those memo answers.
    """
    config = run.config
    issued = 0

    def queries() -> Iterator[Query]:
        nonlocal issued
        for a, b, _w in run.graph.top_edges(config.h):
            if run.ledger.exhausted:
                return
            try:
                query = pair_query(a, b)
            except QueryError:
                continue
            issued += 1
            yield query

    pooled = run.search_pooled(queries())
    candidates = extract_pattern_candidates(pooled, run.catalog, memo=run.spotted)
    known = {p.key for p in run.match_patterns}
    admitted: list[Pattern] = []
    for cand in candidates:
        if cand.score <= config.sigma or pattern_key(cand.phrase) in known:
            continue
        pat = Pattern(cand.phrase, "mined")
        known.add(pat.key)
        admitted.append(pat)
        run.match_patterns.append(pat)
        if is_queryable_phrase(pat.phrase):
            run.query_patterns.append(pat)
    return issued, candidates, admitted


def expand_with_pattern_mining(
    config: RunConfig,
    gateway: SearchGateway,
    catalog: EntityCatalog,
) -> tuple[SocialGraph, RunReport, list[Pattern]]:
    """Alternate frontier expansion with pattern mining for max_iterations
    rounds; returns the graph, the report, and the final pattern set.

    A round that admits no new pattern is a fixed point (the next round
    could not issue any new connectivity query), so the run stops early.
    With max_iterations=1 the produced graph matches expand_static under
    the same configuration; the mining pass only spends extra pair queries.
    """
    if config.mode != MODE_PATTERN_ITER:
        raise ValueError("expand_with_pattern_mining requires mode pattern-iter")
    run = _Run(config, gateway, catalog)
    stopped = MAX_ITER
    complete = True
    for index in range(1, config.max_iterations + 1):
        first_step = len(run.steps)
        frontier = run.new_frontier()
        for name in run.graph.nodes():
            if run.has_pending(name):
                frontier.push(name, first_step)
        try:
            if run.run_frontier(frontier) == BUDGET:
                stopped = BUDGET
                break
            issued, candidates, admitted = _mine_patterns(run)
        except TransportError:
            stopped, complete = TRANSPORT, False
            break
        run.iterations.append(
            IterationRecord(
                index=index,
                steps=run.steps[first_step:],
                pair_queries_issued=issued,
                candidates=candidates,
                admitted=admitted,
                node_count=run.graph.node_count,
                edge_count=run.graph.edge_count,
                requests_used=run.ledger.used_requests,
            )
        )
        if run.ledger.exhausted:
            stopped = BUDGET
            break
        if not admitted:
            stopped = FIXED_POINT
            break
    return run.graph, run.report(stopped, complete), list(run.match_patterns)
