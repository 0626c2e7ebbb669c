"""Graph construction engines.

expand_static grows a graph from seed entities with a fixed pattern set:
pop an entity, issue one connectivity query per query pattern, extract
pattern-connected pairs from the pooled snippets, merge them under the tau
threshold, and enqueue newly discovered entities. The request budget is
checked after each expanded entity, so the final entity may overshoot it.
An entity whose name cannot be quoted (`search.is_queryable_phrase`) is
expanded once, as a step with no query.

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
from typing import IO, Callable, Iterable, Iterator, Mapping

from .catalog import EntityCatalog
from .extract import (
    DEFAULT_MATCH_PATTERNS,
    DEFAULT_QUERY_PATTERNS,
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
ENTITY_LIMIT = "entity-limit"


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
    admitted: list[str]
    node_count: int
    edge_count: int
    requests_used: int


@dataclass
class RunReport:
    """Everything a finished (or aborted) run produced besides the graph."""

    seeds: list[str]
    steps: list[StepRecord] = field(default_factory=list)
    iterations: list[IterationRecord] = field(default_factory=list)
    patterns: list[str] = field(default_factory=list)
    nodes_found: int = 0
    edges_found: int = 0
    requests_used: int = 0
    queries_issued: int = 0
    stopped_reason: str = FRONTIER_EMPTY

    @property
    def complete(self) -> bool:
        """False when a transport failure cut the run short."""
        return self.stopped_reason != TRANSPORT

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


class Run:
    """What every graph-growing run shares: a fresh request ledger installed
    in the gateway, the answer memo of every query searched at depth k, a
    graph seeded with the canonical seeds, the spotting memo, and one
    StepRecord per expanded entity, which `grow` merges into the graph whole:
    a transport failure drops the interrupted step. `finish` builds the
    run's one report."""

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
        for raw in seeds:
            canonical = catalog.canonical(raw)
            if canonical is None:
                raise ValueError(f"seed entity not in catalog: {raw!r}")
            self.graph.add_node(canonical)
        # the graph keeps each node once, in first-added order
        self.seeds = list(self.graph.nodes())
        # find_entity_matches results by text; the catalog is fixed for a run
        self.spotted: dict[str, list[tuple[str, int, int]]] = {}
        self.steps: list[StepRecord] = []
        # iterations are filled by pattern-mining runs; match_patterns by
        # every engine run (`_Run`); a baseline run has neither
        self.iterations: list[IterationRecord] = []
        self.match_patterns: list[str] = []

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

    def grow(
        self,
        entity: str,
        snippet_count: int,
        evidence: Mapping[tuple[str, str], int],
        tau: int,
    ) -> StepRecord:
        """Merge a whole step's pair counts under `tau`; record it with the totals after."""
        new_nodes, new_edges = self.graph.merge_evidence(evidence, tau)
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

    def finish(self, drive: Callable[[], str | None]) -> RunReport:
        """Run `drive` and report why it stopped: the reason it returns, or
        FRONTIER_EMPTY for None. A transport failure ends the run where it
        happens, and the report carries the partial state under TRANSPORT."""
        try:
            stopped = drive() or FRONTIER_EMPTY
        except TransportError:
            stopped = TRANSPORT
        return RunReport(
            seeds=list(self.seeds),
            steps=self.steps,
            iterations=self.iterations,
            patterns=list(self.match_patterns),
            nodes_found=self.graph.node_count,
            edges_found=self.graph.edge_count,
            requests_used=self.ledger.used_requests,
            queries_issued=self.ledger.queries_issued,
            stopped_reason=stopped,
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
        seeded = dedupe_patterns(config.query_patterns)
        self.query_patterns = [p for p in seeded if is_queryable_phrase(p)]
        # queries also match, so the effective match set covers both lists
        self.match_patterns = dedupe_patterns((*config.match_patterns, *config.query_patterns))
        # how many query patterns each entity has sent: query_patterns only
        # grows, by phrases with new keys, so what it sent is always a prefix
        self.sent: dict[str, int] = {}

    def pending_patterns(self, entity: str) -> list[str]:
        """Query patterns not yet sent for `entity`; none if it cannot be quoted."""
        if not is_queryable_phrase(entity):
            return []
        return self.query_patterns[self.sent.get(entity, 0):]

    def expand_entity(self, entity: str) -> StepRecord:
        """Query every pending pattern for one entity and merge the evidence.

        The per-pattern results are pooled by the run, so a snippet
        returned by several of this entity's queries counts once. A later
        revisit (new patterns admitted by mining) pools afresh: its
        extraction pass runs under the grown match set, which is what lets
        admitted patterns contribute edges. An entity whose name cannot be
        quoted has no pending pattern: its step sends no query and records
        0 snippets. A transport failure drops the whole step (see `grow`).
        """
        pending = self.pending_patterns(entity)
        self.sent[entity] = len(self.query_patterns)
        pooled = self.search_pooled(connectivity_query(entity, p) for p in pending)
        evidence = extract_edges(pooled, self.catalog, self.match_patterns, self.spotted)
        return self.grow(entity, len(pooled), evidence, self.config.tau)

    def run_frontier(self, names: Iterable[str]) -> str | None:
        """Expand `names`, which enter a FIFO (in prio mode, PRIORITY)
        frontier at the current step, and every entity they discover, until
        the frontier drains; returns a stop reason or None. The budget is
        checked after each expanded entity, never before, so the final
        entity's queries may overshoot the cap."""
        mode = PRIORITY if self.config.mode == MODE_PRIO else FIFO
        frontier = Frontier(mode, self.config.alpha)
        for name in names:
            frontier.push(name, len(self.steps))
        while True:
            entry = frontier.pop_next(self.graph, len(self.steps))
            if entry is None:
                return None
            record = self.expand_entity(entry.name)
            for name in record.new_nodes:
                frontier.push(name, len(self.steps))
            if self.ledger.exhausted:
                return BUDGET


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
    return run.graph, run.finish(lambda: run.run_frontier(run.seeds))


def _mine_patterns(run: _Run) -> tuple[int, list[PatternCandidate], list[str]]:
    """Pair-query the heaviest edges and admit high-scoring phrases.

    Returns (pair queries issued, candidates, admitted phrases). The budget
    is checked before each pair query; candidates are scored over whatever
    was fetched before the cutoff. A pair query an earlier pass already sent
    is answered from the run's memo for no request, so the candidates are
    those of a pass that sent every query afresh. The count issued includes
    those memo answers: it is the ledger entries the pass added, since each
    `Run.search` logs one (charged, or cached for a memo or disk-cache hit).
    """
    config = run.config
    logged = len(run.ledger.log)

    def queries() -> Iterator[Query]:
        for a, b, _w in run.graph.top_edges(config.h):
            if run.ledger.exhausted:
                return
            if is_queryable_phrase(a) and is_queryable_phrase(b):
                yield pair_query(a, b)

    pooled = run.search_pooled(queries())
    issued = len(run.ledger.log) - logged
    candidates = extract_pattern_candidates(pooled, run.catalog, memo=run.spotted)
    known = {pattern_key(p) for p in run.match_patterns}
    admitted: list[str] = []
    for cand in candidates:
        key = pattern_key(cand.phrase)
        if cand.score <= config.sigma or key in known:
            continue
        known.add(key)
        admitted.append(cand.phrase)
        run.match_patterns.append(cand.phrase)
        if is_queryable_phrase(cand.phrase):
            run.query_patterns.append(cand.phrase)
    return issued, candidates, admitted


def expand_with_pattern_mining(
    config: RunConfig,
    gateway: SearchGateway,
    catalog: EntityCatalog,
) -> tuple[SocialGraph, RunReport, list[str]]:
    """Alternate frontier expansion with pattern mining for max_iterations
    rounds; returns the graph, the report, and the final pattern set.

    A round that admits no new pattern is a fixed point (the next round
    could not issue any new connectivity query), so the run stops early.
    With max_iterations=1 the graph matches expand_static in mode bf under
    the same configuration; the mining pass only spends extra pair queries.
    """
    if config.mode != MODE_PATTERN_ITER:
        raise ValueError("expand_with_pattern_mining requires mode pattern-iter")
    run = _Run(config, gateway, catalog)

    def rounds() -> str:
        """Expand and mine until a round hits the budget, admits nothing, or
        is the last; returns the stop reason."""
        for index in range(1, config.max_iterations + 1):
            first_step = len(run.steps)
            # the first round expands every seed (the only nodes), as expand_static does
            names = [n for n in run.graph.nodes() if index == 1 or run.pending_patterns(n)]
            if run.run_frontier(names) == BUDGET:
                return BUDGET
            issued, candidates, admitted = _mine_patterns(run)
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
                return BUDGET
            if not admitted:
                return FIXED_POINT
        return MAX_ITER

    return run.graph, run.finish(rounds), list(run.match_patterns)
