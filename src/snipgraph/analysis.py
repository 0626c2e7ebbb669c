"""Post-hoc analytics over extracted graphs.

Covers degree and weight distribution summaries, top relations, a
mutual-information view of which terms separate pattern categories, and a
simplified pairwise co-occurrence baseline to compare the engines against.
"""

from __future__ import annotations

import csv
import math
import re
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Sequence

from .catalog import EntityCatalog, find_entity_matches
from .engine import BUDGET, ENTITY_LIMIT, Run, RunReport
from .graph import SocialGraph
from .search import SearchGateway, entity_query, is_queryable_phrase, pair_query
from .stemming import porter_stem


# --- distribution summaries -----------------------------------------------

@dataclass(frozen=True)
class DistributionSummary:
    """Mean, population standard deviation, median, and a value histogram.

    A zero-population summary is `empty`: no histogram, every number 0.
    """

    mean: float
    standard_deviation: float
    median: float
    histogram: dict[int, int]

    @property
    def empty(self) -> bool:
        return not self.histogram

    @property
    def population(self) -> int:
        return sum(self.histogram.values())


def summarize_values(values: Sequence[int]) -> DistributionSummary:
    """Summary of an integer sample; zero-population when `values` is empty."""
    if not values:
        return DistributionSummary(0.0, 0.0, 0.0, {})
    return DistributionSummary(
        mean=statistics.fmean(values),
        standard_deviation=statistics.pstdev(values),
        median=float(statistics.median(values)),
        histogram=dict(Counter(values)),
    )


def summarize(graph: SocialGraph) -> tuple[DistributionSummary, DistributionSummary]:
    """(degree summary over all nodes, weight summary over all edges).

    Isolated nodes count with degree 0, so the degree histogram always totals
    the node count. An empty graph (or one with no edges, for the weight
    side) yields a summary with the empty flag set.
    """
    degrees = [graph.degree(name) for name in graph.nodes()]
    weights = [w for _a, _b, w in graph.edges()]
    return summarize_values(degrees), summarize_values(weights)


def top_relations(graph: SocialGraph, k: int) -> list[tuple[str, str, int]]:
    """The k heaviest relations as (name_a, name_b, weight)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return graph.top_edges(k)


# --- term/category mutual information -------------------------------------

_WORD = re.compile(r"[^\W\d_]+")


def tokenize_terms(phrase: str) -> list[str]:
    """Stemmed alphabetic tokens of a pattern phrase."""
    return [porter_stem(tok) for tok in _WORD.findall(phrase)]


@dataclass
class TermCategoryTable:
    """Co-occurrence counts between stemmed terms and categories."""

    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    categories: list[str] = field(default_factory=list)

    def add(self, term: str, category: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        if category not in self.categories:
            self.categories.append(category)
        key = (term, category)
        self.counts[key] = self.counts.get(key, 0) + count

    def count(self, term: str, category: str) -> int:
        return self.counts.get((term, category), 0)

    def term_total(self, term: str) -> int:
        return sum(self.count(term, c) for c in self.categories)

    def category_total(self, category: str) -> int:
        return sum(n for (_t, c), n in self.counts.items() if c == category)

    @property
    def terms(self) -> list[str]:
        seen: dict[str, None] = {}
        for term, _category in self.counts:
            seen.setdefault(term)
        return list(seen)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def build_term_category_table(
    phrases_by_category: Mapping[str, Iterable[str | tuple[str, int]]],
) -> TermCategoryTable:
    """Tokenize and stem each category's phrases into a count table.

    Phrases may carry an occurrence count as (phrase, count); bare phrases
    count once per token occurrence.
    """
    table = TermCategoryTable()
    for category, phrases in phrases_by_category.items():
        if category not in table.categories:
            table.categories.append(category)
        for item in phrases:
            phrase, weight = item if isinstance(item, tuple) else (item, 1)
            for term in tokenize_terms(phrase):
                table.add(term, category, weight)
    return table


def mutual_information(
    table: TermCategoryTable, smoothing: float = 1.0
) -> list[tuple[str, str, float]]:
    """Pointwise MI of each (term, category) cell, ranked within category.

    score = ln(P(term, category) / (P(term) * P(category))) over the table
    smoothed by adding `smoothing` to every cell. Terms with no occurrences
    in any category are excluded. The result lists categories in table
    order, each ranked by descending score with ties on the term.
    """
    if not 0 <= smoothing < math.inf:
        raise ValueError("smoothing must be >= 0 and finite")
    terms = [t for t in table.terms if table.term_total(t) > 0]
    categories = list(table.categories)
    if not terms or not categories:
        return []
    cells = {
        (t, c): table.count(t, c) + smoothing for t in terms for c in categories
    }
    total = sum(cells.values())
    term_mass = {t: sum(cells[t, c] for c in categories) for t in terms}
    cat_mass = {c: sum(cells[t, c] for t in terms) for c in categories}
    ranked: list[tuple[str, str, float]] = []
    for category in categories:
        scored = []
        for term in terms:
            joint = cells[term, category]
            if joint == 0:
                score = float("-inf")
            else:
                score = math.log(
                    (joint / total)
                    / ((term_mass[term] / total) * (cat_mass[category] / total))
                )
            scored.append((term, category, score))
        scored.sort(key=lambda row: (-row[2], row[0]))
        ranked.extend(scored)
    return ranked


def top_terms(
    ranked: Iterable[tuple[str, str, float]], category: str, n: int
) -> list[tuple[str, float]]:
    """First n (term, score) rows of one category from a ranked MI list."""
    out = [(t, s) for t, c, s in ranked if c == category]
    return out[:n]


# --- CSV output (header row, all fields quoted) ---------------------------

def _csv_writer(fh: IO[str]):
    return csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n")


def write_histogram_csv(
    summary: DistributionSummary, fh: IO[str], value_header: str
) -> None:
    writer = _csv_writer(fh)
    writer.writerow([value_header, "count"])
    for value in sorted(summary.histogram):
        writer.writerow([value, summary.histogram[value]])


def write_mi_csv(ranked: Iterable[tuple[str, str, float]], fh: IO[str]) -> None:
    writer = _csv_writer(fh)
    writer.writerow(["term", "category", "score"])
    for term, category, score in ranked:
        writer.writerow([term, category, score])


def write_relations_csv(
    relations: Iterable[tuple[str, str, int]], fh: IO[str]
) -> None:
    writer = _csv_writer(fh)
    writer.writerow(["entity_a", "entity_b", "weight"])
    for a, b, w in relations:
        writer.writerow([a, b, w])


# --- pairwise co-occurrence baseline --------------------------------------

def overlap_coefficient(pair_count: int, count_a: int, count_b: int) -> float:
    """pair_count / min(count_a, count_b); 0 when either single count is 0."""
    low = min(count_a, count_b)
    if low == 0:
        return 0.0
    return pair_count / low


def baseline_pairwise(
    seeds: Sequence[str],
    gateway: SearchGateway,
    catalog: EntityCatalog,
    t: float = 0.1,
    max_requests: int | None = None,
    k: int = 200,
    max_entities: int | None = None,
) -> tuple[SocialGraph, RunReport]:
    """Pairwise co-occurrence baseline.

    Each pooled entity is queried alone; catalog names found in its snippets
    become candidates. Each new (entity, candidate) pair gets a pair query,
    and the pair joins the graph when pair_snippets / min(single_snippets)
    exceeds t (edge weight = pair snippet count). Candidates join the pool,
    so coverage spreads until the pool drains, the request budget runs out,
    or max_entities entities have been processed. Each distinct snippet text
    is spotted once per call, through a spotting memo that find_entity_matches
    fills, and a name's single query is sent once: a repeat is answered from
    the run's memo (a cached ledger row, no request). Each entity is one
    step, merged whole by `Run.grow`: a transport failure drops that step.
    """
    if not 0 < t < 1:
        raise ValueError("threshold t must satisfy 0 < t < 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_requests is not None and max_requests < 1:
        raise ValueError("max_requests must be >= 1 or unset")
    if max_entities is not None and max_entities < 1:
        raise ValueError("max_entities must be >= 1 or unset")
    if not seeds:
        raise ValueError("at least one seed entity is required")

    run = Run(seeds, gateway, catalog, max_requests, k)
    pool = list(run.seeds)
    pooled = set(pool)
    scored: set[tuple[str, str]] = set()

    def walk() -> str | None:
        """Walk the pool; returns a stop reason, or None once it drains."""
        # the pool grows while it is walked: candidates join at its end
        for entity in pool:
            if run.ledger.exhausted:
                return BUDGET
            if max_entities is not None and len(run.steps) >= max_entities:
                return ENTITY_LIMIT
            queryable = is_queryable_phrase(entity)
            snippets = run.search(entity_query(entity)) if queryable else []
            evidence: dict[tuple[str, str], int] = {}
            budget_hit = False
            candidates = dict.fromkeys(
                name
                for snippet in snippets
                for name, _s, _e in find_entity_matches(snippet.text, catalog, run.spotted)
                if name != entity
            )
            for candidate in candidates:
                if candidate not in pooled:
                    pooled.add(candidate)
                    pool.append(candidate)
                pair = tuple(sorted((entity, candidate)))
                if pair in scored:
                    continue
                if run.ledger.exhausted:
                    budget_hit = True
                    break
                scored.add(pair)
                if not is_queryable_phrase(candidate):
                    continue
                other = run.search(entity_query(candidate))
                if run.ledger.exhausted:
                    budget_hit = True
                    break
                pair_snips = run.search(pair_query(pair[0], pair[1]))
                if overlap_coefficient(len(pair_snips), len(snippets), len(other)) > t:
                    evidence[pair] = len(pair_snips)
            # a scored pair is new and has a pair snippet (t > 0): tau 1 is exact
            run.grow(entity, len(snippets), evidence, 1)
            if budget_hit:
                return BUDGET

    return run.graph, run.finish(walk)
