"""The specs that snipgraph's fast paths are proved equal to.

Each function here is the plain statement of a rule the package
implements faster: `alnum_runs` of `catalog.text_runs`, `phrase_regex` and
`linear_fetch` of replay's folded phrase check and inverted index,
`catalog_matcher` and `alternation_matches` of `find_entity_matches`,
`weighted_pa_edge_list` of `corpus.pa_edge_list`. The text specs compare
casefolded text. `tests/test_fastpaths.py` checks each fast path against
them.

The file-format routines as they were written before each became one
regex: `unescape_field` of `search.unescape_field`, `_unescape_pattern` and
`_escape_pattern` of `extract.unescape_pattern` and `extract._escape_pattern`,
and `snippet_cache_get` of `search.SnippetCache.get`, which read the whole
file and split it on "\n". `load_corpus` is `search.load_corpus` as it was
before its loop split each line once: it strips the line's ending, skips a
blank line, then splits the rest.

`stepwise_baseline_pairwise` is the pairwise baseline as it was before its
steps went through `Run.grow`: it adds each accepted edge to the graph as
soon as its pair query scores. `tests/test_analysis.py` checks that
`analysis.baseline_pairwise` takes the same steps.
"""

from __future__ import annotations

import math
import os
import random
import re
from itertools import accumulate

from snipgraph.analysis import overlap_coefficient
from snipgraph.catalog import (
    EntityCatalog,
    _name_pattern,
    _name_rank,
    find_entity_matches,
    fold_text,
)
from snipgraph.engine import BUDGET, Run
from snipgraph.extract import SPACE_ESCAPE, SPACE_PATTERN
from snipgraph.search import (
    CorpusFormatError,
    CorpusRecord,
    entity_query,
    is_queryable_phrase,
    pair_query,
    parse_query_terms,
)


def alnum_runs(text: str) -> list[str]:
    """The runs of letters and digits of `text`, the token of replay and
    spotting; the spec of `catalog.text_runs(text.split())`."""
    return re.findall(r"[^\W_]+", text)


def phrase_regex(phrase: str) -> re.Pattern[str]:
    """Compile a token-bounded matcher for a phrase, the spec of replay.

    Case is not ignored: the spec of replay is `phrase_regex(fold_text(p))`
    searched in `fold_text(text)`. Internal spaces match any whitespace run.
    Boundary guards ([^\\W_] = letters and digits) are applied only where the
    phrase edge is itself alphanumeric, so punctuation phrases like "&" may
    sit flush against a word. The edges are those of the stripped phrase:
    " and " is guarded like "and".
    """
    parts = phrase.split()
    body = r"\s+".join(re.escape(p) for p in parts) if parts else re.escape(phrase)
    edges = phrase.strip()
    if edges and edges[0].isalnum():
        body = r"(?<![^\W_])" + body
    if edges and edges[-1].isalnum():
        body = body + r"(?![^\W_])"
    return re.compile(body)


def catalog_matcher(catalog: EntityCatalog) -> re.Pattern[str] | None:
    """Alternation over all of the catalog's keys, longest (tokens, chars)
    first; None for an empty catalog.

    The spec of `find_entity_matches`, searched in `text.casefold()`.
    """
    if not catalog.normalized_index:
        return None
    keys = sorted(catalog.normalized_index, key=_name_rank)
    return re.compile("|".join(_name_pattern(key) for key in keys))


def alternation_matches(text, catalog):
    """The reference spotter: one alternation over every key, searched in the
    casefolded text. A folded span starts in the last character of `text`
    whose folded prefix is no longer than its start, and ends with the first
    prefix whose fold reaches its end."""
    matcher = catalog_matcher(catalog)
    if matcher is None:
        return []
    folded_at = [len(text[:i].casefold()) for i in range(len(text) + 1)]
    out = []
    for m in matcher.finditer(text.casefold()):
        key = " ".join(m.group().split())
        start = max(i for i, n in enumerate(folded_at) if n <= m.start())
        end = min(i for i, n in enumerate(folded_at) if n >= m.end())
        out.append((catalog.normalized_index[key], start, end))
    return out


def linear_fetch(records, raw_query, offset, count):
    """The reference replay: every folded record against every folded quoted
    phrase."""
    needles = [phrase_regex(fold_text(term)) for term in parse_query_terms(raw_query)]
    found = [
        rec for rec in records if all(rx.search(fold_text(rec.text)) for rx in needles)
    ]
    return found[offset : offset + count]


def weighted_pa_edge_list(
    n_nodes: int, attach: int, rng: random.Random, exponent: float = 1.0
) -> list[tuple[int, int]]:
    """The reference preferential attachment: each draw hands the weights
    degree**exponent to random.choices, which sums them afresh."""
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if not 0 <= exponent < math.inf:
        raise ValueError("exponent must be >= 0 and finite")
    edges: set[tuple[int, int]] = {(0, 1)}
    degree = [1, 1]
    for v in range(2, n_nodes):
        population = list(range(v))
        try:
            weights = [degree[u] ** exponent for u in population]
            total = list(accumulate(weights))[-1]
        except OverflowError:
            total = math.inf
        if total == math.inf:
            raise ValueError(
                f"exponent {exponent:g} is too large: degree**exponent overflows a float"
            )
        targets: set[int] = set()
        while len(targets) < min(attach, v):
            targets.add(rng.choices(population, weights=weights)[0])
        for t in sorted(targets):
            edges.add((t, v))
            degree[t] += 1
        degree.append(len(targets))
    return sorted(edges)


def stepwise_baseline_pairwise(
    seeds, gateway, catalog, t=0.1, max_requests=None, k=200, max_entities=None
):
    """The reference baseline: the same walk, queries and acceptance rule as
    `analysis.baseline_pairwise`, but each accepted pair enters the graph
    the moment it scores, and the step's nodes and edges are listed by hand
    in acceptance order. A transport failure in the middle of a step
    therefore leaves that step's edges in the graph. Argument checks are
    left out: callers pass valid arguments."""
    run = Run(seeds, gateway, catalog, max_requests, k)
    pool = list(run.seeds)
    pooled = set(pool)
    scored = set()

    def fetch_single(name):
        if not is_queryable_phrase(name):
            return None
        return run.search(entity_query(name))

    def walk():
        for entity in pool:
            if run.ledger.exhausted:
                return BUDGET
            if max_entities is not None and len(run.steps) >= max_entities:
                return "entity-limit"
            snippets = fetch_single(entity) or []
            new_nodes = []
            new_edges = []
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
                other = fetch_single(candidate)
                if other is None:
                    scored.add(pair)
                    continue
                if run.ledger.exhausted:
                    budget_hit = True
                    break
                scored.add(pair)
                pair_snips = run.search(pair_query(pair[0], pair[1]))
                score = overlap_coefficient(len(pair_snips), len(snippets), len(other))
                if score > t:
                    for name in pair:
                        if not run.graph.has_node(name):
                            new_nodes.append(name)
                    run.graph.add_edge(pair[0], pair[1], len(pair_snips))
                    new_edges.append(pair)
            # the edges are in the graph already: record the step around them
            step = run.grow(entity, len(snippets), {}, 1)
            step.new_nodes, step.new_edges = new_nodes, new_edges
            if budget_hit:
                return BUDGET

    return run.graph, run.finish(walk)


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def unescape_field(value: str) -> str:
    if "\\" not in value:
        return value
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(value) or value[i + 1] not in _UNESCAPES:
            raise ValueError(f"bad escape sequence at position {i}")
        out.append(_UNESCAPES[value[i + 1]])
        i += 2
    return "".join(out)


def _unescape_pattern(raw: str) -> str:
    if "\\" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        nxt = raw[i + 1] if i + 1 < len(raw) else ""
        if nxt == "s":
            out.append(SPACE_PATTERN)
            i += 2
        elif nxt == "\\":
            out.append("\\")
            i += 2
        else:
            out.append("\\")
            i += 1
    return "".join(out)


def _escape_pattern(phrase: str) -> str:
    body = phrase.replace("\\", "\\\\")
    lead = len(body) - len(body.lstrip(" "))
    trail = 0 if lead == len(body) else len(body) - len(body.rstrip(" "))
    core = body[lead : len(body) - trail] if trail else body[lead:]
    return SPACE_ESCAPE * lead + core + SPACE_ESCAPE * trail


def load_corpus(source) -> list[CorpusRecord]:
    records: list[CorpusRecord] = []
    for lineno, line in enumerate(source, start=1):
        raw = line.rstrip("\n").removesuffix("\r")
        if not raw:
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise CorpusFormatError(
                f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        if "\\" in raw:  # a line without one has nothing to unescape
            try:
                fields = [unescape_field(f) for f in fields]
            except ValueError as exc:
                raise CorpusFormatError(f"line {lineno}: {exc}") from exc
        records.append(CorpusRecord(*fields))
    return records


def snippet_cache_get(self, query, k: int) -> list[CorpusRecord] | None:
    """`SnippetCache.get` with `self` the cache."""
    path = self._path(query.cache_key)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        return None
    if lines[-1] == "":
        lines.pop()
    if not lines:
        return None
    depth = lines[0].partition("\t")[2]
    if not depth.isdecimal() or int(depth) < k:
        return None
    try:
        return load_corpus(lines[1:])
    except CorpusFormatError:
        return None
