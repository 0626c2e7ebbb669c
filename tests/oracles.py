"""The specs that snipgraph's fast paths are proved equal to.

Each function here is the plain statement of a rule the package
implements faster: `phrase_regex` and `linear_fetch` of replay's folded
phrase check and inverted index, `catalog_matcher` and
`alternation_matches` of `find_entity_matches`, `weighted_pa_edge_list` of
`corpus.pa_edge_list`. The text specs compare casefolded text.
`tests/test_fastpaths.py` checks each fast path against them.
"""

from __future__ import annotations

import math
import random
import re
from itertools import accumulate

from snipgraph.catalog import EntityCatalog, _name_pattern, _name_rank, fold_text
from snipgraph.search import parse_query_terms


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
