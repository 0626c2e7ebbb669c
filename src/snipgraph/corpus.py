"""Synthetic snippet corpora with known ground truth.

Generates invented person names, wires them into a preferential-attachment
graph, and writes each planted edge as a set of snippets of the form
"<filler> A <pattern> B <filler>". Name tokens, filler words, and pattern
words are mutually disjoint, so the only pattern-connected adjacent pairs in
any snippet are the planted ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

from .graph import SocialGraph
from .search import CorpusRecord

# patterns accepted as a plain sequence (uniform) or phrase->weight mapping
PatternSpec = Sequence[str] | Mapping[str, float]


def _pattern_chooser(patterns: PatternSpec, rng: random.Random):
    if isinstance(patterns, Mapping):
        phrases = list(patterns)
        weights = [patterns[p] for p in phrases]
        if not all(0 < w < math.inf for w in weights) or sum(weights) == math.inf:
            raise ValueError("pattern weights must be > 0 and finite, as must their sum")
    else:
        phrases = list(patterns)
        weights = None
    if not phrases:
        raise ValueError("at least one pattern is required")
    return lambda: rng.choices(phrases, weights=weights)[0]

FIRST_NAMES = (
    "Alda", "Borin", "Cela", "Doran", "Edda", "Fenra", "Gorm", "Hilda",
    "Ivo", "Jarek", "Kestra", "Lorin", "Mira", "Nolwen", "Orla", "Pavo",
    "Quenna", "Rurik", "Selda", "Tormod", "Ulla", "Varek", "Wilda", "Xanthe",
    "Yorvi", "Zelda", "Ansgar", "Brunhild", "Cedomir", "Dagny",
)

LAST_NAMES = (
    "Ashford", "Birkvald", "Cromlin", "Durnev", "Elsworth", "Fairbrook",
    "Gelderan", "Hartvig", "Ilmaren", "Jorvik", "Kolvane", "Lindqvist",
    "Morvane", "Nordhagen", "Ostrover", "Pellerin", "Quintrell", "Rostova",
    "Stellvig", "Thornquist", "Ulvestad", "Vintermark", "Wexford", "Ymirsen",
    "Zorander", "Aldervik", "Brantley", "Corvalen", "Drexhall", "Everlund",
)

FILLER_WORDS = (
    "the", "gathered", "evening", "concert", "press", "crowd", "festival",
    "stage", "awards", "gala", "premiere", "local", "annual", "city",
    "summer", "tonight", "guests", "music", "film", "reception", "opening",
    "charity", "season", "national", "tour", "event", "program", "audience",
    "review", "critics", "applause", "orchestra", "theatre", "ballroom",
    "dinner", "host", "debut", "ceremony", "weekend", "spotlight",
)

DOMAIN_POOL = tuple(f"site{i:02d}.example" for i in range(40))


def make_names(count: int) -> list[str]:
    """First `count` invented "First Last" names; order is fixed."""
    limit = len(FIRST_NAMES) * len(LAST_NAMES)
    if count > limit:
        raise ValueError(f"at most {limit} distinct names are available")
    return [
        f"{FIRST_NAMES[i % len(FIRST_NAMES)]} {LAST_NAMES[i // len(FIRST_NAMES)]}"
        for i in range(count)
    ]


def pa_edge_list(
    n_nodes: int,
    attach: int,
    rng: random.Random,
    exponent: float = 1.0,
) -> list[tuple[int, int]]:
    """Preferential-attachment edges over node indices 0..n_nodes-1.

    Each new node links to `attach` distinct earlier nodes, drawn with
    probability proportional to degree**exponent: exponent 1 is classic
    rich-get-richer growth, 0 is uniform attachment. The result is
    connected by construction. An exponent so large that a weight, or the
    total of a node's weights, overflows a float raises ValueError.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if not 0 <= exponent < math.inf:
        raise ValueError("exponent must be >= 0 and finite")
    try:
        exponent = float(exponent)  # an int ** int power never overflows; a float one does
    except OverflowError:
        raise ValueError("exponent is too large: it overflows a float") from None
    edges: set[tuple[int, int]] = {(0, 1)}
    degree = [1, 1]
    for v in range(2, n_nodes):
        # random.choices would sum these totals on every draw, and refuses an infinite one
        try:
            cumulative = list(accumulate(degree[u] ** exponent for u in range(v)))
        except OverflowError:
            cumulative = [math.inf]
        if cumulative[-1] == math.inf:
            raise ValueError(
                f"exponent {exponent:g} is too large: degree**exponent overflows a float"
            )
        targets: set[int] = set()
        while len(targets) < min(attach, v):
            targets.add(rng.choices(range(v), cum_weights=cumulative)[0])
        for t in sorted(targets):
            edges.add((t, v))
            degree[t] += 1
        degree.append(len(targets))
    return sorted(edges)


@dataclass
class SyntheticCorpus:
    """Corpus records plus the ground truth they encode."""

    records: list[CorpusRecord]
    names: list[str]
    truth_edges: list[tuple[str, str, int]]

    def truth_graph(self) -> SocialGraph:
        graph = SocialGraph()
        for name in self.names:
            graph.add_node(name)
        for a, b, w in self.truth_edges:
            graph.add_edge(a, b, w)
        return graph


def _filler(rng: random.Random, low: int = 3, high: int = 7) -> str:
    return " ".join(rng.choice(FILLER_WORDS) for _ in range(rng.randint(low, high)))


def synthesize_from_edges(
    edges: list[tuple[str, str, int]],
    names: list[str],
    patterns: PatternSpec = ("and",),
    noise_ratio: float = 0.0,
    domains: int = 12,
    seed: int = 0,
) -> SyntheticCorpus:
    """Write each (a, b, weight) edge as `weight` supporting snippets.

    Every snippet embeds "a <pattern> b" between filler, on a domain drawn
    from a pool of `domains`; a phrase->weight mapping skews which pattern
    each snippet uses. noise_ratio adds that many name-free snippets per
    planted one. Record order is shuffled deterministically by `seed`.
    """
    if not 0 <= noise_ratio < math.inf:
        raise ValueError("noise_ratio must be >= 0 and finite")
    if not 1 <= domains <= len(DOMAIN_POOL):
        raise ValueError(f"domains must be between 1 and {len(DOMAIN_POOL)}")
    rng = random.Random(seed)
    choose_pattern = _pattern_chooser(patterns, rng)
    pool = DOMAIN_POOL[:domains]
    records: list[CorpusRecord] = []

    def emit(text: str) -> None:
        domain = rng.choice(pool)
        records.append(
            CorpusRecord(f"https://{domain}/item/{len(records):05d}", domain, text)
        )

    for a, b, weight in edges:
        for _ in range(weight):
            phrase = choose_pattern()
            left, right = (a, b) if rng.random() < 0.5 else (b, a)
            mid = phrase if phrase == " " else f" {phrase} "
            emit(f"{_filler(rng)} {left}{mid}{right} {_filler(rng)}")
    for _ in range(round(noise_ratio * len(records))):
        emit(_filler(rng, 6, 12))
    rng.shuffle(records)
    return SyntheticCorpus(records, names, [(a, b, w) for a, b, w in edges])


def synthesize(
    n_nodes: int = 30,
    attach: int = 2,
    weight_low: int = 2,
    weight_high: int = 4,
    patterns: PatternSpec = ("and",),
    noise_ratio: float = 0.0,
    domains: int = 12,
    seed: int = 0,
    exponent: float = 1.0,
) -> SyntheticCorpus:
    """Preferential-attachment corpus over generated names."""
    if weight_low < 1 or weight_high < weight_low:
        raise ValueError("need 1 <= weight_low <= weight_high")
    rng = random.Random(seed)
    names = make_names(n_nodes)
    edges = [
        (names[i], names[j], rng.randint(weight_low, weight_high))
        for i, j in pa_edge_list(n_nodes, attach, rng, exponent)
    ]
    return synthesize_from_edges(
        edges,
        names,
        patterns=patterns,
        noise_ratio=noise_ratio,
        domains=domains,
        seed=rng.randrange(1 << 30),
    )


def write_names_file(names: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in names:
            fh.write(name + "\n")
