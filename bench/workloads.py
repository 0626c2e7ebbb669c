"""The benchmark's workloads: how each one's inputs are generated from a
seed, and how a child process sets it up and runs it.

The program sees only files: a replay corpus (TSV), a catalog and a seeds
file, all written by make_inputs. Sizes are chosen so that one child takes
one to three seconds on a 2-core machine, which lets a run of the
benchmark's length collect several children to take medians over.
"""

from __future__ import annotations

import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

CORPUS = "corpus.tsv"
CATALOG = "catalog.txt"
SEEDS = "seeds.txt"
TRUTH = "truth.edges"

# Output files of a timed run, in digest order.
EDGES = "run.edges"
TRACE = "run.trace.csv"
PATTERNS = "run.patterns.txt"
# Spans of a traced sample.
SPANS = "spans.jsonl"


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    engine: str  # "static", "mining" or "baseline"
    nodes: int
    patterns: dict[str, float] = field(default_factory=lambda: {"and": 1.0})
    # catalog of make_names(catalog_size) instead of the corpus's own names
    catalog_size: int | None = None
    mode: str = "prio"
    alpha: float = 0.0
    # a cold run fills a SnippetCache during set-up; the timed run reruns
    # the same configuration against the warm cache
    cached_rerun: bool = False
    # the seed code recovers exactly the planted graph on this workload
    exact_truth: bool = True


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "expand-prio",
            engine="static",
            nodes=100,
            mode="prio",
            alpha=0.01,
        ),
        Workload(
            "mine-3pat",
            engine="mining",
            nodes=60,
            patterns={"and": 3, "performs beside": 2, "dines with": 1},
            mode="pattern-iter",
        ),
        Workload(
            "rerun-cached",
            engine="static",
            nodes=30,
            catalog_size=900,
            mode="bf",
            cached_rerun=True,
        ),
        Workload(
            "baseline-pairwise",
            engine="baseline",
            nodes=60,
            exact_truth=False,
        ),
    )
}


def use_checkout_source() -> None:
    """Import snipgraph from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SOURCE, "snipgraph", "__init__.py")):
        raise SystemExit(f"bench: no snipgraph sources under {SOURCE}")
    sys.path.insert(0, SOURCE)
    import snipgraph

    if os.path.dirname(os.path.dirname(os.path.abspath(snipgraph.__file__))) != SOURCE:
        raise SystemExit(f"bench: snipgraph imported from {snipgraph.__file__}, not {SOURCE}")


def make_inputs(
    workload: Workload,
    seed: int,
    directory: str,
    nodes: int | None = None,
) -> None:
    """Write the workload's input files for `seed` into `directory`."""
    from snipgraph.corpus import make_names, synthesize, write_names_file
    from snipgraph.graph import write_edge_list
    from snipgraph.search import save_corpus_file

    corpus = synthesize(
        n_nodes=nodes or workload.nodes,
        attach=3,
        patterns=workload.patterns,
        noise_ratio=1.0,
        seed=seed,
    )
    os.makedirs(directory, exist_ok=True)
    save_corpus_file(corpus.records, os.path.join(directory, CORPUS))
    names = make_names(workload.catalog_size) if workload.catalog_size else corpus.names
    write_names_file(names, os.path.join(directory, CATALOG))
    write_names_file(corpus.names[:1], os.path.join(directory, SEEDS))
    with open(os.path.join(directory, TRUTH), "w", encoding="utf-8") as fh:
        write_edge_list(corpus.truth_graph(), fh)


def setup(workload: Workload, inputs: str, scratch: str, tracer=None):
    """Load the inputs the way the program's CLI does; returns the timed
    run as a callable and the requests that set-up itself charged."""
    from snipgraph.analysis import baseline_pairwise
    from snipgraph.catalog import load_catalog_file
    from snipgraph.engine import RunConfig, expand_static, expand_with_pattern_mining
    from snipgraph.search import ReplayBackend, SearchGateway, SnippetCache, load_corpus_file

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    with span("setup.load_corpus"):
        records = load_corpus_file(os.path.join(inputs, CORPUS))
    with span("setup.load_catalog"):
        catalog = load_catalog_file(os.path.join(inputs, CATALOG))
    with span("setup.replay_backend"):
        backend = ReplayBackend(records)
    with open(os.path.join(inputs, SEEDS), encoding="utf-8") as fh:
        seeds = tuple(line.strip() for line in fh if line.strip())
    config = RunConfig(seeds=seeds, mode=workload.mode, alpha=workload.alpha)

    cache = None
    setup_requests = 0
    if workload.cached_rerun:
        with span("setup.cache_fill"):
            cache = SnippetCache(os.path.join(scratch, "cache"))
            _graph, cold = expand_static(
                config, SearchGateway(backend, cache=cache), catalog
            )
        setup_requests = cold.requests_used

    def run():
        gateway = SearchGateway(backend, cache=cache)
        if workload.engine == "mining":
            return expand_with_pattern_mining(config, gateway, catalog)
        if workload.engine == "baseline":
            graph, report = baseline_pairwise(seeds, gateway, catalog, t=0.1)
        else:
            graph, report = expand_static(config, gateway, catalog)
        return graph, report, None

    return run, setup_requests


def write_outputs(directory: str, graph, report, patterns) -> None:
    """Write the run's outputs in the CLI's formats."""
    from snipgraph.engine import write_trace_csv
    from snipgraph.extract import save_patterns_file
    from snipgraph.graph import write_edge_list

    with open(os.path.join(directory, EDGES), "w", encoding="utf-8") as fh:
        write_edge_list(graph, fh)
    with open(os.path.join(directory, TRACE), "w", encoding="utf-8", newline="") as fh:
        write_trace_csv(report, fh)
    if patterns is not None:
        save_patterns_file(patterns, os.path.join(directory, PATTERNS))
