"""Command-line front end.

Subcommands: extract (graph construction), mine-patterns (extraction with
pattern bootstrapping), baseline (pairwise co-occurrence), analyze
(distributions and top relations of a saved graph), make-corpus (synthetic
replay corpora with ground truth).

Each run option resolves as flag over config file over default; the config
file is flat key=value text. Exit status: 0 on success (budget exhaustion
included), 1 on configuration errors, 2 on aborted runs, whose partial
outputs are still written.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import IO, Callable, TypeVar

from .analysis import (
    baseline_pairwise,
    summarize,
    top_relations,
    write_histogram_csv,
    write_relations_csv,
)
from .catalog import EntityCatalog, load_catalog
from .corpus import synthesize, synthesize_from_edges, write_names_file
from .engine import (
    MODE_BF,
    MODE_PATTERN_ITER,
    MODES,
    RunConfig,
    RunReport,
    expand_static,
    expand_with_pattern_mining,
    write_trace_csv,
)
from .extract import (
    DEFAULT_MATCH_PATTERNS,
    DEFAULT_QUERY_PATTERNS,
    load_patterns,
    save_patterns_file,
    unescape_pattern,
)
from .graph import SocialGraph, read_edge_list, read_text_input, write_edge_list
from .search import (
    LiveBackend,
    QueryLogEntry,
    ReplayBackend,
    SearchGateway,
    SnippetCache,
    load_corpus,
    save_corpus_file,
    write_query_log,
)

API_KEY_ENV = "SEARCH_API_KEY"

# config file key -> type of its value. A flag is its key in kebab case,
# except that the four file keys drop "_file": --seeds, --catalog, --patterns,
# --match-patterns. A new run option is its flag plus one entry here.
CONFIG_KEYS: dict[str, type] = {
    "seeds_file": str,
    "patterns_file": str,
    "match_patterns_file": str,
    "catalog_file": str,
    "tau": int,
    "sigma": int,
    "alpha": float,
    "h": int,
    "k": int,
    "max_requests": int,
    "max_iterations": int,
    "mode": str,
    "backend": str,
    "corpus": str,
    "cache_dir": str,
    "output_prefix": str,
    "threshold": float,
    "max_entities": int,
}


class ConfigError(Exception):
    """Bad flags, config file, or input files; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


T = TypeVar("T")


def _read(path: str, what: str, parse: Callable[[IO[str]], T]) -> T:
    """`parse` of the input file at `path`; a file that cannot be opened or
    decoded is a ConfigError naming `what` and the file (as OSError does)."""
    try:
        return read_text_input(path, parse)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {what}: {path}: {exc}") from exc


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and `#` comments are skipped."""

    def parse(fh: IO[str]) -> dict[str, str]:
        data: dict[str, str] = {}
        for lineno, line in enumerate(fh, start=1):
            raw = line.strip()
            if not raw or raw.startswith("#"):
                continue
            key, sep, value = raw.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            data[key] = value.strip()
        return data

    return _read(path, "config file", parse)


def _apply_config(args: argparse.Namespace) -> None:
    """Give each option of the command that no flag set (dest: the key without
    "_file") its config value; keys of options it lacks are never read."""
    config = load_config_file(args.config) if args.config else {}
    for key, cast in CONFIG_KEYS.items():
        dest = key.removesuffix("_file")
        if key in config and getattr(args, dest, False) is None:
            try:
                setattr(args, dest, cast(config[key]))
            except ValueError as exc:
                raise ConfigError(f"config {key}: bad value {config[key]!r}") from exc


def _read_lines(path: str, what: str) -> list[str]:
    """The stripped lines of `path` that are neither blank nor `#` comments."""
    lines = _read(path, what, lambda fh: [ln.strip() for ln in fh])
    return [ln for ln in lines if ln and not ln.startswith("#")]


def _require(value: T | None, name: str) -> T:
    if value is None:
        raise ConfigError(f"{name} is required")
    return value


def _ensure_parent(prefix: str) -> None:
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _load_catalog(args: argparse.Namespace) -> EntityCatalog:
    path = _require(args.catalog, "--catalog")
    catalog = _read(path, "catalog", load_catalog)
    if not len(catalog):
        raise ConfigError(f"catalog is empty: {path}")
    return catalog


def _load_seeds(args: argparse.Namespace) -> tuple[str, ...]:
    path = _require(args.seeds, "--seeds")
    seeds = tuple(_read_lines(path, "seeds file"))
    if not seeds:
        raise ConfigError(f"seeds file is empty: {path}")
    return seeds


def _load_phrases(
    path: str | None, flag: str, default: tuple[str, ...]
) -> tuple[str, ...]:
    if path is None:
        return default
    patterns = _read(path, f"{flag} file", load_patterns)
    if not patterns:
        raise ConfigError(f"pattern file is empty: {path}")
    return tuple(patterns)


def _build_gateway(args: argparse.Namespace) -> SearchGateway:
    backend_name = "replay" if args.backend is None else args.backend
    cache = SnippetCache(args.cache_dir) if args.cache_dir else None
    if backend_name == "replay":
        corpus = _require(args.corpus, "--corpus")
        return SearchGateway(ReplayBackend(_read(corpus, "corpus", load_corpus)), cache=cache)
    if backend_name == "live":
        if not args.live:
            raise ConfigError("live backend requires the --live flag")
        api_key = os.environ.get(API_KEY_ENV, "")
        if not api_key:
            raise ConfigError(f"{API_KEY_ENV} is not set")
        return SearchGateway(LiveBackend(api_key, min_delay=0.5), cache=cache)
    raise ConfigError(f"backend must be replay or live, not {backend_name!r}")


def _given(args: argparse.Namespace, *dests: str) -> dict[str, object]:
    """The options among `dests` that a flag or the config file set; the
    others are left out, so each default lives where the value is used."""
    return {dest: getattr(args, dest) for dest in dests if getattr(args, dest) is not None}


def _build_run_config(args: argparse.Namespace, default_mode: str) -> RunConfig:
    run_config = RunConfig(
        seeds=_load_seeds(args),
        query_patterns=_load_phrases(args.patterns, "--patterns", DEFAULT_QUERY_PATTERNS),
        match_patterns=_load_phrases(
            args.match_patterns, "--match-patterns", DEFAULT_MATCH_PATTERNS
        ),
        mode=default_mode if args.mode is None else args.mode,
        **_given(args, "tau", "sigma", "alpha", "h", "k", "max_requests", "max_iterations"),
    )
    run_config.validate()
    return run_config


def _summary_text(report: RunReport, mode: str) -> str:
    status = "complete" if report.complete else "aborted"
    lines = [
        f"status: {status}",
        f"stopped: {report.stopped_reason}",
        f"mode: {mode}",
        f"seeds: {len(report.seeds)}",
        f"nodes: {report.nodes_found}",
        f"edges: {report.edges_found}",
        f"requests: {report.requests_used}",
        f"queries: {report.queries_issued}",
        f"patterns: {report.patterns_active}",
    ]
    if report.iterations:
        admitted = sum(len(it.admitted) for it in report.iterations)
        lines.append(f"iterations: {len(report.iterations)}")
        lines.append(f"pair queries: {report.pair_queries_issued}")
        lines.append(f"patterns admitted: {admitted}")
    return "\n".join(lines) + "\n"


def _finish_run(
    prefix: str,
    graph: SocialGraph,
    report: RunReport,
    mode: str,
    patterns: list[str] | None,
    query_log: list[QueryLogEntry],
) -> int:
    _ensure_parent(prefix)
    with open(prefix + ".edges", "w", encoding="utf-8") as fh:
        write_edge_list(graph, fh)
    with open(prefix + ".trace.csv", "w", encoding="utf-8", newline="") as fh:
        write_trace_csv(report, fh)
    with open(prefix + ".summary.txt", "w", encoding="utf-8") as fh:
        fh.write(_summary_text(report, mode))
    with open(prefix + ".queries.tsv", "w", encoding="utf-8", newline="") as fh:
        write_query_log(query_log, fh)
    print(f"wrote {prefix}.edges ({report.edges_found} edges, {report.nodes_found} nodes)")
    print(f"wrote {prefix}.trace.csv ({len(report.steps)} steps)")
    print(f"wrote {prefix}.summary.txt (stopped: {report.stopped_reason})")
    cached = sum(e.cached for e in query_log)
    print(f"wrote {prefix}.queries.tsv ({len(query_log)} rows, {cached} cached)")
    if patterns is not None:
        save_patterns_file(patterns, prefix + ".patterns.txt")
        print(f"wrote {prefix}.patterns.txt ({len(patterns)} patterns)")
    if not report.complete:
        print(
            f"run aborted ({report.stopped_reason}); partial outputs retained",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    _apply_config(args)
    default_mode = MODE_PATTERN_ITER if args.command == "mine-patterns" else MODE_BF
    run_config = _build_run_config(args, default_mode)
    if args.command == "mine-patterns" and run_config.mode != MODE_PATTERN_ITER:
        raise ConfigError("mine-patterns requires mode pattern-iter")
    prefix = _require(args.output_prefix, "--output-prefix")
    catalog = _load_catalog(args)
    gateway = _build_gateway(args)
    patterns: list[str] | None = None
    if run_config.mode == MODE_PATTERN_ITER:
        graph, report, patterns = expand_with_pattern_mining(run_config, gateway, catalog)
    else:
        graph, report = expand_static(run_config, gateway, catalog)
    return _finish_run(prefix, graph, report, run_config.mode, patterns, gateway.ledger.log)


def cmd_baseline(args: argparse.Namespace) -> int:
    _apply_config(args)
    prefix = _require(args.output_prefix, "--output-prefix")
    catalog = _load_catalog(args)
    seeds = _load_seeds(args)
    gateway = _build_gateway(args)
    limits = _given(args, "threshold", "max_requests", "k", "max_entities")
    if "threshold" in limits:
        limits["t"] = limits.pop("threshold")
    graph, report = baseline_pairwise(seeds, gateway, catalog, **limits)
    return _finish_run(prefix, graph, report, "baseline", None, gateway.ledger.log)


def cmd_analyze(args: argparse.Namespace) -> int:
    graph = _read(args.graph, "graph", read_edge_list)
    prefix = args.output_prefix or os.path.splitext(args.graph)[0]
    _ensure_parent(prefix)
    if args.report == "dist":
        degree, weight = summarize(graph)
        with open(prefix + ".degree_hist.csv", "w", encoding="utf-8", newline="") as fh:
            write_histogram_csv(degree, fh, "degree")
        with open(prefix + ".weight_hist.csv", "w", encoding="utf-8", newline="") as fh:
            write_histogram_csv(weight, fh, "weight")
        for label, summary in (("degree", degree), ("weight", weight)):
            if summary.empty:
                print(f"{label}: empty")
            else:
                print(
                    f"{label}: n={summary.population} mean={summary.mean:.4f} "
                    f"sd={summary.standard_deviation:.4f} median={summary.median:g}"
                )
        print(f"wrote {prefix}.degree_hist.csv and {prefix}.weight_hist.csv")
    else:
        relations = top_relations(graph, args.top)
        with open(prefix + ".relations.csv", "w", encoding="utf-8", newline="") as fh:
            write_relations_csv(relations, fh)
        for a, b, w in relations:
            print(f"{a} -- {b} ({w})")
        print(f"wrote {prefix}.relations.csv")
    return 0


_WEIGHTED_PATTERN = re.compile(r"^(.*)=(\d+(?:\.\d+)?)$")


def _parse_pattern_args(values: list[str]) -> dict[str, float]:
    """Each value is `phrase` or `phrase=weight`; `\\s` escapes a space."""
    weighted: dict[str, float] = {}
    for value in values:
        match = _WEIGHTED_PATTERN.match(value)
        if match:
            phrase, weight = match.group(1), float(match.group(2))
        else:
            phrase, weight = value, 1.0
        phrase = unescape_pattern(phrase)
        if not phrase:
            raise ConfigError(f"empty pattern in {value!r}")
        if not 0 < weight < math.inf:
            raise ConfigError(f"pattern weight must be > 0 and finite in {value!r}")
        weighted[phrase] = weighted.get(phrase, 0.0) + weight
    return weighted


def cmd_make_corpus(args: argparse.Namespace) -> int:
    prefix = _require(args.output_prefix, "--output-prefix")
    patterns = _parse_pattern_args(args.pattern or ["and"])
    common = dict(
        patterns=patterns,
        noise_ratio=args.noise_ratio,
        domains=args.domains,
        seed=args.rng_seed,
    )
    if args.edges_file:
        truth = _read(args.edges_file, "edges file", read_edge_list)
        corpus = synthesize_from_edges(
            sorted(truth.edges()), sorted(truth.nodes()), **common
        )
    else:
        corpus = synthesize(
            n_nodes=args.nodes,
            attach=args.attach,
            exponent=args.exponent,
            weight_low=args.weight_low,
            weight_high=args.weight_high,
            **common,
        )
    _ensure_parent(prefix)
    save_corpus_file(corpus.records, prefix + ".corpus.tsv")
    write_names_file(corpus.names, prefix + ".names.txt")
    with open(prefix + ".truth.edges", "w", encoding="utf-8") as fh:
        write_edge_list(corpus.truth_graph(), fh)
    print(f"wrote {prefix}.corpus.tsv ({len(corpus.records)} snippets)")
    print(f"wrote {prefix}.names.txt ({len(corpus.names)} names)")
    print(f"wrote {prefix}.truth.edges ({len(corpus.truth_edges)} edges)")
    return 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    parser.add_argument("--seeds", metavar="FILE", help="seed entities, one per line")
    parser.add_argument("--catalog", metavar="FILE", help="known entity names, one per line")
    parser.add_argument("--backend", choices=["replay", "live"])
    parser.add_argument("--corpus", metavar="FILE", help="replay snippet corpus (TSV)")
    parser.add_argument("--cache-dir", dest="cache_dir", metavar="DIR")
    parser.add_argument("--output-prefix", dest="output_prefix", metavar="PREFIX")
    parser.add_argument("--k", type=int, help="results requested per query")
    parser.add_argument("--max-requests", dest="max_requests", type=int)
    parser.add_argument(
        "--live", action="store_true", help="allow spending live API quota"
    )


def _add_extract_flags(parser: argparse.ArgumentParser) -> None:
    _add_run_flags(parser)
    parser.add_argument("--mode", choices=list(MODES))
    parser.add_argument("--patterns", metavar="FILE", help="query patterns, one per line")
    parser.add_argument(
        "--match-patterns", dest="match_patterns", metavar="FILE",
        help="snippet-matching patterns, one per line",
    )
    parser.add_argument("--tau", type=int, help="min evidence for a new edge")
    parser.add_argument("--sigma", type=int, help="pattern admission threshold")
    parser.add_argument("--alpha", type=float, help="priority decay rate")
    parser.add_argument("--h", type=int, help="edges pair-queried per mining pass")
    parser.add_argument("--max-iterations", dest="max_iterations", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="snipgraph",
        description="Extract weighted social graphs from search-result snippets.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser(
        "extract", help="grow a graph from seeds", allow_abbrev=False
    )
    _add_extract_flags(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_mine = sub.add_parser(
        "mine-patterns",
        help="grow a graph while bootstrapping new patterns",
        allow_abbrev=False,
    )
    _add_extract_flags(p_mine)
    p_mine.set_defaults(func=cmd_extract)

    p_base = sub.add_parser(
        "baseline", help="pairwise co-occurrence baseline", allow_abbrev=False
    )
    _add_run_flags(p_base)
    p_base.add_argument("--threshold", type=float, help="overlap threshold in (0, 1)")
    p_base.add_argument("--max-entities", dest="max_entities", type=int)
    p_base.set_defaults(func=cmd_baseline)

    p_analyze = sub.add_parser(
        "analyze", help="distributions and top relations of a saved graph",
        allow_abbrev=False,
    )
    p_analyze.add_argument("--graph", required=True, metavar="FILE")
    p_analyze.add_argument("--report", choices=["dist", "top"], default="dist")
    p_analyze.add_argument("--top", type=int, default=15)
    p_analyze.add_argument("--output-prefix", dest="output_prefix", metavar="PREFIX")
    p_analyze.set_defaults(func=cmd_analyze)

    p_corpus = sub.add_parser(
        "make-corpus", help="generate a synthetic replay corpus", allow_abbrev=False
    )
    p_corpus.add_argument("--output-prefix", dest="output_prefix", metavar="PREFIX")
    p_corpus.add_argument("--nodes", type=int, default=30)
    p_corpus.add_argument("--attach", type=int, default=2)
    p_corpus.add_argument(
        "--exponent", type=float, default=1.0, help="preferential-attachment exponent"
    )
    p_corpus.add_argument(
        "--edges-file", dest="edges_file", metavar="FILE",
        help="plant this explicit edge list instead of generating one",
    )
    p_corpus.add_argument(
        "--pattern", action="append", metavar="PHRASE[=WEIGHT]",
        help="pattern to embed; repeatable",
    )
    p_corpus.add_argument("--noise-ratio", dest="noise_ratio", type=float, default=0.0)
    p_corpus.add_argument("--domains", type=int, default=12)
    p_corpus.add_argument("--weight-low", dest="weight_low", type=int, default=2)
    p_corpus.add_argument("--weight-high", dest="weight_high", type=int, default=4)
    p_corpus.add_argument("--rng-seed", dest="rng_seed", type=int, default=0)
    p_corpus.set_defaults(func=cmd_make_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
