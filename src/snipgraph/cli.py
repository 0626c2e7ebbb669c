"""Command-line front end.

Subcommands: extract (graph construction), mine-patterns (extraction with
pattern bootstrapping), baseline (pairwise co-occurrence), analyze
(distributions and top relations of a saved graph), make-corpus (synthetic
replay corpora with ground truth).

Settings resolve as flags over config file over defaults; the config file is
flat key=value text. Exit status: 0 on success (budget exhaustion included),
1 on configuration errors, 2 on aborted runs, whose partial outputs are
still written.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import Callable, TypeVar

from .analysis import (
    baseline_pairwise,
    summarize,
    top_relations,
    write_histogram_csv,
    write_relations_csv,
)
from .catalog import EntityCatalog, load_catalog_file
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
    Pattern,
    _unescape_pattern,
    load_patterns_file,
    save_patterns_file,
)
from .graph import SocialGraph, read_edge_list_file, write_edge_list
from .search import (
    LiveBackend,
    QueryLogEntry,
    ReplayBackend,
    SearchGateway,
    SnippetCache,
    TransportError,
    load_corpus_file,
    save_corpus_file,
    write_query_log,
)

API_KEY_ENV = "SEARCH_API_KEY"

# config file keys. A flag is its key in kebab case, except that the four
# file keys drop "_file": --seeds, --catalog, --patterns, --match-patterns.
KNOWN_KEYS = frozenset(
    {
        "seeds_file",
        "patterns_file",
        "match_patterns_file",
        "catalog_file",
        "tau",
        "sigma",
        "alpha",
        "h",
        "k",
        "max_requests",
        "max_iterations",
        "mode",
        "backend",
        "corpus",
        "cache_dir",
        "output_prefix",
        "threshold",
        "max_entities",
    }
)


class ConfigError(Exception):
    """Bad flags, config file, or input files; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and `#` comments are skipped."""
    data: dict[str, str] = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            raw = line.strip()
            if not raw or raw.startswith("#"):
                continue
            key, sep, value = raw.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            data[key] = value.strip()
    return data


T = TypeVar("T")


class Settings:
    """Resolves one option: flag value, else config value, else default."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]) -> None:
        self.args = vars(args)
        self.config = config

    def get(
        self,
        key: str,
        cast: Callable[[str], T],
        default: T | None = None,
        flag: str | None = None,
    ) -> T | None:
        value = self.args.get(flag or key)
        if value is not None:
            return value
        raw = self.config.get(key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"config {key}: bad value {raw!r}") from exc


def _read_lines(path: str, what: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    return [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def _require(value: T | None, name: str) -> T:
    if value is None:
        raise ConfigError(f"{name} is required")
    return value


def _ensure_parent(prefix: str) -> None:
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _load_catalog(settings: Settings) -> EntityCatalog:
    path = _require(settings.get("catalog_file", str, flag="catalog"), "--catalog")
    try:
        catalog = load_catalog_file(path)
    except OSError as exc:
        raise ConfigError(f"cannot read catalog: {exc}") from exc
    if not len(catalog):
        raise ConfigError(f"catalog is empty: {path}")
    return catalog


def _load_seeds(settings: Settings) -> tuple[str, ...]:
    path = _require(settings.get("seeds_file", str, flag="seeds"), "--seeds")
    seeds = tuple(_read_lines(path, "seeds file"))
    if not seeds:
        raise ConfigError(f"seeds file is empty: {path}")
    return seeds


def _load_phrases(
    settings: Settings, key: str, flag: str, default: tuple[str, ...]
) -> tuple[str, ...]:
    path = settings.get(key, str, flag=flag)
    if path is None:
        return default
    try:
        patterns = load_patterns_file(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {flag} file: {exc}") from exc
    if not patterns:
        raise ConfigError(f"pattern file is empty: {path}")
    return tuple(p.phrase for p in patterns)


def _build_gateway(settings: Settings, live_ok: bool) -> SearchGateway:
    backend_name = settings.get("backend", str, default="replay")
    cache_dir = settings.get("cache_dir", str)
    cache = SnippetCache(cache_dir) if cache_dir else None
    if backend_name == "replay":
        corpus = _require(settings.get("corpus", str), "--corpus")
        try:
            backend = ReplayBackend(load_corpus_file(corpus))
        except OSError as exc:
            raise ConfigError(f"cannot read corpus: {exc}") from exc
        return SearchGateway(backend, cache=cache)
    if backend_name == "live":
        if not live_ok:
            raise ConfigError("live backend requires the --live flag")
        api_key = os.environ.get(API_KEY_ENV, "")
        if not api_key:
            raise ConfigError(f"{API_KEY_ENV} is not set")
        return SearchGateway(LiveBackend(api_key, min_delay=0.5), cache=cache)
    raise ConfigError(f"backend must be replay or live, not {backend_name!r}")


def _given(settings: Settings, **casts: Callable[[str], object]) -> dict[str, object]:
    """The settings among `casts` that a flag or the config file sets; the
    others are left out, so each default lives where the value is used."""
    values = {key: settings.get(key, cast) for key, cast in casts.items()}
    return {key: value for key, value in values.items() if value is not None}


def _build_run_config(settings: Settings, default_mode: str) -> RunConfig:
    run_config = RunConfig(
        seeds=_load_seeds(settings),
        query_patterns=_load_phrases(
            settings, "patterns_file", "patterns", DEFAULT_QUERY_PATTERNS
        ),
        match_patterns=_load_phrases(
            settings, "match_patterns_file", "match_patterns", DEFAULT_MATCH_PATTERNS
        ),
        mode=settings.get("mode", str, default=default_mode),
        **_given(
            settings, tau=int, sigma=int, alpha=float, h=int, k=int,
            max_requests=int, max_iterations=int,
        ),
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
    patterns: list[Pattern] | None,
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
    print(f"wrote {prefix}.queries.tsv ({len(query_log)} queries)")
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
    config = load_config_file(args.config) if args.config else {}
    settings = Settings(args, config)
    default_mode = MODE_PATTERN_ITER if args.command == "mine-patterns" else MODE_BF
    run_config = _build_run_config(settings, default_mode)
    if args.command == "mine-patterns" and run_config.mode != MODE_PATTERN_ITER:
        raise ConfigError("mine-patterns requires mode pattern-iter")
    prefix = _require(settings.get("output_prefix", str), "--output-prefix")
    catalog = _load_catalog(settings)
    gateway = _build_gateway(settings, live_ok=args.live)
    if run_config.mode == MODE_PATTERN_ITER:
        graph, report, patterns = expand_with_pattern_mining(
            run_config, gateway, catalog
        )
        final_patterns: list[Pattern] | None = patterns
    else:
        graph, report = expand_static(run_config, gateway, catalog)
        final_patterns = None
    return _finish_run(
        prefix, graph, report, run_config.mode, final_patterns, gateway.ledger.log
    )


def cmd_baseline(args: argparse.Namespace) -> int:
    config = load_config_file(args.config) if args.config else {}
    settings = Settings(args, config)
    prefix = _require(settings.get("output_prefix", str), "--output-prefix")
    catalog = _load_catalog(settings)
    seeds = _load_seeds(settings)
    gateway = _build_gateway(settings, live_ok=args.live)
    limits = _given(settings, threshold=float, max_requests=int, k=int, max_entities=int)
    if "threshold" in limits:
        limits["t"] = limits.pop("threshold")
    graph, report = baseline_pairwise(seeds, gateway, catalog, **limits)
    return _finish_run(prefix, graph, report, "baseline", None, gateway.ledger.log)


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        graph = read_edge_list_file(args.graph)
    except OSError as exc:
        raise ConfigError(f"cannot read graph: {exc}") from exc
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
        phrase = _unescape_pattern(phrase)
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
        truth = read_edge_list_file(args.edges_file)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TransportError as exc:
        print(f"error: search transport failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
