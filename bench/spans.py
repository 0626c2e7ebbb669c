"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

A traced benchmark child wraps the public functions of each snipgraph layer
(see LAYER_TARGETS) so that every call records a span: name, start, end,
parent span and run id, plus a few counts taken from the call's arguments
and result. Spans are kept in memory and written as JSON lines when the
child ends. Untraced children never call install(), so the program runs
unwrapped.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# Marks wrappers so a check can tell a wrapped attribute from an original.
WRAPPED_MARK = "__bench_span__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._clock = clock
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), 0.0, parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, attrs: dict[str, Any] | None = None) -> None:
        self._stack.pop()
        span = self.spans[index]
        span.end = self._clock()
        if attrs:
            span.attrs.update(attrs)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn: Callable, name: str, describe: Callable | None) -> Callable:
        """`fn` recording one span per call; `describe(args, kwargs, result)`
        returns the counts stored on the span."""

        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, {"raised": True})
                raise
            self.end(index, describe(args, kwargs, result) if describe else None)
            return result

        wrapper.__wrapped__ = fn
        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps([s.name, s.start, s.end, s.parent, s.run_id, s.attrs])
                    + "\n"
                )


def load_spans(path: str) -> list[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(*json.loads(line)) for line in fh if line.strip()]


# --- wrapping the program's layers --------------------------------------

def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _size(value: Any) -> int | None:
    return len(value) if hasattr(value, "__len__") else None


# (span name, module, attribute path, describe). Methods are patched on
# their class; functions are patched in every snipgraph module that binds
# them, since callers import them by name.
LAYER_TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    (
        "search.replay.fetch", "snipgraph.search", "ReplayBackend.fetch",
        lambda a, k, r: {"records_out": len(r)},
    ),
    (
        "search.gateway.search", "snipgraph.search", "SearchGateway.search",
        lambda a, k, r: {
            "kind": _arg(a, k, 1, "query").kind,
            "query": _arg(a, k, 1, "query").raw,
            "snippets_out": len(r[0]),
        },
    ),
    (
        "search.cache.get", "snipgraph.search", "SnippetCache.get",
        lambda a, k, r: {"hit": r is not None},
    ),
    ("search.cache.put", "snipgraph.search", "SnippetCache.put", None),
    (
        "catalog.find_entity_matches", "snipgraph.catalog", "find_entity_matches",
        # the text's hash stands in for the text when counting distinct ones
        lambda a, k, r: {"text": hash(_arg(a, k, 0, "text")), "matches": len(r)},
    ),
    (
        "extract.extract_edges", "snipgraph.extract", "extract_edges",
        lambda a, k, r: {
            "snippets_in": _size(_arg(a, k, 0, "snippets")),
            "pairs_out": len(r),
        },
    ),
    (
        "extract.extract_pattern_candidates", "snipgraph.extract",
        "extract_pattern_candidates",
        lambda a, k, r: {"candidates_out": len(r)},
    ),
    (
        "graph.merge_evidence", "snipgraph.graph", "SocialGraph.merge_evidence",
        lambda a, k, r: {
            "pairs_in": len(_arg(a, k, 1, "evidence")),
            "edges_new": len(r[1]),
        },
    ),
    ("graph.top_edges", "snipgraph.graph", "SocialGraph.top_edges", None),
    (
        "frontier.pop_next", "snipgraph.frontier", "Frontier.pop_next",
        # length before the pop: what is left plus what was taken
        lambda a, k, r: {"len": len(a[0]) + (r is not None)},
    ),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every LAYER_TARGETS entry; returns a function that undoes it."""
    undo: list[tuple[object, str, object]] = []
    for name, module_name, path, describe in LAYER_TARGETS:
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, describe))
            continue
        original = getattr(module, path)
        wrapper = tracer.wrap(original, name, describe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "snipgraph":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def wrapped_attributes() -> list[str]:
    """Dotted names of snipgraph attributes currently replaced by a wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "snipgraph":
            continue
        for attr, value in vars(mod).items():
            targets = [value]
            if isinstance(value, type):
                targets = list(vars(value).values())
            if any(hasattr(t, WRAPPED_MARK) for t in targets):
                found.append(f"{mod_name}.{attr}")
    return found


# --- metrics --------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The tracer's spans nest strictly, so children never overlap each other
    or run past their parent."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def repeat_ratio(queries: list[str]) -> float:
    """Share of calls whose query was already issued earlier in the list."""
    if not queries:
        return 0.0
    return (len(queries) - len(set(queries))) / len(queries)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced child.

    Layer figures cover the timed run (run id "run"); names starting with
    `setup.` cover the set-up phase. `s` is inclusive time, `self_s` time
    minus child spans.
    """
    selfs = self_times(spans)
    run: dict[str, list[int]] = {}
    setup: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        (run if s.run_id == "run" else setup).setdefault(s.name, []).append(i)

    def calls(name: str, phase=run) -> int:
        return len(phase.get(name, ()))

    def secs(name: str, phase=run) -> float:
        return sum(spans[i].duration for i in phase.get(name, ()))

    def self_s(name: str) -> float:
        return sum(selfs[i] for i in run.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return sum(spans[i].attrs.get(key) or 0 for i in run.get(name, ()))

    m: dict[str, float] = {}
    for name, counts in (
        ("search.replay.fetch", ("records_out",)),
        ("search.gateway.search", ("snippets_out",)),
        ("catalog.find_entity_matches", ("matches",)),
        ("extract.extract_edges", ("snippets_in", "pairs_out")),
        ("extract.extract_pattern_candidates", ("candidates_out",)),
        ("graph.merge_evidence", ("pairs_in", "edges_new")),
        ("graph.top_edges", ()),
        ("frontier.pop_next", ()),
        ("search.cache.get", ()),
        ("search.cache.put", ()),
    ):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
        for key in counts:
            m[f"{name}.{key}"] = attr_sum(name, key)
    for name in (
        "search.gateway.search",
        "extract.extract_edges",
        "extract.extract_pattern_candidates",
        "engine.run",
    ):
        m[f"{name}.self_s"] = self_s(name)
    m["engine.run.s"] = secs("engine.run")
    m["output.write.s"] = secs("output.write")

    gateway = [spans[i] for i in run.get("search.gateway.search", ())]
    gateway_ids = set(run.get("search.gateway.search", ()))
    m["search.gateway.search.pages"] = sum(
        1 for i in run.get("search.replay.fetch", ()) if spans[i].parent in gateway_ids
    )
    for kind in ("connectivity", "pair", "entity"):
        of_kind = [s for s in gateway if s.attrs.get("kind") == kind]
        m[f"search.gateway.search.{kind}.calls"] = len(of_kind)
        m[f"search.gateway.search.{kind}.s"] = sum(s.duration for s in of_kind)
    # spans are recorded in call order, so list order is issue order
    m["search.gateway.search.repeat_ratio"] = repeat_ratio(
        [s.attrs.get("query") for s in gateway]
    )
    m["search.cache.get.hits"] = sum(
        1 for i in run.get("search.cache.get", ()) if spans[i].attrs.get("hit")
    )
    texts = [spans[i].attrs.get("text") for i in run.get("catalog.find_entity_matches", ())]
    m["catalog.find_entity_matches.distinct_text_ratio"] = (
        len(set(texts)) / len(texts) if texts else 0.0
    )
    pops = [spans[i].attrs.get("len", 0) for i in run.get("frontier.pop_next", ())]
    m["frontier.pop_next.mean_len"] = statistics.fmean(pops) if pops else 0.0
    m["engine.mining.s"] = mining_seconds([s for s in spans if s.run_id == "run"])

    for name in ("load_corpus", "load_catalog", "replay_backend", "cache_fill"):
        m[f"setup.{name}.s"] = secs(f"setup.{name}", setup)
    m["setup.search.cache.put.calls"] = calls("search.cache.put", setup)
    m["setup.search.cache.put.s"] = secs("search.cache.put", setup)
    return m


def mining_seconds(spans: list[Span]) -> float:
    """Total length of the mining passes in `spans` (in call order): each
    runs from a top_edges call to the end of the next
    extract_pattern_candidates call, and covers the pair queries between."""
    total = 0.0
    start = None
    for s in spans:
        if s.name == "graph.top_edges" and start is None:
            start = s.start
        elif s.name == "extract.extract_pattern_candidates" and start is not None:
            total += s.end - start
            start = None
    return total
