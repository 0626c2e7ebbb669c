"""Weighted undirected social graph plus serialization.

Nodes are canonical entity names, edge weights are accumulated co-occurrence
counts. Merge and threshold behavior live here.
"""

from __future__ import annotations

from typing import IO, Callable, Iterable, Iterator, Mapping, TypeVar

T = TypeVar("T")


class EdgeListError(ValueError):
    """Malformed edge-list input; message names the offending line."""


class SocialGraph:
    """Undirected entity graph with integer edge weights and no self-loops."""

    def __init__(self) -> None:
        self._adj: dict[str, dict[str, int]] = {}
        self._edge_count = 0

    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def has_node(self, name: str) -> bool:
        return name in self._adj

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    def add_node(self, name: str) -> None:
        self._adj.setdefault(name, {})

    def add_edge(self, a: str, b: str, weight: int) -> None:
        """Add weight to the a-b edge, creating it (and the nodes) if absent."""
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        nbrs_a = self._adj.setdefault(a, {})
        nbrs_b = self._adj.setdefault(b, {})
        if b not in nbrs_a:
            self._edge_count += 1
        nbrs_a[b] = nbrs_b[a] = nbrs_a.get(b, 0) + weight

    def weight(self, a: str, b: str) -> int:
        return self._adj.get(a, {}).get(b, 0)

    def degree(self, name: str) -> int:
        """Number of neighbors; 0 for unknown nodes."""
        return len(self._adj.get(name, ()))

    def nodes(self) -> Iterator[str]:
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[str, str, int]]:
        """Edges as (a, b, weight), each pair sorted, in networkx.Graph's order."""
        seen: set[str] = set()
        for a, nbrs in self._adj.items():
            for b, w in nbrs.items():
                if b not in seen:
                    yield (a, b, w) if a < b else (b, a, w)
            seen.add(a)

    def merge_evidence(
        self,
        evidence: Mapping[tuple[str, str], int],
        tau: int,
    ) -> tuple[list[str], list[tuple[str, str]]]:
        """Fold one search step's evidence, a co-occurrence count per sorted
        name pair, into the graph.

        A pair not yet in the graph needs count >= tau to enter; an existing
        edge always absorbs the new count. Returns nodes and edges that are
        new to the graph, in sorted-pair processing order.
        """
        new_nodes: list[str] = []
        new_edges: list[tuple[str, str]] = []
        for pair in sorted(evidence):
            count = evidence[pair]
            if not self.has_edge(*pair):
                if count < tau:
                    continue
                new_nodes.extend(name for name in pair if name not in self._adj)
                new_edges.append(pair)
            self.add_edge(*pair, count)
        return new_nodes, new_edges

    def top_edges(self, h: int | None = None) -> list[tuple[str, str, int]]:
        """Heaviest edges first; ties break on the sorted name pair."""
        ranked = sorted(self.edges(), key=lambda e: (-e[2], e[0], e[1]))
        return ranked if h is None else ranked[:h]


def check_name(name: str) -> str:
    """`name`, unless it holds a tab or newline, which no edge list can hold."""
    if "\t" in name or "\n" in name or "\r" in name:
        raise ValueError(f"entity name contains tab or newline: {name!r}")
    return name


def read_text_input(path: str, parse: Callable[[IO[str]], T]) -> T:
    """`parse` of the text file at `path`, streamed as UTF-8 without a leading
    BOM, in lines that end at LF, CR or CR LF. UnicodeDecodeError gives a bad
    byte's offset from the file's first byte, a BOM included: the text reader
    counts from the chunk it decoded, so only then is the file read whole."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse(fh)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            fh.read().decode("utf-8")
        raise


def write_edge_list(graph: SocialGraph, fh: IO[str]) -> None:
    """Tab-separated `a<TAB>b<TAB>weight` lines, sorted by name pair."""
    for a, b, w in sorted(graph.edges()):
        fh.write(f"{check_name(a)}\t{check_name(b)}\t{w}\n")


def read_edge_list(source: IO[str] | Iterable[str]) -> SocialGraph:
    graph = SocialGraph()
    for lineno, line in enumerate(source, start=1):
        raw = line.rstrip("\r\n")
        if not raw:
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise EdgeListError(
                f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        a, b, w = fields
        try:
            weight = int(w)
        except ValueError as exc:
            raise EdgeListError(f"line {lineno}: bad weight {w!r}") from exc
        if weight < 1 or not a or not b or a == b:
            raise EdgeListError(f"line {lineno}: need two distinct names, weight >= 1")
        graph.add_edge(a, b, weight)
    return graph


def read_edge_list_file(path: str) -> SocialGraph:
    return read_text_input(path, read_edge_list)


def write_graphml(graph: SocialGraph, path: str) -> None:
    """GraphML via networkx, installed with the `graphml` extra."""
    import networkx as nx
    out = nx.Graph()
    out.add_nodes_from(graph.nodes())
    out.add_weighted_edges_from(graph.edges())
    nx.write_graphml(out, path)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(graph: SocialGraph, fh: IO[str]) -> None:
    fh.write("graph snipgraph {\n")
    for name in sorted(graph.nodes()):
        fh.write(f"  {_dot_quote(name)};\n")
    for a, b, w in sorted(graph.edges()):
        fh.write(f"  {_dot_quote(a)} -- {_dot_quote(b)} [weight={w}];\n")
    fh.write("}\n")


def export_graph(graph: SocialGraph, path: str, fmt: str) -> None:
    """Write `graph` to `path` as one of: edgelist, graphml, dot."""
    if fmt == "edgelist":
        with open(path, "w", encoding="utf-8") as fh:
            write_edge_list(graph, fh)
    elif fmt == "graphml":
        write_graphml(graph, path)
    elif fmt == "dot":
        with open(path, "w", encoding="utf-8") as fh:
            write_dot(graph, fh)
    else:
        raise ValueError(f"unknown graph format: {fmt!r}")
