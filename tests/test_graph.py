"""Weighted graph semantics, evidence merging, and serialization."""

import io
import tempfile
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snipgraph.graph import (
    EdgeListError,
    SocialGraph,
    export_graph,
    read_edge_list,
    write_dot,
    write_edge_list,
)


def evidence(*pairs_with_counts):
    return {tuple(sorted((a, b))): count for a, b, count in pairs_with_counts}


class TestSocialGraph:
    def test_add_edge_accumulates(self):
        graph = SocialGraph()
        graph.add_edge("A", "B", 2)
        graph.add_edge("B", "A", 3)
        assert graph.weight("A", "B") == 5
        assert graph.edge_count == 1

    def test_weight_and_degree_defaults(self):
        graph = SocialGraph()
        assert graph.weight("A", "B") == 0
        assert graph.degree("A") == 0
        graph.add_edge("A", "B", 1)
        graph.add_edge("A", "C", 1)
        assert graph.degree("A") == 2

    def test_edges_report_sorted_pairs(self):
        graph = SocialGraph()
        graph.add_edge("Z", "A", 4)
        assert list(graph.edges()) == [("A", "Z", 4)]

    def test_add_edge_rejects_self_loop(self):
        graph = SocialGraph()
        with pytest.raises(ValueError, match="self-loop on 'A'"):
            graph.add_edge("A", "A", 3)
        assert graph.node_count == 0 and graph.edge_count == 0


class TestMergeEvidence:
    def test_threshold_gates_new_edges(self):
        graph = SocialGraph()
        new_nodes, new_edges = graph.merge_evidence(
            evidence(("A", "B", 2), ("C", "D", 1)), tau=2
        )
        assert new_nodes == ["A", "B"]
        assert new_edges == [("A", "B")]
        assert not graph.has_node("C")

    def test_existing_edge_absorbs_below_threshold(self):
        graph = SocialGraph()
        graph.merge_evidence(evidence(("A", "B", 2)), tau=2)
        graph.merge_evidence(evidence(("A", "B", 1)), tau=2)
        assert graph.weight("A", "B") == 3

    def test_sub_threshold_evidence_never_accumulates(self):
        # two separate steps with tau-1 evidence each must not create an edge
        graph = SocialGraph()
        for _ in range(2):
            graph.merge_evidence(evidence(("A", "B", 1)), tau=2)
        assert not graph.has_edge("A", "B")

    def test_new_items_in_sorted_pair_order(self):
        graph = SocialGraph()
        new_nodes, new_edges = graph.merge_evidence(
            evidence(("D", "C", 2), ("B", "A", 2)), tau=2
        )
        assert new_nodes == ["A", "B", "C", "D"]
        assert new_edges == [("A", "B"), ("C", "D")]

    def test_tau_one_admits_everything(self):
        graph = SocialGraph()
        graph.merge_evidence(evidence(("A", "B", 1)), tau=1)
        assert graph.has_edge("A", "B")


def test_top_edges_ranking():
    graph = SocialGraph()
    graph.add_edge("A", "B", 3)
    graph.add_edge("C", "D", 5)
    graph.add_edge("A", "C", 3)
    assert graph.top_edges() == [("C", "D", 5), ("A", "B", 3), ("A", "C", 3)]
    assert graph.top_edges(1) == [("C", "D", 5)]
    assert graph.top_edges(0) == []


class TestEdgeList:
    def test_roundtrip(self):
        graph = SocialGraph()
        graph.add_edge("Bo Quist", "Ada Veil", 3)
        graph.add_edge("Cy Marsh", "Ada Veil", 1)
        buf = io.StringIO()
        write_edge_list(graph, buf)
        assert buf.getvalue() == "Ada Veil\tBo Quist\t3\nAda Veil\tCy Marsh\t1\n"
        back = read_edge_list(io.StringIO(buf.getvalue()))
        assert sorted(back.edges()) == sorted(graph.edges())

    def test_omits_isolated_nodes(self):
        graph = SocialGraph()
        graph.add_node("Loner")
        graph.add_edge("A", "B", 1)
        buf = io.StringIO()
        write_edge_list(graph, buf)
        assert "Loner" not in buf.getvalue()

    def test_rejects_tab_in_name(self):
        graph = SocialGraph()
        graph.add_edge("bad\tname", "B", 1)
        with pytest.raises(ValueError, match="tab or newline"):
            write_edge_list(graph, io.StringIO())

    def test_read_reports_line_numbers(self):
        with pytest.raises(EdgeListError, match="line 2: expected 3"):
            read_edge_list(["A\tB\t1", "A\tB"])
        with pytest.raises(EdgeListError, match="line 1: bad weight 'x'"):
            read_edge_list(["A\tB\tx"])

    @pytest.mark.parametrize(
        "bad", ["A\tA\t3", "\tD\t1", "D\t\t1", "A\tB\t0", "A\tB\t-2"]
    )
    def test_read_rejects_malformed_edges(self, bad):
        with pytest.raises(EdgeListError, match="line 2: need two distinct names"):
            read_edge_list(["A\tB\t2", bad])

    def test_read_skips_blank_lines(self):
        graph = read_edge_list(["", "A\tB\t2", ""])
        assert list(graph.edges()) == [("A", "B", 2)]


class TestExport:
    def make(self):
        graph = SocialGraph()
        graph.add_edge("A", "B", 2)
        graph.add_node("Loner")
        return graph

    def test_edgelist_format(self, tmp_path):
        path = tmp_path / "g.edges"
        export_graph(self.make(), str(path), "edgelist")
        assert path.read_text() == "A\tB\t2\n"

    def test_graphml_keeps_isolated_nodes(self, tmp_path):
        path = tmp_path / "g.graphml"
        export_graph(self.make(), str(path), "graphml")
        back = nx.read_graphml(str(path))
        assert set(back.nodes) == {"A", "B", "Loner"}
        assert back["A"]["B"]["weight"] == 2

    def test_dot_output(self, tmp_path):
        path = tmp_path / "g.dot"
        export_graph(self.make(), str(path), "dot")
        text = path.read_text()
        assert text.startswith("graph snipgraph {")
        assert '"A" -- "B" [weight=2];' in text
        assert '"Loner";' in text

    def test_dot_quotes_specials(self):
        graph = SocialGraph()
        graph.add_node('Q "Q"')
        buf = io.StringIO()
        write_dot(graph, buf)
        assert '"Q \\"Q\\"";' in buf.getvalue()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown graph format"):
            export_graph(self.make(), str(tmp_path / "g.x"), "json")


# Insertion order differs from sorted order, and two names need XML escaping.
ORACLE_NAMES = ["Cy", "Al", "Bo", "Ed", "Di & Co", "<Ü>"]
oracle_names = st.sampled_from(ORACLE_NAMES)
name_pairs = st.lists(oracle_names, min_size=2, max_size=2, unique=True)
graph_calls = st.lists(
    st.one_of(
        st.tuples(st.just("add_node"), oracle_names),
        st.tuples(st.just("add_edge"), name_pairs, st.integers(1, 4)),
        st.tuples(
            st.just("merge_evidence"),
            st.dictionaries(
                name_pairs.map(lambda p: tuple(sorted(p))), st.integers(1, 4), max_size=5
            ),
            st.integers(1, 3),
        ),
    ),
    max_size=25,
)


def oracle_add(oracle, a, b, weight):
    if oracle.has_edge(a, b):
        oracle[a][b]["weight"] += weight
    else:
        oracle.add_edge(a, b, weight=weight)


def oracle_merge(oracle, counts, tau):
    new_nodes, new_edges = [], []
    for a, b in sorted(counts):
        if not oracle.has_edge(a, b):
            if counts[a, b] < tau:
                continue
            new_nodes += [name for name in (a, b) if not oracle.has_node(name)]
            new_edges.append((a, b))
        oracle_add(oracle, a, b, counts[a, b])
    return new_nodes, new_edges


def assert_same_graph(graph, oracle):
    edges = [(*sorted((a, b)), d["weight"]) for a, b, d in oracle.edges(data=True)]
    assert list(graph.nodes()) == list(oracle.nodes)
    assert list(graph.edges()) == edges
    assert graph.node_count == oracle.number_of_nodes()
    assert graph.edge_count == oracle.number_of_edges()
    ranked = sorted(edges, key=lambda e: (-e[2], e[0], e[1]))
    for h in (None, 0, 1, 3):
        assert graph.top_edges(h) == (ranked if h is None else ranked[:h])
    for a in ORACLE_NAMES:
        assert graph.has_node(a) == oracle.has_node(a)
        assert graph.degree(a) == (oracle.degree(a) if oracle.has_node(a) else 0)
        for b in ORACLE_NAMES:
            assert graph.has_edge(a, b) == oracle.has_edge(a, b)
            expected = oracle[a][b]["weight"] if oracle.has_edge(a, b) else 0
            assert graph.weight(a, b) == expected


@settings(max_examples=200, deadline=None)
@given(graph_calls)
def test_matches_networkx_oracle(calls):
    """The same call sequence on SocialGraph and a bare nx.Graph gives the
    same graph, the same iteration orders, merge results and GraphML bytes."""
    graph, oracle = SocialGraph(), nx.Graph()
    for call in calls:
        if call[0] == "add_node":
            graph.add_node(call[1])
            oracle.add_node(call[1])
        elif call[0] == "add_edge":
            (a, b), weight = call[1], call[2]
            graph.add_edge(a, b, weight)
            oracle_add(oracle, a, b, weight)
        else:
            counts, tau = call[1], call[2]
            assert graph.merge_evidence(counts, tau) == oracle_merge(oracle, counts, tau)
        assert_same_graph(graph, oracle)
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours", Path(tmp) / "theirs"
        export_graph(graph, str(ours), "graphml")
        nx.write_graphml(oracle, str(theirs))
        assert ours.read_bytes() == theirs.read_bytes()
