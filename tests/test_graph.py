"""Weighted graph semantics, evidence merging, and serialization."""

import io

import networkx as nx
import pytest

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
