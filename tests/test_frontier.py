"""Frontier ordering: FIFO, decayed-degree priority, and tie-breaks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snipgraph.frontier import (
    FIFO,
    PRIORITY,
    Frontier,
    FrontierEntry,
    compute_priority,
    priority_score,
)


class DegreeStub:
    def __init__(self, degrees):
        self.degrees = degrees

    def degree(self, name):
        return self.degrees.get(name, 0)


def test_priority_score_formula():
    assert priority_score(5, 0, 0.7) == 5.0
    assert priority_score(5, 3, 0.0) == 5.0
    assert priority_score(4, 2, 0.5) == pytest.approx(4 * math.exp(-1.0), rel=1e-15)


def test_compute_priority_uses_waiting_steps():
    entry = FrontierEntry("A", inserted_at_step=3)
    graph = DegreeStub({"A": 6})
    got = compute_priority(entry, graph, current_step=8, alpha=0.2)
    assert got == pytest.approx(6 * math.exp(-0.2 * 5), rel=1e-15)


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown frontier mode"):
            Frontier("stack")

    def test_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            Frontier(PRIORITY, alpha=-0.1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be >= 0 and finite"):
            Frontier(PRIORITY, alpha=alpha)


class TestFifo:
    def test_pops_in_insertion_order(self):
        frontier = Frontier(FIFO)
        for step, name in enumerate(["C", "A", "B"]):
            frontier.push(name, step)
        graph = DegreeStub({"A": 99})
        popped = [frontier.pop_next(graph, 10).name for _ in range(3)]
        assert popped == ["C", "A", "B"]
        assert frontier.pop_next(graph, 10) is None

    def test_len_and_bool(self):
        frontier = Frontier(FIFO)
        assert not frontier
        frontier.push("A", 0)
        assert len(frontier) == 1 and frontier


class TestPriority:
    def test_pops_highest_score(self):
        frontier = Frontier(PRIORITY)
        for name in ["A", "B", "C"]:
            frontier.push(name, 0)
        graph = DegreeStub({"A": 1, "B": 5, "C": 3})
        popped = [frontier.pop_next(graph, 1).name for _ in range(3)]
        assert popped == ["B", "C", "A"]

    def test_scores_recomputed_against_live_graph(self):
        frontier = Frontier(PRIORITY)
        frontier.push("A", 0)
        frontier.push("B", 0)
        graph = DegreeStub({"A": 5, "B": 1})
        assert frontier.pop_next(graph, 1).name == "A"
        graph.degrees["B"] = 2
        frontier.push("C", 1)
        graph.degrees["C"] = 9
        assert frontier.pop_next(graph, 2).name == "C"
        assert frontier.pop_next(graph, 3).name == "B"

    def test_decay_prefers_fresh_equal_degree(self):
        frontier = Frontier(PRIORITY, alpha=0.5)
        frontier.push("Old", 0)
        frontier.push("New", 4)
        graph = DegreeStub({"Old": 3, "New": 3})
        assert frontier.pop_next(graph, 5).name == "New"

    def test_decay_can_demote_high_degree(self):
        # degree 10 after 20 idle steps loses to degree 2 found just now
        frontier = Frontier(PRIORITY, alpha=0.3)
        frontier.push("Stale", 0)
        frontier.push("Fresh", 20)
        graph = DegreeStub({"Stale": 10, "Fresh": 2})
        assert frontier.pop_next(graph, 20).name == "Fresh"

    def test_tie_breaks_earlier_step_then_name(self):
        frontier = Frontier(PRIORITY)
        frontier.push("B", 1)
        frontier.push("Z", 0)
        frontier.push("A", 1)
        graph = DegreeStub({})
        popped = [frontier.pop_next(graph, 2).name for _ in range(3)]
        assert popped == ["Z", "A", "B"]

    def test_zero_alpha_ignores_waiting_time(self):
        frontier = Frontier(PRIORITY, alpha=0.0)
        frontier.push("Old", 0)
        frontier.push("New", 9)
        graph = DegreeStub({"Old": 2, "New": 2})
        # equal scores fall through to insertion step
        assert frontier.pop_next(graph, 9).name == "Old"


def reference_pop(entries, graph, current_step, alpha):
    """The pop before removal by position: min() over the entries, then
    list.remove of the winner."""
    best = min(
        entries,
        key=lambda e: (
            -compute_priority(e, graph, current_step, alpha),
            e.inserted_at_step,
            e.name,
        ),
    )
    entries.remove(best)
    return best


# push (name, step offset), set a degree (name, degree), or pop
operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from("ABCD"), st.integers(0, 3)),
        st.tuples(st.just("degree"), st.sampled_from("ABCD"), st.integers(0, 3)),
        st.tuples(st.just("pop"), st.none(), st.integers(0, 2)),
    ),
    max_size=40,
)


@given(ops=operations, alpha=st.sampled_from([0.0, 0.01, 0.5, 3.0]))
@settings(max_examples=400, deadline=None)
def test_priority_pop_order_equals_min_and_remove(ops, alpha):
    frontier = Frontier(PRIORITY, alpha)
    entries = []
    graph = DegreeStub({})
    step = 0
    for op, name, value in ops:
        if op == "push":
            frontier.push(name, step + value)
            entries.append(FrontierEntry(name, step + value))
        elif op == "degree":
            graph.degrees[name] = value
        else:
            step += value
            want = reference_pop(entries, graph, step, alpha) if entries else None
            assert frontier.pop_next(graph, step) == want
    while entries:
        assert frontier.pop_next(graph, step) == reference_pop(entries, graph, step, alpha)
    assert frontier.pop_next(graph, step) is None
