"""Expansion frontier: FIFO queue or freshness-decayed priority queue.

Priority of a waiting node is its current degree in the live graph, decayed
exponentially by the number of expansion steps it has been waiting:

    score = degree * exp(-alpha * steps_waited)

alpha = 0 ranks purely by degree; larger alpha favors recently found nodes.
Degrees change as the graph grows, so scores are recomputed at pop time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Protocol

FIFO = "fifo"
PRIORITY = "priority"


class SupportsDegree(Protocol):
    def degree(self, name: str) -> int: ...


def priority_score(degree: int, steps_waited: int, alpha: float) -> float:
    """Degree decayed by waiting time; see module docstring."""
    return degree * math.exp(-alpha * steps_waited)


@dataclass(frozen=True)
class FrontierEntry:
    """A queued entity; `inserted_at_step` is the number of expansion steps
    completed when it was enqueued."""

    name: str
    inserted_at_step: int


def compute_priority(
    entry: FrontierEntry,
    graph: SupportsDegree,
    current_step: int,
    alpha: float,
) -> float:
    """Score an entry against the live graph at `current_step`."""
    waited = current_step - entry.inserted_at_step
    return priority_score(graph.degree(entry.name), waited, alpha)


@dataclass
class Frontier:
    """Queue of entities awaiting expansion.

    FIFO pops in insertion order. PRIORITY pops the highest score under the
    live graph's degrees; ties break toward the earlier insertion step, then
    the lexicographically smaller name. Seeds all enter at step 0 with no
    edges, so a priority frontier starts out covering seeds first.
    """

    mode: str = FIFO
    alpha: float = 0.0
    _entries: deque[FrontierEntry] = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.mode not in (FIFO, PRIORITY):
            raise ValueError(f"unknown frontier mode: {self.mode!r}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be >= 0 and finite")

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, name: str, step: int) -> None:
        self._entries.append(FrontierEntry(name, step))

    def pop_next(self, graph: SupportsDegree, current_step: int) -> FrontierEntry | None:
        """Remove and return the next entity to expand; None when empty."""
        if not self._entries:
            return None
        if self.mode == FIFO:
            return self._entries.popleft()
        # removed by position: deque.remove would compare dataclasses
        i, best = min(
            enumerate(self._entries),
            key=lambda ie: (
                -compute_priority(ie[1], graph, current_step, self.alpha),
                ie[1].inserted_at_step,
                ie[1].name,
            ),
        )
        del self._entries[i]
        return best
