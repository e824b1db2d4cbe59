"""Answer checks, run outside the timed regions.

The reference is the library's Python backends, which follow the paper's
algorithms directly: ``evolving_bfs(..., backend="python")`` for BFS and
reachability, ``earliest_arrival_times(..., backend="python")`` for
earliest arrival.  Every mismatch is counted; a run with any mismatch
reports ``correct: false``.
"""

from __future__ import annotations

from repro.algorithms.queries import BFSQuery, EarliestArrivalQuery, ReachabilityQuery
from repro.algorithms.temporal_paths import earliest_arrival_times
from repro.core.bfs import evolving_bfs


def oracle_bfs(graph, root) -> dict:
    return evolving_bfs(graph, root, backend="python").reached


def oracle_ea(graph, root) -> dict:
    return earliest_arrival_times(graph, root, backend="python")


def oracle_answer(graph, query):
    """The Python-oracle answer to one served query."""
    if isinstance(query, BFSQuery):
        return oracle_bfs(graph, query.root)
    if isinstance(query, EarliestArrivalQuery):
        return oracle_ea(graph, query.source)
    if isinstance(query, ReachabilityQuery):
        return evolving_bfs(graph, query.root, backend="python").distance(
            *query.target
        )
    raise TypeError(f"no oracle for {type(query).__name__}")


def ea_from_bfs(reached: dict) -> dict:
    """Earliest arrival per node derived from a BFS ``reached`` map.

    Integer snapshot labels order like their positions, so the smallest
    reached time of a node is its earliest arrival.
    """
    first: dict = {}
    for node, time in reached:
        seen = first.get(node)
        if seen is None or time < seen:
            first[node] = time
    return first


class Tally:
    """Counts answers checked and answers that did not match."""

    def __init__(self) -> None:
        self.checked = 0
        self.mismatches = 0

    def expect(self, got, want) -> None:
        self.checked += 1
        if got != want:
            self.mismatches += 1
