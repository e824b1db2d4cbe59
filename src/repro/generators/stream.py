"""Edge-stream utilities: feeding an evolving graph incrementally.

The Figure-5 experiment grows a single evolving graph by "consecutively
adding new random static edges".  More generally, evolving graphs are often
consumed from a stream of timestamped edge events.  This module provides a
small streaming layer:

* :class:`EdgeStream` — an iterator of edge events with optional batching,
  built from a list, a generator function or a random source.  Events are
  *signed*: a plain ``(u, v, t)`` triple inserts, and a ``("+", u, v, t)`` /
  ``("-", u, v, t)`` quadruple inserts/removes explicitly, so one stream can
  carry the mixed insert/remove traffic of a live feed.
* :func:`apply_stream` — fold a stream into an
  :class:`~repro.graph.adjacency_list.AdjacencyListEvolvingGraph`, optionally
  invoking a callback after each batch (used by the incremental-BFS example
  and the ablation benchmarks).  With ``compiled=True`` the fold also
  maintains the shared compiled artifact
  (:class:`~repro.graph.compiled.CompiledTemporalGraph`) across batches via
  *delta recompilation* — only the snapshots each batch touched are rebuilt,
  for removals exactly as for insertions, thanks to the signed mutation
  journal — and hands it to the callback, so streaming workloads (Figure-5
  growth, random edge streams, batched event replay) run end-to-end on
  compiled artifacts instead of recompiling from scratch per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.graph.adjacency_list import AdjacencyListEvolvingGraph
from repro.graph.base import TemporalEdgeTuple, validate_mutation
from repro.generators.random_evolving import random_temporal_edges

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.compiled import CompiledTemporalGraph

__all__ = ["EdgeStream", "apply_stream"]

#: An edge event: ``(u, v, t)`` inserts; ``(sign, u, v, t)`` with sign
#: ``"+"`` / ``"-"`` inserts or removes explicitly.
EdgeEvent = tuple


def _signed_edge(event: EdgeEvent) -> tuple[str, TemporalEdgeTuple]:
    """One event as ``(sign, (u, v, t))``; :class:`GraphError` if malformed."""
    try:
        sign, u, v, t = event if len(event) == 4 else ("+", *event)
    except (TypeError, ValueError) as exc:
        raise GraphError(
            f"edge events must be (u, v, t) or (sign, u, v, t), got {event!r}"
        ) from exc
    if sign not in ("+", "-"):
        raise GraphError(
            f"signed edge events must start with '+' or '-', got {sign!r}"
        )
    return sign, (u, v, t)


@dataclass
class EdgeStream:
    """A replayable stream of timestamped edge events.

    Attributes
    ----------
    events:
        The events in arrival order: ``(u, v, t)`` insertion triples and/or
        signed ``("+"/"-", u, v, t)`` quadruples (mixed freely).
    batch_size:
        Number of events yielded per batch by :meth:`batches`.
    """

    events: Sequence[EdgeEvent]
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise GraphError("batch_size must be at least 1")
        self.events = list(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TemporalEdgeTuple]:
        return iter(self.events)

    def batches(self) -> Iterator[list[TemporalEdgeTuple]]:
        """Yield events in consecutive batches of ``batch_size``."""
        for start in range(0, len(self.events), self.batch_size):
            yield list(self.events[start : start + self.batch_size])

    @classmethod
    def random(
        cls,
        num_nodes: int,
        num_timestamps: int,
        num_events: int,
        *,
        batch_size: int = 1,
        time_ordered: bool = True,
        seed: int | np.random.Generator | None = None,
    ) -> "EdgeStream":
        """A random stream of distinct edge events.

        When ``time_ordered`` is true the events arrive sorted by timestamp,
        modelling a live feed; otherwise arrival order is random (late /
        out-of-order events), which evolving-graph representations must accept
        since Definition 1 places no constraint on insertion order.
        """
        events = random_temporal_edges(num_nodes, num_timestamps, num_events, seed=seed)
        if time_ordered:
            events.sort(key=lambda e: e[2])
        else:
            rng = (
                seed
                if isinstance(seed, np.random.Generator)
                else np.random.default_rng(seed)
            )
            order = rng.permutation(len(events))
            events = [events[i] for i in order.tolist()]
        return cls(events=events, batch_size=batch_size)


def apply_stream(
    stream: EdgeStream | Iterable[TemporalEdgeTuple],
    *,
    graph: AdjacencyListEvolvingGraph | None = None,
    directed: bool = True,
    on_batch: Callable[..., None] | None = None,
    compiled: bool = False,
) -> AdjacencyListEvolvingGraph:
    """Fold an edge stream into an evolving graph.

    Parameters
    ----------
    stream:
        An :class:`EdgeStream` (its batches are respected) or any iterable
        of events (treated as one event per batch).  Events are ``(u, v, t)``
        insertion triples or signed ``("+"/"-", u, v, t)`` quadruples;
        within a batch they apply in arrival order, so a remove-then-re-add
        of the same edge lands in the graph exactly as streamed.  Each batch
        is validated whole before its first write
        (:func:`~repro.graph.base.validate_mutation`; removals must name a
        snapshot that exists before the batch) and a bad one raises
        :class:`~repro.exceptions.GraphError` with the graph unchanged.
    graph:
        Graph to extend in place; a fresh one is created when omitted.
    directed:
        Directedness of the freshly created graph (ignored when ``graph`` is given).
    on_batch:
        Callback invoked after each batch has been applied.  Without
        ``compiled`` it receives ``(graph, batch)``; with ``compiled=True``
        it receives ``(graph, batch, artifact)`` where ``artifact`` is the
        up-to-date :class:`~repro.graph.compiled.CompiledTemporalGraph`.
        Useful for measuring incremental re-search cost.
    compiled:
        Maintain the engine's compiled artifact across the fold.  After each
        batch the artifact is refreshed through the delta-aware dispatch
        cache (:func:`repro.engine.get_compiled`): only the snapshots the
        batch touched are recompiled, so per-batch cost is proportional to
        the batch, not the graph.  Downstream engine consumers (searches,
        analytics, :func:`repro.parallel.batch.batch_bfs`) then hit the same
        cache entry without compiling anything.
    """
    if graph is None:
        graph = AdjacencyListEvolvingGraph(directed=directed)
    if isinstance(stream, EdgeStream):
        batch_iter: Iterable[list[EdgeEvent]] = stream.batches()
    else:
        batch_iter = ([event] for event in stream)
    if compiled:
        from repro.engine import get_compiled

    artifact: "CompiledTemporalGraph | None" = None
    for batch in batch_iter:
        # the whole batch is checked before its first write (split by sign
        # for the check only), so a rejected batch leaves the graph as is
        events = [_signed_edge(event) for event in batch]
        validate_mutation(
            graph,
            [edge for sign, edge in events if sign == "+"],
            [edge for sign, edge in events if sign == "-"],
        )
        for sign, edge in events:
            if sign == "+":
                graph.add_edge(*edge)
            else:
                graph.remove_edge(*edge)
        if compiled:
            artifact = get_compiled(graph)  # delta recompile of the touched snapshots
        if on_batch is not None:
            if compiled:
                on_batch(graph, list(batch), artifact)
            else:
                on_batch(graph, list(batch))
    return graph
