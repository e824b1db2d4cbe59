"""The semiring label-sweep engine: numeric labels over the compiled stacks.

:class:`~repro.engine.frontier.FrontierKernel` propagates *boolean* frontiers
— enough for reachability, distances and the batched reach/closeness/Katz
reductions, but not for the comparison baselines the codebase cites, which
ask for numeric labels per temporal node:

* **earliest arrival** (Tang-style reachability) is each node identity's
  first reached snapshot, taken in one pass over time: the block forward
  substitution of :func:`~repro.engine.frontier.reach_closure`;
* **latest departure** is the mirrored last hit, one pass against time on
  the lazily transposed backward-operator stacks;
* **fewest spatial hops** (the Grindrod–Higham dynamic-walk hop convention)
  is a *(min, +)* sweep in which static edges cost 1 and causal edges cost
  0;
* **Tang temporal distance** (WOSN 2009 snapshot counting) is a masked
  running minimum of snapshot indices under horizon-bounded within-snapshot
  spreading, with *no* activeness requirement (Tang's convention, not the
  paper's).

:class:`LabelKernel` executes all four over the same shared
:class:`~repro.graph.compiled.CompiledTemporalGraph` the frontier kernel
runs on, ``R`` independent sources per CSR × dense-block product: the two
time readouts in one pass over time each, the other two as batched sweeps
with the same cumulative-masked causal step.  The 0/1-cost semiring sweep
(:meth:`zero_one_labels`) is pluggable: ``(spatial_cost=1, causal_cost=0)``
yields fewest spatial hops, ``(1, 1)`` recovers the paper's own
Definition-6 distance (a cross-check the test suite exercises), and
``(0, 1)`` charges waiting instead of moving.  Zero-cost edge families are
saturated to a fixpoint between unit-cost expansions, which is exactly
Dijkstra with 0/1 weights expressed as blocked sparse products.

Use :func:`repro.engine.get_label_kernel` for the cached instance; the
algorithms layer (:mod:`repro.algorithms.temporal_paths`,
:mod:`repro.algorithms.tang_distance`) rides it behind the usual
``backend="python" | "vectorized"`` flag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.engine import bitops
from repro.engine.answers import ReachedView, node_values, time_answers
from repro.engine.frontier import FrontierKernel
from repro.exceptions import GraphError
from repro.graph.base import BaseEvolvingGraph, Node, TemporalNodeTuple, Time
from repro.graph.compiled import CompiledTemporalGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sharded_sweep import BoundaryBlock

__all__ = ["LabelKernel"]


class LabelKernel:
    """Numeric label propagation over one compiled evolving graph.

    Parameters
    ----------
    source:
        A :class:`~repro.graph.compiled.CompiledTemporalGraph`, an evolving
        graph (compiled on the spot), or a :class:`FrontierKernel` whose
        compiled artifact should be shared.
    frontier:
        Optional pre-built :class:`FrontierKernel` over the *same* artifact;
        when omitted one is constructed (construction is cheap — the
        compilation is the artifact, not the kernel).
    """

    def __init__(
        self,
        source: CompiledTemporalGraph | BaseEvolvingGraph | FrontierKernel,
        *,
        frontier: FrontierKernel | None = None,
    ) -> None:
        if isinstance(source, FrontierKernel):
            frontier = source
            compiled = source.compiled
        elif isinstance(source, CompiledTemporalGraph):
            compiled = source
        elif isinstance(source, BaseEvolvingGraph):
            compiled = CompiledTemporalGraph.from_graph(source)
        else:
            raise GraphError(
                "LabelKernel requires a CompiledTemporalGraph, an evolving "
                f"graph or a FrontierKernel, got {type(source).__name__}"
            )
        if frontier is None:
            frontier = FrontierKernel(compiled)
        elif frontier.compiled is not compiled:
            raise GraphError("frontier kernel compiled over a different artifact")
        self.compiled = compiled
        self.frontier = frontier

    # ------------------------------------------------------------------ #
    # min/max time readouts (earliest arrival, latest departure)          #
    # ------------------------------------------------------------------ #

    def earliest_arrivals(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int = 128,
        sweep_mode: str | None = None,
    ) -> dict[TemporalNodeTuple, dict[Node, Time]]:
        """Per root: the earliest reachable time stamp of *every* node identity.

        One forward pass over time per chunk of roots
        (:func:`~repro.engine.frontier.reach_closure`): node ``v`` maps to
        the first snapshot whose closure reaches it.  Roots themselves map
        to their own time.
        """
        return time_answers(
            self.frontier._chunked_hits(
                roots, chunk_size=chunk_size, sweep_mode=sweep_mode
            ),
            self.compiled.axes,
        )

    def latest_departures(
        self,
        targets: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int = 128,
        sweep_mode: str | None = None,
    ) -> dict[TemporalNodeTuple, dict[Node, Time]]:
        """Per target: the latest time stamp from which every node can still reach it.

        The mirror of :meth:`earliest_arrivals`: one pass against time on
        the lazily built transposed stacks, keeping each node's last hit.
        """
        return time_answers(
            self.frontier._chunked_hits(
                targets,
                direction="backward",
                chunk_size=chunk_size,
                sweep_mode=sweep_mode,
            ),
            self.compiled.axes,
        )

    # ------------------------------------------------------------------ #
    # the 0/1-cost semiring sweep (fewest spatial hops and friends)       #
    # ------------------------------------------------------------------ #

    def zero_one_labels(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        spatial_cost: int = 1,
        causal_cost: int = 0,
        chunk_size: int = 128,
        sweep_mode: str | None = None,
    ) -> Iterator[tuple[list[TemporalNodeTuple], np.ndarray]]:
        """(min, +) labels with per-edge-family costs drawn from ``{0, 1}``.

        Yields ``(chunk, labels)`` pairs where ``labels`` is the ``(T, N, R)``
        int32 block of minimal path costs (``-1`` unreachable).  Dijkstra
        with 0/1 weights degenerates into a level sweep: saturate every
        zero-cost edge family to a fixpoint (causal edges via the cumulative
        masked step, spatial edges via repeated SpMM), then take one
        unit-cost expansion.  ``(spatial_cost=1, causal_cost=0)`` is the
        Grindrod–Higham fewest-spatial-hops convention; ``(1, 1)`` recovers
        the paper's Definition-6 distance.
        """
        cost_flags = ((spatial_cost, "spatial_cost"), (causal_cost, "causal_cost"))
        for cost, name in cost_flags:
            if cost not in (0, 1):
                raise GraphError(f"{name} must be 0 or 1, got {cost!r}")
        mode = bitops.resolve_sweep_mode(sweep_mode)
        run = self._zero_one_run_fused if mode == "fused" else self._zero_one_run
        root_list = [(r[0], r[1]) for r in roots]
        for start in range(0, len(root_list), chunk_size):
            chunk = root_list[start : start + chunk_size]
            seeds = [[self.frontier._seed_index(r)] for r in chunk]
            yield chunk, run(seeds, spatial_cost, causal_cost)

    def _zero_one_run(
        self,
        seeds: Sequence[Sequence[tuple[int, int]]],
        spatial_cost: int,
        causal_cost: int,
    ) -> np.ndarray:
        active = self.compiled.active_mask[:, :, None]
        t_count, n, _ = active.shape
        r = len(seeds)
        mats = self.compiled.forward_operators
        labels = np.full((t_count, n, r), -1, dtype=np.int32)
        frontier = np.zeros((t_count, n, r), dtype=bool)
        for col, column in enumerate(seeds):
            for ti, vi in column:
                frontier[ti, vi, col] = True
                labels[ti, vi, col] = 0
        reached = frontier.copy()

        def spatial_step(block: np.ndarray) -> np.ndarray:
            out = np.zeros_like(block)
            for ti in range(t_count):
                sub = block[ti]
                if sub.any() and mats[ti].nnz:
                    out[ti] = (mats[ti] @ sub.astype(np.int32)) > 0
            return out

        def causal_step(block: np.ndarray) -> np.ndarray:
            out = np.zeros_like(block)
            if t_count > 1:
                carried = np.logical_or.accumulate(block, axis=0)
                out[1:] = carried[:-1]
                out &= active
            return out

        cost = 0
        while frontier.any():
            # saturate zero-cost edge families at the current cost level
            while True:
                grow = np.zeros_like(frontier)
                if causal_cost == 0:
                    grow |= causal_step(frontier)
                if spatial_cost == 0:
                    grow |= spatial_step(frontier)
                grow = grow & active & ~reached
                if not grow.any():
                    break
                labels[grow] = cost
                reached |= grow
                frontier |= grow
            # one unit-cost expansion
            step = np.zeros_like(frontier)
            if spatial_cost == 1:
                step |= spatial_step(frontier)
            if causal_cost == 1:
                step |= causal_step(frontier)
            frontier = step & active & ~reached
            cost += 1
            labels[frontier] = cost
            reached |= frontier
        return labels

    def _zero_one_run_fused(
        self,
        seeds: Sequence[Sequence[tuple[int, int]]],
        spatial_cost: int,
        causal_cost: int,
        boundary: "BoundaryBlock | None" = None,
    ) -> np.ndarray:
        """The packed twin of :meth:`_zero_one_run` — bit-identical labels.

        State lives as ``(T, R, W)`` uint64 words; the spatial step is the
        direction-optimizing :func:`~repro.engine.bitops.advance_blocked`
        per snapshot and the causal step is the word-wise
        :func:`~repro.engine.bitops.causal_or_accumulate`, so each level's
        saturation/expansion makes one pass over packed words instead of
        byte-per-cell blocks.
        A time shard passes the incoming
        :class:`~repro.engine.sharded_sweep.BoundaryBlock`: external nodes at
        minimal label ``m`` join the cost-``m`` saturation when causal edges
        are free, or the cost-``m`` unit expansion when they cost one —
        where the monolithic causal step would deliver them.
        """
        t_count, n = self.compiled.active_mask.shape
        r = len(seeds)
        w = bitops.words_for(n)
        mats = self.compiled.forward_operators
        degrees = self.frontier._operator_degrees(True)
        active_words = self.frontier._packed_active()
        labels = np.full((t_count, n, r), -1, dtype=np.int32)
        frontier = np.zeros((t_count, r, w), dtype=np.uint64)
        for col, column in enumerate(seeds):
            for ti, vi in column:
                frontier[ti, col, vi >> 6] |= np.uint64(1) << np.uint64(vi & 63)
                labels[ti, vi, col] = 0
        reached = frontier.copy()

        def spatial_step(block: np.ndarray) -> np.ndarray:
            out = np.zeros_like(block)
            for ti in range(t_count):
                if mats[ti].nnz and block[ti].any():
                    out[ti] = bitops.advance_blocked(
                        mats[ti],
                        block[ti],
                        n,
                        out_degrees=degrees[ti],
                        active_row=active_words[ti],
                        visited_words=reached[ti],
                    )
            return out

        max_ext = -1 if boundary is None else boundary.max_level
        cost = 0
        while frontier.any() or cost <= max_ext:
            ext = None if boundary is None else boundary.words(cost)
            # an external node is strictly earlier than every snapshot here,
            # so its causal reach is the node's bit at all of them, masked
            ext_block = (
                None if ext is None else ext[None, :, :] & active_words[:, None, :]
            )
            # saturate zero-cost edge families at the current cost level
            while True:
                grow = np.zeros_like(frontier)
                if causal_cost == 0:
                    grow |= bitops.causal_or_accumulate(frontier, active_words)
                    if ext_block is not None:
                        grow |= ext_block
                if spatial_cost == 0:
                    grow |= spatial_step(frontier)
                grow &= active_words[:, None, :]
                grow &= ~reached
                if not grow.any():
                    break
                mask = bitops.unpack_bits(grow, n)  # (T, R, N) boolean
                labels[mask.transpose(0, 2, 1)] = cost
                reached |= grow
                frontier |= grow
            # one unit-cost expansion
            step = np.zeros_like(frontier)
            if spatial_cost == 1:
                step |= spatial_step(frontier)
            if causal_cost == 1:
                step |= bitops.causal_or_accumulate(frontier, active_words)
                if ext_block is not None:
                    step |= ext_block
            frontier = step & active_words[:, None, :] & ~reached
            cost += 1
            mask = bitops.unpack_bits(frontier, n)
            labels[mask.transpose(0, 2, 1)] = cost
            reached |= frontier
        return labels

    def fewest_hops(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int = 128,
        sweep_mode: str | None = None,
    ) -> dict[TemporalNodeTuple, ReachedView]:
        """Per root: minimal static-edge count to every reachable temporal node.

        The decoded form of the ``(spatial_cost=1, causal_cost=0)`` sweep —
        the dynamic-walk hop convention in which causal waiting is free —
        as read-only ``{(v, t): hops}`` views.
        """
        axes = self.compiled.axes
        out: dict[TemporalNodeTuple, ReachedView] = {}
        for chunk, labels in self.zero_one_labels(
            roots,
            spatial_cost=1,
            causal_cost=0,
            chunk_size=chunk_size,
            sweep_mode=sweep_mode,
        ):
            for col, root in enumerate(chunk):
                out[root] = ReachedView(labels[:, :, col], axes)
        return out

    # ------------------------------------------------------------------ #
    # Tang snapshot-count sweep                                           #
    # ------------------------------------------------------------------ #

    def tang_steps(
        self,
        source_nodes: Iterable[Node],
        *,
        horizon: int = 1,
        start_index: int = 0,
        chunk_size: int = 128,
        sweep_mode: str | None = None,
    ) -> dict[Node, dict[Node, int]]:
        """Per source node: Tang snapshot-count distance to every node identity.

        Seeds one column per source and sweeps the time axis once:
        within-snapshot spreading runs at most ``horizon`` SpMM rounds (early
        exit on fixpoint), and informed nodes persist across snapshots with
        no activeness requirement — Tang's convention, deliberately *not*
        the paper's.  Labels count snapshots inclusively from
        ``start_index``; sources are 0; ``-1`` entries are never informed
        and are dropped from the decoded dictionaries.
        """
        if start_index < 0 or start_index >= self.compiled.num_snapshots:
            raise GraphError(f"start_index {start_index} out of range")
        mode = bitops.resolve_sweep_mode(sweep_mode)
        run = self._tang_chunk_fused if mode == "fused" else self._tang_chunk_classic
        sources = list(source_nodes)
        out: dict[Node, dict[Node, int]] = {}
        for start in range(0, len(sources), chunk_size):
            chunk = sources[start : start + chunk_size]
            steps = run(chunk, horizon, start_index)
            for col, source in enumerate(chunk):
                out[source] = node_values(steps[:, col], self.compiled.axes)
        return out

    def tang_steps_block(
        self,
        source_nodes: Iterable[Node],
        *,
        horizon: int = 1,
        start_index: int = 0,
        sweep_mode: str | None = None,
    ) -> np.ndarray:
        """Raw ``(N, R)`` Tang step block for one chunk of sources.

        The array form of :meth:`tang_steps` (one column per source, ``-1``
        = never informed) that incremental callers keep as mutable state
        between stream batches and repair with :meth:`tang_patch`.
        """
        if start_index < 0 or start_index >= self.compiled.num_snapshots:
            raise GraphError(f"start_index {start_index} out of range")
        mode = bitops.resolve_sweep_mode(sweep_mode)
        run = self._tang_chunk_fused if mode == "fused" else self._tang_chunk_classic
        return run(list(source_nodes), horizon, start_index)

    def tang_patch(
        self,
        steps: np.ndarray,
        touched_times: Iterable[Time],
        *,
        horizon: int = 1,
        start_index: int = 0,
    ) -> int:
        """Repair a Tang step block after a mutation batch, in place.

        ``steps`` is a :meth:`tang_steps_block` result computed against the
        pre-batch artifact; ``touched_times`` are the timestamps the batch's
        insertions/removals touched (the dirty snapshots of the delta
        recompile — read them off the signed journal).  The Tang recurrence
        is purely forward in time — the informed set entering snapshot ``i``
        depends only on snapshots before ``i`` — so the patch is
        truncate-and-resweep: every label at or beyond the earliest touched
        step is invalidated (labels below it were derived exclusively from
        untouched snapshots and stay exact, for removals as much as
        insertions), and the sweep loop re-runs from the earliest touched
        snapshot on this kernel's post-batch operators.  Bit-identical to
        recomputing the block from scratch; costs only the suffix the batch
        could have affected.  Returns the number of entries that changed.
        """
        compiled = self.compiled
        n = compiled.num_nodes
        t_count = compiled.num_snapshots
        if start_index < 0 or start_index >= t_count:
            raise GraphError(f"start_index {start_index} out of range")
        if steps.ndim != 2 or steps.shape[0] != n:
            raise GraphError(
                f"step block shape {steps.shape} does not match the "
                f"compiled artifact's {n} nodes"
            )
        time_index = compiled.time_index
        touched = [
            ti
            for ti in (time_index.get(t) for t in touched_times)
            if ti is not None and ti >= start_index
        ]
        if not touched:
            return 0  # every touched snapshot predates the sweep window
        ti_min = min(touched)
        s0 = ti_min - start_index + 1
        old = steps.copy()
        steps[steps >= s0] = -1
        informed = steps >= 0
        mats = compiled.forward_operators
        for step, ti in enumerate(range(ti_min, t_count), start=s0):
            if not mats[ti].nnz:
                continue
            for _ in range(max(1, horizon)):
                spread = (mats[ti] @ informed.astype(np.int32)) > 0
                newly = spread & ~informed
                if not newly.any():
                    break
                informed |= newly
            fresh = informed & (steps < 0)
            steps[fresh] = step
            if informed.all():
                break
        return int((steps != old).sum())

    def _tang_chunk_classic(
        self, chunk: Sequence[Node], horizon: int, start_index: int
    ) -> np.ndarray:
        node_index = self.compiled.axes.node_index
        mats = self.compiled.forward_operators
        t_count = self.compiled.num_snapshots
        n = self.compiled.num_nodes
        r = len(chunk)
        informed = np.zeros((n, r), dtype=bool)
        steps = np.full((n, r), -1, dtype=np.int32)
        for col, source in enumerate(chunk):
            vi = node_index.get(source)
            if vi is not None:
                informed[vi, col] = True
                steps[vi, col] = 0
        for step, ti in enumerate(range(start_index, t_count), start=1):
            if not mats[ti].nnz:
                continue
            for _ in range(max(1, horizon)):
                spread = (mats[ti] @ informed.astype(np.int32)) > 0
                newly = spread & ~informed
                if not newly.any():
                    break
                informed |= newly
            fresh = informed & (steps < 0)
            steps[fresh] = step
            if informed.all():
                break
        return steps

    def _tang_chunk_fused(
        self, chunk: Sequence[Node], horizon: int, start_index: int
    ) -> np.ndarray:
        """Packed twin of :meth:`_tang_chunk_classic` — bit-identical steps.

        ``informed`` lives as ``(R, W)`` uint64 words; each within-snapshot
        round is one :func:`~repro.engine.bitops.advance_blocked` (no
        ``active_row`` — Tang's convention has no activeness requirement)
        and the newly-informed readout decodes only the fresh words.
        """
        node_index = self.compiled.axes.node_index
        mats = self.compiled.forward_operators
        t_count = self.compiled.num_snapshots
        n = self.compiled.num_nodes
        r = len(chunk)
        w = bitops.words_for(n)
        degrees = self.frontier._operator_degrees(True)
        informed = np.zeros((r, w), dtype=np.uint64)
        steps = np.full((n, r), -1, dtype=np.int32)
        for col, source in enumerate(chunk):
            vi = node_index.get(source)
            if vi is not None:
                informed[col, vi >> 6] |= np.uint64(1) << np.uint64(vi & 63)
                steps[vi, col] = 0
        for step, ti in enumerate(range(start_index, t_count), start=1):
            if not mats[ti].nnz:
                continue
            fresh = np.zeros((r, w), dtype=np.uint64)
            for _ in range(max(1, horizon)):
                spread = bitops.advance_blocked(
                    mats[ti],
                    informed,
                    n,
                    out_degrees=degrees[ti],
                    visited_words=informed,
                )
                newly = spread & ~informed
                if not newly.any():
                    break
                informed |= newly
                fresh |= newly
            if fresh.any():
                steps.T[bitops.unpack_bits(fresh, n)] = step
            if bitops.popcount(informed) == n * r:
                break
        return steps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LabelKernel snapshots={self.compiled.num_snapshots} "
            f"nodes={self.compiled.num_nodes} nnz={self.compiled.nnz}>"
        )
