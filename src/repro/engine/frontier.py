"""The vectorized sparse frontier kernel shared by every BFS variant.

The paper's algebraic reading of Algorithm 2 (Section III-C) advances a
*block frontier vector* — one length-``N`` component per snapshot — by one
sparse product per snapshot plus the ``⊙`` activeness masks for the causal
blocks.  :class:`FrontierKernel` is that computation expressed on NumPy/SciPy
arrays instead of Python dictionaries:

* the frontier is a boolean array of shape ``(T, N, R)`` — ``T`` snapshots,
  ``N`` nodes in the shared universe, ``R`` independent searches;
* the **spatial step** applies the compiled forward operator ``F[t]``
  (out-edge expansion) or its transpose (in-edge expansion) to each
  snapshot's frontier block — one CSR sparse-matrix × dense-block product
  per snapshot, so ``R`` roots share a single traversal of the matrix (the
  ``multi_source``/``batch`` amortization);
* the **causal step** is a cumulative logical OR along the time axis masked
  by the per-snapshot activeness pattern — exactly the action of all
  off-diagonal blocks ``M[s, t]^T`` at once, computed without forming them
  (the ``⊙`` product of :func:`repro.core.algebraic.odot`, vectorized);
* visited bookkeeping is a ``(T, N, R)`` distance array: a temporal node is
  newly reached at level ``k`` when a candidate bit lands on a slot whose
  distance is still ``-1``.

Since PR 2 the kernel no longer compiles the graph itself: it executes over
a shared :class:`~repro.graph.compiled.CompiledTemporalGraph` (pass either
the artifact or a graph, which is compiled on the spot).  On top of the BFS
drivers it exposes the batched analytics primitives the ported
:mod:`repro.algorithms` layer runs on: per-root identity reach counts,
harmonic-closeness sums, and the Katz series over the temporal block matrix.

The kernel produces exactly the ``reached`` maps of the pure-Python
reference implementations (Theorem 4 equivalence), as
:class:`~repro.engine.answers.ReachedView` mappings over the reached slots of
each root's distance column; the property-based suites
``tests/test_engine.py`` and ``tests/test_algorithms_vectorized.py`` assert
this on random evolving graphs.  Since PR 3 the engine loop can also track
*parent slots*: ``_run(track_parents=True)`` records the discovering
``(t, v)`` per level, so :meth:`FrontierKernel.bfs` can hand back a valid
shortest-path tree (used by the ported sampled betweenness).  The tree may
differ from the Python implementation's discovery order on ties, so searches
whose *documented* behaviour is that insertion order (``track_frontiers``,
``neighbor_fn`` overrides, ``evolving_bfs(track_parents=True)``) still run
the Python reference path — see :func:`repro.core.bfs.evolving_bfs`.

Since PR 7 every sweep runs in one of two modes (``sweep_mode``, default
``"fused"``; see :mod:`repro.engine.bitops`):

* ``"classic"`` — the original byte-per-cell loops above, kept verbatim as
  the in-repo oracle the equivalence suites compare against;
* ``"fused"`` — frontier/visited state stays bit-packed in ``uint64`` words
  across rounds (:func:`~repro.engine.bitops.pack_bits`), each round makes
  a *single* ascending-time pass that fuses the per-snapshot spatial
  advance with the masked causal carry
  (:func:`~repro.engine.bitops.fused_update`), and every spatial advance
  direction-optimizes between push, pull and the dense product from packed
  popcounts (:func:`~repro.engine.bitops.advance_blocked`).  Distances are
  written straight from the packed nonzero coordinates, so results are
  bit-identical to classic — the hypothesis suites assert this for every
  kernel family.  ``track_parents`` searches always run classic (their
  discovery-order bookkeeping is inherently slot-at-a-time).

Cost model: with a :class:`~repro.linalg.csr.OperationCounter` attached, the
kernel accounts ``2 · nnz(A[t]) · R`` multiply-adds per spatial product
(one gaxpy per column, matching :meth:`CSRMatrix.matmat
<repro.linalg.csr.CSRMatrix.matmat>`) and ``T · N · R`` column checks per
causal step, which is the Theorem 5/6 accounting of the blocked algorithm.
Fused sweeps charge the actually-gathered sparse work to ``multiply_adds``
(push: ``2 · Σ out-degree`` over frontier cells; pull: ``2 · nnz`` of the
candidate rows per column; dense: the classic number) and their packed
bookkeeping to ``word_ops`` — one unit per 64-bit word operation — so a
fused sweep's total is strictly below its classic twin on any multi-snapshot
graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.core.bfs import BFSResult
from repro.engine import bitops
from repro.engine.answers import ReachedView, hit_times
from repro.exceptions import ConvergenceError, GraphError, InactiveNodeError
from repro.graph.base import BaseEvolvingGraph, Node, TemporalNodeTuple, Time
from repro.graph.compiled import CompiledTemporalGraph
from repro.linalg.csr import OperationCounter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sharded_sweep import BoundaryBlock

__all__ = ["FrontierKernel", "reach_closure"]

_DIRECTIONS = ("forward", "backward")

#: Sentinel distance for unreached slots inside the decrease-only re-sweep
#: (large enough that ``_UNREACHED`` never wins a minimum, small enough that
#: ``_UNREACHED + 1`` cannot overflow int32).
_UNREACHED = np.int32(2**30)


def _harmonic_rows(dist: np.ndarray) -> np.ndarray:
    """Per-snapshot harmonic partial rows of a ``(T, N, R)`` distance block.

    The canonical first reduction stage of the harmonic-closeness sum: for
    each snapshot, ``sum(1/d)`` over its nodes as ONE contiguous pairwise
    reduction along the node axis.  Both the monolithic kernel and the
    sharded driver reduce through this function, so a shard boundary never
    changes which floats meet inside the node-axis reduction — the remaining
    time-axis accumulation (:func:`_harmonic_accumulate`) is then performed
    in explicit global snapshot order by both, making the two bit-identical.
    """
    inverse = np.where(dist > 0, 1.0 / np.maximum(dist, 1), 0.0)
    # (T, R, N) C-contiguous so the node-axis sum is a flat pairwise pass
    return np.ascontiguousarray(inverse.transpose(0, 2, 1)).sum(axis=2)


def _harmonic_accumulate(rows: np.ndarray) -> np.ndarray:
    """Fold ``(T, R)`` per-snapshot harmonic rows in time order, sequentially.

    Plain left-to-right float addition over the time axis — deliberately NOT
    ``rows.sum(axis=0)``, whose pairwise tree would depend on T and therefore
    on shard boundaries when partials are folded shard by shard.
    """
    sums = np.zeros(rows.shape[1:], dtype=np.float64)
    for row in rows:
        sums = sums + row
    return sums


def reach_closure(
    kernel: "FrontierKernel",
    seeds_per_column: Sequence[Sequence[tuple[int, int]]],
    carry: np.ndarray,
    *,
    forward: bool,
    reverse_edges: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Identity reach in one pass over time; ``((N, R) hit index, carry out)``.

    The causal blocks all point forward in time, so the block matrix is
    block triangular (Lemma 1) and reach-only questions are one block
    forward substitution.  Snapshots are visited once, in time order
    (reversed for backward searches).  At snapshot ``t`` the start set is
    the packed ``(R, W)`` ``carry`` of identities reached before ``t``,
    masked by ``active[t]``, plus the seeds at ``t``; it is closed under
    ``A[t]`` with :func:`~repro.engine.bitops.advance_blocked` until no new
    bit appears.  Identities new to the carry record ``t`` as their hit (the
    first snapshot in sweep order; ``-1``: never reached) and join the
    carry, which is returned so a later time shard can continue from it.

    No more advances than the level sweep: closing snapshot ``t`` takes
    ``k + 1`` advances when its deepest new bit ``v`` lies ``k`` hops from
    the start set.  In the level sweep, ``(v, t)``'s spatial-parent chain
    inside ``t`` starts in that start set, so it has at least ``k`` hops,
    and each of its slots sits on a different level; each of those ``k + 1``
    levels advances snapshot ``t``.  Charges the counter as the fused loop.
    """
    compiled = kernel.compiled
    t_count, n = compiled.active_mask.shape
    r, w = carry.shape
    use_forward_ops = forward != reverse_edges
    mats = (
        compiled.forward_operators if use_forward_ops else compiled.backward_operators
    )
    degrees = kernel._operator_degrees(use_forward_ops)
    active_words = kernel._packed_active()
    counter = kernel.counter
    seeds = np.zeros((t_count, r, w), dtype=np.uint64)
    for col, column in enumerate(seeds_per_column):
        for ti, vi in column:
            seeds[ti, col, vi >> 6] |= np.uint64(1 << (vi & 63))
    carry = carry.copy()
    hit = np.full((r, n), -1, dtype=np.int32)
    for ti in range(t_count) if forward else range(t_count - 1, -1, -1):
        reached = (carry & active_words[ti]) | seeds[ti]
        if counter is not None:
            counter.word_ops += 2 * reached.size
        if not reached.any():
            continue
        frontier = reached
        while mats[ti].nnz and (active_words[ti] & ~reached).any():
            new = bitops.advance_blocked(
                mats[ti],
                frontier,
                n,
                out_degrees=degrees[ti],
                active_row=active_words[ti],
                visited_words=reached,
                counter=counter,
            )
            new &= active_words[ti] & ~reached
            if counter is not None:
                counter.word_ops += 3 * new.size
            if not new.any():
                break
            reached |= new
            frontier = new
        cols, slots = bitops.packed_nonzero(reached & ~carry)
        hit[cols, slots] = ti
        carry |= reached
    return hit.T, carry


class FrontierKernel:
    """Sparse execution engine for frontier expansion over one evolving graph.

    Parameters
    ----------
    source:
        Either a pre-built :class:`~repro.graph.compiled.CompiledTemporalGraph`
        (the shared artifact, preferred — see
        :func:`repro.engine.get_kernel`) or any evolving-graph
        representation, which is compiled on construction.
    counter:
        Optional :class:`~repro.linalg.csr.OperationCounter`; when given,
        every kernel invocation accounts its flops per column (the
        Theorem 5/6 cost model).

    Notes
    -----
    The kernel executes over an immutable compiled snapshot of the graph:
    mutating the graph afterwards does not update the kernel.  The
    dispatch-level cache (:func:`repro.engine.dispatch.get_kernel`) rebuilds
    kernels exactly when the graph's
    :attr:`~repro.graph.base.BaseEvolvingGraph.mutation_version` changes.
    """

    def __init__(
        self,
        source: CompiledTemporalGraph | BaseEvolvingGraph,
        *,
        counter: OperationCounter | None = None,
    ) -> None:
        if isinstance(source, CompiledTemporalGraph):
            compiled = source
        elif isinstance(source, BaseEvolvingGraph):
            compiled = CompiledTemporalGraph.from_graph(source)
        else:
            raise GraphError(
                "FrontierKernel requires a CompiledTemporalGraph or an "
                f"evolving graph, got {type(source).__name__}"
            )
        self.compiled = compiled
        self.counter = counter
        # (dst row, src column) coordinate expansions for parent attribution,
        # built lazily once per operator stack (the artifact is immutable)
        self._parent_coords: dict[bool, list[tuple[np.ndarray, np.ndarray]]] = {}
        # fused-sweep caches, also lazy and immutable: the packed (T, W)
        # activeness words and the per-snapshot operator column counts (the
        # push cost model), keyed by operator orientation
        self._active_words: np.ndarray | None = None
        self._operator_degrees_cache: dict[bool, list[np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # structure                                                           #
    # ------------------------------------------------------------------ #

    @property
    def timestamps(self) -> Sequence[Time]:
        """Snapshot labels, in time order."""
        return self.compiled.times

    @property
    def node_labels(self) -> list[Node]:
        """Node labels indexing the matrix rows/columns."""
        return self.compiled.node_labels

    @property
    def num_nodes(self) -> int:
        """Size ``N`` of the shared node universe."""
        return self.compiled.num_nodes

    @property
    def num_snapshots(self) -> int:
        """Number of snapshots ``T``."""
        return self.compiled.num_snapshots

    @property
    def nnz(self) -> int:
        """Stored entries summed over all snapshot matrices."""
        return self.compiled.nnz

    def is_active(self, node: Node, time: Time) -> bool:
        """Whether ``(node, time)`` is active (Definition 3), per the compiled masks."""
        return self.compiled.is_active(node, time)

    # ------------------------------------------------------------------ #
    # searches                                                            #
    # ------------------------------------------------------------------ #

    def bfs(
        self,
        root: TemporalNodeTuple,
        *,
        direction: str = "forward",
        reverse_edges: bool = False,
        track_parents: bool = False,
        sweep_mode: str | None = None,
    ) -> BFSResult:
        """Single-source search from ``root``; equals Algorithm 1 on ``reached``.

        ``direction="backward"`` runs the time-reversed search of Section V
        (spatial in-neighbours, earlier active appearances).
        ``reverse_edges=True`` flips only the *spatial* orientation while
        keeping the time direction — the expansion the Section V citation
        mining uses, where influence flows against the citation edges.
        ``track_parents=True`` additionally records, per reached slot, the
        discovering ``(t, v)`` slot of one shortest-path tree: distances are
        identical to the Python reference, but the tree may pick a different
        (equally shortest) parent than the dict implementation's discovery
        order.  ``sweep_mode`` picks the fused or classic engine loop
        (``None``: the process-wide default); results are identical
        (``track_parents`` searches always run classic).
        """
        root = (root[0], root[1])
        seed = self._seed_index(root)
        if track_parents:
            dist, parent_t, parent_v = self._run(
                [[seed]], direction, reverse_edges=reverse_edges, track_parents=True
            )
            return BFSResult(
                root=root,
                reached=self._reached_view(dist, 0),
                parents=self._parents_dict(dist, parent_t, parent_v, 0),
            )
        dist = self._run(
            [[seed]], direction, reverse_edges=reverse_edges, sweep_mode=sweep_mode
        )
        return BFSResult(root=root, reached=self._reached_view(dist, 0))

    def multi_source(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        sweep_mode: str | None = None,
    ) -> BFSResult:
        """One search seeded at several roots: distance to the *nearest* root.

        Inactive roots are skipped; when every root is inactive an
        :class:`InactiveNodeError` is raised (matching
        :func:`repro.core.bfs.multi_source_bfs`).
        """
        root_list = [(r[0], r[1]) for r in roots]
        active_roots = [r for r in root_list if self.is_active(*r)]
        if not active_roots:
            if root_list:
                raise InactiveNodeError(*root_list[0])
            raise ValueError("multi_source requires at least one root")
        seeds = [self._seed_index(r) for r in active_roots]
        dist = self._run([seeds], direction, sweep_mode=sweep_mode)
        return BFSResult(root=tuple(active_roots), reached=self._reached_view(dist, 0))

    def batch(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        chunk_size: int = 128,
        sweep_mode: str | None = None,
    ) -> dict[TemporalNodeTuple, BFSResult]:
        """Many *independent* single-source searches, amortized over one traversal.

        The roots are packed ``chunk_size`` at a time into the columns of a
        dense block, so every frontier advance is one CSR × dense-block
        product per snapshot instead of one full traversal per root.
        Inactive roots are skipped silently (matching
        :func:`repro.parallel.batch.batch_bfs`).
        """
        if chunk_size < 1:
            raise GraphError("chunk_size must be at least 1")
        root_list = [(r[0], r[1]) for r in roots]
        active_roots = [r for r in root_list if self.is_active(*r)]
        results: dict[TemporalNodeTuple, BFSResult] = {}
        for chunk, dist in self._chunked_distances(
            active_roots,
            direction=direction,
            chunk_size=chunk_size,
            sweep_mode=sweep_mode,
        ):
            for col, root in enumerate(chunk):
                results[root] = BFSResult(
                    root=root, reached=self._reached_view(dist, col)
                )
        return results

    # ------------------------------------------------------------------ #
    # incremental maintenance (the streaming layer)                       #
    # ------------------------------------------------------------------ #

    def distance_block(
        self, root: TemporalNodeTuple, *, sweep_mode: str | None = None
    ) -> np.ndarray:
        """Single-source distances as a raw ``(T, N)`` int32 block.

        ``-1`` marks unreachable slots.  This is the array form of
        :meth:`bfs` that :class:`repro.algorithms.incremental.IncrementalBFS`
        keeps as its mutable state between stream batches (decoding to label
        dictionaries only on demand).
        """
        seed = self._seed_index((root[0], root[1]))
        return self._run([[seed]], "forward", sweep_mode=sweep_mode)[:, :, 0]

    def decrease_only_resweep(
        self,
        dist: np.ndarray,
        seeds: Sequence[tuple[int, int, int]],
        *,
        sweep_mode: str | None = None,
    ) -> int:
        """Masked decrease-only relaxation from dirty slots, in place.

        ``dist`` is a writable ``(T, N)`` int32 distance block (``-1`` =
        unreachable); ``seeds`` are ``(t, v, candidate)`` improvements for
        the temporal slots whose in-neighbourhood a mutation batch changed.
        Each candidate that beats the recorded distance is applied and its
        improvement propagated forward — the vectorized form of the
        decrease-only relaxation in
        :class:`repro.algorithms.incremental.IncrementalBFS`: improvements
        are popped in increasing distance order (Dial's bucket discipline on
        unit edges, so every slot is finalized the round it is popped) and
        each round expands one masked frontier exactly like :meth:`_run` —
        one CSR product per *touched* snapshot plus the cumulative-OR causal
        step.  The sparse products (the dominant term) therefore track the
        region whose distances actually change; each round also pays
        ``O(T * N)`` boolean bookkeeping for the frontier masks and the
        causal accumulate, same as one :meth:`_run` level.  Returns the
        number of slots whose distance improved.
        """
        active = self.compiled.active_mask
        t_count, n = active.shape
        if dist.shape != (t_count, n):
            raise GraphError(
                f"distance block shape {dist.shape} does not match the "
                f"compiled artifact's {(t_count, n)}"
            )
        work = np.where(dist < 0, _UNREACHED, dist.astype(np.int32))
        improved = np.zeros((t_count, n), dtype=bool)
        for ti, vi, candidate in seeds:
            if candidate < work[ti, vi]:
                work[ti, vi] = candidate
                improved[ti, vi] = True
        if not improved.any():
            return 0
        if bitops.resolve_sweep_mode(sweep_mode) == "fused":
            changed = self._resweep_fused(work, improved, active)
        else:
            changed = self._resweep_classic(work, improved, active)
        dist[:] = np.where(work >= _UNREACHED, -1, work)
        return changed

    def patch_distance_block(
        self,
        dist: np.ndarray,
        insertions: Sequence[tuple],
        *,
        pinned: tuple[int, int] | None = None,
        sweep_mode: str | None = None,
    ) -> int:
        """Fold a pure-insertion edge batch into a ``(T, N)`` distance block.

        ``dist`` is a writable forward-search distance block (``-1`` =
        unreachable) computed against an artifact with *this* kernel's axes;
        ``insertions`` are the ``(u, v, t)`` edges added since.  Edge
        insertions only ever shorten distances, so the update is the
        decrease-only relaxation of
        :class:`repro.algorithms.incremental.IncrementalBFS`, batched: the
        dirty temporal slots are the edge endpoints at their insertion times
        plus every later active appearance of those endpoints (which may have
        gained a causal in-edge); each seed's candidate distance is read
        straight off the compiled stacks (spatial in-neighbours are one CSR
        row slice, causal predecessors one masked column prefix-minimum), and
        :meth:`decrease_only_resweep` propagates the improvements.  The
        result is bit-identical to a fresh search on the post-insertion
        artifact — the serving layer's warm-start invalidation and
        ``IncrementalBFS`` both rely on exactly this contract.

        ``pinned`` names one ``(t, v)`` slot whose distance is fixed (the
        search root, at distance 0); it is excluded from seeding.  Endpoints
        or timestamps outside the compiled universe contribute no seeds (the
        caller guarantees axis compatibility; the delta recompile keeps axes
        whenever insertions stay inside the universe).  Returns the number of
        slots whose distance improved.
        """
        seed_t, seed_v = self._dirty_slots(insertions)
        if pinned is not None:  # the root's distance is pinned at 0
            not_root = (seed_t != pinned[0]) | (seed_v != pinned[1])
            seed_t, seed_v = seed_t[not_root], seed_v[not_root]
        if not seed_t.size:
            return 0
        candidate, improvable = self._seed_candidates(dist[:, :, None], seed_t, seed_v)
        candidate, improvable = candidate[:, 0], improvable[:, 0]
        if not improvable.any():
            return 0
        return self.decrease_only_resweep(
            dist,
            list(
                zip(
                    seed_t[improvable].tolist(),
                    seed_v[improvable].tolist(),
                    candidate[improvable].tolist(),
                )
            ),
            sweep_mode=sweep_mode,
        )

    def patch_distance_blocks(
        self,
        blocks: Sequence[np.ndarray],
        insertions: Sequence[tuple],
        *,
        pinned: Sequence[tuple[int, int] | None] | None = None,
        sweep_mode: str | None = None,
    ) -> list[int]:
        """Fold one pure-insertion batch into many ``(T, N)`` blocks at once.

        Group form of :meth:`patch_distance_block` for callers holding many
        independent forward-search blocks against the same compiled axes —
        the serving layer's warm-start invalidation patches its whole cache
        generation through here.  The dirty-slot discovery runs once (it
        depends only on the insertions), the candidate reads broadcast over
        a stacked ``(T, N, R)`` work array, and every re-sweep round
        advances all R columns with one CSR × ``(N, R)`` product per
        touched snapshot — the same amortization the coalesced group sweeps
        get, instead of R separate single-block relaxations.  Each block is
        updated in place, bit-identical to patching it alone: the rounds pop
        improvements in increasing *global* distance order, which per column
        is the same Dial discipline with empty rounds interleaved, and every
        column's frontier only ever expands into its own column.  ``pinned``
        optionally names each block's root slot (excluded from seeding, as
        in the single-block form).  ``sweep_mode`` is accepted for API
        symmetry; the group rounds always advance as dense blocks — the
        packed push path exists for the single-block form where frontiers
        are one column wide.  Returns the improved-slot count per block.
        """
        del sweep_mode
        active = self.compiled.active_mask
        t_count, n = active.shape
        r_count = len(blocks)
        if not r_count:
            return []
        for block in blocks:
            self._check_shape(block, "distance block")
        if pinned is None:
            pinned = [None] * r_count
        seed_t, seed_v = self._dirty_slots(insertions)
        if not seed_t.size:
            return [0] * r_count
        dist = np.stack(blocks, axis=2).astype(np.int32)  # (T, N, R)
        candidate, improvable = self._seed_candidates(dist, seed_t, seed_v)
        for col, pin in enumerate(pinned):
            if pin is not None:  # each block's root distance is pinned at 0
                improvable[(seed_t == pin[0]) & (seed_v == pin[1]), col] = False
        if not improvable.any():
            return [0] * r_count
        work = np.where(dist < 0, _UNREACHED, dist)
        improved = np.zeros((t_count, n, r_count), dtype=bool)
        s_idx, r_idx = np.nonzero(improvable)
        work[seed_t[s_idx], seed_v[s_idx], r_idx] = candidate[s_idx, r_idx]
        improved[seed_t[s_idx], seed_v[s_idx], r_idx] = True
        changed = self._resweep_group(work, improved, active)
        for col, block in enumerate(blocks):
            block[:] = np.where(work[:, :, col] >= _UNREACHED, -1, work[:, :, col])
        return changed

    def _check_shape(self, array: np.ndarray, name: str) -> None:
        shape = self.compiled.active_mask.shape
        if array.shape != shape:
            raise GraphError(
                f"{name} shape {array.shape} does not match the compiled "
                f"artifact's {shape}"
            )

    def _dirty_slots(
        self, insertions: Sequence[tuple]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(t, v)`` slots an insertion batch may improve, as two arrays.

        Each in-universe endpoint at its insertion time (if active) plus
        every later active appearance of it, which may have gained a causal
        in-edge; endpoints or times outside the universe seed nothing.
        """
        axes = self.compiled.axes
        active = self.compiled.active_mask
        t_count, n = active.shape
        ends = [
            slot
            for u, v, t in insertions
            for slot in (axes.slot(u, t), axes.slot(v, t))
            if slot is not None
        ]
        if not ends:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        ep_t, ep_v = np.asarray(ends, dtype=np.int64).T
        columns = active[:, ep_v]  # (T, E)
        touched = columns & (np.arange(t_count)[:, None] > ep_t[None, :])
        touched[ep_t, np.arange(ep_t.size)] = columns[ep_t, np.arange(ep_t.size)]
        tt, ee = np.nonzero(touched)
        keys = np.unique(tt * n + ep_v[ee])
        return keys // n, keys % n

    def _seed_candidates(
        self, dist: np.ndarray, seed_t: np.ndarray, seed_v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per seed slot and column of a ``(T, N, R)`` block: the candidate
        distance ``1 + min(spatial, causal)`` read off the compiled stacks,
        and whether it beats the slot's current distance (both ``(S, R)``).
        """
        active = self.compiled.active_mask
        big = _UNREACHED  # matches the re-sweep's unreached sentinel
        r_count = dist.shape[2]
        # causal candidates in one masked prefix-min sweep — restricted to
        # the seed columns, so this stays O(T * |batch|), not O(T * N):
        # the best reached earlier appearance of each seeded node
        seed_cols = np.unique(seed_v)
        col_of = np.searchsorted(seed_cols, seed_v)
        masked = np.where(
            active[:, seed_cols, None] & (dist[:, seed_cols, :] >= 0),
            dist[:, seed_cols, :],
            big,
        )
        run = np.minimum.accumulate(masked, axis=0)
        causal = np.full((seed_t.size, r_count), big, dtype=np.int32)
        has_earlier = seed_t > 0
        causal[has_earlier] = run[seed_t[has_earlier] - 1, col_of[has_earlier], :]
        # spatial candidates: one ragged gather over the CSR in-neighbour
        # rows per touched snapshot (row v of F[t] lists v's in-neighbours)
        spatial = np.full((seed_t.size, r_count), big, dtype=np.int32)
        forward = self.compiled.forward_operators
        for t in np.unique(seed_t).tolist():
            sel = np.nonzero(seed_t == t)[0]
            operator = forward[t]
            starts = operator.indptr[seed_v[sel]]
            lens = operator.indptr[seed_v[sel] + 1] - starts
            total = int(lens.sum())
            if not total:
                continue
            offsets = np.concatenate(([0], np.cumsum(lens)))
            gather = np.repeat(starts - offsets[:-1], lens) + np.arange(total)
            vals = dist[t, operator.indices[gather], :]  # (total, R)
            vals = np.where(vals >= 0, vals, big).astype(np.int32)
            # reduceat over the non-empty segments only: empty segments would
            # otherwise echo a neighbour's element (and, when trailing, clamp
            # away the last value of the preceding segment)
            mins = np.full((sel.size, r_count), big, dtype=np.int32)
            nonempty = lens > 0
            mins[nonempty] = np.minimum.reduceat(vals, offsets[:-1][nonempty], axis=0)
            spatial[sel] = mins
        candidate = np.minimum(spatial, causal).astype(np.int64) + 1
        current = dist[seed_t, seed_v, :]
        return candidate, candidate < np.where(current < 0, int(big), current)

    def shrink_distance_block(
        self,
        dist: np.ndarray,
        removals: Sequence[tuple],
        previous_active: np.ndarray,
        *,
        sweep_mode: str | None = None,
    ) -> int:
        """Fold a pure-removal edge batch into a ``(T, N)`` distance block.

        The increase-aware counterpart of :meth:`patch_distance_block`:
        ``dist`` was computed against the *pre-removal* graph,
        ``previous_active`` is that graph's ``(T, N)`` activeness mask, and
        this kernel's compiled artifact already reflects the removals.
        Removals only ever lengthen temporal shortest paths, so the update is
        invalidate-and-redescend: compute the cut level ``dmin`` — the
        smallest distance any removed tight edge or deactivated reachable
        slot carried — below which every recorded distance is provably still
        exact (a shortest path to a ``< dmin`` slot can only use slots at
        smaller distances, none of which a removal touched); invalidate every
        slot at ``>= dmin``; then rediscover the true ``dmin`` frontier with
        ONE masked spatial+causal step from the complete ``dmin - 1`` level
        and let :meth:`decrease_only_resweep` redescend from there.  The
        result is bit-identical to a fresh search on the post-removal
        artifact — ``IncrementalBFS`` and the serving layer's warm-start
        patching rely on exactly this contract for the removal phase of a
        mixed batch.

        Raises :class:`~repro.exceptions.GraphError` when a removal
        deactivated the search root itself (``dmin == 0``) — the caller must
        drop the block and recompute.  Returns the number of slots whose
        distance changed.
        """
        self._check_shape(dist, "distance block")
        self._check_shape(previous_active, "previous_active")
        old = dist.copy()
        prepared = self._shrink_levels(dist[:, :, None], removals, previous_active)
        if prepared is None:
            return 0
        dmin, seeds_mask = prepared
        level = int(dmin[0])
        tt, vv, _ = np.nonzero(seeds_mask)
        if tt.size:
            seeds = [(ti, vi, level) for ti, vi in zip(tt.tolist(), vv.tolist())]
            self.decrease_only_resweep(dist, seeds, sweep_mode=sweep_mode)
        return int((dist != old).sum())

    def shrink_distance_blocks(
        self,
        blocks: Sequence[np.ndarray],
        removals: Sequence[tuple],
        previous_active: np.ndarray,
        *,
        sweep_mode: str | None = None,
    ) -> list[int]:
        """Fold one pure-removal batch into many ``(T, N)`` blocks at once.

        Group form of :meth:`shrink_distance_block` for callers holding many
        independent forward-search blocks against the same compiled axes
        (the serving layer's warm cache).  The cut levels are computed per
        column in one vectorized pass, the redescent frontier is discovered
        with one CSR × ``(N, R)`` step per touched snapshot, and the
        redescent itself runs through the same grouped rounds as
        :meth:`patch_distance_blocks` — bit-identical per block to shrinking
        it alone.  ``sweep_mode`` is accepted for API symmetry; the group
        rounds always advance as dense blocks.  Raises when any column's
        root was deactivated (drop those blocks first).  Returns the
        changed-slot count per block.
        """
        del sweep_mode
        if not blocks:
            return []
        for block in blocks:
            self._check_shape(block, "distance block")
        self._check_shape(previous_active, "previous_active")
        dist = np.stack(blocks, axis=2).astype(np.int32)  # (T, N, R)
        old = np.stack(blocks, axis=2)
        prepared = self._shrink_levels(dist, removals, previous_active)
        if prepared is not None:
            dmin, seeds_mask = prepared
            work = np.where(dist < 0, _UNREACHED, dist)
            work = np.where(
                seeds_mask, dmin[None, None, :].astype(np.int32), work
            )
            if seeds_mask.any():
                self._resweep_group(work, seeds_mask, self.compiled.active_mask)
            dist = np.where(work >= _UNREACHED, -1, work)
        changed = (dist != old).sum(axis=(0, 1))
        for col, block in enumerate(blocks):
            block[:] = dist[:, :, col]
        return [int(c) for c in changed]

    def _shrink_levels(
        self,
        dist: np.ndarray,
        removals: Sequence[tuple],
        previous_active: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Shared shrink preamble over a stacked ``(T, N, R)`` block.

        Computes each column's cut level ``dmin`` (the smallest distance a
        removed *tight* edge delivered or a deactivated reachable slot
        held — non-tight edges lie on no shortest path, so removing them
        changes nothing), invalidates every slot at ``>= dmin`` in place,
        and discovers the redescent seeds with one masked spatial+causal
        step from the complete ``dmin - 1`` frontier: every slot whose true
        post-removal distance is ``dmin`` has a predecessor at ``dmin - 1``,
        and the ``< dmin`` region is exact, so that single step finds the
        full ``dmin`` level.  Returns ``(dmin, seeds_mask)``, or ``None``
        when no column is affected.
        """
        compiled = self.compiled
        active = compiled.active_mask
        big = int(_UNREACHED)
        dmin = np.full(dist.shape[2], big, dtype=np.int64)
        axes = compiled.axes
        directed = compiled.is_directed
        for u, v, t in removals:
            su, sv = axes.slot(u, t), axes.slot(v, t)
            if su is None or sv is None or su == sv:
                continue  # outside the universe, or a self-loop (never tight)
            ti, iu, iv = su[0], su[1], sv[1]
            pairs = ((iu, iv),) if directed else ((iu, iv), (iv, iu))
            for a, b in pairs:
                tail = dist[ti, a, :].astype(np.int64)
                head = dist[ti, b, :].astype(np.int64)
                tight = (tail >= 0) & (head == tail + 1)
                dmin = np.where(tight, np.minimum(dmin, head), dmin)
        deactivated = previous_active & ~active
        if deactivated.any():
            vals = dist[deactivated].astype(np.int64)  # (K, R)
            vals = np.where(vals >= 0, vals, big)
            dmin = np.minimum(dmin, vals.min(axis=0))
        if (dmin >= big).all():
            return None
        if (dmin == 0).any():
            raise GraphError(
                "a removal batch deactivated a search root; drop the block "
                "and recompute it from scratch"
            )
        invalid = dist >= dmin[None, None, :]
        frontier = dist == (dmin - 1)[None, None, :]
        dist[invalid] = -1
        seeds_mask = (
            self._step_group(frontier)
            & active[:, :, None]
            & (dist < 0)
            & (dmin < big)[None, None, :]
        )
        return dmin, seeds_mask

    def _step_group(self, frontier: np.ndarray) -> np.ndarray:
        """Slots one spatial or causal step after a ``(T, N, R)`` frontier:
        one CSR x ``(N, R)`` product per touched snapshot, then the carry
        to every later snapshot."""
        t_count, n, r_count = frontier.shape
        mats = self.compiled.forward_operators
        counter = self.counter
        reach = np.zeros_like(frontier)
        for ti in np.flatnonzero(frontier.any(axis=(1, 2))).tolist():
            reach[ti] = (mats[ti] @ frontier[ti].astype(np.int32)) > 0
            if counter is not None:
                counter.multiply_adds += 2 * int(mats[ti].nnz) * r_count
        if t_count > 1:
            reach[1:] |= np.logical_or.accumulate(frontier, axis=0)[:-1]
            if counter is not None:
                counter.column_checks += t_count * n * r_count
        return reach

    def _resweep_group(
        self, work: np.ndarray, improved: np.ndarray, active: np.ndarray
    ) -> list[int]:
        """Re-sweep rounds over a stacked ``(T, N, R)`` work array.

        The ``(T, N)`` rounds of :meth:`_resweep_classic`, widened to R
        independent columns: one round pops every improved slot at the
        current global level across all columns, so each snapshot's spatial
        step is one CSR × ``(N, R)`` product instead of R SpMVs spread over
        R separate relaxations.
        """
        changed = np.zeros(work.shape[2], dtype=np.int64)
        while improved.any():
            level = int(work[improved].min())
            frontier = improved & (work == level)
            changed += frontier.sum(axis=(0, 1))
            improved &= ~frontier
            reach = self._step_group(frontier)
            better = reach & active[:, :, None] & (work > level + 1)
            if better.any():
                work[better] = level + 1
                improved |= better
        return changed.tolist()

    def _resweep_classic(
        self, work: np.ndarray, improved: np.ndarray, active: np.ndarray
    ) -> int:
        """The byte-per-cell re-sweep rounds (the fused path's oracle)."""
        t_count, n = active.shape
        mats = self.compiled.forward_operators
        counter = self.counter
        changed = 0
        while improved.any():
            level = int(work[improved].min())
            frontier = improved & (work == level)
            changed += int(frontier.sum())
            improved &= ~frontier
            # spatial step: one cast for the whole round and one SpMV per
            # *touched* snapshot, instead of scanning all T rows and paying
            # a per-row astype inside the Python loop
            reach = np.zeros((t_count, n), dtype=bool)
            touched = np.flatnonzero(frontier.any(axis=1))
            if touched.size:
                rows = frontier[touched].astype(np.int32)
                for pos, ti in enumerate(touched.tolist()):
                    reach[ti] = (mats[ti] @ rows[pos]) > 0
                    if counter is not None:
                        counter.multiply_adds += 2 * int(mats[ti].nnz)
            # causal step: cumulative OR along time, masked by activeness
            if t_count > 1:
                carried = np.logical_or.accumulate(frontier, axis=0)
                reach[1:] |= carried[:-1]
                if counter is not None:
                    counter.column_checks += t_count * n
            better = reach & active & (work > level + 1)
            if better.any():
                work[better] = level + 1
                improved |= better
        return changed

    def _resweep_fused(
        self, work: np.ndarray, improved: np.ndarray, active: np.ndarray
    ) -> int:
        """Packed re-sweep rounds: push-or-dense advances plus a word carry.

        Re-sweep frontiers are the dirty region of a mutation batch —
        usually a few slots — so the push direction dominates; the causal
        step is a running ``(1, W)`` word carry folded into each snapshot's
        reach, replacing the classic full ``(T, N)`` accumulate.  Pull is
        not attempted here: the undiscovered set of a re-sweep ("slots whose
        distance can still improve") is not tracked packed, and the dirty
        regions are too small for pull to win.
        """
        t_count, n = active.shape
        w = bitops.words_for(n)
        mats = self.compiled.forward_operators
        degrees = self._operator_degrees(True)
        active_words = self._packed_active()
        counter = self.counter
        changed = 0
        while improved.any():
            level = int(work[improved].min())
            frontier = improved & (work == level)
            changed += int(frontier.sum())
            improved &= ~frontier
            frontier_words = bitops.pack_bits(frontier)[:, None, :]
            carry = np.zeros((1, w), dtype=np.uint64)
            for ti in range(t_count):
                f_t = frontier_words[ti]
                reach_words = carry & active_words[ti]
                if f_t.any():
                    reach_words |= bitops.advance_blocked(
                        mats[ti],
                        f_t,
                        n,
                        out_degrees=degrees[ti],
                        counter=counter,
                    ) & active_words[ti]
                    carry |= f_t
                if counter is not None:
                    counter.word_ops += 4 * w
                if not reach_words.any():
                    continue
                reach_row = bitops.unpack_bits(reach_words[0], n)
                better = reach_row & active[ti] & (work[ti] > level + 1)
                if better.any():
                    work[ti][better] = level + 1
                    improved[ti] |= better
        return changed

    # ------------------------------------------------------------------ #
    # batched analytics primitives (the ported algorithms layer)          #
    # ------------------------------------------------------------------ #

    def identity_reach_counts(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        reverse_edges: bool = False,
        chunk_size: int = 128,
        sweep_mode: str | None = None,
    ) -> dict[TemporalNodeTuple, int]:
        """Per root: how many *other* node identities its search reaches.

        Equals ``len({v for (v, t) in reached} - {root_node})`` of the
        per-root Python BFS, computed without ever materializing the reached
        dictionaries or a distance block: the count of identities in the
        final carry of :func:`reach_closure`, less the root's own.  Powers
        :func:`repro.algorithms.centrality.temporal_out_reach`,
        ``temporal_in_reach``, ``top_influencers`` and served top-k groups.
        """
        out: dict[TemporalNodeTuple, int] = {}
        for chunk, hit in self._chunked_hits(
            roots,
            direction=direction,
            reverse_edges=reverse_edges,
            chunk_size=chunk_size,
            sweep_mode=sweep_mode,
        ):
            counts = (hit >= 0).sum(axis=0)
            for col, root in enumerate(chunk):
                # the root's own identity is always reached (distance 0)
                out[root] = int(counts[col]) - 1
        return out

    def harmonic_closeness_sums(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        chunk_size: int = 128,
        sweep_mode: str | None = None,
    ) -> dict[TemporalNodeTuple, float]:
        """Per root: ``sum(1/d)`` over reached temporal nodes at distance > 0.

        The unnormalized harmonic-closeness numerator of
        :func:`repro.algorithms.centrality.temporal_closeness`, reduced
        straight off the distance block in the *canonical* order: one
        pairwise reduction over nodes per snapshot, then a sequential
        accumulation of the per-snapshot rows in global time order.  The
        sharded driver reduces its per-shard partials identically, so
        monolithic and sharded sums are bit-identical on every backend.
        """
        out: dict[TemporalNodeTuple, float] = {}
        for chunk, dist in self._chunked_distances(
            roots, direction=direction, chunk_size=chunk_size, sweep_mode=sweep_mode
        ):
            sums = _harmonic_accumulate(_harmonic_rows(dist))
            for col, root in enumerate(chunk):
                out[root] = float(sums[col])
        return out

    def katz_scores(
        self,
        *,
        alpha: float = 0.25,
        max_terms: int | None = None,
        tol: float = 1e-12,
    ) -> dict[TemporalNodeTuple, float]:
        """Katz centrality over the temporal block matrix, without forming it.

        Accumulates ``Σ_k alpha^k (A_n^T)^k 1`` exactly as
        :func:`repro.algorithms.centrality.temporal_katz` does, but the block
        matrix--vector product is executed blockwise on the compiled stacks:
        the diagonal (spatial) blocks are one forward-operator product per
        snapshot and the action of *all* causal blocks at once is a shifted
        cumulative sum along the time axis masked by activeness.
        """
        active = self.compiled.active_mask
        t_count, n = active.shape
        n_active = int(active.sum())
        if n_active == 0:
            return {}
        limit = max_terms if max_terms is not None else max(n_active, 1)
        push = self.compiled.forward_operators
        counter = self.counter
        term = active.astype(np.float64)  # ones on every active temporal node
        score = np.zeros_like(term)
        converged = False
        for _ in range(limit):
            spatial = np.zeros_like(term)
            for k in range(t_count):
                if push[k].nnz:
                    spatial[k] = push[k] @ term[k]
                    if counter is not None:
                        counter.multiply_adds += 2 * int(push[k].nnz)
            causal = np.zeros_like(term)
            if t_count > 1:
                causal[1:] = np.cumsum(term, axis=0)[:-1]
                causal *= active
                if counter is not None:
                    counter.column_checks += t_count * n
            term = alpha * (spatial + causal)
            if not np.isfinite(term).all():
                raise ConvergenceError("temporal Katz series diverged; decrease alpha")
            score += term
            if np.abs(term).max() < tol:
                converged = True
                break
        if not converged and not self._is_nilpotent():
            raise ConvergenceError(
                f"temporal Katz did not converge within {limit} terms; decrease alpha"
            )
        labels = self.compiled.node_labels
        times = self.compiled.times
        t_idx, v_idx = np.nonzero(active)
        return {
            (labels[v], times[t]): float(score[t, v])
            for t, v in zip(t_idx.tolist(), v_idx.tolist())
        }

    def _is_nilpotent(self) -> bool:
        """Whether the temporal block matrix is nilpotent (Lemma 1).

        Causal edges run strictly forward in time, so the block matrix is
        nilpotent exactly when every snapshot is acyclic.
        """
        from repro.linalg.nilpotence import is_nilpotent

        return all(is_nilpotent(m) for m in self.compiled.forward_operators)

    # ------------------------------------------------------------------ #
    # the engine loop                                                     #
    # ------------------------------------------------------------------ #

    def _seed_index(self, root: TemporalNodeTuple) -> tuple[int, int]:
        node, time = root
        slot = self.compiled.slot(node, time)
        if slot is None or not self.compiled.active_mask[slot]:
            raise InactiveNodeError(node, time)
        return slot

    def distance_blocks(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        reverse_edges: bool = False,
        chunk_size: int = 128,
        sweep_mode: str | None = None,
    ) -> Iterator[tuple[list[TemporalNodeTuple], np.ndarray]]:
        """Run independent searches ``chunk_size`` roots at a time (public form).

        Yields ``(chunk, dist)`` pairs where ``dist`` is the raw ``(T, N, R)``
        int32 distance block whose column ``r`` belongs to ``chunk[r]``
        (``-1`` = unreached).  This is the batched array-level interface the
        engine-backed algorithms layer (influence-leaf detection, community
        unions) consumes when it wants whole blocks rather than decoded
        per-root answers; :meth:`batch` is the decoded convenience form.
        """
        return self._chunked_distances(
            roots,
            direction=direction,
            reverse_edges=reverse_edges,
            chunk_size=chunk_size,
            sweep_mode=sweep_mode,
        )

    def _chunked_distances(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        reverse_edges: bool = False,
        chunk_size: int = 128,
        sweep_mode: str | None = None,
    ) -> Iterator[tuple[list[TemporalNodeTuple], np.ndarray]]:
        """Run independent searches ``chunk_size`` roots at a time.

        Yields ``(chunk, dist)`` pairs where ``dist`` is the ``(T, N, R)``
        distance block whose column ``r`` belongs to ``chunk[r]``.
        """
        root_list = [(r[0], r[1]) for r in roots]
        for start in range(0, len(root_list), chunk_size):
            chunk = root_list[start : start + chunk_size]
            dist = self._run(
                [[self._seed_index(r)] for r in chunk],
                direction,
                reverse_edges=reverse_edges,
                sweep_mode=sweep_mode,
            )
            yield chunk, dist

    def _chunked_hits(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        reverse_edges: bool = False,
        chunk_size: int = 128,
        sweep_mode: str | None = None,
    ) -> Iterator[tuple[list[TemporalNodeTuple], np.ndarray]]:
        """Yield ``(chunk, hit)``: each identity's first (backward: last)
        reached snapshot index per root column, ``(N, R)``, ``-1`` unreached.

        Fused mode runs :func:`reach_closure`; classic reads the same index
        off the level sweep's distance block, as the oracle.
        """
        if direction not in _DIRECTIONS:
            raise GraphError(f"unsupported direction {direction!r}")
        forward = direction == "forward"
        if bitops.resolve_sweep_mode(sweep_mode) == "classic":
            for chunk, dist in self._chunked_distances(
                roots,
                direction=direction,
                reverse_edges=reverse_edges,
                chunk_size=chunk_size,
                sweep_mode="classic",
            ):
                yield chunk, hit_times(dist >= 0, last=not forward)
            return
        root_list = [(r[0], r[1]) for r in roots]
        w = bitops.words_for(self.num_nodes)
        for start in range(0, len(root_list), chunk_size):
            chunk = root_list[start : start + chunk_size]
            hit, _ = reach_closure(
                self,
                [[self._seed_index(r)] for r in chunk],
                np.zeros((len(chunk), w), dtype=np.uint64),
                forward=forward,
                reverse_edges=reverse_edges,
            )
            yield chunk, hit

    def _packed_active(self) -> np.ndarray:
        """The packed ``(T, W)`` activeness words, built once per kernel."""
        if self._active_words is None:
            self._active_words = bitops.pack_bits(self.compiled.active_mask)
        return self._active_words

    def _operator_degrees(self, use_forward_ops: bool) -> list[np.ndarray]:
        """Per-snapshot operator column counts (the push-direction cost model).

        Column ``u`` of operator ``t`` has one stored entry per edge leaving
        ``u``, so these are the out-degrees a push advance gathers; built
        lazily once per orientation (the artifact is immutable).
        """
        degrees = self._operator_degrees_cache.get(use_forward_ops)
        if degrees is None:
            mats = (
                self.compiled.forward_operators
                if use_forward_ops
                else self.compiled.backward_operators
            )
            n = self.compiled.num_nodes
            degrees = [np.bincount(m.indices, minlength=n) for m in mats]
            self._operator_degrees_cache[use_forward_ops] = degrees
        return degrees

    def _run_fused(
        self,
        seeds_per_column: list[list[tuple[int, int]]],
        direction: str,
        *,
        reverse_edges: bool = False,
        boundary: "BoundaryBlock | None" = None,
    ) -> np.ndarray:
        """The bit-packed twin of :meth:`_run`: identical distances, one pass.

        Frontier and visited state stay packed ``(T, R, W)`` uint64 across
        rounds; each level walks the operator stack once in time order,
        fusing the direction-optimized spatial advance with the causal carry
        and every mask (:func:`repro.engine.bitops.fused_update`), and
        unpacks only the newly discovered coordinates to write distances.
        A time shard passes the incoming
        :class:`~repro.engine.sharded_sweep.BoundaryBlock`: the nodes earlier
        shards reached at minimal distance ``m`` seed the causal carry of the
        round assigning ``m + 1``, where the monolithic carry would deliver
        them, and rounds go on while a later boundary level can revive it.
        """
        forward = direction == "forward"
        active_mask = self.compiled.active_mask
        t_count, n = active_mask.shape
        r = len(seeds_per_column)
        w = bitops.words_for(n)
        # distances accumulate in frontier-major (T, R, N) order so each
        # level's write is one vectorized blend over a contiguous block; the
        # caller-facing (T, N, R) layout is a transposed view of the result
        dist = np.full((t_count, r, n), -1, dtype=np.int32)
        frontier = np.zeros((t_count, r, w), dtype=np.uint64)
        for col, seeds in enumerate(seeds_per_column):
            for ti, vi in seeds:
                frontier[ti, col, vi >> 6] |= np.uint64(1 << (vi & 63))
                dist[ti, col, vi] = 0
        visited = frontier.copy()
        use_forward_ops = forward != reverse_edges
        mats = (
            self.compiled.forward_operators
            if use_forward_ops
            else self.compiled.backward_operators
        )
        degrees = self._operator_degrees(use_forward_ops)
        active_words = self._packed_active()
        counter = self.counter
        # the causal carry runs with time for forward searches and against
        # it for backward ones, so one ordered pass replaces the classic
        # full-block accumulate-shift-mask sequence
        order = list(range(t_count)) if forward else list(range(t_count - 1, -1, -1))
        scratch = np.zeros_like(frontier)
        max_ext = -1 if boundary is None else boundary.max_level
        level = 0
        alive = bool(frontier.any())
        while alive or level <= max_ext:
            level += 1
            alive = False
            ext = None if boundary is None else boundary.words(level - 1)
            carry = np.zeros((r, w), dtype=np.uint64) if ext is None else ext.copy()
            for ti in order:
                f_t = frontier[ti]
                new_t = scratch[ti]
                f_any = bool(f_t.any())
                if not f_any and not carry.any():
                    new_t[:] = 0
                    continue
                remaining = active_words[ti] & ~visited[ti]
                if counter is not None:
                    counter.word_ops += 2 * new_t.size  # saturation probe
                if not remaining.any():
                    # every active node is already visited in every column, so
                    # no bit can come out of the masked update: drop the whole
                    # spatial product.  The classic oracle has no such exit —
                    # it pays the full block product every level.
                    new_t[:] = 0
                    if f_any:
                        carry |= f_t
                    continue
                if f_any and mats[ti].nnz:
                    spatial = bitops.advance_blocked(
                        mats[ti],
                        f_t,
                        n,
                        out_degrees=degrees[ti],
                        active_row=active_words[ti],
                        visited_words=visited[ti],
                        counter=counter,
                    )
                else:
                    spatial = np.zeros((r, w), dtype=np.uint64)
                bitops.fused_update(
                    spatial, carry, active_words[ti], visited[ti], f_t, new_t
                )
                if counter is not None:
                    counter.word_ops += bitops.FUSED_UPDATE_WORD_OPS * new_t.size
                if new_t.any():
                    alive = True
                    # every new bit still holds the -1 sentinel (bits enter
                    # visited exactly once), so the level write is a single
                    # vectorized blend instead of a per-bit scatter
                    mask = bitops.unpack_bits(new_t, n)
                    dist[ti] += np.multiply(mask, level + 1, dtype=np.int32)
            frontier, scratch = scratch, frontier
        return dist.transpose(0, 2, 1)

    def _run(
        self,
        seeds_per_column: list[list[tuple[int, int]]],
        direction: str,
        *,
        reverse_edges: bool = False,
        track_parents: bool = False,
        sweep_mode: str | None = None,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Level-synchronous expansion of ``R`` seed sets; ``(T, N, R)`` distances.

        ``sweep_mode`` selects the packed fused path or the classic
        byte-per-cell loop (``None``: the process-wide default, normally
        ``"fused"``); both produce bit-identical distances.  With
        ``track_parents=True`` the sweep always runs classic and the return
        value is the triple ``(dist, parent_t, parent_v)``: for every
        reached slot, the ``(parent_t, parent_v)`` arrays hold the slot that
        discovered it (one valid shortest-path-tree parent; seeds point at
        themselves).  Slots discovered spatially record the in-snapshot
        source node, slots discovered causally record the same node at the
        discovering time.
        """
        if direction not in _DIRECTIONS:
            raise GraphError(f"unsupported direction {direction!r}")
        mode = bitops.resolve_sweep_mode(sweep_mode)
        if mode == "fused" and not track_parents:
            return self._run_fused(
                seeds_per_column, direction, reverse_edges=reverse_edges
            )
        forward = direction == "forward"
        active_mask = self.compiled.active_mask
        t_count, n = active_mask.shape
        r = len(seeds_per_column)
        dist = np.full((t_count, n, r), -1, dtype=np.int32)
        frontier = np.zeros((t_count, n, r), dtype=bool)
        parent_t = parent_v = None
        if track_parents:
            parent_t = np.full((t_count, n, r), -1, dtype=np.int32)
            parent_v = np.full((t_count, n, r), -1, dtype=np.int32)
        for col, seeds in enumerate(seeds_per_column):
            for ti, vi in seeds:
                frontier[ti, vi, col] = True
                dist[ti, vi, col] = 0
                if track_parents:
                    parent_t[ti, vi, col] = ti
                    parent_v[ti, vi, col] = vi

        # spatial expansion: forward time follows out-edges (the forward
        # operator), backward time follows in-edges (its transpose);
        # reverse_edges flips that choice for the citation-mining searches
        use_forward_ops = forward != reverse_edges
        mats = (
            self.compiled.forward_operators
            if use_forward_ops
            else self.compiled.backward_operators
        )
        coords = None
        if track_parents:
            coords = self._parent_coords.get(use_forward_ops)
            if coords is None:
                # (dst row, src column) pairs per snapshot; cached because
                # the compiled stacks never change under this kernel
                coords = [
                    (
                        np.repeat(np.arange(n, dtype=np.int32), np.diff(m.indptr)),
                        m.indices.astype(np.int32),
                    )
                    for m in mats
                ]
                self._parent_coords[use_forward_ops] = coords
        active = active_mask[:, :, None]
        counter = self.counter
        time_stamp = np.arange(1, t_count + 1, dtype=np.int32)[:, None, None]
        level = 0
        while frontier.any():
            level += 1
            # spatial step: one SpMM per snapshot covers all R searches at once
            spatial = np.zeros_like(frontier)
            spatial_src = None
            if track_parents:
                spatial_src = np.zeros((t_count, n, r), dtype=np.int32)
            for ti in range(t_count):
                block = frontier[ti]
                if block.any():
                    product = mats[ti] @ block.astype(np.int32)
                    spatial[ti] = product > 0
                    if counter is not None:
                        counter.multiply_adds += 2 * int(mats[ti].nnz) * r
                    if track_parents and mats[ti].nnz:
                        # per (dst, column): any frontier source on the row
                        # (the max shifted index picks one deterministically)
                        rows, cols = coords[ti]
                        candidates = np.where(block[cols], cols[:, None] + 1, 0)
                        np.maximum.at(spatial_src[ti], rows, candidates)
            # causal step: cumulative OR along time, masked by activeness (⊙)
            causal = np.zeros_like(frontier)
            causal_src_t = None
            if t_count > 1:
                if forward:
                    carried = np.logical_or.accumulate(frontier, axis=0)
                    causal[1:] = carried[:-1]
                else:
                    carried = np.logical_or.accumulate(frontier[::-1], axis=0)[::-1]
                    causal[:-1] = carried[1:]
                causal &= active
                if counter is not None:
                    counter.column_checks += t_count * n * r
                if track_parents:
                    # nearest frontier appearance of the same node in time:
                    # a running max of shifted time stamps over the frontier
                    stamps = np.where(frontier, time_stamp, 0)
                    causal_src_t = np.zeros((t_count, n, r), dtype=np.int32)
                    if forward:
                        run = np.maximum.accumulate(stamps, axis=0)
                        causal_src_t[1:] = run[:-1]
                    else:
                        run = np.maximum.accumulate(stamps[::-1], axis=0)[::-1]
                        causal_src_t[:-1] = run[1:]
            frontier = (spatial | causal) & active & (dist < 0)
            dist[frontier] = level
            if track_parents:
                took_spatial = frontier & spatial
                tt, vv, cc = np.nonzero(took_spatial)
                parent_t[tt, vv, cc] = tt
                parent_v[tt, vv, cc] = spatial_src[tt, vv, cc] - 1
                if causal_src_t is not None:
                    took_causal = frontier & ~spatial
                    tt, vv, cc = np.nonzero(took_causal)
                    parent_t[tt, vv, cc] = causal_src_t[tt, vv, cc] - 1
                    parent_v[tt, vv, cc] = vv
        if track_parents:
            return dist, parent_t, parent_v
        return dist

    def _reached_view(self, dist: np.ndarray, col: int) -> ReachedView:
        """One column of a ``(T, N, R)`` distance block as a ``reached`` view."""
        return ReachedView(dist[:, :, col], self.compiled.axes)

    def _parents_dict(
        self,
        dist: np.ndarray,
        parent_t: np.ndarray,
        parent_v: np.ndarray,
        col: int,
    ) -> dict[TemporalNodeTuple, TemporalNodeTuple]:
        """Decode one column of the parent-slot arrays into temporal-node labels."""
        axes = self.compiled.axes
        labels, times = axes.labels, axes.times
        t_arr, v_arr = np.nonzero(dist[:, :, col] >= 0)
        pt_arr = parent_t[t_arr, v_arr, col]
        pv_arr = parent_v[t_arr, v_arr, col]
        parents: dict[TemporalNodeTuple, TemporalNodeTuple] = {}
        for ti, vi, pt, pv in zip(
            t_arr.tolist(), v_arr.tolist(), pt_arr.tolist(), pv_arr.tolist()
        ):
            parents[(labels[vi], times[ti])] = (labels[pv], times[pt])
        return parents

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FrontierKernel snapshots={self.num_snapshots} "
            f"nodes={self.num_nodes} nnz={self.nnz}>"
        )
