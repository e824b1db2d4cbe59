"""The ``reached`` view: mapping contract, pickling and isolation.

Engine backends answer BFS with :class:`repro.engine.answers.ReachedView`, a
``Mapping`` over the reached slots of each root's ``(T, N)`` distance column.
These tests pin the contract the Python oracle's plain dictionaries define:
length, iteration order, lookups that never raise on malformed keys,
equality in both directions, and a ``dict(...)`` escape hatch; plus the
properties only an array-backed answer can break: read-only arrays of
O(reached) size that never alias a block patched later and that a write to
the answer copies instead of touching, and a pickle that carries the arrays
and label axes but not the compiled operator stacks.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.algorithms.incremental import IncrementalBFS
from repro.algorithms.queries import BFSQuery
from repro.core.bfs import evolving_bfs
from repro.engine import get_compiled, get_kernel
from repro.engine.answers import ReachedView
from repro.graph import AdjacencyListEvolvingGraph
from repro.graph.compiled import LabelAxes
from repro.serving import QueryServer

ROOT = (1, "t1")


@pytest.fixture
def answer(figure1):
    view = evolving_bfs(figure1, ROOT, backend="vectorized").reached
    assert isinstance(view, ReachedView)
    return view


@pytest.fixture
def oracle(figure1):
    reached = evolving_bfs(figure1, ROOT, backend="python").reached
    assert type(reached) is dict
    return reached


def _column(graph) -> np.ndarray:
    """The engine's ``(T, N)`` distance column for ``ROOT`` (``-1``: unreached)."""
    return get_kernel(graph).distance_block(ROOT)


def _time_major_dict(graph) -> dict:
    """The dictionary decode the engine used to build, slot by slot."""
    axes = get_compiled(graph).axes
    labels, times = axes.labels, axes.times
    column = _column(graph)
    return {
        (labels[vi], times[ti]): int(column[ti, vi])
        for ti in range(column.shape[0])
        for vi in range(column.shape[1])
        if column[ti, vi] >= 0
    }


# --------------------------------------------------------------------------- #
# the Mapping contract                                                         #
# --------------------------------------------------------------------------- #


def test_length_and_time_major_iteration_order(figure1, answer, oracle):
    expected = _time_major_dict(figure1)
    assert len(answer) == len(oracle) == len(expected)
    assert list(answer) == list(expected)
    assert list(answer.keys()) == list(expected.keys())
    assert list(answer.values()) == list(expected.values())
    assert list(answer.items()) == list(expected.items())
    assert answer[ROOT] == 0
    assert ROOT in answer.keys()
    assert (ROOT, 0) in answer.items()
    assert (ROOT, 1) not in answer.items()


@pytest.mark.parametrize(
    "key",
    [
        [1, "t1"],  # right arity, but an unhashable list
        ([1], "t1"),  # unhashable node label
        (1, {"t1": 0}),  # unhashable time label
        (1,),
        (1, "t1", 0),
        (),
        None,
        "ab",
        42,
        (99, "t1"),  # unknown node
        (1, "t9"),  # unknown time
    ],
)
def test_malformed_and_unknown_keys_are_absent(answer, key):
    assert (key in answer) is False
    assert answer.get(key) is None
    assert answer.get(key, "missing") == "missing"
    with pytest.raises(KeyError):
        answer[key]


def test_unreached_slot_is_absent(figure1, answer):
    axes = answer.axes
    unreached = [
        (axes.labels[vi], axes.times[ti])
        for ti, vi in zip(*np.nonzero(_column(figure1) < 0))
    ]
    assert unreached, "figure1 leaves some slots unreached from (1, t1)"
    for key in unreached:
        assert key not in answer
        assert answer.get(key) is None


def test_equality_against_dicts_in_both_directions(answer, oracle):
    assert answer == oracle
    assert oracle == answer
    assert not answer != oracle
    assert not oracle != answer
    changed = dict(oracle)
    changed[ROOT] = 1
    assert answer != changed and changed != answer
    extra = {**oracle, (99, "t1"): 1}
    assert answer != extra and extra != answer
    missing = dict(oracle)
    missing.pop(ROOT)
    assert answer != missing and missing != answer
    assert answer != {} and {} != answer
    assert answer != list(oracle.items())
    assert answer != 0


def test_view_against_view(figure1, answer):
    again = get_kernel(figure1).bfs(ROOT).reached
    assert again is not answer and again.axes is answer.axes
    assert again == answer
    other_root = get_kernel(figure1).bfs((2, "t1")).reached
    assert other_root != answer
    # a view over a different surface with equal content still compares
    # equal, through the mapping protocol
    copy = AdjacencyListEvolvingGraph(
        list(figure1.temporal_edges()), timestamps=figure1.timestamps
    )
    rebuilt = evolving_bfs(copy, ROOT, backend="vectorized").reached
    assert rebuilt.axes is not answer.axes
    assert rebuilt == answer


def test_arrays_are_read_only_and_writes_copy_on_write(figure1, answer, oracle):
    for stored in (answer._slots, answer._dist):
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 7
    with pytest.raises(TypeError):
        hash(answer)
    stored = (answer._slots.copy(), answer._dist.copy())
    expected = dict(answer)
    other = next(k for k in expected if k != ROOT)
    for edited in (answer, expected):
        edited[ROOT] = 3
        edited[("no-such-node", 0)] = 1
        del edited[other]
    assert answer == expected and expected == answer
    assert list(answer.items()) == list(expected.items())
    assert list(answer.values()) == list(expected.values())
    assert len(answer) == len(expected)
    assert answer[("no-such-node", 0)] == 1 and other not in answer
    assert [1, "t1"] not in answer and answer.get(([1], "t1")) is None
    with pytest.raises(KeyError):
        del answer[other]
    # the stored arrays, and every other answer, are untouched
    assert np.array_equal(answer._slots, stored[0])
    assert np.array_equal(answer._dist, stored[1])
    assert not answer._dist.flags.writeable
    again = get_kernel(figure1).bfs(ROOT).reached
    assert again == oracle and again != answer and answer != again
    restored = pickle.loads(pickle.dumps(answer))
    assert restored == expected and list(restored) == list(expected)


def test_dict_copy_is_plain_and_mutable(answer, oracle):
    copy = dict(answer)
    assert type(copy) is dict
    assert copy == oracle
    assert list(copy) == list(answer)
    copy[ROOT] = 5
    del copy[next(k for k in copy if k != ROOT)]
    assert answer == oracle


def test_incremental_snapshots_are_independent(figure1, oracle):
    search = IncrementalBFS(
        AdjacencyListEvolvingGraph(
            list(figure1.temporal_edges()), timestamps=figure1.timestamps
        ),
        ROOT,
    )
    first = search.distances
    assert isinstance(first, ReachedView) and first == oracle
    first[ROOT] = 9
    assert search.distances == oracle and search.distance(*ROOT) == 0


def test_pickle_carries_arrays_and_axes_not_operators(figure1, answer, oracle):
    compiled = get_compiled(figure1)
    assert compiled.forward_operators  # the stacks exist on the surface
    payload = pickle.dumps(answer)
    assert b"forward_operators" not in payload
    assert b"scipy" not in payload
    restored = pickle.loads(payload)
    assert isinstance(restored, ReachedView)
    assert restored == answer and restored == oracle
    assert list(restored.items()) == list(answer.items())
    assert not restored._slots.flags.writeable
    assert not restored._dist.flags.writeable
    # a payload of many answers ships one copy of the shared axes
    results = get_kernel(figure1).batch(figure1.active_temporal_nodes())
    batch = {root: result.reached for root, result in results.items()}
    views = list(pickle.loads(pickle.dumps(batch)).values())
    assert all(v.axes is views[0].axes for v in views)


def test_views_share_the_surface_axes(figure1):
    compiled = get_compiled(figure1)
    answer = get_kernel(figure1).bfs(ROOT).reached
    assert answer.axes is compiled.axes
    assert compiled.axes.slot(1, "t1") == compiled.slot(1, "t1")
    restored = pickle.loads(pickle.dumps(compiled.axes))
    assert isinstance(restored, LabelAxes)
    assert restored.same_as(compiled.axes)
    assert restored.slot(1, "t1") == compiled.slot(1, "t1")


# --------------------------------------------------------------------------- #
# no aliasing                                                                  #
# --------------------------------------------------------------------------- #


def test_view_owns_its_reached_slots_only(figure1):
    axes = get_compiled(figure1).axes
    shape = (len(axes.times), len(axes.labels))
    for width in (1, 3):
        block = np.full(shape + (width,), -1, dtype=np.int32)
        block[0, 0, 0] = 0
        view = ReachedView(block[:, :, 0], axes)
        assert not np.shares_memory(view._dist, block)
        block[:] = 4  # a later in-place patch of the block
        assert len(view) == 1
        assert view == {(axes.labels[0], axes.times[0]): 0}
        assert view._slots.nbytes + view._dist.nbytes == 8  # O(reached)
    with pytest.raises(ValueError):
        ReachedView(np.zeros((1, 1), dtype=np.int32), axes)


def _chain_graph() -> AdjacencyListEvolvingGraph:
    """A directed path 0 -> 1 -> ... -> 5 in every snapshot 0..2."""
    edges = [(i, i + 1, t) for i in range(5) for t in range(3)]
    return AdjacencyListEvolvingGraph(edges, directed=True)


def test_served_answer_survives_a_later_warm_patch():
    graph = _chain_graph()
    query = BFSQuery(root=(0, 0))
    with QueryServer(graph, window_s=0.002) as server:
        before = server.query(query)
        expected_before = evolving_bfs(graph, (0, 0), backend="python").reached
        assert before == expected_before
        # a shortcut chord shortens distances from the root: the cached
        # entry's warm block is patched in place
        server.mutate([(0, 4, 0), (1, 5, 1)]).result(timeout=30)
        server.join()
        assert server.stats.snapshot()["entries_patched"] == 1
        after = server.query(query)
        assert after == evolving_bfs(graph, (0, 0), backend="python").reached
        assert after != expected_before
        # the answer handed out at the old version is untouched
        assert before == expected_before
        assert isinstance(before, ReachedView)
        assert not np.shares_memory(before._dist, after._dist)
