"""Array-backed answers: the ``reached`` view and label readouts.

Algorithm 1 returns ``reached`` as a ``{(v, t): d}`` dictionary.  That is the
interface, not a storage format: a sweep already ends with one ``(T, N)``
distance column per root (``-1``: unreached), the vector form GraphBLAS
returns (Davis, "Algorithm 1000: SuiteSparse:GraphBLAS", ACM TOMS 45(4),
2019).  :class:`ReachedView` answers the mapping protocol over the reached
slots of that column, so decoding a root costs two small arrays instead of
one tuple key per reached temporal node.  Every engine path that answers
with ``reached`` maps builds this one class; the Python backends keep
returning the dictionaries they are the oracle for, and the two compare
equal in both directions.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import ItemsView, Mapping, MutableMapping
from typing import Iterable, Iterator

import numpy as np

from repro.graph.base import Node, TemporalNodeTuple, Time
from repro.graph.compiled import LabelAxes

__all__ = ["ReachedView", "hit_times", "node_times", "node_values", "time_answers"]

_ABSENT = object()


def hit_times(reached: np.ndarray, *, last: bool = False) -> np.ndarray:
    """Per slot of axes ``1:``, the first (``last``: final) True index along
    axis 0, or ``-1``: the running-minimum (maximum) readout behind
    earliest-arrival (latest-departure) answers."""
    if last:
        index = reached.shape[0] - 1 - reached[::-1].argmax(axis=0)
    else:
        index = reached.argmax(axis=0)
    return np.where(reached.any(axis=0), index, -1)


def node_values(row: np.ndarray, axes: LabelAxes) -> dict[Node, int]:
    """``{node: value}`` from an ``(N,)`` row (``-1``: absent).

    The label family's answers stay dictionaries: at most ``N`` entries.
    """
    hits = np.nonzero(row >= 0)[0]
    return dict(zip([axes.labels[vi] for vi in hits.tolist()], row[hits].tolist()))


def node_times(index: np.ndarray, axes: LabelAxes) -> dict[Node, Time]:
    """``{node: time}`` from an ``(N,)`` snapshot-index row (``-1``: absent)."""
    labels, times = axes.labels, axes.times
    hits = np.nonzero(index >= 0)[0]
    return {
        labels[vi]: times[ti] for vi, ti in zip(hits.tolist(), index[hits].tolist())
    }


def time_answers(
    hit_chunks: Iterable[tuple[list, np.ndarray]], axes: LabelAxes
) -> dict[TemporalNodeTuple, dict[Node, Time]]:
    """``{root: {node: time}}`` from ``(chunk, hit)`` pairs, each ``hit`` an
    ``(N, R)`` snapshot-index block: the earliest-arrival and
    latest-departure readout of the kernel and the shard driver alike."""
    return {
        root: node_times(hit[:, col], axes)
        for chunk, hit in hit_chunks
        for col, root in enumerate(chunk)
    }


class ReachedView(MutableMapping):
    """``{(node, time): distance}`` mapping over one root's distance column.

    Built from a ``(T, N)`` column (``-1``: unreached), the view keeps the
    reached slots only: their flat indices ``t * N + v`` in ascending order
    and their distances, two read-only int32 arrays of its own (int64
    indices past ``2**31`` slots).  So an answer costs 8 bytes per reached
    temporal node whatever its reach, far below one tuple key each, and it
    never aliases a block patched later (serving warm blocks, incremental
    state) nor keeps a whole ``(T, N, R)`` sweep block alive.

    Iteration is time-major, then node index.  ``in`` and :meth:`get` treat
    unhashable, wrong-arity and unknown keys as absent.  Equality follows
    the mapping protocol against any mapping, in both directions; views over
    equal axes compare arrays.  The answer belongs to its caller, as the
    oracle's dictionary does: an assignment or deletion copies the view into
    a private dictionary it answers from afterwards (copy on write), so the
    arrays stay read-only and untouched.  ``dict(view)`` makes a plain
    mutable copy.
    """

    __slots__ = ("_slots", "_dist", "_keys", "_values", "_axes", "_edited")

    def __init__(self, column: np.ndarray, axes: LabelAxes) -> None:
        shape = (len(axes.times), len(axes.labels))
        if column.shape != shape:
            raise ValueError(f"column shape {column.shape} does not fit the axes")
        reached = column >= 0
        index = np.int32 if reached.size < 2**31 else np.int64
        slots = np.flatnonzero(reached).astype(index)
        self._init(slots, column[reached].astype(np.int32), axes)

    def _init(self, slots: np.ndarray, dist: np.ndarray, axes: LabelAxes) -> None:
        slots.setflags(write=False)
        dist.setflags(write=False)
        self._slots = slots
        self._dist = dist
        # memoryviews index to plain ints: a bisect over them costs well
        # under a microsecond, where a NumPy scalar search casts the array
        self._keys = slots.data
        self._values = dist.data
        self._axes = axes
        #: The private dictionary after the first write, else ``None``.
        self._edited: dict | None = None

    @property
    def axes(self) -> LabelAxes:
        return self._axes

    def _lookup(self, key):
        """The value stored for ``key``, ``_ABSENT`` when there is none."""
        if self._edited is not None:
            try:
                return self._edited.get(key, _ABSENT)
            except TypeError:  # an unhashable key
                return _ABSENT
        if not isinstance(key, tuple) or len(key) != 2:
            return _ABSENT
        try:
            slot = self._axes.slot(key[0], key[1])
        except TypeError:  # an unhashable label
            return _ABSENT
        if slot is None:
            return _ABSENT
        flat = slot[0] * len(self._axes.labels) + slot[1]
        keys = self._keys
        i = bisect_left(keys, flat)
        if i == len(keys) or keys[i] != flat:
            return _ABSENT
        return self._values[i]

    def __getitem__(self, key) -> int:
        value = self._lookup(key)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return self._lookup(key) is not _ABSENT

    def get(self, key, default=None):
        value = self._lookup(key)
        return default if value is _ABSENT else value

    def _edits(self) -> dict:
        if self._edited is None:
            self._edited = dict(self._items())
        return self._edited

    def __setitem__(self, key, value) -> None:
        self._edits()[key] = value

    def __delitem__(self, key) -> None:
        del self._edits()[key]

    def __len__(self) -> int:
        if self._edited is not None:
            return len(self._edited)
        return len(self._slots)

    def __iter__(self) -> Iterator[TemporalNodeTuple]:
        return (key for key, _ in self._items())

    def _items(self) -> Iterator[tuple[TemporalNodeTuple, int]]:
        if self._edited is not None:
            yield from self._edited.items()
            return
        labels, times = self._axes.labels, self._axes.times
        t_arr, v_arr = np.divmod(self._slots, max(len(labels), 1))
        for ti, vi, d in zip(t_arr.tolist(), v_arr.tolist(), self._dist.tolist()):
            yield (labels[vi], times[ti]), d

    def items(self) -> ItemsView:
        return _Items(self)

    def __eq__(self, other) -> bool:
        if (
            isinstance(other, ReachedView)
            and self._edited is None
            and other._edited is None
            and other._axes.same_as(self._axes)
        ):
            return bool(
                np.array_equal(self._slots, other._slots)
                and np.array_equal(self._dist, other._dist)
            )
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(self) != len(other):
            return False
        for key, value in other.items():
            mine = self._lookup(key)
            if mine is _ABSENT or mine != value:
                return False
        return True

    def __reduce__(self):
        return (_rebuilt, (self._slots, self._dist, self._axes), self._edited)

    def __setstate__(self, edited: dict) -> None:
        self._edited = dict(edited)

    def __repr__(self) -> str:
        return f"ReachedView({dict(self._items())!r})"


def _rebuilt(slots: np.ndarray, dist: np.ndarray, axes: LabelAxes) -> ReachedView:
    """A view over two reached-slot arrays (an unpickled array is writable
    again; the view marks it read-only)."""
    view = ReachedView.__new__(ReachedView)
    view._init(slots, dist, axes)
    return view


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._items()

