"""Spans recorded from outside the program, for the traced benchmark run.

The traced run wraps public callables at each layer boundary — at the
attribute their caller looks up, so calls made inside the library are seen
too — and records one span per call: name, start, end, the span that caused
it (the innermost open span on the same thread) and the root span of that
thread's call tree.  Spans stay in memory; the workloads aggregate them into
the per-layer metrics when the run ends.  Nothing under ``src/`` changes and
every wrapped attribute is restored when :func:`traced` exits.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    trace_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Recorder:
    """Thread-aware span store; a span's parent is the innermost open span
    of the thread it runs on."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            name=name,
            start=time.perf_counter(),
            end=0.0,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            trace_id=parent.trace_id if parent else span_id,
            attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_ms(self, name: str) -> float:
        return sum(s.ms for s in self.named(name))


def _wrap_call(recorder: Recorder, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(span, args, result)
            return result

    return wrapper


def _wrap_iterator(recorder: Recorder, name: str, fn):
    """Wrap a callable returning a lazy iterator of ``(chunk, block)`` pairs.

    Each ``next()`` is its own span (the work happens there, not at the
    call), attributed to whatever span is open when the consumer pulls.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def pull():
            while True:
                with recorder.span(name) as span:
                    try:
                        item = next(inner)
                    except StopIteration:
                        span.attrs["columns"] = 0
                        return
                    span.attrs["columns"] = len(item[0])
                yield item

        return pull()

    return wrapper


def _compile_result(state: dict):
    """Mark ``get_compiled`` spans that produced a new artifact."""

    def on_result(span, args, artifact) -> None:
        key = id(args[0])
        if state.get(key) is not artifact:
            state[key] = artifact
            span.attrs["compiled"] = True
            span.attrs["delta"] = artifact.delta_stats

    return on_result


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install the layer-boundary wrappers; restore every original on exit.

    Span names are the layer metric they feed: ``graph.compile``,
    ``engine.sweep`` (monolithic ``distance_blocks``), ``engine.batch``,
    ``engine.label``, ``engine.patch`` (warm patch and shrink),
    ``engine.shard_sweep``, ``engine.shard_batch``, ``engine.shard_label``,
    ``serving.group`` (coalesced ``execute_group``), ``serving.redecode``
    (``decode_warm_block``), ``io.save`` and ``io.load``.
    """
    import repro.engine
    import repro.io
    import repro.serving.server
    from repro.engine.frontier import FrontierKernel
    from repro.engine.labels import LabelKernel
    from repro.engine.sharded_sweep import ShardedSweepDriver

    compiled = _compile_result({})
    plan = [
        (repro.engine, "get_compiled", "graph.compile", "call", compiled),
        (FrontierKernel, "distance_blocks", "engine.sweep", "iter", None),
        (FrontierKernel, "batch", "engine.batch", "call", None),
        (FrontierKernel, "patch_distance_blocks", "engine.patch", "call", None),
        (FrontierKernel, "shrink_distance_blocks", "engine.patch", "call", None),
        (LabelKernel, "earliest_arrivals", "engine.label", "call", None),
        (ShardedSweepDriver, "distance_blocks", "engine.shard_sweep", "iter", None),
        (ShardedSweepDriver, "batch", "engine.shard_batch", "call", None),
        (ShardedSweepDriver, "earliest_arrivals", "engine.shard_label", "call", None),
        (repro.serving.server, "execute_group", "serving.group", "call", None),
        (repro.serving.server, "decode_warm_block", "serving.redecode", "call", None),
        (repro.io, "save_sharded", "io.save", "call", None),
        (repro.io, "load_sharded", "io.load", "call", None),
    ]
    originals = []
    try:
        for owner, attr, name, kind, on_result in plan:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            if kind == "iter":
                wrapper = _wrap_iterator(recorder, name, original)
            else:
                wrapper = _wrap_call(recorder, name, original, on_result)
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
