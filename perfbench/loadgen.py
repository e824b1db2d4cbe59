"""Load generation from the workload process's own single thread.

Open loop: requests are sent on a schedule fixed before timing starts,
whatever the server's state, and each latency is timed from the request's
due time, so a stall is charged to every request queued behind it.  Closed
loop: the same thread keeps a fixed number of queries in flight through
their futures.  No client threads are added in either mode.

Each phase starts from a fully collected heap, so the garbage collections
that land inside it follow from the phase's own allocations rather than
from whatever ran before.  They stay inside the timed window: they are
the program's cost.
"""

from __future__ import annotations

import functools
import gc
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field

from repro.exceptions import ServerOverloadedError

#: Longest a run waits for any future before declaring it failed.
RESULT_TIMEOUT_S = 60.0

#: The open loop runs a host probe (about 10 ms, see hostspeed.py) only while
#: no request is outstanding and the next one is due at least this far
#: ahead, so the probe neither delays a request nor contends with the
#: server's threads for the interpreter lock ...
PROBE_GAP_S = 0.03
#: ... and at most this often, which spreads the probes over the run.
PROBE_EVERY_S = 0.5


@dataclass
class OpenLoopResult:
    latencies: dict = field(default_factory=dict)  # kind -> [seconds]
    results: list = field(default_factory=list)  # per event: value or None
    attempted: int = 0
    failed: int = 0
    late_s: float = 0.0  # how far the generator ran behind its schedule


def _stamp(done_at: list, i: int, _future) -> None:
    done_at[i] = time.perf_counter()


def open_loop(server, events, host=None) -> OpenLoopResult:
    """Send ``events`` — ``(due_s, kind, payload)`` sorted by ``due_s`` — on time.

    ``kind`` is ``"query"`` (payload: a query) or ``"mutate"`` (payload:
    ``(insertions, removals)``).  ``host``, a ``HostProbe``, is sampled in
    the idle gaps between requests.
    """
    out = OpenLoopResult(results=[None] * len(events))
    gc.collect()
    done_at = [0.0] * len(events)
    futures = [None] * len(events)
    unresolved: set = set()
    start = time.perf_counter() + 0.01
    probed_at = start
    for i, (due, kind, payload) in enumerate(events):
        target = start + due
        if host is not None:
            unresolved = {j for j in unresolved if not done_at[j]}
            now = time.perf_counter()
            if (
                not unresolved
                and target - now >= PROBE_GAP_S
                and now - probed_at >= PROBE_EVERY_S
            ):
                host.sample()
                probed_at = now
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        out.late_s = max(out.late_s, time.perf_counter() - target)
        out.attempted += 1
        try:
            if kind == "query":
                future = server.submit(payload)
            else:
                future = server.mutate(payload[0], removals=payload[1])
        except ServerOverloadedError:
            out.failed += 1
            continue
        future.add_done_callback(functools.partial(_stamp, done_at, i))
        futures[i] = future
        unresolved.add(i)
    for i, (due, kind, _payload) in enumerate(events):
        future = futures[i]
        if future is None:
            continue
        try:
            out.results[i] = future.result(timeout=RESULT_TIMEOUT_S)
        except Exception:  # every failed operation is counted, none hides
            out.failed += 1
            continue
        out.latencies.setdefault(kind, []).append(done_at[i] - (start + due))
    return out


@dataclass
class ClosedLoopResult:
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    latencies: list = field(default_factory=list)  # submit to resolution, seconds


def _record(done: list, sent: float, _future) -> None:
    now = time.perf_counter()
    done.append((now, now - sent))


def closed_loop(server, queries, in_flight: int, seconds: float) -> ClosedLoopResult:
    """Keep ``in_flight`` queries outstanding for ``seconds``, cycling ``queries``.

    Throughput and latencies count the queries resolved by the end of the
    window; the ones still in flight then are drained untimed.
    """
    out = ClosedLoopResult()
    gc.collect()
    pending = set()
    position = 0
    done_log: list = []

    def settle(done) -> int:
        ok = 0
        for future in done:
            if future.exception() is None:
                ok += 1
            else:
                out.failed += 1
        return ok

    start = time.perf_counter()
    end = start + seconds
    while True:
        while len(pending) < in_flight:
            query = queries[position % len(queries)]
            position += 1
            out.attempted += 1
            sent = time.perf_counter()
            try:
                future = server.submit(query)
            except ServerOverloadedError:
                out.failed += 1
                continue
            future.add_done_callback(functools.partial(_record, done_log, sent))
            pending.add(future)
        done, pending = wait(
            pending, timeout=RESULT_TIMEOUT_S, return_when=FIRST_COMPLETED
        )
        out.completed += settle(done)
        now = time.perf_counter()
        if now >= end:
            break
    out.elapsed_s = now - start
    out.latencies = [lat for at, lat in done_log if at <= now]
    rest, unfinished = wait(pending, timeout=RESULT_TIMEOUT_S)
    settle(rest)
    out.failed += len(unfinished)
    return out
