"""The four workloads: batch_bfs, serve_zipf, serve_churn and shard_store.

Each workload runs in its own process and returns an :class:`Outcome`.
With ``trace=False`` it sets up ``setups`` times (``setup_s`` is the median)
and measures the end-to-end metrics over ``seconds`` of timed work, with
their times put on the reference-host scale of ``hostspeed.py``.  With
``trace=True`` it sets up under tracing, then runs the first half of the
same inputs twice, untraced and traced, on instances set up alike; it
reports the per-layer metrics of the traced half and the tracing overhead,
and none of its numbers is an end-to-end metric.

Every metric name, unit and the layer-to-end-to-end map are listed in
``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.engine
import repro.io
from repro.algorithms.queries import BFSQuery, EarliestArrivalQuery, ReachabilityQuery
from repro.engine.sharded_sweep import ShardedSweepDriver
from repro.graph.adjacency_list import AdjacencyListEvolvingGraph
from repro.serving import LatencyHistogram, QueryServer

from perfbench import inputs
from perfbench.checks import Tally, ea_from_bfs, oracle_answer, oracle_bfs, oracle_ea
from perfbench.hostspeed import HostProbe
from perfbench.loadgen import closed_loop, open_loop
from perfbench.tracing import Recorder, traced

#: Scratch space for the shard store, inside the checkout.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench_work"


@dataclass(frozen=True)
class BatchConfig:
    shape: inputs.Shape = inputs.Shape(nodes=3000, snapshots=48, edges=120_000)
    roots: int = 4096  # distinct roots drawn; a run uses the first few hundred
    chunk: int = 16  # roots per batch call; decoded answers are dropped per chunk
    shards: int = 3
    setups: int = 3
    oracle_roots: int = 2  # answers compared with the Python oracle
    monolithic_roots: int = 4  # shard_store answers compared with the monolithic kernel


@dataclass(frozen=True)
class ServeConfig:
    shape: inputs.Shape = inputs.Shape(nodes=1500, snapshots=8, edges=40_000)
    rate: float = 80.0  # open-loop arrivals per second
    open_share: float = 0.5  # of the run; the rest is the closed-loop phase
    # Zipf exponent of the roots: with a warm 1024-entry cache about 62% of
    # queries miss (exponent 1 gives 50%, which puts the median latency on
    # the boundary between the hit and the miss path)
    zipf: float = 0.9
    in_flight: int = 32
    # queries served during set-up: enough to fill the cache, so the timed
    # phases start with the heap (and so garbage-collection pauses) at
    # their steady size
    warmup: int = 2048
    closed_queries: int = 8192  # drawn for the closed-loop phase, cycled if used up
    setups: int = 3
    oracle_queries: int = 8


@dataclass(frozen=True)
class ChurnConfig:
    shape: inputs.Shape = inputs.Shape(nodes=1500, snapshots=8, edges=40_000)
    hot_roots: int = 64
    # a low read rate: each read wakes the generator thread,
    # which takes the interpreter lock from the dispatcher mid-patch
    read_rate: float = 25.0
    zipf: float = 1.0
    mutate_every_s: float = 1.5
    inserts: int = 10
    removes: int = 10
    setups: int = 3
    oracle_roots: int = 4


@dataclass
class Outcome:
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)  # extra figures, report only
    attempted: int = 0
    failed: int = 0
    tally: Tally = field(default_factory=Tally)


# ---------------------------------------------------------------------- #
# shared helpers                                                          #
# ---------------------------------------------------------------------- #


def _span(recorder: Recorder | None, name: str):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def _tracing(recorder: Recorder | None):
    return traced(recorder) if recorder is not None else contextlib.nullcontext()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _build(edges, shape: inputs.Shape, recorder):
    with _span(recorder, "graph.build"):
        graph = AdjacencyListEvolvingGraph(edges, timestamps=range(shape.snapshots))
    repro.engine.get_compiled(graph)
    return graph


def _on_reference_host(raw: dict, host: HostProbe, report: dict) -> dict:
    """The end-to-end metrics with their times on the reference-host scale
    (see hostspeed.py); the raw figures and the probe go to ``report``.

    The probe must have been sampled throughout the timed work, on the
    thread and at moments where it competes with nothing of the program's:
    the batch workloads probe after every chunk, the open loop in its idle
    gaps.  Probes taken only before and after a served run tracked its
    speed worse than no scaling at all.
    """
    if not host.samples:  # a run too short or too busy to find a gap
        host.sample()
    factor = host.factor()
    report.update({"raw_" + name: value for name, value in raw.items()})
    report["host_probe_ms"] = _ms(host.median_s())
    report["host_factor"] = factor
    report["host_probes"] = len(host.samples)
    return {
        **raw,
        "setup_s": raw["setup_s"] * factor,
        "answers_per_s": raw["answers_per_s"] / factor,
        "latency_p50_ms": raw["latency_p50_ms"] * factor,
        "latency_p90_ms": raw["latency_p90_ms"] * factor,
    }


def _repeat_setup(setups: int, make, recorder, close=None):
    """Run ``make()`` ``setups`` times; returns the last state and the times.

    Earlier states are closed and dropped before the next set-up starts so
    only one is ever alive.
    """
    times = []
    state = None
    for k in range(setups):
        if state is not None and close is not None:
            close(state)
        state = None
        gc.collect()
        with _tracing(recorder):
            start = time.perf_counter()
            state = make(k)
            times.append(time.perf_counter() - start)
    return state, times


def _setup_layers(recorder: Recorder) -> dict:
    """Set-up span medians; clears the recorder for the traced pass."""
    full = [s.ms for s in recorder.named("graph.compile") if s.attrs.get("compiled")]
    layers = {
        "graph.build_ms": _median([s.ms for s in recorder.named("graph.build")]),
        "graph.compile_full_ms": _median(full),
        "io.save_ms": _median([s.ms for s in recorder.named("io.save")]),
        "io.load_ms": _median([s.ms for s in recorder.named("io.load")]),
    }
    recorder.spans.clear()
    return layers


def _hist_quantile(before: dict, after: dict, q: float) -> float:
    """``q``-quantile in ms of the samples a histogram gained between snapshots.

    Linear within the containing bucket, so the figure moves with the
    samples rather than snapping to a power-of-two bucket bound.
    """
    counts = [b - a for a, b in zip(before["counts"], after["counts"])]
    total = sum(counts)
    if total == 0:
        return 0.0
    bounds = LatencyHistogram.BOUNDS
    rank = q * total
    seen = 0
    for i, c in enumerate(counts):
        if c and seen + c >= rank:
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i] if i < len(bounds) else max(after["max_s"], lo)
            return _ms(lo + (hi - lo) * (rank - seen) / c)
        seen += c
    return _ms(after["max_s"])


def _delta(before: dict, after: dict, key: str) -> int:
    return after[key] - before[key]


def _serving_layers(before: dict, after: dict) -> dict:
    wait_b, wait_a = before["wait_latency"], after["wait_latency"]
    serv_b, serv_a = before["service_latency"], after["service_latency"]
    hits = _delta(before, after, "cache_hits")
    misses = _delta(before, after, "cache_misses")
    return {
        "serving.wait_p50_ms": _hist_quantile(wait_b, wait_a, 0.50),
        "serving.wait_p99_ms": _hist_quantile(wait_b, wait_a, 0.99),
        "serving.service_p50_ms": _hist_quantile(serv_b, serv_a, 0.50),
        "serving.service_p99_ms": _hist_quantile(serv_b, serv_a, 0.99),
        "serving.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.shed": _delta(before, after, "shed"),
        "serving.expired": _delta(before, after, "expired_before_sweep")
        + _delta(before, after, "expired_after_sweep"),
        "serving.rejected": _delta(before, after, "rejected"),
    }


def _columns_per_sweep(before: dict, after: dict) -> float:
    sweeps = _delta(before, after, "sweeps")
    return _delta(before, after, "sweep_columns") / sweeps if sweeps else 0.0


def _group_layers(recorder: Recorder, since: float, until: float) -> dict:
    """Coalesced-group figures from the spans that started in ``[since, until)``."""
    groups = [s for s in recorder.named("serving.group") if since <= s.start < until]
    ids = {s.span_id for s in groups}
    sweeps = [s for s in recorder.named("engine.sweep") if s.parent_id in ids]
    columns = sum(s.attrs.get("columns", 0) for s in sweeps)
    sweep_ms = sum(s.ms for s in sweeps)
    readout_ms = sum(s.ms for s in groups) - sweep_ms
    out = {"serving.group_ms": _median([s.ms for s in groups])}
    if columns:
        out["engine.sweep_ms"] = sweep_ms / columns
        out["engine.readout_ms"] = readout_ms / columns
        out["engine.readout_share"] = readout_ms / (sweep_ms + readout_ms)
    return out


# ---------------------------------------------------------------------- #
# batch_bfs and shard_store: closed-loop offline mining                   #
# ---------------------------------------------------------------------- #


@dataclass
class _BatchState:
    graph: object
    sweeper: object  # FrontierKernel or ShardedSweepDriver
    labeler: object  # LabelKernel or ShardedSweepDriver
    store: object = None  # the memory-mapped ShardedTemporalGraph


@dataclass
class _BatchPass:
    busy_s: float = 0.0
    chunk_s: list = field(default_factory=list)
    answers: int = 0
    roots: int = 0
    missing: int = 0


def _batch_setup(edges, cfg, sharded, store_dir, warm_root, recorder):
    graph = _build(edges, cfg.shape, recorder)
    if sharded:
        compiled = repro.engine.get_compiled(graph)
        repro.io.save_sharded(compiled, str(store_dir), num_shards=cfg.shards)
        store = repro.io.load_sharded(str(store_dir))
        driver = ShardedSweepDriver(store, backend="serial", chunk_size=cfg.chunk)
        state = _BatchState(graph, driver, driver, store)
    else:
        state = _BatchState(
            graph,
            repro.engine.get_kernel(graph),
            repro.engine.get_label_kernel(graph),
        )
    # ready to answer: one sweep builds the kernels' lazy caches
    for _ in state.sweeper.distance_blocks([warm_root], chunk_size=1):
        pass
    return state


def _batch_pass(
    state, chunks, seconds, cfg, inspect, split_sweep, host=None
) -> _BatchPass:
    """Answer chunks closed-loop until ``seconds`` of batch work are done.

    ``split_sweep`` (traced pass only) first sweeps each chunk on its own,
    untimed, so the sweep and readout shares can be told apart.  ``host``,
    if given, is probed once after every chunk, untimed.
    """
    out = _BatchPass()
    gc.collect()  # as the served phases do (see loadgen)
    while out.busy_s < seconds:
        index, chunk = next(chunks)
        if split_sweep:
            for _ in state.sweeper.distance_blocks(chunk, chunk_size=cfg.chunk):
                pass
        start = time.perf_counter()
        bfs = state.sweeper.batch(chunk, chunk_size=cfg.chunk)
        ea = state.labeler.earliest_arrivals(chunk, chunk_size=cfg.chunk)
        elapsed = time.perf_counter() - start
        out.busy_s += elapsed
        out.chunk_s.append(elapsed)
        out.answers += len(bfs) + len(ea)
        out.roots += len(chunk)
        out.missing += 2 * len(chunk) - len(bfs) - len(ea)
        inspect(index, chunk, bfs, ea)
        del bfs, ea  # answers are checked, then dropped: RSS is the program's
        if host is not None:
            host.sample()
    return out


def _batch(seed: int, seconds: float, trace: bool, cfg: BatchConfig, sharded: bool):
    rng = np.random.default_rng(seed)
    edges = inputs.edge_list(rng, cfg.shape)
    slots = inputs.active_slots(edges)
    roots = inputs.stratified_roots(rng, slots, cfg.roots, cfg.chunk)
    warm_root = slots[int(rng.integers(len(slots)))]
    check_rng = np.random.default_rng([seed, 1])
    # answers kept for the final checks: a seeded sample of the first chunk
    picks = check_rng.choice(cfg.chunk, cfg.monolithic_roots, replace=False)
    sample = [roots[i] for i in picks.tolist()]
    kept: dict = {}
    outcome = Outcome()
    tally = outcome.tally

    def inspect(index, chunk, bfs, ea) -> None:
        for root in chunk:
            tally.expect(
                root in bfs and root in ea and bfs[root].reached.get(root) == 0, True
            )
        probe = chunk[int(check_rng.integers(len(chunk)))]
        if probe in bfs and probe in ea:
            tally.expect(ea[probe], ea_from_bfs(bfs[probe].reached))
        for root in sample:
            if root in bfs and root in ea:
                kept[root] = (bfs[root].reached, ea[root])

    def chunk_iter():  # cycles only at toy sizes; a real run uses a few hundred roots
        starts = range(0, len(roots) - cfg.chunk + 1, cfg.chunk)
        for index, start in enumerate(itertools.cycle(starts)):
            yield index, roots[start : start + cfg.chunk]

    recorder = Recorder() if trace else None
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="store-", dir=WORK_DIR))
    try:
        def make(k):
            store_dir = work / f"v{k}"
            return _batch_setup(edges, cfg, sharded, store_dir, warm_root, recorder)

        state, setup_times = _repeat_setup(cfg.setups, make, recorder)
        chunks = chunk_iter()
        if not trace:
            host = HostProbe()
            run = _batch_pass(state, chunks, seconds, cfg, inspect, False, host)
            raw = {
                "setup_s": _median(setup_times),
                "answers_per_s": run.answers / run.busy_s,
                "latency_p50_ms": _ms(_median(run.chunk_s)),
                "latency_p90_ms": _ms(_pct(run.chunk_s, 90)),
                "peak_rss_mb": _peak_rss_mb(),
            }
            outcome.end_to_end = _on_reference_host(raw, host, outcome.report)
            runs = [run]
        else:
            # both halves answer the same chunks, so their rates compare
            layers = _setup_layers(recorder)
            plain = _batch_pass(state, chunks, seconds / 2, cfg, inspect, False)
            with traced(recorder):
                run = _batch_pass(state, chunk_iter(), seconds / 2, cfg, inspect, True)
            runs = [plain, run]
            prefix = "engine.shard_" if sharded else "engine."
            sweep = recorder.total_ms(prefix + "sweep") / run.roots
            readout = recorder.total_ms(prefix + "batch") / run.roots - sweep
            label = recorder.total_ms(prefix + "label") / run.roots
            layers.update(
                {
                    prefix + "sweep_ms": sweep,
                    prefix + "readout_ms": readout,
                    "engine.readout_share": readout / (sweep + readout),
                    "engine.label_ms": label,
                    "trace.overhead_frac": (plain.answers / plain.busy_s)
                    / (run.answers / run.busy_s)
                    - 1.0,
                }
            )
            if sharded:
                layers["io.open_mb"] = state.store.peak_open_bytes / 2**20
            outcome.layers = layers
        outcome.report["roots_answered"] = sum(r.roots for r in runs)

        # untimed checks: the Python oracle on a sample, and for shard_store
        # the monolithic kernel on a larger one, bit for bit
        for root in sample[: cfg.oracle_roots]:
            if root in kept:
                tally.expect(kept[root][0], oracle_bfs(state.graph, root))
                tally.expect(kept[root][1], oracle_ea(state.graph, root))
        if sharded:
            kernel = repro.engine.get_kernel(state.graph)
            labels = repro.engine.get_label_kernel(state.graph)
            mono_bfs = kernel.batch(sample, chunk_size=cfg.chunk)
            mono_ea = labels.earliest_arrivals(sample, chunk_size=cfg.chunk)
            for root in sample:
                if root in kept:
                    tally.expect(kept[root][0], mono_bfs[root].reached)
                    tally.expect(kept[root][1], mono_ea[root])
        if len(kept) < len(sample):
            tally.expect(sorted(kept), sorted(sample))
        outcome.attempted = sum(2 * r.roots for r in runs)
        outcome.failed = sum(r.missing for r in runs) + tally.mismatches
        return outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it


def batch_bfs(seed: int, seconds: float, trace: bool, cfg=BatchConfig()) -> Outcome:
    return _batch(seed, seconds, trace, cfg, sharded=False)


def shard_store(seed: int, seconds: float, trace: bool, cfg=BatchConfig()) -> Outcome:
    return _batch(seed, seconds, trace, cfg, sharded=True)


# ---------------------------------------------------------------------- #
# serve_zipf: read-only open-loop traffic, then a closed-loop phase       #
# ---------------------------------------------------------------------- #


def _serve_setup(edges, shape, warm_queries, recorder, burst=256):
    graph = _build(edges, shape, recorder)
    server = QueryServer(graph)
    for start in range(0, len(warm_queries), burst):
        for future in [server.submit(q) for q in warm_queries[start : start + burst]]:
            future.result(timeout=60.0)
    return server


def serve_zipf(seed: int, seconds: float, trace: bool, cfg=ServeConfig()) -> Outcome:
    rng = np.random.default_rng(seed)
    edges = inputs.edge_list(rng, cfg.shape)
    slots = inputs.active_slots(edges)
    ranked = [slots[i] for i in rng.permutation(len(slots)).tolist()]
    target_picks = rng.integers(len(slots), size=1 << 16)

    def target(i, _root):
        return slots[int(target_picks[i % len(target_picks)])]

    open_s = seconds * cfg.open_share
    closed_s = seconds - open_s
    arrivals = inputs.poisson_times(rng, cfg.rate, open_s)
    queries = inputs.zipf_queries(rng, ranked, len(arrivals), target, cfg.zipf)
    warm = inputs.zipf_queries(rng, ranked, cfg.warmup, target, cfg.zipf)
    # the closed loop draws fresh queries from the same traffic, so its miss
    # rate matches the open loop's instead of replaying cached keys
    saturating = inputs.zipf_queries(rng, ranked, cfg.closed_queries, target, cfg.zipf)
    events = [(due, "query", q) for due, q in zip(arrivals, queries)]
    check_rng = np.random.default_rng([seed, 1])

    outcome = Outcome()
    recorder = Recorder() if trace else None
    server, setup_times = _repeat_setup(
        cfg.setups,
        lambda k: _serve_setup(edges, cfg.shape, warm, recorder),
        recorder,
        close=QueryServer.close,
    )
    try:
        if not trace:
            host = HostProbe()
            ol = open_loop(server, events, host)
            cl = closed_loop(server, saturating, cfg.in_flight, closed_s)
            latencies = ol.latencies.get("query", [])
            # the gated latencies are the closed loop's: open-loop latency at
            # this load is mostly thread wake-up delay, which swings with the
            # host's load (see README); it is reported, not gated
            raw = {
                "setup_s": _median(setup_times),
                "answers_per_s": cl.completed / cl.elapsed_s,
                "latency_p50_ms": _ms(_median(cl.latencies)),
                "latency_p90_ms": _ms(_pct(cl.latencies, 90)),
                "peak_rss_mb": _peak_rss_mb(),
            }
            outcome.end_to_end = _on_reference_host(raw, host, outcome.report)
            outcome.report.update(
                {
                    "query_p50_ms": _ms(_median(latencies)),
                    "query_p90_ms": _ms(_pct(latencies, 90)),
                    "query_p99_ms": _ms(_pct(latencies, 99)),
                    "saturation_qps": outcome.end_to_end["answers_per_s"],
                    "open_loop_queries": len(latencies),
                    "late_ms": _ms(ol.late_s),
                }
            )
            passes = [(ol, cl)]
            results = ol.results
            probe_events = events
        else:
            # the untraced and the traced half replay the same traffic on two
            # servers set up alike, so their rates compare
            layers = _setup_layers(recorder)
            probe_events = [e for e in events if e[0] < open_s / 2]
            plain_server = _serve_setup(edges, cfg.shape, warm, None)
            try:
                plain_ol = open_loop(plain_server, probe_events)
                plain_cl = closed_loop(
                    plain_server, saturating, cfg.in_flight, closed_s / 2
                )
            finally:
                plain_server.close()
            del plain_server
            with traced(recorder):
                s0 = server.stats_snapshot()
                t0 = time.perf_counter()
                ol = open_loop(server, probe_events)
                t1 = time.perf_counter()
                s1 = server.stats_snapshot()
                cl = closed_loop(server, saturating, cfg.in_flight, closed_s / 2)
                s2 = server.stats_snapshot()
            layers.update(_serving_layers(s0, s1))
            layers.update(_group_layers(recorder, t0, t1))
            layers["serving.columns_per_sweep"] = _columns_per_sweep(s1, s2)
            layers["load.late_ms"] = _ms(ol.late_s)
            plain_rate = plain_cl.completed / plain_cl.elapsed_s
            traced_rate = cl.completed / cl.elapsed_s
            layers["trace.overhead_frac"] = plain_rate / traced_rate - 1.0
            outcome.layers = layers
            passes = [(plain_ol, plain_cl), (ol, cl)]
            results = ol.results
        outcome.attempted = sum(o.attempted + c.attempted for o, c in passes)
        outcome.failed = sum(o.failed + c.failed for o, c in passes)
        count = min(cfg.oracle_queries, len(probe_events))
        picks = check_rng.choice(len(probe_events), count, replace=False)
        for i in sorted(picks.tolist()):
            query = probe_events[i][2]
            outcome.tally.expect(results[i], oracle_answer(server.graph, query))
        outcome.failed += outcome.tally.mismatches
        return outcome
    finally:
        server.close()


# ---------------------------------------------------------------------- #
# serve_churn: hot reads beside signed mutation batches                   #
# ---------------------------------------------------------------------- #


def _hot_queries(hot, target_of) -> list:
    out = []
    for root in hot:
        out.append(BFSQuery(root=root))
        out.append(EarliestArrivalQuery(source=root))
        out.append(ReachabilityQuery(root=root, target=target_of[root]))
    return out


def serve_churn(seed: int, seconds: float, trace: bool, cfg=ChurnConfig()) -> Outcome:
    rng = np.random.default_rng(seed)
    edges = inputs.edge_list(rng, cfg.shape)
    slots = inputs.active_slots(edges)
    hot = inputs.stratified_roots(rng, slots, cfg.hot_roots, cfg.shape.snapshots)
    target_of = {root: slots[int(rng.integers(len(slots)))] for root in hot}
    read_times = inputs.poisson_times(rng, cfg.read_rate, seconds)
    reads = inputs.zipf_queries(
        rng, hot, len(read_times), lambda i, root: target_of[root], cfg.zipf
    )
    mutate_times = list(np.arange(cfg.mutate_every_s / 2, seconds, cfg.mutate_every_s))
    batches = inputs.churn_batches(
        rng, edges, cfg.shape, set(hot), len(mutate_times), cfg.inserts, cfg.removes
    )
    events = sorted(
        [(due, "query", q) for due, q in zip(read_times, reads)]
        + [(float(due), "mutate", b) for due, b in zip(mutate_times, batches)],
        key=lambda e: e[0],
    )
    warm = _hot_queries(hot, target_of)
    check_rng = np.random.default_rng([seed, 1])
    picks = check_rng.choice(len(hot), cfg.oracle_roots, replace=False)
    probes = [hot[i] for i in picks.tolist()]

    outcome = Outcome()
    recorder = Recorder() if trace else None
    server, setup_times = _repeat_setup(
        cfg.setups,
        lambda k: _serve_setup(edges, cfg.shape, warm, recorder),
        recorder,
        close=QueryServer.close,
    )
    try:
        if not trace:
            host = HostProbe()
            s0 = server.stats_snapshot()
            ol = open_loop(server, events, host)
            s1 = server.stats_snapshot()
            mutate = ol.latencies.get("mutate", [])
            reads_s = ol.latencies.get("query", [])
            patched = _delta(s0, s1, "entries_patched")
            raw = {
                "setup_s": _median(setup_times),
                "answers_per_s": patched / sum(mutate) if mutate else 0.0,
                "latency_p50_ms": _ms(_median(mutate)),
                # a read's tail latency is the mutate latency it lands behind,
                # minus a fixed offset, so its relative spread is wider; the
                # write tail is gated and the read tail reported
                "latency_p90_ms": _ms(_pct(mutate, 90)),
                "peak_rss_mb": _peak_rss_mb(),
            }
            outcome.end_to_end = _on_reference_host(raw, host, outcome.report)
            outcome.report.update(
                {
                    "mutate_p50_ms": outcome.end_to_end["latency_p50_ms"],
                    "query_p90_ms": _ms(_pct(reads_s, 90)),
                    "query_p99_ms": _ms(_pct(reads_s, 99)),
                    "patched_answers_per_s": outcome.end_to_end["answers_per_s"],
                    "mutations": len(mutate),
                    "reads": len(reads_s),
                    "late_ms": _ms(ol.late_s),
                }
            )
            passes = [ol]
        else:
            # as in serve_zipf: both halves replay the same schedule
            layers = _setup_layers(recorder)
            first = [e for e in events if e[0] < seconds / 2]
            plain_server = _serve_setup(edges, cfg.shape, warm, None)
            try:
                plain = open_loop(plain_server, first)
            finally:
                plain_server.close()
            del plain_server
            with traced(recorder):
                s0 = server.stats_snapshot()
                t0 = time.perf_counter()
                ol = open_loop(server, first)
                t1 = time.perf_counter()
                s1 = server.stats_snapshot()
            per_batch = 1 / max(1, _delta(s0, s1, "mutations"))
            deltas = [
                s for s in recorder.named("graph.compile") if s.attrs.get("delta")
            ]
            layers.update(_serving_layers(s0, s1))
            layers.update(_group_layers(recorder, t0, t1))
            layers.update(
                {
                    "graph.compile_delta_ms": _median([s.ms for s in deltas]),
                    "graph.snapshots_rebuilt": per_batch
                    * sum(s.attrs["delta"]["rebuilt"] for s in deltas),
                    "engine.patch_ms": per_batch * recorder.total_ms("engine.patch"),
                    "serving.redecode_ms": per_batch
                    * recorder.total_ms("serving.redecode"),
                    "serving.entries_patched": per_batch
                    * _delta(s0, s1, "entries_patched"),
                    "serving.columns_per_sweep": _columns_per_sweep(s0, s1),
                    "load.late_ms": _ms(ol.late_s),
                    "trace.overhead_frac": _median(ol.latencies.get("mutate", []))
                    / _median(plain.latencies.get("mutate", [1.0]))
                    - 1.0,
                }
            )
            outcome.layers = layers
            passes = [plain, ol]
        outcome.attempted = sum(p.attempted for p in passes)
        outcome.failed = sum(p.failed for p in passes)
        # untimed: the served (warm-patched) answers on the final version
        # against the Python oracle on the final graph
        server.join(timeout=60.0)
        for root in probes:
            for query in _hot_queries([root], target_of):
                served = server.query(query, timeout=60.0)
                outcome.tally.expect(served, oracle_answer(server.graph, query))
        outcome.failed += outcome.tally.mismatches
        return outcome
    finally:
        server.close()


WORKLOADS = {
    "batch_bfs": batch_bfs,
    "serve_zipf": serve_zipf,
    "serve_churn": serve_churn,
    "shard_store": shard_store,
}
