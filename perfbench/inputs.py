"""Seeded workload inputs, generated by the benchmark rather than the library.

Everything a run feeds the program — edge lists, roots, query mixes,
arrival schedules and mutation batches — is drawn here from the run's seed
before any timing starts, so one seed always gives one input set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.queries import BFSQuery, EarliestArrivalQuery, ReachabilityQuery

#: Query mix of both served workloads: BFS, earliest arrival, reachability.
MIX = (0.45, 0.45, 0.10)


@dataclass(frozen=True)
class Shape:
    nodes: int
    snapshots: int
    edges: int


def edge_list(rng: np.random.Generator, shape: Shape) -> list[tuple[int, int, int]]:
    """``shape.edges`` distinct directed temporal edges ``(u, v, t)``, no self loops."""
    draw = int(shape.edges * 1.05) + 16
    u = rng.integers(0, shape.nodes, size=draw)
    v = rng.integers(0, shape.nodes, size=draw)
    t = rng.integers(0, shape.snapshots, size=draw)
    keep = u != v
    u, v, t = u[keep], v[keep], t[keep]
    keys = (u * shape.nodes + v) * shape.snapshots + t
    _, first = np.unique(keys, return_index=True)
    first.sort()
    first = first[: shape.edges]
    return list(zip(u[first].tolist(), v[first].tolist(), t[first].tolist()))


def active_slots(edges) -> list[tuple[int, int]]:
    """Active temporal nodes ``(node, time)`` of an edge list, in a fixed order."""
    slots = {(u, t) for u, _, t in edges} | {(v, t) for _, v, t in edges}
    return sorted(slots, key=lambda s: (s[1], s[0]))


def stratified_roots(rng: np.random.Generator, slots, count: int, strata: int) -> list:
    """Distinct roots; every run of ``strata`` consecutive roots covers the
    time axis evenly, one root per band of snapshots.

    A root's reach, and so its cost, depends mostly on how early it sits on
    the time axis; one root per band makes each chunk of ``strata`` roots
    cost about the same, whatever the seed.
    """
    times = sorted({t for _, t in slots})
    bands = [set(band.tolist()) for band in np.array_split(np.array(times), strata)]
    pools = []
    for band in bands:
        pool = [s for s in slots if s[1] in band]
        pools.append([pool[i] for i in rng.permutation(len(pool)).tolist()])
    per_band = min(count // strata + 1, min(len(p) for p in pools))
    total = min(count, per_band * strata)
    return [pools[i % strata][i // strata] for i in range(total)]


def zipf_queries(
    rng: np.random.Generator, roots, count: int, targets, exponent: float
) -> list:
    """``count`` queries whose roots follow Zipf(``exponent``) over ``roots``
    (rank order is ``roots`` order), mixed per :data:`MIX`.
    ``targets(i, root)`` gives the target of a reachability query."""
    weights = np.arange(1, len(roots) + 1) ** -float(exponent)
    picks = rng.choice(len(roots), size=count, p=weights / weights.sum())
    kinds = rng.random(count)
    queries = []
    for i, (pick, kind) in enumerate(zip(picks.tolist(), kinds.tolist())):
        root = roots[pick]
        if kind < MIX[0]:
            queries.append(BFSQuery(root=root))
        elif kind < MIX[0] + MIX[1]:
            queries.append(EarliestArrivalQuery(source=root))
        else:
            queries.append(ReachabilityQuery(root=root, target=targets(i, root)))
    return queries


def poisson_times(rng: np.random.Generator, rate: float, duration: float) -> list:
    """Arrival offsets of a Poisson process of ``rate`` per second over ``duration``."""
    out = []
    now = rng.exponential(1.0 / rate)
    while now < duration:
        out.append(now)
        now += rng.exponential(1.0 / rate)
    return out


def churn_batches(
    rng: np.random.Generator,
    edges,
    shape: Shape,
    protected,
    count: int,
    inserts: int,
    removes: int,
) -> list[tuple[list, list]]:
    """``count`` signed batches ``(insertions, removals)`` replayed in order.

    Removals are drawn from the edges present when the batch applies and
    never touch a ``protected`` slot, so no hot root is ever deactivated
    (a BFS from an inactive root is an error, not an answer).  Insertions
    are new edges between existing nodes at existing times, so the
    artifact's axes never change and warm patching always applies.  The
    i-th edit of each kind lands in snapshot ``i % snapshots``: an edit's
    re-sweep cost depends mostly on how early it sits on the time axis, so
    spreading every batch over the axis makes batches cost about the same.
    """
    present = list(edges)
    index = {e: i for i, e in enumerate(present)}
    batches = []
    for _ in range(count):
        removed = []
        while len(removed) < removes:
            edge = present[int(rng.integers(len(present)))]
            u, v, t = edge
            if t != len(removed) % shape.snapshots:
                continue
            if (u, t) in protected or (v, t) in protected or edge in removed:
                continue
            removed.append(edge)
        for edge in removed:
            i = index.pop(edge)
            last = present.pop()
            if i < len(present):
                present[i] = last
                index[last] = i
        added = []
        while len(added) < inserts:
            u, v = (int(x) for x in rng.integers(0, shape.nodes, size=2))
            edge = (u, v, len(added) % shape.snapshots)
            if u == v or edge in index or edge in removed or edge in added:
                continue
            added.append(edge)
        for edge in added:
            index[edge] = len(present)
            present.append(edge)
        batches.append((added, removed))
    return batches
