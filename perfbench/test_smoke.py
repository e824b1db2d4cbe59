"""Toy-size smoke test of the benchmark itself.

Checks that every workload emits every named metric with its unit, in both
the untraced and the traced run, and that a deliberately corrupted answer
trips the answer checks.  Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.serving.server  # noqa: E402
from repro.engine.frontier import FrontierKernel  # noqa: E402
from repro.engine.sharded_sweep import ShardedSweepDriver  # noqa: E402

from perfbench import run, workloads  # noqa: E402
from perfbench.hostspeed import REFERENCE_S, HostProbe  # noqa: E402
from perfbench.inputs import Shape  # noqa: E402

TOY_BATCH = workloads.BatchConfig(
    shape=Shape(nodes=40, snapshots=6, edges=200), roots=200, chunk=4, setups=2
)
TOY_SERVE = workloads.ServeConfig(
    shape=Shape(nodes=40, snapshots=4, edges=160),
    rate=150.0,
    warmup=64,
    closed_queries=256,
    setups=2,
    oracle_queries=4,
)
TOY_CHURN = workloads.ChurnConfig(
    shape=Shape(nodes=40, snapshots=4, edges=160),
    hot_roots=6,
    read_rate=80.0,
    mutate_every_s=0.4,
    inserts=3,
    removes=3,
    setups=2,
    oracle_roots=2,
)
TOY = {
    "batch_bfs": TOY_BATCH,
    "serve_zipf": TOY_SERVE,
    "serve_churn": TOY_CHURN,
    "shard_store": TOY_BATCH,
}
SECONDS = 1.2


def _run(name: str, trace: bool, capsys) -> dict:
    outcome = workloads.WORKLOADS[name](3, SECONDS, trace, TOY[name])
    run.emit(name, outcome, trace, 3, SECONDS)
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, capsys):
    result = _run(name, trace, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(table)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_times_are_put_on_the_reference_host_scale():
    host = HostProbe()
    host.samples = [2 * REFERENCE_S]  # a host at half the reference speed
    raw = {
        "setup_s": 2.0,
        "answers_per_s": 10.0,
        "latency_p50_ms": 40.0,
        "latency_p90_ms": 60.0,
        "peak_rss_mb": 100.0,
    }
    report = {}
    assert workloads._on_reference_host(raw, host, report) == {
        "setup_s": 1.0,
        "answers_per_s": 20.0,
        "latency_p50_ms": 20.0,
        "latency_p90_ms": 30.0,
        "peak_rss_mb": 100.0,
    }
    assert report["raw_latency_p50_ms"] == 40.0
    assert report["host_factor"] == 0.5


def _corrupt_bfs(results: dict) -> dict:
    for result in results.values():
        result.reached[("no-such-node", 0)] = 1
    return results


def _corrupting(method):
    def wrapper(*args, **kwargs):
        return _corrupt_bfs(method(*args, **kwargs))

    return wrapper


@pytest.mark.parametrize(
    "name, owner, attr",
    [
        ("batch_bfs", FrontierKernel, "batch"),
        ("shard_store", ShardedSweepDriver, "batch"),
    ],
)
def test_a_corrupted_batch_answer_fails_the_run(name, owner, attr, capsys, monkeypatch):
    monkeypatch.setattr(owner, attr, _corrupting(owner.__dict__[attr]))
    result = _run(name, False, capsys)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_a_corrupted_served_answer_fails_the_run(capsys, monkeypatch):
    execute_group = repro.serving.server.execute_group

    def corrupting(*args, **kwargs):
        outcome = execute_group(*args, **kwargs)
        outcome.results = [
            {**r, "no-such-node": 0} if isinstance(r, dict) else r
            for r in outcome.results
        ]
        return outcome

    monkeypatch.setattr(repro.serving.server, "execute_group", corrupting)
    result = _run("serve_zipf", False, capsys)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_a_corrupted_warm_patch_fails_the_run(capsys, monkeypatch):
    decode = repro.serving.server.decode_warm_block

    def corrupting(kernel, query, block):
        answer = decode(kernel, query, block)
        return {**answer, "no-such-node": 0} if isinstance(answer, dict) else -7

    monkeypatch.setattr(repro.serving.server, "decode_warm_block", corrupting)
    result = _run("serve_churn", False, capsys)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_without_the_program_the_run_fails_before_printing(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_bfs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode != 0
    assert child.stdout == ""
