"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch_bfs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--workload all`` runs every workload listed in
``BENCHMARK.json`` in its own process, untraced and then traced.
``serve_zipf`` is not listed there and runs only when named.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.  The program is
imported from ``src/`` next to this directory; without it the run fails
before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics: ``(name, unit)``.  Every workload reports all five;
#: perfbench/README.md defines each per workload.
END_TO_END = [
    ("setup_s", "s"),
    ("answers_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer metrics of the traced run: ``(name, unit)``.  A layer the
#: workload does not exercise reads 0.
PER_LAYER = [
    ("graph.build_ms", "ms"),
    ("graph.compile_full_ms", "ms"),
    ("graph.compile_delta_ms", "ms"),
    ("graph.snapshots_rebuilt", "count"),
    ("engine.sweep_ms", "ms"),
    ("engine.readout_ms", "ms"),
    ("engine.readout_share", "ratio"),
    ("engine.label_ms", "ms"),
    ("engine.patch_ms", "ms"),
    ("engine.shard_sweep_ms", "ms"),
    ("engine.shard_readout_ms", "ms"),
    ("io.save_ms", "ms"),
    ("io.load_ms", "ms"),
    ("io.open_mb", "MB"),
    ("serving.wait_p50_ms", "ms"),
    ("serving.wait_p99_ms", "ms"),
    ("serving.service_p50_ms", "ms"),
    ("serving.service_p99_ms", "ms"),
    ("serving.group_ms", "ms"),
    ("serving.hit_ratio", "ratio"),
    ("serving.columns_per_sweep", "count"),
    ("serving.redecode_ms", "ms"),
    ("serving.entries_patched", "count"),
    ("serving.shed", "count"),
    ("serving.expired", "count"),
    ("serving.rejected", "count"),
    ("load.late_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]

#: The workloads of BENCHMARK.json, in its order.
WORKLOAD_NAMES = ("batch_bfs", "serve_churn", "shard_store")
#: Runnable by name but not in BENCHMARK.json: its set-up costs too much of
#: the time the full set of runs is allowed (see README.md).
EXTRA_WORKLOADS = ("serve_zipf",)


def fingerprint(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def emit(workload: str, outcome, trace: bool, seed: int, seconds: float) -> dict:
    """Print the readable report and, last, the result line; returns the result."""
    table = PER_LAYER if trace else END_TO_END
    values = outcome.layers if trace else outcome.end_to_end
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in table
    }
    attempted = max(1, outcome.attempted)
    print(f"# workload {workload} trace {int(trace)} seconds {seconds}")
    print(f"# fingerprint {json.dumps(fingerprint(seed))}")
    for name, entry in metrics.items():
        print(f"{workload:12s} {name:28s} {entry['value']:14.4f} {entry['unit']}")
    for name, value in outcome.report.items():
        print(f"{workload:12s} {'report.' + name:28s} {float(value):14.4f}")
    print(
        f"{workload:12s} {'failed_frac':28s} {outcome.failed / attempted:14.4f} ratio"
        f"  ({outcome.failed} of {attempted} failed; {outcome.tally.checked}"
        f" answers checked, {outcome.tally.mismatches} mismatched)"
    )
    result = {
        "correct": outcome.tally.mismatches == 0,
        "attempted": attempted,
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return result


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.workloads import WORKLOADS

    outcome = WORKLOADS[workload](seed, seconds, trace)
    result = emit(workload, outcome, trace, seed, seconds)
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            child = subprocess.run(
                [
                    sys.executable,
                    str(HERE / "run.py"),
                    "--workload",
                    workload,
                    "--seed",
                    str(seed),
                    "--seconds",
                    str(seconds),
                    "--trace",
                    str(trace),
                ],
                stdout=subprocess.PIPE,
                text=True,
                timeout=600,
            )
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, *EXTRA_WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
