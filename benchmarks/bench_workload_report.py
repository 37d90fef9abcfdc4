"""Saturating-workload data-plane report.

Runs the saturating express scenario (``kind="saturating"``, which feeds
columnar :class:`~repro.core.txbatch.TxBatch` refills into
:class:`~repro.core.mempool.ColumnarMempool`) and appends its throughput
and peak RSS to ``benchmarks/BENCH_workload.json``.  Run standalone:

    PYTHONPATH=src python benchmarks/bench_workload_report.py

Every run executes in a fresh worker process so ``ru_maxrss`` is a true
per-run peak RSS — the monotone high-water mark of a long-lived process
would otherwise smear across runs.  Entries before the saturating kind
moved onto the columnar plane hold an object-vs-columnar A/B under
``variants``; that object path no longer exists.

``--scale`` additionally times the million-transaction flagship: the
N = 256 express cluster committing 256 x 4096 = 1,048,576 transactions in
one epoch, the acceptance scenario for the columnar data plane (budget:
under 10 minutes on one core).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.core.config import NodeConfig
from repro.experiments.runner import WorkloadSpec
from repro.experiments.scenario import BandwidthSpec, ScenarioSpec, TopologySpec

OUTPUT_PATH = Path(__file__).parent / "BENCH_workload.json"


def saturating_spec(
    *,
    num_nodes: int,
    tx_size: int,
    block_bytes: int,
    seed: int = 1,
) -> ScenarioSpec:
    """One backlogged express epoch: every proposer fills one block."""
    return ScenarioSpec(
        name="bench-workload-saturating",
        protocol="dl",
        topology=TopologySpec(kind="uniform", num_nodes=num_nodes, delay=0.05, express=True),
        bandwidth=BandwidthSpec(kind="unlimited"),
        workload=WorkloadSpec(
            kind="saturating", target_pending_bytes=2 * block_bytes, tx_size=tx_size
        ),
        node=NodeConfig(max_block_size=block_bytes, nagle_size=block_bytes),
        duration=2.0,
        warmup=0.0,
        warmup_fraction=0.0,
        max_epochs=1,
        seed=seed,
    )


def _run_one(spec: ScenarioSpec) -> dict:
    """Worker-process body: run one spec, return its measurements + peak RSS."""
    from repro.experiments.engine import run_scenario

    started = time.perf_counter()
    result = run_scenario(spec).result
    wall = time.perf_counter() - started
    assert result is not None
    return {
        "wall_seconds": wall,
        "events_processed": result.events_processed,
        "tx_generated": result.tx_generated,
        "tx_committed": result.tx_committed,
        # Linux reports ru_maxrss in kilobytes.
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _run_fresh(spec: ScenarioSpec) -> dict:
    """Run ``spec`` in a fresh worker process (one task per child)."""
    with ProcessPoolExecutor(max_workers=1, max_tasks_per_child=1) as pool:
        return pool.submit(_run_one, spec).result()


def run_report(*, num_nodes: int, tx_size: int, block_bytes: int, repeats: int) -> dict:
    spec = saturating_spec(num_nodes=num_nodes, tx_size=tx_size, block_bytes=block_bytes)
    samples = [_run_fresh(spec) for _ in range(repeats)]
    wall = sum(sample["wall_seconds"] for sample in samples)
    return {
        "workload": {
            "num_nodes": num_nodes,
            "tx_size": tx_size,
            "block_bytes": block_bytes,
            "tx_per_block": block_bytes // tx_size,
            "repeats": repeats,
        },
        "cpus": os.cpu_count() or 1,
        "saturating": {
            "runs": len(samples),
            "wall_seconds_mean": wall / len(samples),
            "events_processed": samples[0]["events_processed"],
            "tx_generated": samples[0]["tx_generated"],
            "tx_committed": samples[0]["tx_committed"],
            "tx_generated_per_s": sum(sample["tx_generated"] for sample in samples) / wall,
            "tx_committed_per_s": sum(sample["tx_committed"] for sample in samples) / wall,
            "peak_rss_mb": max(sample["peak_rss_kb"] for sample in samples) / 1024.0,
        },
    }


def run_scale(num_nodes: int = 256, tx_per_block: int = 4096, tx_size: int = 250) -> dict:
    """The million-transaction flagship, in a fresh process."""
    sample = _run_fresh(
        saturating_spec(num_nodes=num_nodes, tx_size=tx_size, block_bytes=tx_per_block * tx_size)
    )
    return {
        "num_nodes": num_nodes,
        "tx_committed": sample["tx_committed"],
        "wall_seconds": sample["wall_seconds"],
        "events_processed": sample["events_processed"],
        "events_per_second": sample["events_processed"] / sample["wall_seconds"],
        "tx_committed_per_s": sample["tx_committed"] / sample["wall_seconds"],
        "peak_rss_mb": sample["peak_rss_kb"] / 1024.0,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Saturating-workload data-plane report")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced run for CI (N=4, 500 KB blocks, 1 repeat); writes "
        "BENCH_workload.json to the working directory instead of appending "
        "to the history",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="also time the million-transaction N=256 flagship (minutes)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        entry = run_report(num_nodes=4, tx_size=250, block_bytes=500_000, repeats=1)
        # CI uploads this single-entry report as a build artifact.
        Path("BENCH_workload.json").write_text(
            json.dumps(entry, indent=2) + "\n", encoding="utf-8"
        )
    else:
        # N = 4 keeps the consensus machinery cheap so the run is
        # data-plane-bound: 4 proposers x 20,000 transactions per 5 MB block.
        entry = run_report(num_nodes=4, tx_size=250, block_bytes=5_000_000, repeats=2)
        if args.scale:
            entry["scale"] = run_scale()
        history: list[dict] = []
        if OUTPUT_PATH.exists():
            history = json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))
        history.append(entry)
        OUTPUT_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
        print(f"appended entry #{len(history)} to {OUTPUT_PATH}")
    run = entry["saturating"]
    print(
        f"saturating {run['wall_seconds_mean']:.3f}s/run, "
        f"{run['tx_committed_per_s']:,.0f} tx committed/s, "
        f"{run['peak_rss_mb']:.0f} MB peak RSS"
    )
    if "scale" in entry:
        scale = entry["scale"]
        print(
            f"scale      N={scale['num_nodes']}: {scale['tx_committed']:,} tx in "
            f"{scale['wall_seconds']:.1f}s ({scale['events_per_second']:,.0f} events/s)"
        )


if __name__ == "__main__":
    main()
