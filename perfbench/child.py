"""One simulation in a fresh process: build, run, summarise, check, report.

Run by ``run.py``, never by hand::

    python3 perfbench/child.py --spec SPEC.json --spawned-at T \
        --mode plain|traced|memory [--spans OUT.jsonl]

The program is driven only through its public phases:
``build_network_config`` -> ``build_experiment`` ->
``state.sim.run(until=...)`` -> ``summarise_experiment``.  The last line of
standard output is one JSON object (see :func:`main`).

Modes:

* ``plain`` — nothing wrapped; the timed run behind the end-to-end metrics.
  The run goes in :data:`SLICES` slices of virtual time, with
  :func:`hostspeed.reference_loop` timed before each slice and after the
  last and after the summary; the loop's time is not part of the run's.
* ``traced`` — :class:`layers.LayerTracer` wraps every layer's entry points
  before the build; reports calls, self time and counts per layer.
* ``memory`` — ``tracemalloc`` from the build to the horizon; reports live
  bytes per layer, grouped by each allocation's innermost ``repro`` frame.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import ref_seconds, reference_loop
from repro.experiments.runner import build_experiment, summarise_experiment
from repro.experiments.scenario import ScenarioSpec, build_network_config

#: Frames kept per ``tracemalloc`` allocation.  Two reach the ``repro``
#: caller of a dataclass ``__init__`` or a standard-library helper; the cost
#: of tracing grows with the depth, about 5x the plain run's wall time at two.
MEMORY_FRAMES = 2

MB = 1_000_000

#: Slices of virtual time a ``plain`` sample's run is split into.  Each is
#: about a tenth of a wall second or more, so the reference loop's host
#: speed is read often enough to follow the host's phases.
SLICES = 32


def run_sliced(sim, horizon: float) -> tuple[float, list[float]]:
    """``sim.run(until=horizon)`` in :data:`SLICES` slices.

    Returns the wall seconds spent in ``sim.run`` and the reference-loop
    timings taken before each slice and after the last.  The collector
    stays off across the slices, as it does inside one ``Simulator.run``,
    so the loop cannot set off a collection an unsliced run would not make.
    The output check compares every plain sample with the unsliced traced
    one, so a slicing that changed behaviour would fail it.
    """
    timings: list[float] = []
    run_s = 0.0
    gc.disable()
    try:
        for k in range(1, SLICES + 1):
            timings.append(reference_loop())
            start = time.perf_counter()
            sim.run(until=horizon if k == SLICES else horizon * k / SLICES)
            run_s += time.perf_counter() - start
        timings.append(reference_loop())
    finally:
        gc.enable()
    return run_s, timings


def latency_pool(state) -> np.ndarray:
    """Every confirmation latency every node recorded, in node order."""
    parts = []
    for metrics in state.collector.per_node:
        if metrics.latencies_all:
            parts.append(np.asarray(metrics.latencies_all, dtype=np.float64))
        parts.extend(
            np.asarray(column, dtype=np.float64) for _, column in metrics.latency_chunks
        )
    if not parts:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(parts)


def honest_nodes(state) -> list:
    adversarial = set(state.placement)
    return [node for node in state.nodes if node.node_id not in adversarial]


def check_outputs(
    state, result, victim: int | None, sequences: dict[int, list[bytes]]
) -> list[str]:
    """The output check; returns the violations (empty when the run is correct).

    ``sequences`` maps each honest node to its ``Ledger.digest_sequence()``.
    """
    errors: list[str] = []
    honest = honest_nodes(state)
    longest = max(sequences.values(), key=len)
    for node_id, sequence in sequences.items():
        if sequence != longest[: len(sequence)]:
            errors.append(f"node {node_id} ledger is not a prefix of the longest honest ledger")
    for node in honest:
        if node.delivered_epoch < 1:
            errors.append(f"node {node.node_id} delivered no epoch")
    if result.tx_committed <= 0:
        errors.append("no transaction committed")
    if result.tx_committed > result.tx_generated:
        errors.append(
            f"tx_committed {result.tx_committed} exceeds tx_generated {result.tx_generated}"
        )
    if victim is not None:
        for node in honest:
            if node.node_id == victim:
                continue
            got = {entry.epoch for entry in node.ledger.entries if entry.proposer == victim}
            # Linking delivers a censored block at worst one epoch late.
            missing = [e for e in range(1, node.delivered_epoch) if e not in got]
            if missing:
                errors.append(
                    f"node {node.node_id} lacks victim {victim}'s blocks of epochs {missing}"
                )
    return errors


def digest_sequences(state) -> dict[int, list[bytes]]:
    """Each honest node's ``Ledger.digest_sequence()``, hashing each block once.

    On the virtual data plane every node delivers the same ``Block``
    objects, so hashing each object once instead of once per node saves
    most of a second per sample on ``wan-saturate``.
    """
    digests: dict[int, bytes] = {}
    sequences = {}
    for node in honest_nodes(state):
        sequence = []
        for entry in node.ledger.entries:
            key = id(entry.block)
            if key not in digests:
                digests[key] = entry.block.digest()
            sequence.append(digests[key])
        sequences[node.node_id] = sequence
    return sequences


def fingerprint(state, result, pool: np.ndarray, sequences: dict[int, list[bytes]]) -> dict:
    """What a behaviour-neutral change must leave identical."""
    ledgers = hashlib.sha256()
    for sequence in sequences.values():
        ledgers.update(b"".join(sequence) + b"|")
    return {
        "events": state.sim.processed_events,
        "sim_tput": repr(result_tput(state, result)),
        "latency_pool": hashlib.sha256(pool.tobytes()).hexdigest(),
        "ledgers": ledgers.hexdigest(),
    }


def result_tput(state, result) -> float:
    honest = {node.node_id for node in honest_nodes(state)}
    values = [tput for i, tput in enumerate(result.throughputs) if i in honest]
    return sum(values) / len(values) / MB


def layer_ratios(state, result, pool: np.ndarray, tracer) -> dict[str, float]:
    """The deterministic per-layer counts and ratios of a traced run."""
    honest = honest_nodes(state)
    horizon = state.duration
    snapshots = [state.network.link_snapshot(node.node_id) for node in state.nodes]
    egress_bytes = sum(snap["egress_bytes"] for snap in snapshots)
    per_node = state.collector.per_node
    delivered = sum(per_node[node.node_id].blocks_delivered for node in honest)
    linked = sum(per_node[node.node_id].blocks_linked for node in honest)
    counts = tracer.counts
    return {
        "sim.events": state.sim.processed_events,
        "sim.pipe.ingress_util": float(
            np.mean([snap["ingress_busy_time"] / horizon for snap in snapshots])
        ),
        "sim.network.bytes_per_tx": egress_bytes / max(1, result.tx_committed),
        "sim.network.dispersal_fraction": float(
            np.mean([state.network.stats[node.node_id].dispersal_fraction for node in honest])
        ),
        # A decode uses exactly the first N - 2f verified chunks.
        "vid.retrieval_useful_ratio": counts["vid.decodes"]
        * state.nodes[0].params.data_shards
        / max(1, counts["vid.return_chunks"]),
        "ba.rounds_per_instance": counts["ba.coin_flips"] / max(1, counts["ba.instances"]),
        "core.retrieval_lag_epochs": float(
            np.mean([node.agreed_epoch - node.delivered_epoch for node in honest])
        ),
        "core.linked_ratio": linked / max(1, delivered),
        "erasure.mb": tracer.bytes["erasure"] / MB,
        "crypto.mb": tracer.bytes["crypto"] / MB,
        "workload.tx_generated": result.tx_generated,
        "metrics.latency_samples": int(pool.size),
    }


def memory_layer(filename: str) -> str | None:
    """The benchmark layer a ``repro`` source file belongs to (None outside repro)."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    parts = path[at + len(marker):].split("/")
    if len(parts) == 1:
        return None
    package, module = parts[0], parts[1].removesuffix(".py")
    if (package, module) in (
        ("sim", "network"),
        ("sim", "pipe"),
        ("core", "mempool"),
        ("core", "linking"),
    ):
        return f"{package}.{module}"
    return package


def live_mb_by_layer(snapshot) -> dict[str, float]:
    """Live bytes per layer, charged to each allocation's innermost repro frame."""
    from layers import LAYERS

    totals = dict.fromkeys(LAYERS, 0)
    layer_of: dict[str, str | None] = {}
    for stat in snapshot.statistics("traceback"):
        layer = None
        # tracemalloc stores the most recent frame last.
        for frame in reversed(stat.traceback):
            name = frame.filename
            if name not in layer_of:
                layer_of[name] = memory_layer(name)
            layer = layer_of[name]
            if layer is not None:
                break
        if layer in totals:
            totals[layer] += stat.size
    return {f"{layer}.live_mb": size / MB for layer, size in totals.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="time.monotonic() just before this process was spawned",
    )
    parser.add_argument("--mode", choices=("plain", "traced", "memory"), default="plain")
    parser.add_argument("--spans")
    args = parser.parse_args()
    spec = ScenarioSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    # The censored node, whose blocks must still reach every honest ledger.
    victim = spec.adversary.victim if spec.adversary.kind == "censor" else None

    tracer = None
    if args.mode == "traced":
        from layers import LayerTracer, calibrate

        tracer = LayerTracer(*calibrate()).install()
    elif args.mode == "memory":
        import tracemalloc

        tracemalloc.start(MEMORY_FRAMES)

    phase = tracer.wrap if tracer is not None else (lambda layer, fn: fn)
    network_config = phase("experiments", build_network_config)(spec)
    state = phase("experiments", build_experiment)(
        spec.protocol,
        network_config,
        spec.duration,
        workload=spec.workload,
        node_config=spec.node,
        params=spec.params(),
        seed=spec.seed,
        warmup=spec.effective_warmup(),
        adversary=spec.adversary,
        max_epochs=spec.max_epochs,
    )
    built = time.monotonic()
    timings: list[float] = []
    if args.mode == "plain":
        run_s, timings = run_sliced(state.sim, spec.duration)
    else:
        state.sim.run(until=spec.duration)
        run_s = time.monotonic() - built
    live = None
    if args.mode == "memory":
        live = live_mb_by_layer(tracemalloc.take_snapshot())
        tracemalloc.stop()
    summary_start = time.perf_counter()
    result = summarise_experiment(state)
    run_wall_s = run_s + time.perf_counter() - summary_start
    if timings:
        timings.append(reference_loop())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB

    pool = latency_pool(state)
    sequences = digest_sequences(state)
    errors = check_outputs(state, result, victim, sequences)
    p50, p999 = (
        np.percentile(pool, [50.0, 99.9]).tolist() if pool.size else (float("nan"),) * 2
    )
    report = {
        "mode": args.mode,
        "ok": not errors,
        "errors": errors,
        "horizon": spec.duration,
        "setup_s": built - args.spawned_at,
        "run_wall_s": run_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "tx_committed": result.tx_committed,
        "tx_generated": result.tx_generated,
        "sim_tput_MBps": result_tput(state, result),
        "sim_latency_p50_s": p50,
        "sim_latency_p999_s": p999,
        "latency_samples": int(pool.size),
        "fingerprint": fingerprint(state, result, pool, sequences),
    }
    if timings:
        # The first timing follows the build; run.py brackets set-up with it.
        report["ref_after_build_s"] = timings[0]
        report["ref_call_s"] = sum(timings) / len(timings)
        report["run_ref_s"] = ref_seconds(run_wall_s, report["ref_call_s"])
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = {
            **tracer.layer_metrics(),
            **layer_ratios(state, result, pool, tracer),
        }
        if args.spans:
            tracer.write_spans(Path(args.spans))
    if live is not None:
        report["layers"] = live
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    # Skip tearing down millions of simulation objects: it takes about a
    # second per sample and is part of no metric.
    os._exit(0)


if __name__ == "__main__":
    main()
