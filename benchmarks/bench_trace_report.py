"""Trace-subsystem report: parse/transform throughput, replay speed, telemetry cost.

Three measurements, appended to ``benchmarks/BENCH_trace.json`` so the perf
trajectory covers the trace layer alongside the coding substrate, scenario
engine and sim core:

* **parse/transform** — load + validate ``traces/wan-measured.csv``
  repeatedly (cache bypassed), resample it onto a 0.5 s grid and lower it
  to pipe bandwidth functions; reported as breakpoints/second.
* **replay** — one ``trace-replay-wan`` point through the scenario engine;
  reported as simulator events/second.
* **telemetry** — the same point with the :class:`~repro.trace.TraceRecorder`
  enabled (0.5 s sampling), asserting the summary stays bit-identical and
  reporting the recording overhead ratio and rows captured.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_trace_report.py [--smoke]

``--smoke`` (CI) shortens the runs and skips the JSON append.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments.catalog import get_scenario
from repro.experiments.engine import run_scenario
from repro.trace import TelemetrySpec, load_trace, read_jsonl

OUTPUT_PATH = Path(__file__).parent / "BENCH_trace.json"
TRACE_PATH = "traces/wan-measured.csv"


def measure_parse(loops: int) -> dict:
    started = time.perf_counter()
    points = 0
    for _ in range(loops):
        trace = load_trace(TRACE_PATH)
        resampled = trace.resampled(0.5)
        trace.bandwidth_traces(resampled.num_nodes)
        points += trace.num_points + resampled.num_points
    seconds = time.perf_counter() - started
    return {
        "loops": loops,
        "seconds": seconds,
        "breakpoints": points,
        "breakpoints_per_second": points / seconds if seconds else 0.0,
    }


def measure_replay(duration: float) -> dict:
    spec = replace(get_scenario("trace-replay-wan").base, duration=duration)

    plain_started = time.perf_counter()
    plain = run_scenario(spec)
    plain_seconds = time.perf_counter() - plain_started

    with tempfile.TemporaryDirectory() as tmp:
        recorded_spec = replace(
            spec, telemetry=TelemetrySpec(enabled=True, interval=0.5, out_dir=tmp)
        )
        recorded_started = time.perf_counter()
        recorded = run_scenario(recorded_spec)
        recorded_seconds = time.perf_counter() - recorded_started
        rows = len(read_jsonl(recorded.artifacts["telemetry"]))

    if plain.summary() != recorded.summary():
        raise RuntimeError("telemetry recording changed the scenario summary")

    events = plain.result.events_processed
    return {
        "scenario": spec.name,
        "duration": duration,
        "events_processed": events,
        "replay_seconds": plain_seconds,
        "replay_events_per_second": events / plain_seconds if plain_seconds else 0.0,
        "telemetry_seconds": recorded_seconds,
        "telemetry_overhead": (
            recorded_seconds / plain_seconds if plain_seconds else 0.0
        ),
        "telemetry_rows": rows,
    }


def run_report(parse_loops: int = 50, duration: float = 10.0) -> dict:
    return {"parse": measure_parse(parse_loops), "replay": measure_replay(duration)}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Trace-subsystem performance report")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced pass for CI (short replay, few parse loops); no JSON append",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        entry = run_report(parse_loops=5, duration=3.0)
    else:
        entry = run_report()
        history: list[dict] = []
        if OUTPUT_PATH.exists():
            history = json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))
        history.append(entry)
        OUTPUT_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
        print(f"appended entry #{len(history)} to {OUTPUT_PATH}")
    parse = entry["parse"]
    replay = entry["replay"]
    print(
        f"parse: {parse['loops']} loads of {TRACE_PATH} in {parse['seconds']:.2f}s "
        f"({parse['breakpoints_per_second']:,.0f} breakpoints/s)"
    )
    print(
        f"replay: {replay['duration']:g}s virtual in {replay['replay_seconds']:.2f}s "
        f"({replay['replay_events_per_second']:,.0f} events/s); telemetry x"
        f"{replay['telemetry_overhead']:.2f} wall ({replay['telemetry_rows']} rows)"
    )


if __name__ == "__main__":
    main()
