"""Span-tracing overhead report: hooks off, spans on, profiler on.

The observability layer promises a near-free off switch: with no
:class:`~repro.trace.SpanRecorder` attached and no
:class:`~repro.sim.profiler.SimProfiler` installed, the only cost the
instrumentation adds to the hot paths is an ``is not None`` branch per
hook site.  This report pins that promise with an interleaved A/B/A'
measurement over one ``trace-replay-wan`` point:

* **off vs off** — the same both-layers-off configuration timed twice per
  repeat, interleaved, so the ratio is the honest noise floor of the
  off path (asserted < 1.05: the off switch costs nothing measurable);
* **spans on** — :class:`SpanRecorder` attached, reported as a wall-clock
  ratio against the off runs plus the span-row count;
* **profiler on** — :class:`SimProfiler` installed (every dispatch pays
  two clock reads), same ratio plus attributed events.

Every configuration must produce a bit-identical summary — behaviour
neutrality is re-asserted on each run, not assumed.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_spans_report.py [--smoke]

``--smoke`` (CI) shortens the run and writes a single-entry
``BENCH_spans.json`` to the working directory instead of appending to the
history in ``benchmarks/BENCH_spans.json``.
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
from repro.experiments.options import ExecutionOptions
from repro.sim.profiler import SimProfiler
from repro.trace import SpanSpec, read_jsonl

OUTPUT_PATH = Path(__file__).parent / "BENCH_spans.json"
SCENARIO = "trace-replay-wan"

#: The off-path overhead the report asserts (and the PR gate reads).
OFF_OVERHEAD_LIMIT = 1.05


def _timed_run(spec, profiler=None):
    started = time.perf_counter()
    result = run_scenario(spec, options=ExecutionOptions(profiler=profiler))
    return result, time.perf_counter() - started


def measure(duration: float, repeats: int) -> dict:
    base = replace(get_scenario(SCENARIO).base, duration=duration)
    seconds = {"off_a": [], "off_b": [], "spans": [], "profiler": []}
    span_rows = 0
    profiler_events = 0
    reference = None

    with tempfile.TemporaryDirectory() as tmp:
        span_spec = replace(base, spans=SpanSpec(enabled=True, out_dir=tmp))
        _timed_run(base)  # untimed warmup: imports, allocator, trace cache
        for _ in range(repeats):
            # Interleaved so drift (thermal, cache, scheduler) lands evenly
            # across configurations instead of biasing whichever ran last.
            off_a, t_off_a = _timed_run(base)
            spans, t_spans = _timed_run(span_spec)
            profiler = SimProfiler()
            profiled, t_prof = _timed_run(base, profiler=profiler)
            off_b, t_off_b = _timed_run(base)

            for result in (off_a, spans, profiled, off_b):
                summary = result.summary()
                if reference is None:
                    reference = summary
                elif summary != reference:
                    raise RuntimeError(
                        "span/profiler instrumentation changed the summary"
                    )
            seconds["off_a"].append(t_off_a)
            seconds["off_b"].append(t_off_b)
            seconds["spans"].append(t_spans)
            seconds["profiler"].append(t_prof)
            span_rows = len(read_jsonl(spans.artifacts["spans"]))
            profiler_events = profiler.as_dict()["total_events"]

    best = {name: min(times) for name, times in seconds.items()}
    off = min(best["off_a"], best["off_b"])
    entry = {
        "scenario": SCENARIO,
        "duration": duration,
        "repeats": repeats,
        "off_seconds": off,
        # A/A ratio of the two interleaved off runs: the measured cost of
        # leaving the hooks compiled in with both layers off (noise floor).
        "both_off_overhead": max(best["off_a"], best["off_b"]) / off if off else 0.0,
        "spans_seconds": best["spans"],
        "spans_overhead": best["spans"] / off if off else 0.0,
        "span_rows": span_rows,
        "profiler_seconds": best["profiler"],
        "profiler_overhead": best["profiler"] / off if off else 0.0,
        "profiler_events": profiler_events,
    }
    if entry["both_off_overhead"] >= OFF_OVERHEAD_LIMIT:
        raise RuntimeError(
            f"both-layers-off overhead {entry['both_off_overhead']:.3f} exceeds "
            f"the {OFF_OVERHEAD_LIMIT:.2f} limit"
        )
    return entry


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Span-tracing overhead report")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced pass for CI (short run, 1 repeat); writes BENCH_spans.json "
        "to the working directory instead of appending to the history",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        entry = measure(duration=3.0, repeats=1)
        Path("BENCH_spans.json").write_text(
            json.dumps([entry], indent=2) + "\n", encoding="utf-8"
        )
    else:
        entry = measure(duration=10.0, repeats=3)
        history: list[dict] = []
        if OUTPUT_PATH.exists():
            history = json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))
        history.append(entry)
        OUTPUT_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
        print(f"appended entry #{len(history)} to {OUTPUT_PATH}")
    print(
        f"off: {entry['off_seconds']:.2f}s wall for {entry['duration']:g}s virtual "
        f"(A/A noise floor x{entry['both_off_overhead']:.3f}, limit "
        f"{OFF_OVERHEAD_LIMIT:.2f})"
    )
    print(
        f"spans on: x{entry['spans_overhead']:.2f} wall "
        f"({entry['span_rows']} span rows)"
    )
    print(
        f"profiler on: x{entry['profiler_overhead']:.2f} wall "
        f"({entry['profiler_events']} events attributed)"
    )


if __name__ == "__main__":
    main()
