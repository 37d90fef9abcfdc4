"""The repo's benchmark: seeded simulator workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is one fresh ``child.py`` process that builds, runs, summarises
and checks one simulation of the workload, so set-up time and peak RSS are a
fresh process's.  Samples run one at a time until ``--seconds`` is used up
(at least :data:`MIN_SAMPLES`), and the reported figures are medians.

``--trace 0`` reports the end-to-end metrics, measured with nothing
wrapped.  ``--trace 1`` reports the per-layer metrics: it runs pairs of plain
and traced samples (the traced one wraps every layer's entry points, see
``layers.py``), asserts each traced run's simulated outputs equal the plain
run's, and ends with one ``tracemalloc`` sample for live memory per layer.

Every line but the last is a human-readable table; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A sample fails when its process raises, its
output check fails (see ``child.check_outputs``) or its simulated outputs
differ from the run's first sample.  Metric definitions: ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import ref_seconds, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Generated inputs, span samples and child specs (ignored by git).
WORK_DIR = HERE / "_work"

#: Samples per run at the least, whatever ``--seconds`` says.
MIN_SAMPLES = 3
#: A sample process that runs longer than this has hung.
SAMPLE_TIMEOUT_S = 150.0
#: A run starts no sample that would end after this many seconds.
RUN_LIMIT_S = 165.0


def median(samples: list[dict], numerator: str, denominator: str) -> float:
    """The median over ``samples`` of ``numerator / denominator``."""
    return statistics.median(x[numerator] / x[denominator] for x in samples)


#: How each ``--trace 0`` metric is read from the samples.  Times are in
#: reference seconds (see ``hostspeed.py``); the ``sim_*`` metrics are
#: virtual-time results, identical in every sample of a seed.
END_TO_END = {
    "vsec_per_ref_s": lambda s: median(s, "horizon", "run_ref_s"),
    "tx_per_ref_s": lambda s: median(s, "tx_committed", "run_ref_s"),
    "setup_s": lambda s: statistics.median(x["setup_ref_s"] for x in s),
    "peak_rss_mb": lambda s: statistics.median(x["peak_rss_mb"] for x in s),
    "sim_tput_MBps": lambda s: s[0]["sim_tput_MBps"],
    "sim_latency_p50_s": lambda s: s[0]["sim_latency_p50_s"],
    "sim_latency_p999_s": lambda s: s[0]["sim_latency_p999_s"],
}


def declared_units(kind: str) -> dict[str, str]:
    """``name -> unit`` of the ``kind`` metrics ``BENCHMARK.json`` declares."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in bench[kind]}


class Sampler:
    """Runs ``child.py`` samples of one workload and seed, and keeps the tally."""

    def __init__(self, spec_path: Path, started: float):
        self.spec_path = spec_path
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict | None = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def sample(self, mode: str, spans: Path | None = None) -> dict | None:
        """One fresh-process sample; ``None`` (and a failure) if it went wrong."""
        self.attempted += 1
        command = [
            sys.executable,
            str(HERE / "child.py"),
            "--spec",
            str(self.spec_path),
            "--mode",
            mode,
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONHASHSEED"] = "0"
        timeout = min(SAMPLE_TIMEOUT_S, max(1.0, RUN_LIMIT_S + 10.0 - self.elapsed()))
        ref_before_s = statistics.median(reference_loop() for _ in range(3))
        spawned_at = time.monotonic()
        command += ["--spawned-at", repr(spawned_at)]
        try:
            done = subprocess.run(
                command,
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} sample timed out after {timeout:.0f} s")
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            return self._fail(f"{mode} sample exited {done.returncode}: {tail[0]}")
        try:
            report = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self._fail(f"{mode} sample printed no result")
        if "run_ref_s" in report:
            # Set-up lies between the loop timed here and the child's first.
            report["setup_ref_s"] = ref_seconds(
                report["setup_s"], (ref_before_s + report["ref_after_build_s"]) / 2
            )
        if not report["ok"]:
            return self._fail(f"{mode} sample failed the check: {report['errors'][:3]}")
        if self.reference is None:
            self.reference = report["fingerprint"]
        elif report["fingerprint"] != self.reference:
            return self._fail(
                f"{mode} sample's simulated outputs differ from the first sample's"
            )
        return report

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        return None

    def fits(self, seconds: float, cost: float) -> bool:
        """Whether a sample expected to take ``cost`` seconds ends in time."""
        return self.elapsed() + cost <= min(seconds, RUN_LIMIT_S)


def prepare(workload, seed: int, horizon: float) -> Path:
    """Generate the workload's inputs for ``seed``; returns the spec path."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    spec = workload.build(seed, horizon, WORK_DIR)
    path = WORK_DIR / f"{workload.name}-seed{seed}.json"
    path.write_text(spec.to_json(), encoding="utf-8")
    return path


def end_to_end(sampler: Sampler, seconds: float) -> list[dict]:
    """Plain samples until ``seconds`` is used up; returns the good ones."""
    samples: list[dict] = []
    cost = 0.0
    while sampler.attempted < MIN_SAMPLES or sampler.fits(seconds, cost):
        before = sampler.elapsed()
        report = sampler.sample("plain")
        cost = sampler.elapsed() - before
        if report is not None:
            samples.append(report)
        if sampler.elapsed() > RUN_LIMIT_S:
            break
    return samples


def per_layer(sampler: Sampler, seconds: float, spans: Path) -> dict[str, float]:
    """Plain/traced pairs, then one memory sample; layer metrics."""
    pairs: list[tuple[dict, dict]] = []
    pair_cost = 0.0
    memory_cost = 0.0
    while not pairs or sampler.fits(seconds, pair_cost + memory_cost):
        before = sampler.elapsed()
        plain = sampler.sample("plain")
        traced = sampler.sample("traced", spans if not pairs else None)
        pair_cost = sampler.elapsed() - before
        if plain is None or traced is None:
            break
        pairs.append((plain, traced))
        # tracemalloc slows a run about eightfold.
        memory_cost = 8.0 * plain["run_wall_s"]
    if not pairs:
        return {}
    memory = sampler.sample("memory")
    if memory is None:
        return {}
    traced_layers = [traced["layers"] for _, traced in pairs]
    metrics: dict[str, float] = {}
    for name in traced_layers[0]:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(x[name] for x in traced_layers)
        else:
            metrics[name] = traced_layers[0][name]
    metrics.update(memory["layers"])
    # Each ratio is taken within a pair, whose two samples run back to back,
    # so a slow phase of the host slows both.
    metrics["trace.overhead_ratio"] = statistics.median(
        traced["run_wall_s"] / plain["run_wall_s"] for plain, traced in pairs
    )
    # Near 1 when the cost booked to trace.self_s is all the wrappers cost,
    # so the layer self times add up to an untraced run.
    metrics["trace.corrected_ratio"] = statistics.median(
        (traced["run_wall_s"] - traced["layers"]["trace.self_s"]) / plain["run_wall_s"]
        for plain, traced in pairs
    )
    return metrics


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<34} {value:>16.6g} {unit}")


def run(workload_name: str, seed: int, seconds: float, trace: bool, horizon=None) -> dict:
    """One benchmark run; returns the result object (also printed)."""
    started = time.monotonic()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    horizon = workload.horizon if horizon is None else horizon
    spec_path = prepare(workload, seed, horizon)
    sampler = Sampler(spec_path, started)
    header = (
        f"{workload.name}: seed {seed}, horizon {horizon:g} virtual s, "
        f"{workload.loop} loop"
    )
    if trace:
        spans = WORK_DIR / f"{workload.name}-seed{seed}.spans.jsonl"
        metrics = per_layer(sampler, seconds, spans)
        extra: list[tuple[str, float, str]] = []
    else:
        samples = end_to_end(sampler, seconds)
        (WORK_DIR / f"{spec_path.stem}.samples.json").write_text(
            json.dumps(samples, indent=1), encoding="utf-8"
        )
        metrics = {name: read(samples) for name, read in END_TO_END.items()} if samples else {}
        extra = [("check_fail_ratio", sampler.failed / sampler.attempted, "ratio")]
        if samples:
            extra.append(("latency_samples", samples[0]["latency_samples"], "count"))
            # The same figures in plain wall seconds, which follow the host.
            extra += [
                ("vsec_per_wall_s", median(samples, "horizon", "run_wall_s"), "vs/s"),
                ("tx_per_wall_s", median(samples, "tx_committed", "run_wall_s"), "tx/s"),
                ("setup_wall_s", statistics.median(x["setup_s"] for x in samples), "s"),
                ("ref_call_ms", 1e3 * statistics.median(x["ref_call_s"] for x in samples), "ms"),
            ]
            header += "; run_wall_s per sample: " + " ".join(
                f"{x['run_wall_s']:.3f}" for x in samples
            )
    units = declared_units("per_layer" if trace else "end_to_end")
    rows = [(name, metrics[name], unit) for name, unit in units.items()] if metrics else []
    print_table(f"{header}; {sampler.attempted} samples", rows + extra)
    for error in sampler.errors:
        print(f"  FAILED: {error}")
    result = {
        "correct": sampler.failed == 0 and bool(metrics),
        "attempted": sampler.attempted,
        "failed": sampler.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in rows},
    }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="DispersedLedger simulator benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result["metrics"]:
        print("error: no sample produced a result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
