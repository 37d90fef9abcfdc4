"""The scenario engine: run declarative specs, serially or across processes.

:func:`run_scenario` turns one :class:`~repro.experiments.scenario.ScenarioSpec`
into a :class:`ScenarioResult` with a unified summary schema.  :func:`sweep`
expands a base spec over a parameter grid and runs every point — each point
is an independent, deterministic simulation, so points run **in parallel
across worker processes** (``parallel=True``, the default) with bit-identical
summaries to a serial run.

Wall-clock time is recorded per point and for the whole sweep so the
benchmark harness (``benchmarks/bench_scenarios_report.py``) can track
simulator throughput (events per second) across PRs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.common.errors import ConfigurationError, SnapshotError
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import (
    ExperimentResult,
    build_experiment,
    run_experiment,
)
from repro.experiments.scenario import (
    Grid,
    ScenarioSpec,
    build_network_config,
    describe_overrides,
    expand_grid,
)
from repro.sim.network import NetworkConfig
from repro.sim.snapshot import (
    KIND_SWEEP_POINT,
    SimulationState,
    load_checkpoint,
    read_snapshot_file,
    write_snapshot_file,
)
from repro.trace.recorder import JsonlSink, TraceRecorder
from repro.trace.spans import SpanRecorder


@dataclass
class ScenarioResult:
    """One scenario point: the spec that produced it, and what it measured.

    ``result`` holds the full per-node :class:`ExperimentResult` for ``sim``
    scenarios and is ``None`` for analytic kinds, whose numbers live in
    ``extra``.  :meth:`summary` flattens either into one dict with stable
    keys, the unified schema every report and sweep table is built from.
    ``wall_clock_seconds`` is real time, not virtual time, and is therefore
    excluded from :meth:`summary` so summaries are deterministic.
    ``artifacts`` maps each sink the spec enabled (``"telemetry"``,
    ``"spans"``) to the JSONL file written for this point; it is likewise
    excluded from :meth:`summary`, whose bytes are pinned by the golden
    suite regardless of recording.
    """

    spec: ScenarioSpec
    overrides: dict[str, Any] = field(default_factory=dict)
    result: ExperimentResult | None = None
    extra: dict[str, Any] = field(default_factory=dict)
    wall_clock_seconds: float = 0.0
    artifacts: dict[str, str] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return describe_overrides(self.overrides)

    def summary(self) -> dict[str, Any]:
        base: dict[str, Any] = {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "label": self.label,
            "seed": self.spec.seed,
        }
        if self.result is None:
            base.update(self.extra)
            return base
        result = self.result
        latency_medians = [s.p50 for s in result.latency_local if s is not None]
        # Liveness is judged at the honest nodes; a crashed node's frontier
        # is pinned at 0 by construction and would mask real stalls.
        adversarial = set(self.spec.adversary.placement(result.num_nodes))
        honest_delivered = [
            epoch
            for node_id, epoch in enumerate(result.delivered_epochs)
            if node_id not in adversarial
        ]
        base.update(
            {
                "protocol": result.protocol,
                "num_nodes": result.num_nodes,
                "duration": result.duration,
                "mean_throughput": result.mean_throughput,
                "min_throughput": result.min_throughput,
                "max_throughput": result.max_throughput,
                "mean_p50_latency": (
                    sum(latency_medians) / len(latency_medians) if latency_medians else None
                ),
                "dispersal_fraction": (
                    sum(result.dispersal_fractions) / len(result.dispersal_fractions)
                    if result.dispersal_fractions
                    else 0.0
                ),
                "mean_block_size": result.mean_block_size,
                "delivered_epochs": min(honest_delivered, default=0),
                "events_processed": result.events_processed,
            }
        )
        # Adversary-facing metrics (see ExperimentResult.adversary_metrics)
        # join the flat schema so fault sweeps can put them in table columns.
        base.update(result.adversary_metrics)
        return base


def point_filename(
    spec: ScenarioSpec, overrides: Mapping[str, Any] | None, suffix: str
) -> str:
    """A per-point file name: scenario, grid label, seed, then ``suffix``.

    Every component a sweep varies is either in the label (grid overrides)
    or the seed, so parallel points never collide on a file.  Sinks use
    their ``suffix`` (``.jsonl``, ``.spans.jsonl``), checkpoints ``.ckpt``.
    """
    label = describe_overrides(dict(overrides or {}))
    safe_label = re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-") or "base"
    return f"{spec.name}-{safe_label}-seed{spec.seed}{suffix}"


#: Default directory for spec-driven checkpoints when no explicit path is given.
DEFAULT_CHECKPOINT_DIR = "checkpoints"


def new_sinks(spec: ScenarioSpec) -> tuple[JsonlSink, ...]:
    """Fresh sinks for every observer ``spec`` enables, in attach order.

    Telemetry attaches first: its ``t = 0`` sample is scheduled at attach
    time, so the order fixes sequence numbers.
    """
    sinks: list[JsonlSink] = []
    if spec.telemetry.enabled:
        sinks.append(TraceRecorder(interval=spec.telemetry.interval))
    if spec.spans.enabled:
        sinks.append(SpanRecorder())
    return tuple(sinks)


def sink_path(spec: ScenarioSpec, overrides: Mapping[str, Any] | None, sink: JsonlSink) -> Path:
    """Where ``sink``'s file for one point lives: its spec section's ``out_dir``."""
    out_dir = getattr(spec, sink.name).out_dir
    return Path(out_dir) / point_filename(spec, overrides, sink.suffix)


def write_sinks(
    state: SimulationState, targets: Mapping[str, str | Path], *, final: bool
) -> dict[str, str]:
    """Finish (when ``final``), write and clear every sink ``state`` carries.

    ``targets`` maps each sink name to its file.  Clearing makes the next
    write hold only rows recorded after this one, so per-window segments
    concatenate to the monolithic file.  Returns name -> written path.
    """
    written: dict[str, str] = {}
    for sink in state.sinks:
        if final:
            sink.finish(state)
        written[sink.name] = str(sink.write_jsonl(targets[sink.name]))
        sink.rows.clear()
    return written


def _require_sinks(state: SimulationState, spec: ScenarioSpec) -> None:
    """Refuse to resume ``state`` under ``spec`` unless their sinks match exactly.

    A checkpoint only carries the sinks attached when its run was built; a
    resumed run cannot record the rows written before the checkpoint, and
    a carried sink the spec does not enable would write a file nobody asked
    for.  A windowed hand-off checkpoint (``meta["window"]``) carries only
    the rows of its last window, so it cannot rebuild any sink file.
    """
    carried = [sink.name for sink in state.sinks]
    enabled = [sink.name for sink in new_sinks(spec)]
    missing = [name for name in enabled if name not in carried]
    if missing:
        raise ConfigurationError(
            f"spec {spec.name!r} enables {', '.join(missing)} but the checkpoint "
            "carries no such sink; rerun from the start to record it"
        )
    extra = [name for name in carried if name not in enabled]
    if extra:
        raise ConfigurationError(
            f"the checkpoint carries {', '.join(extra)} but spec {spec.name!r} "
            "does not enable it"
        )
    if carried and state.meta.get("window") is not None:
        raise ConfigurationError(
            f"the checkpoint is a windowed hand-off (window {state.meta['window']}); "
            f"its {', '.join(carried)} rows from earlier windows are gone, so "
            "resuming it cannot rewrite the point's files"
        )


def experiment_args(spec: ScenarioSpec) -> dict[str, Any]:
    """The spec's keyword arguments for :func:`build_experiment` / :func:`run_experiment`."""
    return {
        "workload": spec.workload,
        "node_config": spec.node,
        "params": spec.params(),
        "seed": spec.seed,
        "warmup": spec.effective_warmup(),
        "adversary": spec.adversary,
        "max_epochs": spec.max_epochs,
    }


def build_point(
    spec: ScenarioSpec,
    overrides: Mapping[str, Any] | None,
    network_config: NetworkConfig | None = None,
) -> SimulationState:
    """Build one scenario point with the sinks its spec enables attached."""
    return build_experiment(
        spec.protocol,
        network_config or build_network_config(spec),
        spec.duration,
        **experiment_args(spec),
        meta={"spec": spec.to_dict(), "overrides": dict(overrides or {})},
        sinks=new_sinks(spec),
    )


def run_scenario(
    spec: ScenarioSpec,
    overrides: Mapping[str, Any] | None = None,
    *,
    options: ExecutionOptions | None = None,
) -> ScenarioResult:
    """Run one scenario point and wrap the outcome in a :class:`ScenarioResult`.

    The sinks the spec enables (``spec.telemetry``, ``spec.spans``) ride
    along; after the run each is finished and written under its section's
    ``out_dir`` with a per-point name (:func:`point_filename`), and
    ``ScenarioResult.artifacts`` maps the sink name to the file.  The
    summary itself is unchanged.

    When the spec opts into checkpointing (``spec.checkpoint_every``), a
    ``repro-ckpt-v4`` file is written every that many virtual seconds to
    ``options.checkpoint_path`` (default: :data:`DEFAULT_CHECKPOINT_DIR`
    under a per-point ``.ckpt`` name).  ``options.resume_from`` continues a
    previous checkpoint instead of building a fresh run; the checkpoint must
    belong to this exact scenario (fingerprint-checked) and carry exactly
    the sinks the spec enables (:class:`ConfigurationError` otherwise).
    ``options.profiler`` is installed for the run.  Windowed execution
    (``options.windows``) is a sweep-level strategy — use :func:`sweep` for
    it, not this single-point entry.
    """
    started = time.perf_counter()
    opts = options or ExecutionOptions()
    if opts.windows is not None:
        raise ConfigurationError(
            "run_scenario executes one point monolithically; windowed "
            "execution is a sweep-level strategy (sweep(options="
            "ExecutionOptions(windows=...)))"
        )
    overrides = dict(overrides or {})
    if spec.kind == "vid-cost":
        if opts.resume_from is not None:
            raise SnapshotError(
                "vid-cost scenarios are analytic and cannot be checkpointed "
                "or resumed"
            )
        extra = _run_vid_cost(spec)
        return ScenarioResult(
            spec=spec,
            overrides=overrides,
            extra=extra,
            wall_clock_seconds=time.perf_counter() - started,
        )
    network_config = build_network_config(spec)
    if opts.resume_from is None:
        state = build_point(spec, overrides, network_config)
    else:
        # Load here (rather than inside run_experiment) so the restored
        # sinks can be written below; run_experiment checks the fingerprint.
        if isinstance(opts.resume_from, SimulationState):
            state = opts.resume_from
        else:
            state = load_checkpoint(opts.resume_from)
        _require_sinks(state, spec)
    checkpoint_path = opts.checkpoint_path
    if spec.checkpoint_every is not None and checkpoint_path is None:
        checkpoint_path = Path(DEFAULT_CHECKPOINT_DIR) / point_filename(
            spec, overrides, ".ckpt"
        )
    result = run_experiment(
        spec.protocol,
        network_config,
        spec.duration,
        **experiment_args(spec),
        options=ExecutionOptions(
            profiler=opts.profiler,
            checkpoint_every=spec.checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume_from=state,
        ),
    )
    targets = {sink.name: sink_path(spec, overrides, sink) for sink in state.sinks}
    artifacts = write_sinks(state, targets, final=True)
    return ScenarioResult(
        spec=spec,
        overrides=overrides,
        result=result,
        wall_clock_seconds=time.perf_counter() - started,
        artifacts=artifacts,
    )


def _run_vid_cost(spec: ScenarioSpec) -> dict[str, Any]:
    """The Fig. 2 point: modelled dispersal costs plus a measured AVID-M run."""
    from repro.common.params import ProtocolParams
    from repro.experiments.fig02 import measure_avid_m_dispersal_cost
    from repro.vid.costs import (
        avid_fp_per_node_cost,
        avid_m_per_node_cost,
        avid_per_node_cost,
        dispersal_lower_bound,
        normalised_cost,
    )

    n = spec.num_nodes
    block_size = spec.block_size
    params = ProtocolParams.for_n(n)
    return {
        "n": n,
        "block_size": block_size,
        "avid_m": normalised_cost(avid_m_per_node_cost(params, block_size), block_size),
        "avid_fp": normalised_cost(avid_fp_per_node_cost(params, block_size), block_size),
        "avid": normalised_cost(avid_per_node_cost(params, block_size), block_size),
        "lower_bound": normalised_cost(dispersal_lower_bound(params, block_size), block_size),
        "measured_avid_m": measure_avid_m_dispersal_cost(n, block_size),
    }


def _run_point(point: tuple[dict[str, Any], ScenarioSpec]) -> ScenarioResult:
    overrides, spec = point
    return run_scenario(spec, overrides)


# -- sweep crash-resume ----------------------------------------------------


def _point_fingerprint(
    base: ScenarioSpec, grid_values: dict[str, list[Any]], index: int, overrides: dict[str, Any]
) -> str:
    """A digest tying one sweep point to its base spec, grid and position.

    Stored in each per-point result file so a resumed sweep only accepts
    results produced by the *same* sweep: change the base spec, the grid or
    the point order and every stale file is ignored and re-run.
    """
    material = {
        "base": base.to_dict(),
        "grid": grid_values,
        "index": index,
        "overrides": overrides,
    }
    blob = json.dumps(material, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _point_result_path(resume_dir: str | Path, index: int) -> Path:
    return Path(resume_dir) / f"point-{index:04d}.ckpt"


def _run_point_persist(
    point: tuple[dict[str, Any], ScenarioSpec, int, str, str],
) -> ScenarioResult:
    """Run one sweep point and journal its result for crash-resume.

    The result file is written atomically *after* the point completes, so a
    sweep killed mid-point leaves either a complete, loadable result or no
    file at all — never a torn one.
    """
    overrides, spec, index, resume_dir, fingerprint = point
    result = run_scenario(spec, overrides)
    write_snapshot_file(
        _point_result_path(resume_dir, index),
        result,
        kind=KIND_SWEEP_POINT,
        fingerprint=fingerprint,
        extra={"index": index, "label": describe_overrides(overrides)},
    )
    return result


def _load_finished_point(
    resume_dir: str | Path, index: int, fingerprint: str
) -> ScenarioResult | None:
    """A previously-journalled point result, or None if absent/stale/torn."""
    path = _point_result_path(resume_dir, index)
    if not path.exists():
        return None
    try:
        _, payload = read_snapshot_file(
            path, kind=KIND_SWEEP_POINT, expect_fingerprint=fingerprint
        )
    except SnapshotError:
        # Torn, foreign or stale journal entries are re-run, not fatal.
        return None
    return payload if isinstance(payload, ScenarioResult) else None


@dataclass
class SweepResult:
    """Every point of one sweep, in deterministic grid order."""

    base: ScenarioSpec
    grid: dict[str, list[Any]]
    points: list[ScenarioResult]
    parallel: bool
    workers: int
    wall_clock_seconds: float
    #: Point indices whose results were loaded from a resume journal instead
    #: of re-executed (empty when the sweep ran without ``resume_dir``).
    resumed_points: list[int] = field(default_factory=list)
    #: Window count when the sweep ran through the windowed engine
    #: (:mod:`repro.experiments.windowed`); ``None`` for monolithic points.
    windows: int | None = None

    def summaries(self) -> list[dict[str, Any]]:
        return [point.summary() for point in self.points]

    @property
    def events_processed(self) -> int:
        return sum(
            point.result.events_processed for point in self.points if point.result is not None
        )

    @property
    def tx_generated(self) -> int:
        """Transactions injected across every point of the sweep."""
        return sum(
            point.result.tx_generated for point in self.points if point.result is not None
        )

    @property
    def tx_committed(self) -> int:
        """Transactions committed across every point of the sweep."""
        return sum(
            point.result.tx_committed for point in self.points if point.result is not None
        )

    def table(self, columns: Sequence[str] | None = None) -> str:
        """An aligned text table of the point summaries (for CLI output)."""
        summaries = self.summaries()
        if not summaries:
            return "(no points)"
        if columns is None:
            columns = [key for key in summaries[0] if key not in ("name", "kind", "seed")]
        rows = [[_format_cell(summary.get(column)) for column in columns] for summary in summaries]
        widths = [
            max(len(str(column)), *(len(row[i]) for row in rows))
            for i, column in enumerate(columns)
        ]
        header = "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
        lines = [header, "  ".join("-" * width for width in widths)]
        lines.extend("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))) for row in rows)
        return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def default_workers(num_points: int) -> int:
    """Worker-process count: one per point, capped at the CPU count."""
    return max(1, min(num_points, os.cpu_count() or 1))


def run_points(
    points: list[tuple[dict[str, Any], ScenarioSpec]],
    *,
    options: ExecutionOptions | None = None,
) -> tuple[list[ScenarioResult], int]:
    """Run expanded grid points, optionally across processes.

    Returns the results in point order plus the worker count used.  Each
    point is a pure function of its spec (all randomness is seeded from it),
    so the parallel path produces summaries identical to the serial one.
    ``options`` supplies ``parallel`` / ``workers``.
    """
    opts = options or ExecutionOptions()
    workers = opts.workers if opts.workers is not None else default_workers(len(points))
    if not opts.parallel or workers <= 1 or len(points) <= 1:
        return [_run_point(point) for point in points], 1
    with ProcessPoolExecutor(max_workers=workers) as executor:
        results = list(executor.map(_run_point, points))
    return results, workers


def sweep(
    base: ScenarioSpec,
    grid: Grid | None = None,
    *,
    options: ExecutionOptions | None = None,
) -> SweepResult:
    """Expand ``base`` over ``grid`` and run every point.

    Args:
        base: the spec every point starts from.
        grid: ``dotted.path -> values`` axes (see
            :data:`repro.experiments.scenario.Grid`); ``None`` runs just the
            base spec.
        options: the execution strategy (:class:`ExecutionOptions`):

            * ``parallel`` — run points across worker processes (the
              default).  Points never share state, so this is safe for any
              scenario; flip to ``False`` for easier debugging or when
              profiling a single run.
            * ``workers`` — process count (default: one per point, capped
              at the machine's CPU count).
            * ``resume_dir`` — crash-resume journal directory.  Each
              completed point writes its result there atomically
              (``point-NNNN.ckpt``, ``repro-ckpt-v4`` format); rerunning an
              interrupted sweep with the same ``resume_dir`` re-executes
              only the unfinished points and produces a result identical to
              an uninterrupted run.  Stale journals (different base spec,
              grid, or point order) are detected by fingerprint and ignored.
            * ``windows`` — split every point's virtual-time horizon into
              this many checkpoint-hand-off windows and run them through
              :mod:`repro.experiments.windowed` (pipelined across points,
              with warmup-prefix sharing); summaries are byte-identical to
              monolithic points.
    """
    opts = options or ExecutionOptions()
    if opts.windows is not None:
        # Imported here: the windowed engine builds on this module.
        from repro.experiments.windowed import run_windowed_sweep

        return run_windowed_sweep(base, grid, opts)
    started = time.perf_counter()
    # Materialise axis values first: iterator-valued axes must be recorded
    # with the same values expand_grid consumes.
    grid_values = {key: list(values) for key, values in (grid or {}).items()}
    points = expand_grid(base, grid_values)
    resumed: list[int] = []
    if opts.resume_dir is None:
        results, workers = run_points(points, options=opts)
    else:
        journal = Path(opts.resume_dir)
        journal.mkdir(parents=True, exist_ok=True)
        fingerprints = [
            _point_fingerprint(base, grid_values, index, overrides)
            for index, (overrides, _) in enumerate(points)
        ]
        loaded: dict[int, ScenarioResult] = {}
        for index, fingerprint in enumerate(fingerprints):
            prior = _load_finished_point(journal, index, fingerprint)
            if prior is not None:
                loaded[index] = prior
        todo = [
            (overrides, spec, index, str(journal), fingerprints[index])
            for index, (overrides, spec) in enumerate(points)
            if index not in loaded
        ]
        workers = (
            opts.workers if opts.workers is not None else default_workers(max(1, len(todo)))
        )
        if not opts.parallel or workers <= 1 or len(todo) <= 1:
            workers = 1
            fresh = [_run_point_persist(point) for point in todo]
        else:
            with ProcessPoolExecutor(max_workers=workers) as executor:
                fresh = list(executor.map(_run_point_persist, todo))
        fresh_by_index = {point[2]: result for point, result in zip(todo, fresh)}
        results = [
            loaded[index] if index in loaded else fresh_by_index[index]
            for index in range(len(points))
        ]
        resumed = sorted(loaded)
    return SweepResult(
        base=base,
        grid=grid_values,
        points=results,
        parallel=opts.parallel and workers > 1,
        workers=workers,
        wall_clock_seconds=time.perf_counter() - started,
        resumed_points=resumed,
    )
