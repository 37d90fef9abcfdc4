"""Windowed parallel execution: checkpoint hand-off across worker processes.

A monolithic sweep point simulates its whole horizon ``[0, T)`` in one
process.  This engine splits the horizon into ``W`` windows and executes
them via ``repro-ckpt-v4`` checkpoint hand-off: a window can restore the
state another process left at the previous boundary and continue.  Because
restoring a checkpoint and continuing is bit-identical to never having
stopped (the PR-7 snapshot contract), the chained windows produce exactly
the bytes of the monolithic run — same summaries, same sink rows —
while unlocking two sources of real parallelism on a sweep:

* **Pipelining** — window chains of *different* points are independent
  tasks, so point A runs its later windows while point B is still in its
  first.  Even a two-point sweep keeps two workers busy for most of the
  wall clock.
* **A shared-prefix checkpoint tree** — sweep points that provably agree on
  a prefix of the horizon (same seed, topology, trace and workload;
  differing only in knobs that act *after* some window boundary or only at
  summary time) run that prefix once.  The followers fork the leader's
  checkpoint at the **deepest boundary they still agree on**, re-aim the
  late-acting knobs (:func:`_refit_forked_state`), and continue as
  themselves.  A sweep over summary-time-only knobs (warmup) shares every
  window but the last: four such points cost ``1 + 3/W`` monolithic runs
  instead of ``4`` — a real speedup even on a single core.

Eligibility is decided per boundary by :func:`prefix_key`, a digest of the
spec with exactly the proven-inert fields neutralised: ``warmup`` /
``warmup_fraction`` (summary-time only), ``checkpoint_every`` (subsumed by
the hand-off checkpoints, which this engine ignores by design), and
``workload.stop_after`` when it acts strictly *after* the boundary (every
generator checks ``_stop_at`` at event-fire time, and events at exactly a
boundary run inside the earlier window, so the guard must be strict).
Everything else — notably ``adversary.crash_time``, whose timer event sits
in the heap with its absolute firing time from construction — keeps points
in separate trees.

Windows are the planning unit, but consecutive windows of one point with no
fork demand between them execute **fused** in a single worker: the state
stays live in the process, checkpoints are written only at boundaries some
follower forks from (plus nothing at all for an unshared point), and the
same-point save/load round-trip that a naive one-task-per-window plan pays
at every boundary disappears.  A leader's chain is still split right after
its last forked boundary, so followers start the moment the shared prefix
is on disk rather than when the leader finishes.

Sink stitching: the sinks (telemetry, spans) ride inside the live state.
At each window boundary every sink writes the rows accumulated during that
window to a per-window JSONL segment and clears them; the final window
finishes the sinks (post-run rows, dropped open spans) before writing its
own segments (:func:`~repro.experiments.engine.write_sinks`).
Byte-concatenating a point's segments in window order (a forked point
reuses its leader's segments for every shared window) reproduces the
monolithic file byte for byte.

Entry point: :func:`run_windowed_sweep`, reached through
``sweep(..., options=ExecutionOptions(windows=W))`` or the CLI's
``run --windows W``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.common.errors import ConfigurationError
from repro.experiments.engine import (
    ScenarioResult,
    SweepResult,
    build_point,
    default_workers,
    experiment_args,
    new_sinks,
    sink_path,
    write_sinks,
)
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import _experiment_fingerprint, summarise_experiment
from repro.experiments.scenario import (
    Grid,
    ScenarioSpec,
    build_network_config,
    expand_grid,
)
from repro.sim.snapshot import SimulationState, load_checkpoint, save_checkpoint

__all__ = [
    "plan_windowed_points",
    "prefix_key",
    "run_windowed_sweep",
    "window_boundaries",
]


def window_boundaries(duration: float, windows: int) -> tuple[float, ...]:
    """The end time of each window: ``W`` strictly increasing values, last ``== duration``.

    The last boundary is ``duration`` itself (not a rounded quotient), so the
    final window runs to exactly the horizon a monolithic run uses.
    """
    if windows < 1:
        raise ConfigurationError("windows must be >= 1")
    bounds = [duration * step / windows for step in range(1, windows)]
    bounds.append(duration)
    if bounds[0] <= 0 or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ConfigurationError(
            f"duration {duration} cannot be split into {windows} distinct windows"
        )
    return tuple(bounds)


def prefix_key(spec: ScenarioSpec, boundary: float) -> str:
    """A digest of everything that shapes the spec's event stream up to ``boundary``.

    Two points with equal keys run byte-identical simulations up to (and
    including) ``boundary``, so they can share one execution of that prefix.
    Only fields proven inert during the run are neutralised; any new spec
    field is prefix-relevant by default, which can only cost sharing, never
    correctness.
    """
    material = spec.to_dict()
    # Summary-time only: the warmup enters the throughput denominator after
    # the run, never the event stream.
    material["warmup"] = None
    material["warmup_fraction"] = None
    # The windowed engine ignores periodic checkpointing: the hand-off
    # checkpoints subsume it, and it is behaviour-neutral either way.
    material["checkpoint_every"] = None
    workload = dict(material["workload"])
    stop_after = workload.get("stop_after")
    if stop_after is None or stop_after > boundary:
        # The client cut-off acts at event-fire time, and events at exactly
        # the boundary run inside the earlier window — hence the strict
        # comparison: a cut at the boundary itself already changes the
        # prefix.
        workload["stop_after"] = "after-boundary"
    material["workload"] = workload
    blob = json.dumps(material, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class PointPlan:
    """How one sweep point runs under the windowed engine."""

    index: int
    spec: ScenarioSpec
    overrides: dict[str, Any]
    boundaries: tuple[float, ...]
    #: Point whose checkpoint this point forks (``None`` = this point is a
    #: leader and executes its whole chain from window 0 itself).
    leader: int | None
    #: First window this point executes itself: 0 for a leader, otherwise
    #: the deepest window at whose *start* boundary the point still agrees
    #: with its leader — windows ``[0, fork_window)`` are reused.
    fork_window: int = 0

    @property
    def first_window(self) -> int:
        return self.fork_window


def plan_windowed_points(
    points: list[tuple[dict[str, Any], ScenarioSpec]], windows: int
) -> list[PointPlan]:
    """Group expanded grid points into shared-prefix trees.

    Points are keyed by :func:`prefix_key` at every non-final boundary; the
    first point of each window-0 group (in grid order) becomes the leader,
    and later members fork its chain at the deepest boundary where their
    keys still agree.  With a single window there is nothing to share —
    every point leads its own chain.
    """
    plans: list[PointPlan] = []
    leaders: dict[str, tuple[int, tuple[str, ...]]] = {}
    for index, (overrides, spec) in enumerate(points):
        if spec.kind != "sim":
            raise ConfigurationError(
                "windowed execution requires sim scenarios; point "
                f"{index} has analytic kind {spec.kind!r}"
            )
        boundaries = window_boundaries(spec.duration, windows)
        leader: int | None = None
        fork_window = 0
        if windows > 1:
            # One key per shareable boundary (the final boundary is the end
            # of the run: there is no later window left to fork into).
            keys = tuple(prefix_key(spec, b) for b in boundaries[:-1])
            known = leaders.get(keys[0])
            if known is None:
                leaders[keys[0]] = (index, keys)
            else:
                leader, leader_keys = known
                depth = 0
                while depth < len(keys) and keys[depth] == leader_keys[depth]:
                    depth += 1
                fork_window = depth
        plans.append(
            PointPlan(
                index=index,
                spec=spec,
                overrides=dict(overrides),
                boundaries=boundaries,
                leader=leader,
                fork_window=fork_window,
            )
        )
    return plans


@dataclass(frozen=True)
class _SegmentTask:
    """One unit of work: run windows ``start..end`` of one point in one process."""

    point: int
    start: int
    end: int
    spec: ScenarioSpec
    overrides: dict[str, Any]
    boundaries: tuple[float, ...]
    #: Checkpoint to restore (``None`` = build the simulation fresh).
    source: str | None
    #: Restored state belongs to the prefix leader; re-aim it at this point.
    fork: bool
    #: Hand-off checkpoint to write after ``end`` (``None`` for the final
    #: segment, whose last window ends the run).
    out_checkpoint: str | None
    #: Per-window segment paths of every sink, keyed by sink name and
    #: parallel to ``start..end`` (empty when the spec enables no sink).
    segments: dict[str, tuple[str, ...]]


def _refit_forked_state(
    state: SimulationState, spec: ScenarioSpec, overrides: dict[str, Any]
) -> None:
    """Re-aim a shared prefix checkpoint at a sibling sweep point.

    Only fields :func:`prefix_key` neutralises may differ between the leader
    and this point, and each has exactly one home in the live state: the
    warmup (summarise input), the generators' ``_stop_at`` cursor (declared
    in every generator's ``_SNAPSHOT_FIELDS``), and the scenario metadata +
    fingerprint the checkpoint envelope carries forward.
    """
    state.warmup = spec.effective_warmup()
    for generator in state.generators:
        generator._stop_at = spec.workload.stop_after
    state.fingerprint = _experiment_fingerprint(
        spec.protocol, build_network_config(spec), spec.duration, **experiment_args(spec)
    )
    state.meta = {"spec": spec.to_dict(), "overrides": dict(overrides)}


def _execute_segment(task: _SegmentTask) -> dict[str, Any]:
    """Run one chain segment; runs in a worker process (everything crosses as pickles)."""
    started = time.perf_counter()
    if task.source is None:
        state = build_point(task.spec, task.overrides)
    else:
        state = load_checkpoint(task.source)
        if task.fork:
            _refit_forked_state(state, task.spec, task.overrides)
    result = None
    last = len(task.boundaries) - 1
    for window in range(task.start, task.end + 1):
        state.sim.run(until=task.boundaries[window])
        # Post-run rows belong to the final window's segment; on hand-off
        # the cleared row lists ride forward inside the checkpoint.
        targets = {name: paths[window - task.start] for name, paths in task.segments.items()}
        write_sinks(state, targets, final=window == last)
    if task.end == last:
        result = summarise_experiment(state)
    else:
        # Marks a hand-off: its sinks hold only this window's cleared rows,
        # so resuming it cannot rewrite the point's files (engine refuses).
        state.meta["window"] = task.end
        save_checkpoint(task.out_checkpoint, state)
    return {
        "point": task.point,
        "start": task.start,
        "end": task.end,
        "result": result,
        "wall_clock_seconds": time.perf_counter() - started,
    }


def _build_tasks(
    plans: list[PointPlan], work_dir: Path
) -> tuple[dict[tuple[int, int], _SegmentTask], dict[tuple[int, int], tuple[int, int] | None]]:
    """Materialise the task graph: maximal fused segments, each with ≤ 1 dependency.

    A point's chain is cut only where a checkpoint must exist: after any
    window some follower forks from.  Every other boundary is crossed
    in-process, so an unshared point is exactly one task with no
    checkpoint I/O at all.
    """

    def ckpt(index: int, window: int) -> str:
        return str(_window_file(work_dir, index, window, ".ckpt"))

    # Windows whose end-of-window checkpoint some follower forks from.
    demanded: dict[int, set[int]] = {}
    for plan in plans:
        if plan.leader is not None:
            demanded.setdefault(plan.leader, set()).add(plan.fork_window - 1)

    tasks: dict[tuple[int, int], _SegmentTask] = {}
    deps: dict[tuple[int, int], tuple[int, int] | None] = {}
    # Task that writes the checkpoint at the end of (point, window).
    producer: dict[tuple[int, int], tuple[int, int]] = {}
    for plan in plans:
        last = len(plan.boundaries) - 1
        sinks = new_sinks(plan.spec)
        cuts = sorted(w for w in demanded.get(plan.index, ()) if w < last)
        starts = [plan.first_window] + [w + 1 for w in cuts if w + 1 <= last]
        for start, nxt in zip(starts, starts[1:] + [last + 1]):
            end = nxt - 1
            if start == plan.first_window and plan.leader is not None:
                source: str | None = ckpt(plan.leader, plan.fork_window - 1)
                fork = True
            elif start == 0:
                source, fork = None, False
            else:
                source, fork = ckpt(plan.index, start - 1), False
            key = (plan.index, start)
            tasks[key] = _SegmentTask(
                point=plan.index,
                start=start,
                end=end,
                spec=plan.spec,
                overrides=plan.overrides,
                boundaries=plan.boundaries,
                source=source,
                fork=fork,
                out_checkpoint=ckpt(plan.index, end) if end < last else None,
                segments={
                    sink.name: tuple(
                        str(_window_file(work_dir, plan.index, w, sink.suffix))
                        for w in range(start, end + 1)
                    )
                    for sink in sinks
                },
            )
            if end < last:
                producer[(plan.index, end)] = key
    for key, task in tasks.items():
        if task.source is None:
            deps[key] = None
        elif task.fork:
            plan = plans[task.point]
            deps[key] = producer[(plan.leader, plan.fork_window - 1)]
        else:
            deps[key] = producer[(task.point, task.start - 1)]
    return tasks, deps


def _execute_tasks(
    tasks: dict[tuple[int, int], _SegmentTask],
    deps: dict[tuple[int, int], tuple[int, int] | None],
    parallel: bool,
    workers: int,
) -> dict[tuple[int, int], dict[str, Any]]:
    """Run the task graph to completion, respecting hand-off dependencies."""
    order = sorted(tasks, key=lambda k: (k[1], k[0]))
    if not parallel or workers <= 1 or len(tasks) <= 1:
        # Start-window-major order is a topological order: every dependency
        # produces its checkpoint in a strictly earlier window.
        outcomes: dict[tuple[int, int], dict[str, Any]] = {}
        for key in order:
            outcomes[key] = _execute_segment(tasks[key])
        return outcomes
    outcomes = {}
    children: dict[tuple[int, int], list[tuple[int, int]]] = {}
    unmet: dict[tuple[int, int], int] = {}
    for key, dep in deps.items():
        unmet[key] = 0 if dep is None else 1
        if dep is not None:
            children.setdefault(dep, []).append(key)
    running: dict[tuple[int, int], Any] = {}
    with ProcessPoolExecutor(max_workers=workers) as executor:

        def submit_ready() -> None:
            for key in order:
                if key not in outcomes and key not in running and unmet[key] == 0:
                    running[key] = executor.submit(_execute_segment, tasks[key])

        submit_ready()
        while running:
            done, _ = wait(list(running.values()), return_when=FIRST_COMPLETED)
            for key, future in list(running.items()):
                if future in done:
                    outcomes[key] = future.result()
                    del running[key]
                    for child in children.get(key, ()):
                        unmet[child] -= 1
            submit_ready()
    return outcomes


def _window_file(work_dir: Path, index: int, window: int, suffix: str) -> Path:
    """A point's per-window hand-off file: checkpoint or sink segment."""
    return work_dir / f"point{index:04d}-w{window}{suffix}"


def _stitch(plan: PointPlan, work_dir: Path) -> dict[str, str]:
    """Byte-concatenate each sink's window segments into its monolithic file."""
    artifacts: dict[str, str] = {}
    for sink in new_sinks(plan.spec):
        target = sink_path(plan.spec, plan.overrides, sink)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("wb") as out:
            for window in range(len(plan.boundaries)):
                owner = plan.leader if window < plan.fork_window else plan.index
                out.write(_window_file(work_dir, owner, window, sink.suffix).read_bytes())
        artifacts[sink.name] = str(target)
    return artifacts


def run_windowed_sweep(
    base: ScenarioSpec, grid: Grid | None, options: ExecutionOptions
) -> SweepResult:
    """Expand ``base`` over ``grid`` and run every point through window hand-off.

    Dispatched from :func:`repro.experiments.engine.sweep` when
    ``options.windows`` is set.  Summaries and sink files are
    byte-identical to the monolithic sweep; ``SweepResult.windows`` records
    the window count.  Per-point ``wall_clock_seconds`` is the summed wall
    clock of the point's own chain segments (a shared prefix is credited to
    its leader), so the work saved by the prefix tree is visible in the
    totals.
    """
    windows = options.windows
    if windows is None:
        raise ConfigurationError("run_windowed_sweep requires options.windows")
    started = time.perf_counter()
    grid_values = {key: list(values) for key, values in (grid or {}).items()}
    points = expand_grid(base, grid_values)
    plans = plan_windowed_points(points, windows)
    if options.window_dir is None:
        work_dir = Path(tempfile.mkdtemp(prefix="repro-windowed-"))
        cleanup = True
    else:
        work_dir = Path(options.window_dir)
        work_dir.mkdir(parents=True, exist_ok=True)
        cleanup = False
    try:
        tasks, deps = _build_tasks(plans, work_dir)
        workers = (
            options.workers if options.workers is not None else default_workers(len(points))
        )
        run_parallel = options.parallel and workers > 1 and len(tasks) > 1
        if not run_parallel:
            workers = 1
        outcomes = _execute_tasks(tasks, deps, run_parallel, workers)
        results: list[ScenarioResult] = []
        for plan in plans:
            own = sorted(
                (outcome for key, outcome in outcomes.items() if key[0] == plan.index),
                key=lambda outcome: outcome["start"],
            )
            results.append(
                ScenarioResult(
                    spec=plan.spec,
                    overrides=dict(plan.overrides),
                    result=own[-1]["result"],
                    wall_clock_seconds=sum(o["wall_clock_seconds"] for o in own),
                    artifacts=_stitch(plan, work_dir),
                )
            )
    finally:
        if cleanup:
            shutil.rmtree(work_dir, ignore_errors=True)
    return SweepResult(
        base=base,
        grid=grid_values,
        points=results,
        parallel=run_parallel,
        workers=workers,
        wall_clock_seconds=time.perf_counter() - started,
        windows=windows,
    )
