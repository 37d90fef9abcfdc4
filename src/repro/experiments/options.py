"""The unified execution-options surface for the experiment engine.

:class:`ExecutionOptions` gathers every *how to execute* knob — profiling,
periodic checkpointing and resume, sweep parallelism, the crash-resume
journal and windowed hand-off — into one frozen, validated dataclass
accepted by :func:`~repro.experiments.runner.run_experiment`,
:func:`~repro.experiments.runner.resume_experiment`,
:func:`~repro.experiments.engine.run_scenario`,
:func:`~repro.experiments.engine.run_points` and
:func:`~repro.experiments.engine.sweep` (each consumer reads the fields that
apply to it and documents which those are).  The *what* stays in
:class:`~repro.experiments.scenario.ScenarioSpec`; the *how* lives here, so
a spec remains a complete deterministic recipe whose summary is byte-identical
under every execution strategy.  Run observers (telemetry, spans) are not
options: the engine builds them from the spec's ``telemetry`` / ``spans``
fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.common.errors import ConfigurationError

__all__ = ["ExecutionOptions"]


@dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a run or sweep (never *what* to simulate).

    Every field is execution strategy only: any combination produces
    summaries byte-identical to the defaults — that invariant is pinned by
    the golden suite and the windowed property tests.

    Attributes:
        profiler: a :class:`~repro.sim.profiler.SimProfiler` installed on the
            simulator for the run; host-side observability only — virtual
            behaviour is identical with or without it.
        checkpoint_every: write a ``repro-ckpt-v4`` checkpoint every this
            many virtual seconds (:func:`run_experiment` /
            :func:`resume_experiment`; the scenario engine reads the spec's
            ``checkpoint_every`` instead).
        checkpoint_path: where the (single, overwritten) periodic checkpoint
            lives; required when ``checkpoint_every`` is set on
            :func:`run_experiment`, defaulted per point by the engine.
        resume_from: continue from a checkpoint — a file path or a loaded
            :class:`~repro.sim.snapshot.SimulationState` — instead of
            building a fresh simulation (:func:`run_experiment` /
            :func:`run_scenario`).
        parallel: run sweep points across worker processes
            (:func:`run_points` / :func:`sweep`; the default).
        workers: worker-process count (``None`` = one per point, capped at
            the machine's CPU count).
        resume_dir: sweep crash-resume journal directory (:func:`sweep`).
        windows: split each point's virtual-time horizon into this many
            windows executed via checkpoint hand-off (:func:`sweep`; see
            :mod:`repro.experiments.windowed`).  ``None`` = monolithic.
        window_dir: where windowed hand-off checkpoints and per-window sink
            segments live (``None`` = a temporary directory, removed after
            the sweep).
    """

    profiler: Any | None = None
    checkpoint_every: float | None = None
    checkpoint_path: str | Path | None = None
    resume_from: Any | None = None
    parallel: bool = True
    workers: int | None = None
    resume_dir: str | Path | None = None
    windows: int | None = None
    window_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ConfigurationError("checkpoint_every must be None or positive")
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError("workers must be None or >= 1")
        if self.windows is not None and self.windows < 1:
            raise ConfigurationError("windows must be None or >= 1")
        if self.windows is not None and self.resume_dir is not None:
            raise ConfigurationError(
                "windows and resume_dir cannot be combined: the windowed "
                "engine's hand-off checkpoints are its own journal"
            )
        if self.windows is not None and self.resume_from is not None:
            raise ConfigurationError("windows cannot be combined with resume_from")
