"""Windowed execution is invisible: byte-identical summaries and telemetry.

Three layers of evidence, mirroring the snapshot property suite:

* a hypothesis property — arbitrary fast-tier catalog scenarios at
  arbitrary window counts must produce summaries byte-identical to their
  monolithic run (the hand-off and monolithic runs share nothing but the
  spec);
* a deterministic sweep over every fast-tier golden ``sim`` scenario's
  *full pinned grid*, windowed, diffed against the golden snapshot on disk
  — so windowed runs answer to exactly the same regression net as the
  monolithic engine;
* a fork-point property — a warmup-only grid, which shares one window-0
  execution across all points, plus stitched telemetry, compared byte for
  byte against per-point monolithic runs.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.catalog import get_scenario
from repro.experiments.engine import run_scenario, sweep
from repro.experiments.golden import (
    GOLDEN_CONFIGS,
    SLOW_GOLDEN,
    GoldenConfig,
    golden_names,
    golden_points,
)
from repro.experiments.options import ExecutionOptions
from repro.experiments.scenario import expand_grid
from repro.experiments.windowed import plan_windowed_points, run_windowed_sweep
from repro.trace.recorder import TelemetrySpec

GOLDEN_DIR = Path(__file__).parent / "golden"


def _fast_sim_golden_names() -> list[str]:
    names = []
    for name in golden_names():
        if name in SLOW_GOLDEN:
            continue
        _config, base, _points = golden_points(name)
        if base.kind == "sim":
            names.append(name)
    return names


def _pinned_grid(name: str) -> dict:
    """The same grid :func:`golden_points` expands for the scenario."""
    entry = get_scenario(name)
    config = GOLDEN_CONFIGS.get(name, GoldenConfig())
    return dict(entry.grid or {}) if config.grid is None else dict(config.grid)


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


_MONO_CACHE: dict[str, dict] = {}


def _monolithic_first_point_summary(name: str) -> dict:
    if name not in _MONO_CACHE:
        _config, _base, points = golden_points(name)
        _overrides, spec = points[0]
        # No overrides either side: both runs carry the label "base", so the
        # summaries can be compared byte for byte.
        _MONO_CACHE[name] = run_scenario(spec).summary()
    return _MONO_CACHE[name]


# The same diverse fast-tier slice the snapshot properties use: plain
# replay, a mid-run crash, both node-class adversaries, heterogeneous
# stragglers.
PROPERTY_SCENARIOS = (
    "trace-replay-wan",
    "mid-run-crash",
    "censor-victim",
    "equivocate-split",
    "straggler-hetero",
)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(
    name=st.sampled_from(PROPERTY_SCENARIOS),
    windows=st.integers(min_value=2, max_value=5),
)
def test_windowed_summary_is_byte_identical(name: str, windows: int):
    _config, _base, points = golden_points(name)
    overrides, spec = points[0]
    result = sweep(
        spec, None, options=ExecutionOptions(parallel=False, windows=windows)
    )
    assert result.windows == windows
    windowed = result.points[0].summary()
    mono = _monolithic_first_point_summary(name)
    assert _canon(windowed) == _canon(mono)


@pytest.mark.parametrize("name", _fast_sim_golden_names())
def test_fast_golden_grids_run_windowed_to_pinned_snapshot(name: str):
    """Every fast golden scenario's full pinned grid, windowed, vs its snapshot."""
    _config, base, _points = golden_points(name)
    result = run_windowed_sweep(
        base, _pinned_grid(name), ExecutionOptions(parallel=False, windows=3)
    )
    pinned = json.loads((GOLDEN_DIR / f"{name}.json").read_text())["summaries"]
    assert [_canon(point.summary()) for point in result.points] == [
        _canon(summary) for summary in pinned
    ]


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(
    name=st.sampled_from(("trace-replay-wan", "straggler-hetero")),
    windows=st.integers(min_value=2, max_value=4),
)
def test_forked_prefix_with_telemetry_is_byte_identical(
    name: str, windows: int, tmp_path_factory
):
    """A warmup-only grid forks one window-0 checkpoint; everything still matches."""
    _config, _base, points = golden_points(name)
    _overrides, spec = points[0]
    grid = {"warmup": (0.0, spec.duration / 4, spec.duration / 2)}
    plans = plan_windowed_points(expand_grid(spec, grid), windows)
    assert [plan.leader for plan in plans] == [None, 0, 0]

    tmp = tmp_path_factory.mktemp("telemetry")
    mono_spec = replace(
        spec,
        telemetry=TelemetrySpec(enabled=True, interval=0.25, out_dir=str(tmp / "mono")),
    )
    win_spec = replace(
        spec,
        telemetry=TelemetrySpec(enabled=True, interval=0.25, out_dir=str(tmp / "win")),
    )
    mono = sweep(mono_spec, grid, options=ExecutionOptions(parallel=False))
    windowed = sweep(
        win_spec, grid, options=ExecutionOptions(parallel=False, windows=windows)
    )
    assert windowed.summaries() == mono.summaries()
    for mono_point, win_point in zip(mono.points, windowed.points):
        mono_bytes = Path(mono_point.artifacts["telemetry"]).read_bytes()
        win_bytes = Path(win_point.artifacts["telemetry"]).read_bytes()
        assert mono_bytes == win_bytes
        assert len(mono_bytes) > 0
