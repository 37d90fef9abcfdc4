"""Run sinks (telemetry, spans) are execution-shape-blind.

Every sink rides the same attach / finish / write / clear loop, so its file
must be byte-identical whether the point ran monolithically, as ``W``
hand-off windows (forked prefix included), resumed in-process off a
mid-run checkpoint, or resumed through the ``resume`` CLI.  One test per
sink kind covers all four shapes; the rest pin how resume treats a
checkpoint that lacks a sink its spec enables.
"""

from __future__ import annotations

import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import NodeConfig
from repro.experiments.catalog import get_scenario
from repro.experiments.cli import main as cli_main
from repro.experiments.engine import build_point, run_scenario, sweep
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import WorkloadSpec
from repro.experiments.scenario import BandwidthSpec, ScenarioSpec, TopologySpec
from repro.sim.snapshot import save_checkpoint
from repro.trace.recorder import TelemetrySpec
from repro.trace.spans import SpanSpec

MB = 1_000_000.0


def sink_spec(kind: str, out_dir: Path, **overrides) -> ScenarioSpec:
    """A small Poisson cluster with exactly one sink, ``kind``, switched on."""
    section = (
        TelemetrySpec(enabled=True, interval=0.25, out_dir=str(out_dir))
        if kind == "telemetry"
        else SpanSpec(enabled=True, out_dir=str(out_dir))
    )
    defaults = dict(
        name="tiny",
        topology=TopologySpec(kind="uniform", num_nodes=4, delay=0.05),
        bandwidth=BandwidthSpec(kind="constant", rate=2 * MB),
        workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=600_000.0),
        node=NodeConfig(max_block_size=100_000),
        duration=3.0,
        warmup_fraction=0.0,
    )
    defaults.update(overrides)
    defaults[kind] = section
    return ScenarioSpec(**defaults)


@pytest.mark.parametrize("kind", ["telemetry", "spans"])
def test_sink_file_is_identical_across_execution_shapes(kind, tmp_path):
    grid = {"warmup": (0.0, 1.0)}
    mono = sweep(
        sink_spec(kind, tmp_path / "mono"), grid, options=ExecutionOptions(parallel=False)
    )
    windowed = sweep(
        sink_spec(kind, tmp_path / "win"),
        grid,
        options=ExecutionOptions(parallel=False, windows=3),
    )
    mono_paths = [Path(point.artifacts[kind]) for point in mono.points]
    win_paths = [Path(point.artifacts[kind]) for point in windowed.points]
    assert [p.name for p in win_paths] == [p.name for p in mono_paths]
    for mono_path, win_path in zip(mono_paths, win_paths):
        assert mono_path.stat().st_size > 0
        assert win_path.read_bytes() == mono_path.read_bytes()
    assert windowed.summaries() == mono.summaries()

    # One mid-run checkpoint (t = 2 of 3), resumed in-process and via the CLI.
    spec = sink_spec(kind, tmp_path / "ckpt", checkpoint_every=2.0)
    ckpt = tmp_path / "point.ckpt"
    full = run_scenario(spec, options=ExecutionOptions(checkpoint_path=ckpt))
    reference = mono_paths[0].read_bytes()
    assert Path(full.artifacts[kind]).read_bytes() == reference

    shutil.rmtree(tmp_path / "ckpt")
    resumed = run_scenario(
        spec,
        options=ExecutionOptions(resume_from=ckpt, checkpoint_path=tmp_path / "again.ckpt"),
    )
    assert Path(resumed.artifacts[kind]).read_bytes() == reference
    assert resumed.summary() == full.summary()

    shutil.rmtree(tmp_path / "ckpt")
    assert cli_main(["resume", str(ckpt), "--json"]) == 0
    assert Path(full.artifacts[kind]).read_bytes() == reference


def test_resume_cli_writes_every_sink_of_the_spec(tmp_path, capsys):
    """Both sinks on a measured-trace replay: resume rewrites both files exactly."""
    base = get_scenario("trace-replay-wan").base
    spec = replace(
        base,
        duration=5.0,
        checkpoint_every=2.0,
        telemetry=TelemetrySpec(enabled=True, out_dir=str(tmp_path / "telemetry")),
        spans=SpanSpec(enabled=True, out_dir=str(tmp_path / "spans")),
    )
    ckpt = tmp_path / "point.ckpt"
    full = run_scenario(spec, options=ExecutionOptions(checkpoint_path=ckpt))
    assert set(full.artifacts) == {"telemetry", "spans"}
    expected = {name: Path(path).read_bytes() for name, path in full.artifacts.items()}
    shutil.rmtree(tmp_path / "telemetry")
    shutil.rmtree(tmp_path / "spans")

    assert cli_main(["resume", str(ckpt)]) == 0
    out = capsys.readouterr().out
    for name, path in full.artifacts.items():
        assert f"{name} written to {path}" in out
        assert Path(path).read_bytes() == expected[name]


def _sinkless_checkpoint(spec: ScenarioSpec, path: Path) -> Path:
    """A mid-run checkpoint of ``spec`` built with no sinks attached."""
    state = build_point(replace(spec, telemetry=TelemetrySpec(), spans=SpanSpec()), {})
    state.meta["spec"] = spec.to_dict()
    state.sim.run(until=1.0)
    return save_checkpoint(path, state)


@pytest.mark.parametrize("kind", ["telemetry", "spans"])
def test_resume_without_the_specs_sink_is_a_configuration_error(kind, tmp_path):
    spec = sink_spec(kind, tmp_path / "out")
    ckpt = _sinkless_checkpoint(spec, tmp_path / "bare.ckpt")
    with pytest.raises(ConfigurationError, match=kind):
        run_scenario(spec, options=ExecutionOptions(resume_from=ckpt))


def test_resume_cli_without_the_specs_sink_exits_2(tmp_path, capsys):
    spec = sink_spec("telemetry", tmp_path / "out")
    ckpt = _sinkless_checkpoint(spec, tmp_path / "bare.ckpt")
    assert cli_main(["resume", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "telemetry" in captured.err
    assert not (tmp_path / "out").exists()


def test_resume_with_a_sink_the_spec_disables_is_a_configuration_error(tmp_path):
    """The reverse case: a carried sink the spec switched off writes no file."""
    spec = sink_spec("telemetry", tmp_path / "out", checkpoint_every=1.0)
    ckpt = tmp_path / "point.ckpt"
    run_scenario(spec, options=ExecutionOptions(checkpoint_path=ckpt))
    shutil.rmtree(tmp_path / "out")
    quiet = replace(spec, telemetry=replace(spec.telemetry, enabled=False))
    with pytest.raises(ConfigurationError, match="carries telemetry"):
        run_scenario(quiet, options=ExecutionOptions(resume_from=ckpt))
    assert not (tmp_path / "out").exists()


def test_resume_cli_refuses_a_windowed_hand_off_with_sinks(tmp_path, capsys):
    """A hand-off checkpoint holds one window's rows; resuming it must not
    write a partial sink file at the point's path."""
    spec = sink_spec("telemetry", tmp_path / "out")
    sweep(
        spec,
        {"warmup": (0.0, 1.0)},
        options=ExecutionOptions(parallel=False, windows=3, window_dir=tmp_path / "win"),
    )
    hand_offs = sorted((tmp_path / "win").glob("*.ckpt"))
    assert hand_offs
    shutil.rmtree(tmp_path / "out")
    assert cli_main(["resume", str(hand_offs[0])]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "hand-off" in captured.err
    assert not (tmp_path / "out").exists()
