"""The windowed execution engine: planning, hand-off, stitching, CLI.

The headline invariant — windowed summaries and telemetry byte-identical to
monolithic runs across scenarios and window counts — is pinned by the
hypothesis suite in ``test_windowed_properties.py``; this file covers the
engine's moving parts deterministically: boundary arithmetic, prefix-tree
planning (who leads, who forks, what disqualifies sharing), the fork refit,
parallel scheduling, and the CLI surface.  Sink stitching (telemetry and
spans) is pinned per sink kind in ``test_sinks.py``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import NodeConfig
from repro.experiments.cli import main as cli_main
from repro.experiments.engine import sweep
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import WorkloadSpec
from repro.experiments.scenario import (
    BandwidthSpec,
    ScenarioSpec,
    TopologySpec,
    expand_grid,
)
from repro.experiments.windowed import (
    plan_windowed_points,
    prefix_key,
    window_boundaries,
)

MB = 1_000_000.0


def tiny_spec(**overrides) -> ScenarioSpec:
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
    return ScenarioSpec(**defaults)


class TestWindowBoundaries:
    def test_last_boundary_is_exactly_the_duration(self):
        bounds = window_boundaries(2.5, 3)
        assert bounds[-1] == 2.5
        assert len(bounds) == 3
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_single_window_is_the_horizon(self):
        assert window_boundaries(4.0, 1) == (4.0,)

    @pytest.mark.parametrize("windows", [0, -1])
    def test_non_positive_window_count_raises(self, windows):
        with pytest.raises(ConfigurationError):
            window_boundaries(4.0, windows)

    def test_zero_duration_cannot_be_split(self):
        with pytest.raises(ConfigurationError, match="distinct windows"):
            window_boundaries(0.0, 2)


class TestPrefixPlanning:
    def test_warmup_only_grid_shares_one_leader(self):
        points = expand_grid(tiny_spec(), {"warmup": (0.0, 0.5, 1.0)})
        plans = plan_windowed_points(points, 2)
        assert [plan.leader for plan in plans] == [None, 0, 0]
        assert [plan.first_window for plan in plans] == [0, 1, 1]

    def test_warmup_only_grid_forks_at_the_deepest_boundary(self):
        # Warmup never touches the event stream, so the points agree on
        # every shareable boundary and fork into the final window only.
        points = expand_grid(tiny_spec(), {"warmup": (0.0, 0.5, 1.0)})
        plans = plan_windowed_points(points, 4)
        assert [plan.fork_window for plan in plans] == [0, 3, 3]

    def test_stop_after_grid_forks_at_mixed_depths(self):
        # duration 3.0, W=3 -> boundaries 1.0, 2.0.  A cut strictly past a
        # boundary is inert up to it: stop_after=None shares both windows
        # with the 2.5 leader, stop_after=1.5 only the first.
        points = expand_grid(
            tiny_spec(), {"workload.stop_after": (2.5, None, 1.5)}
        )
        plans = plan_windowed_points(points, 3)
        assert [plan.leader for plan in plans] == [None, 0, 0]
        assert [plan.fork_window for plan in plans] == [0, 2, 1]

    def test_seed_grid_never_shares(self):
        points = expand_grid(tiny_spec(), {"seed": (0, 1, 2)})
        plans = plan_windowed_points(points, 2)
        assert [plan.leader for plan in plans] == [None, None, None]

    def test_stop_after_shares_only_strictly_past_first_boundary(self):
        # duration 3.0, W=2 -> first boundary 1.5.  A cut at the boundary
        # itself already changes window 0 (boundary events run inside it),
        # so only cuts strictly after 1.5 (or None) may share.
        points = expand_grid(
            tiny_spec(), {"workload.stop_after": (2.0, None, 1.5, 1.0)}
        )
        plans = plan_windowed_points(points, 2)
        assert [plan.leader for plan in plans] == [None, 0, None, None]

    def test_single_window_plans_have_no_forks(self):
        points = expand_grid(tiny_spec(), {"warmup": (0.0, 1.0)})
        plans = plan_windowed_points(points, 1)
        assert [plan.leader for plan in plans] == [None, None]

    def test_prefix_key_neutralises_checkpoint_every(self):
        spec = tiny_spec()
        assert prefix_key(spec, 1.5) == prefix_key(
            replace(spec, checkpoint_every=0.5), 1.5
        )

    def test_prefix_key_keeps_crash_time_relevant(self):
        from repro.adversary.registry import AdversarySpec

        spec = tiny_spec()
        crashed = replace(
            spec, adversary=AdversarySpec(kind="crash-after", count=1, crash_time=2.0)
        )
        assert prefix_key(spec, 1.5) != prefix_key(crashed, 1.5)

    def test_analytic_scenarios_are_rejected(self):
        spec = ScenarioSpec(kind="vid-cost", name="vid")
        with pytest.raises(ConfigurationError, match="analytic"):
            plan_windowed_points([({}, spec)], 2)


class TestWindowedSweep:
    def test_serial_windowed_matches_monolithic(self):
        base = tiny_spec()
        grid = {"seed": (0, 1)}
        mono = sweep(base, grid, options=ExecutionOptions(parallel=False))
        windowed = sweep(
            base, grid, options=ExecutionOptions(parallel=False, windows=3)
        )
        assert windowed.windows == 3
        assert mono.windows is None
        assert windowed.summaries() == mono.summaries()

    def test_forked_windowed_matches_monolithic_in_parallel(self):
        base = tiny_spec()
        grid = {"warmup": (0.0, 0.5, 1.0)}
        mono = sweep(base, grid, options=ExecutionOptions(parallel=False))
        windowed = sweep(
            base, grid, options=ExecutionOptions(windows=2, workers=2)
        )
        assert windowed.summaries() == mono.summaries()

    def test_mixed_depth_forks_match_monolithic(self):
        # One leader forked at two different depths: its chain is cut after
        # both demanded boundaries and each follower continues as itself.
        base = tiny_spec()
        grid = {"workload.stop_after": (2.5, None, 1.5)}
        mono = sweep(base, grid, options=ExecutionOptions(parallel=False))
        windowed = sweep(
            base, grid, options=ExecutionOptions(parallel=False, windows=3)
        )
        assert windowed.summaries() == mono.summaries()

    def test_window_dir_keeps_handoff_artifacts(self, tmp_path):
        work = tmp_path / "work"
        sweep(
            tiny_spec(),
            {"warmup": (0.0, 1.0)},
            options=ExecutionOptions(parallel=False, windows=2,
                                     window_dir=str(work)),
        )
        # One hand-off checkpoint for the shared window 0, none for finals.
        assert sorted(p.name for p in work.glob("*.ckpt")) == ["point0000-w0.ckpt"]

    def test_windows_and_resume_dir_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="resume_dir"):
            sweep(
                tiny_spec(),
                {"seed": (0,)},
                options=ExecutionOptions(windows=2, resume_dir=str(tmp_path)),
            )


class TestWindowedCli:
    def _spec_path(self, tmp_path) -> Path:
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny_spec().to_dict()))
        return path

    def test_run_windows_json_matches_monolithic(self, tmp_path, capsys):
        path = self._spec_path(tmp_path)
        assert cli_main(["run", str(path), "--serial", "--json"]) == 0
        mono = json.loads(capsys.readouterr().out)
        assert (
            cli_main(["run", str(path), "--windows", "3", "--workers", "2",
                      "--json"])
            == 0
        )
        windowed = json.loads(capsys.readouterr().out)
        assert windowed["windows"] == 3
        assert mono["windows"] is None
        assert windowed["summaries"] == mono["summaries"]

    def test_windows_with_resume_dir_is_exit_2_one_liner(self, tmp_path, capsys):
        path = self._spec_path(tmp_path)
        code = cli_main(
            ["sweep", str(path), "--grid", "seed=0,1", "--windows", "2",
             "--resume-dir", str(tmp_path / "journal")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
