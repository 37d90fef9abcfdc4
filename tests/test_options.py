"""The unified :class:`ExecutionOptions` surface.

Covers construction-time validation (frozen dataclass, invalid
combinations raise :class:`ConfigurationError` immediately, not
mid-sweep, and again on ``dataclasses.replace``) and how the entry points
consume the options.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import NodeConfig
from repro.experiments.engine import run_scenario, sweep
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import WorkloadSpec
from repro.experiments.scenario import BandwidthSpec, ScenarioSpec, TopologySpec

MB = 1_000_000.0


def tiny_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="tiny",
        topology=TopologySpec(kind="uniform", num_nodes=4, delay=0.05),
        bandwidth=BandwidthSpec(kind="constant", rate=2 * MB),
        workload=WorkloadSpec(kind="saturating", target_pending_bytes=500_000),
        node=NodeConfig(max_block_size=100_000),
        duration=4.0,
        warmup_fraction=0.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestValidation:
    def test_defaults_are_all_none_except_parallel(self):
        options = ExecutionOptions()
        for f in dataclasses.fields(ExecutionOptions):
            if f.name == "parallel":
                assert options.parallel is True
            else:
                assert getattr(options, f.name) is None, f.name

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionOptions().parallel = False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"checkpoint_every": 0.0},
            {"checkpoint_every": -1.0},
            {"workers": 0},
            {"windows": 0},
            {"windows": 2, "resume_dir": "/tmp/journal"},
            {"windows": 2, "resume_from": "/tmp/x.ckpt"},
        ],
    )
    def test_invalid_combinations_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutionOptions(**kwargs)

    def test_replace_revalidates(self):
        options = ExecutionOptions(windows=3)
        assert dataclasses.replace(options, windows=None).windows is None
        with pytest.raises(ConfigurationError):
            dataclasses.replace(options, resume_dir="/tmp/journal")


class TestEntryPoints:
    def test_options_form_is_warning_free(self):
        base = tiny_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sweep(base, {"seed": (0,)}, options=ExecutionOptions(parallel=False))

    def test_run_scenario_rejects_windows(self):
        with pytest.raises(ConfigurationError, match="sweep-level"):
            run_scenario(tiny_spec(), options=ExecutionOptions(windows=2))
