"""The benchmark's workloads: a seeded :class:`ScenarioSpec` factory for each.

A workload is a fixed scenario shape plus inputs generated from the
benchmark's ``--seed``.  The program under test only ever sees the generated
inputs: the Poisson workloads receive the seed as ``ScenarioSpec.seed`` (it
seeds every client's arrival process), and ``wan-saturate`` receives a trace
file that this module writes from the seed, because the saturating clients
and the bundled trace leave nothing else for a seed to change.

Each workload runs the ``saturating`` or ``poisson`` workload kind, never a
``*-columnar`` alias, so the benchmark follows whichever transaction plane
those names select.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.adversary.registry import AdversarySpec
from repro.core.config import NodeConfig
from repro.experiments.catalog import get_scenario
from repro.experiments.runner import WorkloadSpec
from repro.experiments.scenario import BandwidthSpec, ScenarioSpec, TopologySpec
from repro.trace.io import load_trace, save_trace
from repro.trace.model import MeasuredTrace
from repro.workload.traces import MB

#: The measured trace ``wan-saturate`` derives its per-seed variants from.
WAN_TRACE = "traces/wan-measured.csv"
#: Latest start, in seconds into the recording, of a ``wan-saturate`` window.
WAN_MAX_OFFSET = 2.0


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    Attributes:
        name: the ``--workload`` value.
        horizon: virtual seconds simulated per run (the stated input size).
        loop: ``"open"`` (clients submit on their own schedule) or
            ``"closed"`` (clients top the mempool up, so a node that commits
            less is offered less).
        build: ``build(seed, horizon, work_dir) -> ScenarioSpec``.
    """

    name: str
    horizon: float
    loop: str
    build: Callable[[int, float, Path], ScenarioSpec]


def wan_trace_variant(seed: int, horizon: float) -> MeasuredTrace:
    """A seed-chosen variant of the measured WAN trace.

    The seed permutes which simulated node replays which measured row and
    picks the start offset of a ``horizon``-long window inside the
    recording, so every seed replays real measured bandwidth.  Offsets stay
    within the first :data:`WAN_MAX_OFFSET` seconds: the recording's first
    seconds are its fastest, so wider offsets would make a seed's simulated
    throughput depend mostly on how much of that stretch it kept.
    """
    trace = load_trace(WAN_TRACE)
    rng = random.Random(seed)
    offset = rng.uniform(0.0, min(WAN_MAX_OFFSET, trace.duration - horizon))
    window = trace.clipped(offset, offset + horizon)
    rows = list(range(window.num_nodes))
    rng.shuffle(rows)
    return MeasuredTrace.from_node_rates(
        f"wan-measured-seed{seed}",
        {node: window.nodes[row].points for node, row in enumerate(rows)},
    )


def _wan_saturate(seed: int, horizon: float, work_dir: Path) -> ScenarioSpec:
    path = save_trace(
        wan_trace_variant(seed, horizon), work_dir / f"wan-seed{seed}.csv"
    )
    return replace(
        get_scenario("trace-replay-wan").base,
        name="wan-saturate",
        protocol="dl",
        bandwidth=BandwidthSpec(kind="trace-replay", trace_path=str(path.resolve())),
        duration=horizon,
        seed=seed,
    )


def _real_bytes(seed: int, horizon: float, work_dir: Path) -> ScenarioSpec:
    return ScenarioSpec(
        name="real-bytes",
        protocol="dl",
        topology=TopologySpec(kind="uniform", num_nodes=8, delay=0.05),
        bandwidth=BandwidthSpec(kind="constant", rate=10 * MB),
        workload=WorkloadSpec(
            kind="poisson", rate_bytes_per_second=2 * MB, tx_size=4096
        ),
        node=NodeConfig(data_plane="real", max_block_size=1_000_000),
        duration=horizon,
        seed=seed,
    )


#: Per-node offered load of ``censor-poisson``: 16 x 150 KB/s = 2.4 MB/s,
#: below the roughly 3 MB/s the cluster commits when saturated, so
#: confirmation latency does not grow with the horizon.
CENSOR_RATE = 150_000.0


def _censor_poisson(seed: int, horizon: float, work_dir: Path) -> ScenarioSpec:
    return ScenarioSpec(
        name="censor-poisson",
        protocol="dl",
        topology=TopologySpec(kind="uniform", num_nodes=16, delay=0.05),
        bandwidth=BandwidthSpec(kind="constant", rate=10 * MB),
        adversary=AdversarySpec(kind="censor", count=5, victim=0),
        workload=WorkloadSpec(
            kind="poisson", rate_bytes_per_second=CENSOR_RATE, tx_size=250
        ),
        node=NodeConfig(max_block_size=500_000),
        duration=horizon,
        seed=seed,
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("wan-saturate", 30.0, "closed", _wan_saturate),
        Workload("real-bytes", 8.0, "open", _real_bytes),
        Workload("censor-poisson", 2.0, "open", _censor_poisson),
    )
}
