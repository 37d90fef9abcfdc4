"""Smoke tests for the experiment harness (small, fast configurations)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import ProtocolParams
from repro.experiments.fig02 import crossover_n, measure_avid_m_dispersal_cost, vid_cost_curve
from repro.experiments.runner import (
    PROTOCOLS,
    ExperimentResult,
    WorkloadSpec,
    run_experiment,
    run_protocol_comparison,
)
from repro.experiments.scalability import model_sweep, simulate_point
from repro.experiments.summary import HeadlineNumbers, headline_from_results
from repro.sim.bandwidth import ConstantBandwidth
from repro.sim.network import NetworkConfig
from repro.vid.costs import avid_m_per_node_cost, normalised_cost
from repro.core.config import NodeConfig


def tiny_network(n=4, rate=2_000_000.0, delay=0.05):
    return NetworkConfig(
        num_nodes=n,
        propagation_delay=delay,
        egress_traces=[ConstantBandwidth(rate)] * n,
        ingress_traces=[ConstantBandwidth(rate)] * n,
    )


class TestRunner:
    def test_workload_spec_validation(self):
        for bad in (
            {"kind": "replay"},
            {"kind": "saturating-columnar"},
            {"tx_size": 0},
            {"target_pending_bytes": 0},
            {"rate_bytes_per_second": -1.0},
            {"window": 0.0},
            {"stop_after": 0.0},
            {"period": 0.0},
            {"duty": 1.5},
            {"amplitude": 1.0},
            {"tx_size": "250"},
        ):
            with pytest.raises(ConfigurationError):
                WorkloadSpec(**bad)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("pbft", tiny_network(), duration=1.0)

    def test_duration_must_exceed_warmup(self):
        with pytest.raises(ValueError):
            run_experiment("dl", tiny_network(), duration=1.0, warmup=2.0)

    def test_params_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("dl", tiny_network(4), duration=1.0, params=ProtocolParams.for_n(7))

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_all_protocols_run_and_confirm(self, protocol):
        result = run_experiment(
            protocol,
            tiny_network(),
            duration=12.0,
            workload=WorkloadSpec(kind="saturating", target_pending_bytes=500_000),
            node_config=NodeConfig(max_block_size=100_000),
        )
        assert isinstance(result, ExperimentResult)
        assert result.num_nodes == 4
        assert result.mean_throughput > 0
        assert all(epoch >= 1 for epoch in result.delivered_epochs)
        assert result.mean_block_size > 0

    def test_poisson_workload_produces_latency_samples(self):
        result = run_experiment(
            "dl",
            tiny_network(),
            duration=12.0,
            workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=50_000),
        )
        samples = [summary for summary in result.latency_local if summary is not None]
        assert samples
        assert all(summary.p50 > 0 for summary in samples)

    def test_comparison_runs_each_protocol_once(self):
        results = run_protocol_comparison(
            ("dl", "hb"),
            tiny_network(),
            duration=10.0,
            workload=WorkloadSpec(kind="saturating", target_pending_bytes=300_000),
            node_config=NodeConfig(max_block_size=100_000),
        )
        assert set(results) == {"dl", "hb"}


class TestFig02:
    def test_curve_contains_all_points(self):
        rows = vid_cost_curve(n_values=(4, 16, 64), block_sizes=(100_000,))
        assert len(rows) == 3
        assert all(row.avid_m < row.avid_fp for row in rows)
        assert all(row.avid_m >= row.lower_bound for row in rows)

    def test_measured_cost_matches_model(self):
        n, block_size = 7, 50_000
        measured = measure_avid_m_dispersal_cost(n, block_size)
        modelled = normalised_cost(
            avid_m_per_node_cost(ProtocolParams.for_n(n), block_size), block_size
        )
        assert measured == pytest.approx(modelled, rel=0.25)

    def test_batched_dispersal_matches_single(self):
        from repro.experiments.fig02 import measure_avid_m_batch_dispersal_cost

        n, block_size = 7, 50_000
        single = measure_avid_m_dispersal_cost(n, block_size)
        batched = measure_avid_m_batch_dispersal_cost(n, block_size, num_blocks=3)
        assert batched == pytest.approx(single, rel=1e-9)

    def test_crossover_exists_for_small_blocks(self):
        threshold = crossover_n(100_000)
        assert threshold is not None and threshold < 128
        assert crossover_n(100_000_000, max_n=60) is None


class TestScalability:
    def test_model_sweep_shape(self):
        points = model_sweep(cluster_sizes=(16, 64), block_sizes=(500_000,))
        assert len(points) == 2
        by_n = {point.n: point for point in points}
        assert by_n[64].dispersal_fraction < by_n[16].dispersal_fraction

    def test_simulated_point_smoke(self):
        point = simulate_point(n=4, block_size=100_000, duration=10.0, bandwidth=2_000_000.0)
        assert point.throughput > 0
        assert 0 < point.dispersal_fraction < 1


class TestSummary:
    def test_headline_from_results(self):
        results = run_protocol_comparison(
            ("dl", "hb-link", "hb"),
            tiny_network(),
            duration=10.0,
            workload=WorkloadSpec(kind="saturating", target_pending_bytes=300_000),
            node_config=NodeConfig(max_block_size=100_000),
        )
        from repro.experiments.geo import GeoResult
        from repro.workload.cities import AWS_CITIES

        geo = GeoResult(cities=AWS_CITIES[:4], duration=10.0, results=results)
        headline = headline_from_results(geo)
        assert isinstance(headline, HeadlineNumbers)
        assert headline.dl_over_hb is not None
        assert headline.latency_reduction is None
        assert "dl_over_hb" in headline.as_dict()
