"""End-to-end runs on the bandwidth-accurate simulator.

These are the closest tests to the paper's deployment: nodes connected by a
WAN with propagation delay and per-node bandwidth caps, with Poisson or
backlogged client load, checked for the BFT properties and for the
qualitative performance behaviours the protocol is designed to have.
"""

import pytest

from repro.ba.coin import CommonCoin
from repro.common.params import ProtocolParams
from repro.core.config import NodeConfig
from repro.core.node import DispersedLedgerNode
from repro.honeybadger.node import HoneyBadgerNode
from repro.metrics.collector import MetricsCollector
from repro.sim.bandwidth import ConstantBandwidth
from repro.sim.context import NodeContext
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.workload.txgen import PoissonTransactionGenerator


def run_cluster(
    node_class,
    n=4,
    duration=25.0,
    rate=500_000.0,
    bandwidth=2_000_000.0,
    delay=0.1,
    data_plane="real",
    config=None,
    load_rate=100_000.0,
):
    params = ProtocolParams.for_n(n)
    sim = Simulator()
    network_config = NetworkConfig(
        num_nodes=n,
        propagation_delay=delay,
        egress_traces=[ConstantBandwidth(bandwidth)] * n,
        ingress_traces=[ConstantBandwidth(bandwidth)] * n,
    )
    network = Network(sim, network_config)
    collector = MetricsCollector(n)
    coin = CommonCoin()
    config = config or NodeConfig(data_plane=data_plane, max_block_size=200_000)
    nodes = []
    for node_id in range(n):
        ctx = NodeContext(node_id, network, sim)
        node = node_class(
            node_id,
            params,
            ctx,
            config=config,
            coin=coin,
            on_deliver=collector.record_delivery,
            on_propose=collector.record_proposal,
        )
        network.attach(node_id, node)
        nodes.append(node)
    generators = [
        PoissonTransactionGenerator(sim, node, rate_bytes_per_second=load_rate, seed=node.node_id)
        for node in nodes
    ]
    for generator in generators:
        sim.schedule(0.0, generator.start)
    network.start()
    sim.run(until=duration)
    return nodes, collector, network, sim


class TestDispersedLedgerOnSimulatedWan:
    def test_ledgers_agree_and_make_progress(self):
        nodes, collector, _, _ = run_cluster(DispersedLedgerNode)
        prefixes = [tuple(node.ledger.digest_sequence()) for node in nodes]
        shortest = min(len(p) for p in prefixes)
        assert shortest > 0
        assert len({p[:shortest] for p in prefixes}) == 1
        assert all(node.delivered_epoch >= 3 for node in nodes)

    def test_transactions_confirm_with_reasonable_latency(self):
        _, collector, _, _ = run_cluster(DispersedLedgerNode)
        summary = collector.per_node[0].latency_summary(local_only=True)
        assert summary is not None
        # With 100 ms one-way delays the paper reports ~0.8 s; allow slack for
        # the small simulated bandwidth used here.
        assert summary.p50 < 5.0

    def test_dispersal_traffic_is_a_small_fraction(self):
        _, _, network, _ = run_cluster(DispersedLedgerNode, load_rate=300_000.0)
        fractions = [stats.dispersal_fraction for stats in network.stats]
        assert all(0.0 < fraction < 0.8 for fraction in fractions)

    def test_virtual_data_plane_matches_real_accounting(self):
        real_nodes, real_collector, _, _ = run_cluster(
            DispersedLedgerNode, data_plane="real", duration=15.0
        )
        virtual_nodes, virtual_collector, _, _ = run_cluster(
            DispersedLedgerNode, data_plane="virtual", duration=15.0
        )
        real_bytes = real_collector.total_confirmed_bytes()
        virtual_bytes = virtual_collector.total_confirmed_bytes()
        assert real_bytes > 0 and virtual_bytes > 0
        assert virtual_bytes == pytest.approx(real_bytes, rel=0.35)


class TestHoneyBadgerOnSimulatedWan:
    def test_ledgers_agree_and_make_progress(self):
        nodes, _, _, _ = run_cluster(HoneyBadgerNode)
        prefixes = [tuple(node.ledger.digest_sequence()) for node in nodes]
        shortest = min(len(p) for p in prefixes)
        assert shortest > 0
        assert len({p[:shortest] for p in prefixes}) == 1

    def test_lockstep_keeps_nodes_together(self):
        nodes, _, _, _ = run_cluster(HoneyBadgerNode)
        frontiers = [node.delivered_epoch for node in nodes]
        assert max(frontiers) - min(frontiers) <= 2


class TestDecoupling:
    def test_dl_slow_node_does_not_gate_fast_nodes(self):
        """The core claim (Fig. 1): with one slow node, DispersedLedger's fast
        nodes keep confirming at their own pace while HoneyBadger's all slow
        down to roughly the straggler's pace."""
        n = 4
        slow, fast = 400_000.0, 4_000_000.0

        def run(node_class):
            params = ProtocolParams.for_n(n)
            sim = Simulator()
            traces = [ConstantBandwidth(fast)] * (n - 1) + [ConstantBandwidth(slow)]
            network = Network(
                sim,
                NetworkConfig(
                    num_nodes=n,
                    propagation_delay=0.05,
                    egress_traces=list(traces),
                    ingress_traces=list(traces),
                ),
            )
            collector = MetricsCollector(n)
            coin = CommonCoin()
            config = NodeConfig(data_plane="virtual", max_block_size=300_000)
            nodes = []
            for node_id in range(n):
                ctx = NodeContext(node_id, network, sim)
                node = node_class(
                    node_id, params, ctx, config=config, coin=coin,
                    on_deliver=collector.record_delivery,
                )
                network.attach(node_id, node)
                nodes.append(node)
            from repro.core.mempool import ColumnarMempool
            from repro.workload.txgen import SaturatingTransactionGenerator

            for node in nodes:
                node.mempool = ColumnarMempool(
                    nagle_delay=config.nagle_delay, nagle_size=config.nagle_size
                )
                generator = SaturatingTransactionGenerator(
                    sim, node, target_pending_bytes=2_000_000
                )
                sim.schedule(0.0, generator.start)
            network.start()
            sim.run(until=40.0)
            return collector.throughputs(40.0)

        dl = run(DispersedLedgerNode)
        hb = run(HoneyBadgerNode)
        # DL: the fast nodes outrun the slow node by a wide margin.
        assert max(dl[:3]) > 2.0 * dl[3]
        # DL fast nodes beat HB fast nodes, which are held back by the straggler.
        assert max(dl[:3]) > 1.3 * max(hb[:3])
