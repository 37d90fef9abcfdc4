"""Tests for the columnar data plane: TxBatch, ColumnarMempool, analysis.

The property-based cross-checks against the object path live in
``tests/test_columnar_properties.py``; this module pins the concrete
behaviours — digest/wire byte-compatibility, slice/cut semantics and the
telemetry ``summarise`` reductions.
"""

import json

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.core.block import Transaction
from repro.core.mempool import ColumnarMempool
from repro.core.txbatch import TxBatch, pack_digest_material
from repro.metrics.stats import summarise, summarise_array
from repro.trace.analysis import summarise_node_samples, summarise_telemetry


def tx(tx_id, size=100, origin=0, created_at=0.0):
    return Transaction(tx_id=tx_id, origin=origin, created_at=created_at, size=size)


def batch(origin, *sizes, first_id=1, created_at=0.0):
    ids = np.arange(first_id, first_id + len(sizes), dtype=np.uint64)
    created = np.full(len(sizes), created_at, dtype=np.float64)
    return TxBatch(origin, ids, created, np.array(sizes, dtype=np.int64))


class TestTxBatch:
    def test_columns_are_read_only(self):
        b = batch(0, 100, 200)
        with pytest.raises(ValueError):
            b.sizes[0] = 1

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError):
            TxBatch(
                0,
                np.arange(2, dtype=np.uint64),
                np.zeros(3),
                np.array([1, 2], dtype=np.int64),
            )

    def test_from_transactions_round_trip(self):
        txs = [tx(1, 100, origin=3), tx(2, 50, origin=3, created_at=1.5)]
        b = TxBatch.from_transactions(txs)
        assert b.origin == 3
        assert b.count == 2
        assert b.total_bytes == 150
        assert b.as_transactions() == txs

    def test_from_transactions_rejects_mixed_origins(self):
        with pytest.raises(ValueError, match="single origin"):
            TxBatch.from_transactions([tx(1, origin=0), tx(2, origin=1)])

    def test_digest_material_matches_object_path(self):
        txs = [tx(1, 100), tx(2**40, 7), tx(3, 2**31)]
        assert TxBatch.from_transactions(txs).digest_material() == pack_digest_material(txs)

    def test_serialize_headers_matches_struct_layout(self):
        import struct

        txs = [tx(5, 123, origin=2, created_at=1.25)]
        expected = struct.pack(">QIId", 5, 2, 123, 1.25)
        assert TxBatch.from_transactions(txs).serialize_headers() == expected

    def test_slice_is_zero_copy_and_byte_exact(self):
        b = batch(1, 10, 20, 30, 40)
        piece = b.slice(1, 3)
        assert piece.count == 2
        assert piece.total_bytes == 50
        assert piece.tx_ids.base is not None  # a view, not a copy
        assert b.slice(0, 4) is b  # full-range slice returns self

    def test_concat_rejects_mixed_origins(self):
        with pytest.raises(ValueError, match="origins"):
            TxBatch.concat([batch(0, 10), batch(1, 10)])

    def test_concat_of_empties_is_empty(self):
        assert TxBatch.concat([TxBatch.empty(0), TxBatch.empty(1)]).count == 0


class TestColumnarMempool:
    def test_accounting_across_batches(self):
        pool = ColumnarMempool()
        pool.submit_batch(batch(0, 100, 200))
        pool.submit(tx(7, 50))
        assert pool.pending_count == 3
        assert pool.pending_bytes == 350
        assert pool.total_submitted == 3

    def test_take_batch_cuts_inside_a_batch(self):
        pool = ColumnarMempool()
        pool.submit_batch(batch(0, 100, 100, 100, 100))
        taken = pool.take_batch(250, now=0.0)
        # Greedy cut: 100+100 fits, a third 100 would exceed 250.
        assert taken.count == 2
        assert pool.pending_count == 2
        # The remainder drains on the next call, across the head offset.
        rest = pool.take_batch(10_000, now=0.1)
        assert rest.count == 2
        assert pool.is_empty

    def test_oversized_head_transaction_is_still_taken(self):
        pool = ColumnarMempool()
        pool.submit_batch(batch(0, 5_000))
        taken = pool.take_batch(100, now=0.0)
        assert taken.count == 1
        assert pool.is_empty

    def test_requeue_front_preserves_fifo_order(self):
        pool = ColumnarMempool()
        pool.submit_batch(batch(0, 100, 100, first_id=3))
        head = pool.take_batch(100, now=0.0)  # drains id 3, head offset now 1
        pool.requeue_front(head)
        drained = pool.take_batch(10_000, now=0.1)
        assert list(drained.tx_ids) == [3, 4]

    def test_submit_many_splits_runs_by_origin(self):
        pool = ColumnarMempool()
        pool.submit_many([tx(1, origin=0), tx(2, origin=0), tx(3, origin=1)])
        assert pool.pending_count == 3
        first = pool.take_batch(200, now=0.0)
        assert first.origin == 0 and first.count == 2


class TestSummariseArray:
    def test_matches_scalar_summarise(self):
        values = [0.5, 1.0, 2.5, 4.0, 10.0, 0.1]
        scalar = summarise(values)
        columnar = summarise_array(np.array(values))
        assert columnar.count == scalar.count
        assert columnar.mean == pytest.approx(scalar.mean)
        for name in ("p5", "p50", "p95", "p99"):
            assert getattr(columnar, name) == pytest.approx(getattr(scalar, name))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarise_array(np.empty(0))


def sample(t, node=0, **overrides):
    row = {
        "kind": "sample",
        "t": t,
        "node": node,
        "egress_queue": 0,
        "ingress_queue": 0,
        "egress_util": 0.0,
        "ingress_util": 0.0,
    }
    row.update(overrides)
    return row


class TestTelemetryAnalysis:
    def test_time_weighted_queue_mean(self):
        # Queue 10 held for 1 s then 30 held for 3 s: mean = (10 + 90) / 4.
        rows = [
            sample(0.0, egress_queue=10),
            sample(1.0, egress_queue=30),
            sample(4.0, egress_queue=0),
        ]
        stats = summarise_node_samples(rows)
        assert stats["egress_queue"]["mean"] == pytest.approx(100.0 / 4.0)
        assert stats["egress_queue"]["max"] == 30.0

    def test_utilisation_weighted_by_preceding_interval(self):
        # Util rows describe the interval before them; the t=0 row has none.
        rows = [
            sample(0.0, egress_util=0.9),  # zero-length interval: no weight
            sample(1.0, egress_util=0.5),
            sample(3.0, egress_util=1.0),
        ]
        stats = summarise_node_samples(rows)
        assert stats["egress_util"]["mean"] == pytest.approx((0.5 + 2.0) / 3.0)

    def test_unsorted_samples_rejected(self):
        with pytest.raises(TraceError, match="not sorted"):
            summarise_node_samples([sample(1.0), sample(0.5)])

    def test_single_sample_reports_its_value_not_zero(self):
        """Regression: with one sample every gap weight is zero, and the mean
        used to report 0.0 for every field while max reported the value."""
        stats = summarise_node_samples([sample(2.0, egress_queue=42, ingress_util=0.75)])
        assert stats["egress_queue"]["mean"] == 42.0
        assert stats["egress_queue"]["max"] == 42.0
        assert stats["ingress_util"]["mean"] == pytest.approx(0.75)
        assert stats["samples"] == 1
        assert any("single sample" in warning for warning in stats["warnings"])

    def test_multi_sample_series_has_no_warning_field(self):
        stats = summarise_node_samples([sample(0.0), sample(1.0)])
        assert "warnings" not in stats

    def test_coincident_samples_fall_back_to_unweighted_mean(self):
        """All samples at one instant: no interval to weight, plain mean."""
        stats = summarise_node_samples(
            [sample(1.0, egress_queue=10), sample(1.0, egress_queue=30)]
        )
        assert stats["egress_queue"]["mean"] == pytest.approx(20.0)

    def test_cluster_aggregates_and_meta(self):
        rows = [
            {"kind": "meta", "t": 0.0, "num_nodes": 2, "interval": 1.0},
            sample(0.0, node=0, ingress_queue=4),
            sample(1.0, node=0, ingress_queue=4),
            sample(0.0, node=1, ingress_queue=8),
            sample(1.0, node=1, ingress_queue=8),
        ]
        summary = summarise_telemetry(rows)
        assert summary["num_nodes"] == 2
        assert summary["recorded_nodes"] == 2
        assert summary["interval"] == 1.0
        assert summary["cluster"]["ingress_queue"]["mean"] == pytest.approx(6.0)
        assert summary["cluster"]["ingress_queue"]["max"] == 8.0

    def test_no_samples_rejected(self):
        with pytest.raises(TraceError, match="no sample rows"):
            summarise_telemetry([{"kind": "meta", "t": 0.0}])


class TestSummariseCli:
    def write_jsonl(self, path, rows):
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")

    def run(self, *argv):
        import argparse

        from repro.trace.cli import add_trace_parser, run_trace_command

        parser = argparse.ArgumentParser()
        add_trace_parser(parser.add_subparsers(dest="command", required=True))
        return run_trace_command(parser.parse_args(["trace", *argv]))

    def test_table_and_json_output(self, tmp_path, capsys):
        target = tmp_path / "telemetry.jsonl"
        self.write_jsonl(target, [sample(0.0), sample(1.0, egress_queue=10)])
        assert self.run("summarise", str(target)) == 0
        out = capsys.readouterr().out
        assert "1 node(s)" in out and "cluster" in out
        assert self.run("summarise", str(target), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"][0]["samples"] == 2

    def test_missing_file_is_a_one_line_error(self, tmp_path, capsys):
        assert self.run("summarise", str(tmp_path / "nope.jsonl")) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_node_is_a_one_line_error(self, tmp_path, capsys):
        target = tmp_path / "telemetry.jsonl"
        self.write_jsonl(target, [sample(0.0)])
        assert self.run("summarise", str(target), "--node", "5") == 2
        assert "node 5" in capsys.readouterr().err
