"""Substrate throughput report: Reed-Solomon, Merkle, and batch fast paths.

Times the coding-substrate hot paths with plain ``time.perf_counter`` loops
and writes ``benchmarks/BENCH_substrates.json`` so future PRs have a perf
trajectory to compare against.  Run standalone:

    PYTHONPATH=src python benchmarks/bench_substrates_report.py

To make the speedup numbers robust against machine-to-machine (and
container-noise) variation, the script embeds a faithful copy of the *seed*
implementation (PR 0: per-row Python loops over log/exp tables, per-call
matrix inversion, list-of-digests Merkle levels) and measures it in the same
process, so every ``speedup_vs_seed`` compares two medians taken seconds
apart on the same machine.

The ``retrieve_check_250kb_*`` rows time AVID-M's retrieval check the same
way: the two-pass form (decode, re-encode, hash all ``n`` leaves, compare
roots) against ``RealCodec.decode``'s one codeword completion that reuses
the ``k`` verified leaf digests.  Every mode, ``--smoke`` included, asserts
the two give identical results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import struct
import time
from pathlib import Path

import numpy as np

from repro.common.errors import DecodingError
from repro.common.params import ProtocolParams
from repro.crypto.merkle import MerkleTree, verify_proof
from repro.erasure.gf256 import GF256
from repro.erasure.rs_code import ReedSolomonCode
from repro.vid.codec import BAD_UPLOADER, RealCodec

N = 16
BLOCK_SIZE = 250_000
BATCH = 8
OUTPUT_PATH = Path(__file__).parent / "BENCH_substrates.json"

_LENGTH_HEADER = struct.Struct(">I")


# --------------------------------------------------------------------------
# Seed (PR 0) reference implementations, reproduced verbatim in behaviour:
# encode/decode ran the whole n x k matrix through a per-row Python loop with
# log-table lookups and np.where masking, decode inverted the sub-matrix on
# every call, and the Merkle tree hashed leaves one concatenation at a time.
# --------------------------------------------------------------------------


def _seed_mat_vec_rows(matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
    exp_table, log_table = GF256.exp_table, GF256.log_table
    m, k = matrix.shape
    width = data.shape[1]
    out = np.zeros((m, width), dtype=np.uint8)
    data_logs = log_table[data]
    nonzero_mask = data != 0
    for row in range(m):
        acc = np.zeros(width, dtype=np.uint8)
        for col in range(k):
            coeff = int(matrix[row, col])
            if coeff == 0:
                continue
            if coeff == 1:
                acc ^= data[col]
                continue
            coeff_log = int(log_table[coeff])
            product = exp_table[data_logs[col] + coeff_log].astype(np.uint8)
            product = np.where(nonzero_mask[col], product, 0).astype(np.uint8)
            acc ^= product
        out[row] = acc
    return out


class _SeedReedSolomon:
    """Seed encode/decode on top of the seed kernel (no caching, no fast paths)."""

    def __init__(self, code: ReedSolomonCode):
        self._matrix = code._matrix
        self.data_shards = code.data_shards
        self.total_shards = code.total_shards
        self.shard_size = code.shard_size

    def encode(self, block: bytes) -> list[bytes]:
        shard_size = self.shard_size(len(block))
        padded = _LENGTH_HEADER.pack(len(block)) + block
        padded = padded.ljust(self.data_shards * shard_size, b"\x00")
        data = np.frombuffer(padded, dtype=np.uint8).reshape(self.data_shards, shard_size)
        coded = _seed_mat_vec_rows(self._matrix, data)
        return [coded[i].tobytes() for i in range(self.total_shards)]

    def decode(self, shards: dict[int, bytes]) -> bytes:
        indices = sorted(shards)[: self.data_shards]
        sub_matrix = self._matrix[indices, :]
        inverse = GF256.mat_inv(sub_matrix)
        stacked = np.stack([np.frombuffer(shards[i], dtype=np.uint8) for i in indices])
        data = _seed_mat_vec_rows(inverse, stacked)
        payload = data.tobytes()
        (length,) = _LENGTH_HEADER.unpack_from(payload)
        return payload[_LENGTH_HEADER.size : _LENGTH_HEADER.size + length]


class _SeedMerkleTree:
    def __init__(self, leaves: list[bytes]):
        leaf_prefix, node_prefix = b"\x00", b"\x01"
        empty = hashlib.sha256(leaf_prefix + b"\x00merkle-padding").digest()
        width = 1
        while width < len(leaves):
            width *= 2
        level = [hashlib.sha256(leaf_prefix + leaf).digest() for leaf in leaves]
        level.extend([empty] * (width - len(leaves)))
        self.levels = [level]
        while len(level) > 1:
            level = [
                hashlib.sha256(node_prefix + level[i] + level[i + 1]).digest()
                for i in range(0, len(level), 2)
            ]
            self.levels.append(level)
        self.root = self.levels[-1][0]


def _two_step_check(code: ReedSolomonCode, root: bytes, chunks: dict) -> object:
    """The retrieval check as two full passes (decode, then re-encode and
    compare Merkle roots) — what ``RealCodec.decode`` did before it
    completed the codeword in one pass."""
    try:
        payload = code.decode({i: chunk.data for i, chunk in chunks.items()})
    except DecodingError:
        return BAD_UPLOADER
    if MerkleTree(code.encode(payload)).root != root:
        return BAD_UPLOADER
    return payload


def _retrieve_check_rows(block: bytes, repeat: int) -> dict:
    """Two-pass vs fused retrieval check at N=8 and N=16, retrieving from
    the parity shards and from the systematic shards."""
    rows = {}
    for n in (8, 16):
        params = ProtocolParams.for_n(n)
        k = params.data_shards
        codec = RealCodec(params)
        code = ReedSolomonCode(k, n)
        bundle = codec.encode(block)
        for shape, indices in (("parity", range(n - k, n)), ("systematic", range(k))):
            chunks = {i: bundle.chunks[i] for i in indices}
            digests = {i: codec.verify_chunk(bundle.root, c) for i, c in chunks.items()}
            fused = codec.decode(bundle.root, chunks, digests)
            two_step = _two_step_check(code, bundle.root, chunks)
            assert fused == two_step == block, "fused and two-step checks must agree"
            fused_s, two_step_s = _compare(
                lambda: codec.decode(bundle.root, chunks, digests),
                lambda: _two_step_check(code, bundle.root, chunks),
                repeat=repeat,
            )
            rows[f"retrieve_check_250kb_n{n}_{shape}"] = {
                "median_seconds": fused_s,
                "throughput_mb_per_s": len(block) / fused_s / 1e6,
                "two_step_median_seconds": two_step_s,
                "speedup_vs_two_step": two_step_s / fused_s,
            }
    return rows


def _time(func, *, repeat: int = 30, warmup: int = 3) -> float:
    """Median seconds per call over ``repeat`` timed runs."""
    for _ in range(warmup):
        func()
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _compare(current, seed, *, repeat: int = 20) -> tuple[float, float]:
    """Median seconds of ``current`` and ``seed``, sampled interleaved.

    Alternating the two candidates sample by sample exposes both to the same
    ambient machine load (shared CI boxes fluctuate by tens of percent over
    seconds), so the ratio of the two medians is far more stable than timing
    one candidate after the other.
    """
    current()
    seed()
    current_samples, seed_samples = [], []
    for _ in range(repeat):
        start = time.perf_counter()
        current()
        current_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        seed()
        seed_samples.append(time.perf_counter() - start)
    return statistics.median(current_samples), statistics.median(seed_samples)


def run_report(repeat: int = 20, many_repeat: int = 5, fast_repeat: int = 100) -> dict:
    params = ProtocolParams.for_n(N)
    code = ReedSolomonCode(params.data_shards, params.total_shards)
    seed_code = _SeedReedSolomon(code)
    block = bytes(range(256)) * (BLOCK_SIZE // 256)
    shards = code.encode(block)
    assert seed_code.encode(block) == shards, "seed reference must be byte-identical"
    parity_subset = {i: shards[i] for i in range(N - params.data_shards, N)}
    systematic_subset = {i: shards[i] for i in range(params.data_shards)}
    blocks = [bytes([b % 256]) * BLOCK_SIZE for b in range(BATCH)]
    tree = MerkleTree(shards)
    proof = tree.proof(7)

    encode_now, encode_seed = _compare(
        lambda: code.encode(block), lambda: seed_code.encode(block), repeat=repeat
    )
    decode_now, decode_seed = _compare(
        lambda: code.decode(parity_subset),
        lambda: seed_code.decode(parity_subset),
        repeat=repeat,
    )
    sys_now, sys_seed = _compare(
        lambda: code.decode(systematic_subset),
        lambda: seed_code.decode(systematic_subset),
        repeat=repeat,
    )
    many_now, many_seed = _compare(
        lambda: code.encode_many(blocks),
        lambda: [seed_code.encode(b) for b in blocks],
        repeat=many_repeat,
    )
    merkle_now, merkle_seed = _compare(
        lambda: MerkleTree(shards), lambda: _SeedMerkleTree(shards), repeat=repeat
    )

    # (current_timing, payload_bytes, seed_timing_or_None)
    timings = {
        "rs_encode_250kb": (encode_now, BLOCK_SIZE, encode_seed),
        "rs_decode_parity_250kb": (decode_now, BLOCK_SIZE, decode_seed),
        "rs_decode_systematic_250kb": (sys_now, BLOCK_SIZE, sys_seed),
        "rs_encode_many_8x250kb": (many_now, BATCH * BLOCK_SIZE, many_seed),
        "merkle_build_16_leaves": (
            merkle_now,
            sum(len(s) for s in shards),
            merkle_seed,
        ),
        "merkle_proofs_all_16": (_time(tree.proofs_all, repeat=fast_repeat), None, None),
        "merkle_verify_proof": (
            _time(lambda: verify_proof(tree.root, shards[7], proof), repeat=fast_repeat),
            len(shards[7]),
            None,
        ),
    }

    operations = {}
    for name, (seconds, payload_bytes, seed_seconds) in timings.items():
        entry = {"median_seconds": seconds}
        if payload_bytes is not None:
            entry["throughput_mb_per_s"] = payload_bytes / seconds / 1e6
        if seed_seconds is not None:
            entry["seed_median_seconds"] = seed_seconds
            entry["speedup_vs_seed"] = seed_seconds / seconds
        operations[name] = entry
    operations.update(_retrieve_check_rows(block, repeat))

    return {
        "workload": {"n": N, "data_shards": params.data_shards, "block_size": BLOCK_SIZE},
        "operations": operations,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Coding-substrate throughput report")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="few-sample CI regression pass; does not rewrite the JSON report",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_report(repeat=3, many_repeat=2, fast_repeat=10)
    else:
        report = run_report()
        OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {OUTPUT_PATH}")
    for name, entry in report["operations"].items():
        line = f"{name:36s} {entry['median_seconds'] * 1e3:8.3f} ms"
        if "throughput_mb_per_s" in entry:
            line += f"  {entry['throughput_mb_per_s']:8.1f} MB/s"
        if "speedup_vs_seed" in entry:
            line += f"  {entry['speedup_vs_seed']:5.1f}x vs seed"
        if "speedup_vs_two_step" in entry:
            line += f"  {entry['speedup_vs_two_step']:5.2f}x vs two-step"
        print(line)


if __name__ == "__main__":
    main()
