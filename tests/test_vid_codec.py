"""Tests for the AVID-M codecs (real erasure-coded bytes and virtual sizes)."""

import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.errors import DecodingError
from repro.common.params import ProtocolParams
from repro.crypto.merkle import MerkleTree
from repro.erasure.gf256 import GF256
from repro.erasure.rs_code import ReedSolomonCode
from repro.vid.codec import (
    BAD_UPLOADER,
    Chunk,
    RealCodec,
    VirtualCodec,
    VirtualPayload,
)


@pytest.fixture
def codec():
    return RealCodec(ProtocolParams.for_n(4))


class TestRealCodec:
    def test_encode_many_matches_individual_encodes(self, codec):
        payloads = [b"", b"first", b"second payload" * 5, bytes(range(200))]
        bundles = codec.encode_many(payloads)
        for payload, bundle in zip(payloads, bundles):
            single = codec.encode(payload)
            assert bundle.root == single.root
            assert bundle.payload_size == single.payload_size
            assert bundle.chunks == single.chunks

    def test_encode_many_empty(self, codec):
        assert codec.encode_many([]) == []

    def test_encode_produces_n_chunks_with_valid_proofs(self, codec):
        bundle = codec.encode(b"payload bytes")
        assert len(bundle.chunks) == 4
        for chunk in bundle.chunks:
            assert codec.verify_chunk(bundle.root, chunk)

    def test_verify_rejects_wrong_root(self, codec):
        bundle_a = codec.encode(b"payload a")
        bundle_b = codec.encode(b"payload b")
        assert not codec.verify_chunk(bundle_b.root, bundle_a.chunks[0])

    def test_verify_rejects_index_mismatch(self, codec):
        bundle = codec.encode(b"payload")
        chunk = bundle.chunks[1]
        forged = Chunk(index=2, size=chunk.size, data=chunk.data, proof=chunk.proof)
        assert not codec.verify_chunk(bundle.root, forged)

    def test_decode_roundtrip_from_any_quorum(self, codec):
        payload = b"dispersed ledger codec roundtrip" * 3
        bundle = codec.encode(payload)
        chunks = {c.index: c for c in bundle.chunks[:2]}
        assert codec.decode(bundle.root, chunks) == payload
        chunks = {c.index: c for c in bundle.chunks[2:]}
        assert codec.decode(bundle.root, chunks) == payload

    def test_decode_detects_inconsistent_encoding(self, codec):
        # Mix chunks from two different payloads under a fresh Merkle root:
        # the re-encode check must flag the dispersal as inconsistent.
        bundle_a = codec.encode(b"a" * 50)
        bundle_b = codec.encode(b"b" * 50)
        mixed = [
            bundle_a.chunks[0].data,
            bundle_a.chunks[1].data,
            bundle_b.chunks[2].data,
            bundle_b.chunks[3].data,
        ]
        tree = MerkleTree(mixed)
        chunks = {
            i: Chunk(index=i, size=len(mixed[i]), data=mixed[i], proof=tree.proof(i))
            for i in (1, 2)
        }
        assert codec.decode(tree.root, chunks) == BAD_UPLOADER

    def test_chunk_sizes_match_declared(self, codec):
        payload = b"x" * 1000
        bundle = codec.encode(payload)
        expected = codec.chunk_payload_size(len(payload))
        for chunk in bundle.chunks:
            assert chunk.size == expected
            assert len(chunk.data) == expected

    def test_chunk_wire_size_includes_proof(self, codec):
        assert codec.chunk_wire_size(1000) > codec.chunk_payload_size(1000)

    @given(payload=st.binary(min_size=0, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, payload):
        codec = RealCodec(ProtocolParams.for_n(7))
        bundle = codec.encode(payload)
        chunks = {c.index: c for c in bundle.chunks if c.index % 2 == 0}
        assert len(chunks) >= codec.params.data_shards
        assert codec.decode(bundle.root, chunks) == payload


def two_step_check(params, root, chunks):
    """The retrieval check as two full passes: decode, re-encode, compare
    roots.  The reference the fused :meth:`RealCodec.decode` must match."""
    rs = ReedSolomonCode(params.data_shards, params.total_shards)
    try:
        payload = rs.decode({i: chunk.data for i, chunk in chunks.items()})
    except DecodingError:
        return BAD_UPLOADER
    if MerkleTree(rs.encode(payload)).root != root:
        return BAD_UPLOADER
    return payload


def codeword_of(rs, region, width):
    """The codeword whose data region is ``region`` (``k`` rows of ``width``),
    padded or not; ``encode`` only ever builds canonically padded ones."""
    rows = [region[i * width : (i + 1) * width] for i in range(rs.data_shards)]
    return rows + GF256.mat_vec_bytes(rs._parity_matrix, rows)


def dispersal(rs, kind, payload, data):
    """The ``n`` committed shards of an honest or inconsistent dispersal."""
    header = struct.pack(">I", len(payload))
    width = rs.shard_size(len(payload))
    room = rs.data_shards * width - len(header) - len(payload)
    if kind == "honest":
        return rs.encode(payload)
    if kind == "nonzero-padding":
        assume(room > 0)
        tail = data.draw(st.binary(min_size=room, max_size=room))
        assume(any(tail))
        return codeword_of(rs, header + payload + tail, width)
    if kind == "wide-shards":
        width += data.draw(st.integers(min_value=1, max_value=5))
        region = (header + payload).ljust(rs.data_shards * width, b"\x00")
        return codeword_of(rs, region, width)
    if kind == "length-past-capacity":
        capacity = rs.data_shards * width - len(header)
        bogus = struct.pack(">I", capacity + data.draw(st.integers(1, 2**20)))
        return codeword_of(rs, bogus + payload + bytes(room), width)
    assert kind == "corrupt-parity"
    assume(rs.total_shards > rs.data_shards)
    shards = rs.encode(payload)
    index = data.draw(st.integers(rs.data_shards, rs.total_shards - 1))
    flipped = bytearray(shards[index])
    flipped[data.draw(st.integers(0, width - 1))] ^= data.draw(st.integers(1, 255))
    shards[index] = bytes(flipped)
    return shards


def retrieval_set(params, shape, data):
    k, n = params.data_shards, params.total_shards
    if shape == "systematic" or n == k:
        return list(range(k))
    if shape == "parity-only":
        return list(range(n - k, n))
    if shape == "all":
        return list(range(n))
    picked = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    assume(min(picked) < k <= max(picked))
    return picked


class TestFusedRetrievalCheck:
    """``RealCodec.decode`` completes the codeword once and reuses verified
    leaf digests; it must answer exactly as decode + re-encode + compare."""

    @given(
        params=st.sampled_from(
            [
                ProtocolParams.for_n(4),
                ProtocolParams.for_n(7),
                ProtocolParams.for_n(8),
                ProtocolParams.for_n(16),
                ProtocolParams(n=4, f=0),
            ]
        ),
        payload=st.binary(min_size=0, max_size=400),
        kind=st.sampled_from(
            ["honest", "nonzero-padding", "wide-shards", "length-past-capacity", "corrupt-parity"]
        ),
        shape=st.sampled_from(["systematic", "mixed", "parity-only", "all"]),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_two_step_check(self, params, payload, kind, shape, data):
        codec = RealCodec(params)
        rs = ReedSolomonCode(params.data_shards, params.total_shards)
        shards = dispersal(rs, kind, payload, data)
        tree = MerkleTree(shards)
        chunks = {
            i: Chunk(index=i, size=len(shards[i]), data=shards[i], proof=tree.proof(i))
            for i in retrieval_set(params, shape, data)
        }
        digests = {i: codec.verify_chunk(tree.root, chunk) for i, chunk in chunks.items()}
        assert None not in digests.values()
        expected = payload if kind == "honest" else BAD_UPLOADER
        assert two_step_check(params, tree.root, chunks) == expected
        assert codec.decode(tree.root, chunks, digests) == expected
        assert codec.decode(tree.root, chunks) == expected

    def test_completed_codeword_is_the_encoding(self):
        rs = ReedSolomonCode(4, 8)
        payload = bytes(range(256)) * 5
        shards = rs.encode(payload)
        for indices in ((0, 1, 2, 3), (4, 5, 6, 7), (0, 2, 5, 7)):
            assert rs.complete({i: shards[i] for i in indices}) == (payload, shards)

    def test_header_larger_than_shards_is_bad_uploader(self):
        # k * width < 4: the data region cannot even hold the length header.
        params = ProtocolParams.for_n(4)
        shards = [b"\x00"] * 4
        tree = MerkleTree(shards)
        chunks = {
            i: Chunk(index=i, size=1, data=shards[i], proof=tree.proof(i)) for i in (0, 1)
        }
        assert two_step_check(params, tree.root, chunks) == BAD_UPLOADER
        assert RealCodec(params).decode(tree.root, chunks) == BAD_UPLOADER


class TestVirtualCodec:
    def test_payload_roundtrip(self):
        codec = VirtualCodec(ProtocolParams.for_n(4))
        payload = VirtualPayload.create(size=10_000, label="block")
        bundle = codec.encode(payload)
        assert bundle.payload_size == 10_000
        decoded = codec.decode(bundle.root, {c.index: c for c in bundle.chunks[:2]})
        assert decoded is payload

    def test_chunk_sizes_match_real_codec(self):
        params = ProtocolParams.for_n(16)
        real, virtual = RealCodec(params), VirtualCodec(params)
        for size in (1, 100, 150_000, 1_000_000):
            assert virtual.chunk_payload_size(size) == real.chunk_payload_size(size)
            assert virtual.chunk_wire_size(size) == real.chunk_wire_size(size)

    def test_distinct_payloads_distinct_roots(self):
        codec = VirtualCodec(ProtocolParams.for_n(4))
        a = codec.encode(VirtualPayload.create(size=100))
        b = codec.encode(VirtualPayload.create(size=100))
        assert a.root != b.root

    def test_payload_size_helper(self):
        codec = VirtualCodec(ProtocolParams.for_n(4))
        assert codec.payload_size(VirtualPayload.create(size=42)) == 42
        assert codec.payload_size(b"abc") == 3
