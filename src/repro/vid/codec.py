"""Codecs: how blocks become chunks and how chunks become blocks again.

AVID-M's message flow is independent of how the payload is actually encoded,
so the automaton takes a *codec* object:

* :class:`RealCodec` — the faithful implementation: Reed-Solomon encode the
  payload bytes, build a Merkle tree over the chunks, verify Merkle proofs
  on receipt, and check after decoding that the chunks are the encoding of
  the decoded payload (AVID-M's "re-encode and compare roots" check, done
  as one codeword completion — see :meth:`RealCodec.decode`).
* :class:`VirtualCodec` — used by throughput experiments: payloads are
  opaque objects that only declare a byte size; chunk sizes and message
  sizes are computed exactly as the real codec would, but no bytes are
  moved, so simulating multi-megabyte blocks is cheap.  Correctness of the
  real data path is established separately by the unit/property tests.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any

from repro.common.errors import DecodingError
from repro.common.params import ProtocolParams
from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.merkle import MerkleProof, MerkleTree, verify_proof
from repro.erasure.rs_code import ReedSolomonCode

#: The fixed error string returned when an inconsistent dispersal is detected
#: (Fig. 4, step 4 of the paper).
BAD_UPLOADER = "BAD_UPLOADER"


@dataclass(frozen=True)
class Chunk:
    """One erasure-coded chunk as held by a server.

    ``data`` and ``proof`` are populated by the real codec; the virtual codec
    leaves them ``None`` and only carries ``size`` (payload bytes) plus the
    payload reference needed to reassemble the virtual block.
    """

    index: int
    size: int
    data: bytes | None = None
    proof: MerkleProof | None = None
    payload_ref: Any = None

    @property
    def wire_size(self) -> int:
        """Bytes the chunk body plus its Merkle proof occupy on the wire."""
        proof_size = self.proof.wire_size if self.proof is not None else self._proof_size_estimate()
        return self.size + proof_size

    def _proof_size_estimate(self) -> int:
        # Virtual chunks still account for the Merkle proof the real protocol
        # would carry: index (4 bytes) plus ceil(log2 N) sibling digests.  The
        # codec fills in the exact value via `proof_wire_size`.
        return 4


@dataclass(frozen=True)
class DispersalBundle:
    """The output of encoding a payload for dispersal: a root and N chunks."""

    root: bytes
    chunks: tuple[Chunk, ...]
    payload_size: int


def _proof_wire_size(num_leaves: int) -> int:
    depth = 0
    width = 1
    while width < num_leaves:
        width *= 2
        depth += 1
    return 4 + DIGEST_SIZE * depth


class RealCodec:
    """Erasure-code + Merkle-tree codec operating on real bytes."""

    def __init__(self, params: ProtocolParams):
        self.params = params
        self._rs = ReedSolomonCode(params.data_shards, params.total_shards)

    def chunk_payload_size(self, payload_size: int) -> int:
        """Size in bytes of each chunk's data for a payload of ``payload_size``."""
        return self._rs.shard_size(payload_size)

    def chunk_wire_size(self, payload_size: int) -> int:
        """Bytes one chunk message body occupies (chunk data + Merkle proof)."""
        return self.chunk_payload_size(payload_size) + _proof_wire_size(self.params.n)

    def encode(self, payload: bytes) -> DispersalBundle:
        """Encode ``payload`` into N chunks committed to by a Merkle root."""
        return self._bundle(self._rs.encode(payload), len(payload))

    def encode_many(self, payloads: list[bytes]) -> list[DispersalBundle]:
        """Encode several payloads, batching the Reed-Solomon parity work.

        All payloads share one GF(256) kernel invocation (see
        :meth:`repro.erasure.rs_code.ReedSolomonCode.encode_many`); each
        still gets its own Merkle tree and root.  Bundles are byte-identical
        to encoding each payload with :meth:`encode`.
        """
        shard_lists = self._rs.encode_many(payloads)
        return [
            self._bundle(shards, len(payload))
            for shards, payload in zip(shard_lists, payloads)
        ]

    def _bundle(self, shards: list[bytes], payload_size: int) -> DispersalBundle:
        tree = MerkleTree(shards)
        proofs = tree.proofs_all()
        chunks = tuple(
            Chunk(index=i, size=len(shards[i]), data=shards[i], proof=proofs[i])
            for i in range(self.params.n)
        )
        return DispersalBundle(root=tree.root, chunks=chunks, payload_size=payload_size)

    def verify_chunk(self, root: bytes, chunk: Chunk) -> bytes | None:
        """Check that ``chunk`` really is the ``chunk.index``-th leaf under ``root``.

        Returns the chunk's verified leaf digest, or ``None`` if it fails.
        """
        if chunk.data is None or chunk.proof is None:
            return None
        if chunk.proof.index != chunk.index:
            return None
        return verify_proof(root, chunk.data, chunk.proof)

    def decode(
        self,
        root: bytes,
        chunks: dict[int, Chunk],
        digests: dict[int, bytes] | None = None,
    ) -> Any:
        """Decode from at least ``N - 2f`` chunks and run the re-encode check.

        Returns the decoded payload bytes, or :data:`BAD_UPLOADER` if the
        chunks were not a consistent encoding of any payload (Fig. 4).

        The check is one codeword completion
        (:meth:`repro.erasure.rs_code.ReedSolomonCode.complete`): it yields
        the payload only when the completed codeword equals
        ``encode(payload)`` bit for bit, so comparing its Merkle root with
        ``root`` is exactly "re-encode and compare roots".  ``digests`` are
        the leaf digests :meth:`verify_chunk` returned for ``chunks``, by
        index: a codeword shard equal to a verified chunk reuses its digest,
        so each shard is hashed once per node.
        """
        shards = {
            index: chunk.data for index, chunk in chunks.items() if chunk.data is not None
        }
        try:
            payload, codeword = self._rs.complete(shards)
        except DecodingError:
            return BAD_UPLOADER
        known: dict[int, bytes] = {}
        fresh: list[bytes] = []
        for index, shard in enumerate(codeword):
            if digests and index in digests and shard == shards.get(index):
                known[index] = digests[index]
            else:
                fresh.append(shard)
        if MerkleTree(fresh, known=known).root != root:
            return BAD_UPLOADER
        return payload

    def payload_size(self, payload: bytes) -> int:
        return len(payload)


_virtual_ids = itertools.count()


@dataclass(frozen=True)
class VirtualPayload:
    """A stand-in for a block: an identity plus a declared byte size.

    ``inconsistent`` marks the virtual counterpart of an equivocating
    dispersal: the chunks carry the right sizes, but they are not the
    encoding of any single payload, so :meth:`VirtualCodec.decode` reports
    :data:`BAD_UPLOADER` exactly where the real codec's re-encode check
    would (Fig. 4, step 4).
    """

    payload_id: int
    size: int
    label: str = ""
    inconsistent: bool = False

    @classmethod
    def create(cls, size: int, label: str = "", inconsistent: bool = False) -> "VirtualPayload":
        return cls(
            payload_id=next(_virtual_ids), size=size, label=label, inconsistent=inconsistent
        )

    def digest(self) -> bytes:
        return hashlib.sha256(f"virtual-{self.payload_id}-{self.size}".encode()).digest()


class VirtualCodec:
    """Byte-accounting codec: moves no data, but sizes match the real codec."""

    def __init__(self, params: ProtocolParams):
        self.params = params
        self._rs_overhead = 4  # length header added by the real Reed-Solomon code

    def chunk_payload_size(self, payload_size: int) -> int:
        padded = payload_size + self._rs_overhead
        return max(1, -(-padded // self.params.data_shards))

    def chunk_wire_size(self, payload_size: int) -> int:
        return self.chunk_payload_size(payload_size) + _proof_wire_size(self.params.n)

    def encode_many(self, payloads: list[Any]) -> list[DispersalBundle]:
        """Batch form of :meth:`encode` (no actual batching — nothing to batch)."""
        return [self.encode(payload) for payload in payloads]

    def encode(self, payload: Any) -> DispersalBundle:
        size = payload.size if hasattr(payload, "size") else len(payload)
        chunk_size = self.chunk_payload_size(size)
        root = (
            payload.digest()
            if hasattr(payload, "digest")
            else hashlib.sha256(bytes(payload)).digest()
        )
        chunks = tuple(
            Chunk(index=i, size=chunk_size, payload_ref=payload)
            for i in range(self.params.n)
        )
        return DispersalBundle(root=root, chunks=chunks, payload_size=size)

    def verify_chunk(self, root: bytes, chunk: Chunk) -> bytes | None:
        # Virtual chunks carry no bytes to hash; the root stands in for the
        # leaf digest.
        return root if chunk.payload_ref is not None else None

    def decode(
        self,
        root: bytes,
        chunks: dict[int, Chunk],
        digests: dict[int, bytes] | None = None,
    ) -> Any:
        for chunk in chunks.values():
            if chunk.payload_ref is not None:
                if getattr(chunk.payload_ref, "inconsistent", False):
                    # The virtual analogue of the re-encode check: these
                    # chunks never were one payload's encoding.
                    return BAD_UPLOADER
                return chunk.payload_ref
        return BAD_UPLOADER

    def payload_size(self, payload: Any) -> int:
        return payload.size if hasattr(payload, "size") else len(payload)
