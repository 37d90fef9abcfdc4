"""Binary Merkle tree with inclusion proofs.

AVID-M commits to the array of ``N`` erasure-coded chunks by the root of a
Merkle tree built over them (Fig. 3 of the paper).  The ``i``-th server
receives its chunk together with a proof that it is the ``i``-th leaf under
that root, and verifies the proof before accepting the chunk.

The tree pads the leaf layer to the next power of two with a fixed empty
digest so that proof sizes are ``ceil(log2 N)`` siblings.

Every level is stored as one packed ``bytes`` buffer of 32-byte digests,
built bottom-up in a single :mod:`hashlib` pass per level (interior
levels hash straight out of the buffer below, with no per-node lists).
Proofs slice siblings straight out of those buffers;
:meth:`MerkleTree.proofs_all` is the convenience form for AVID-M's
"one proof per server" dispersal.

A tree can also take some leaves as digests already computed: AVID-M's
retrieval check rebuilds the root over a completed codeword whose ``k``
received chunks were hashed once already, by :func:`verify_proof`, which
hands back the leaf digest it checked.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.crypto.hashing import DIGEST_SIZE, digest_level_into, hash_data, hash_pair

_EMPTY_LEAF = hash_data(b"\x00merkle-padding")


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf.

    Attributes:
        index: position of the leaf among the original (unpadded) leaves.
        siblings: digests of the sibling nodes from the leaf up to the root.
    """

    index: int
    siblings: tuple[bytes, ...]

    @property
    def wire_size(self) -> int:
        """Bytes this proof occupies on the wire (index encoded in 4 bytes)."""
        return 4 + DIGEST_SIZE * len(self.siblings)


class MerkleTree:
    """A Merkle tree over a fixed list of leaves.

    Args:
        leaves: the leaf payloads to hash.
        known: leaf digests already computed, by leaf position.  The tree
            then has ``len(leaves) + len(known)`` leaves: ``known`` fills its
            positions and ``leaves`` fill the others, in ascending order.
            Only ``leaves`` are hashed.
    """

    def __init__(self, leaves: list[bytes], known: Mapping[int, bytes] | None = None):
        known = known or {}
        count = len(leaves) + len(known)
        if not count:
            raise ValueError("Merkle tree needs at least one leaf")
        if any(not 0 <= pos < count for pos in known):
            raise ValueError(f"known leaf positions must lie in [0, {count})")
        self._num_leaves = count
        width = 1
        while width < count:
            width *= 2
        fresh = iter(leaves)
        digests = [
            known[pos] if pos in known else hash_data(next(fresh)) for pos in range(count)
        ]
        #: Packed digest buffers, leaf level first, root level (32 bytes) last.
        self._levels: list[bytes] = [
            b"".join(digests) + _EMPTY_LEAF * (width - count)
        ]
        while width > 1:
            width //= 2
            parent = bytearray(width * DIGEST_SIZE)
            digest_level_into(parent, self._levels[-1])
            self._levels.append(bytes(parent))

    @property
    def root(self) -> bytes:
        """Root digest of the tree."""
        return self._levels[-1]

    @property
    def num_leaves(self) -> int:
        """Number of original (unpadded) leaves."""
        return self._num_leaves

    def _sibling(self, depth: int, pos: int) -> bytes:
        level = self._levels[depth]
        start = (pos ^ 1) * DIGEST_SIZE
        return level[start : start + DIGEST_SIZE]

    def proof(self, index: int) -> MerkleProof:
        """Build the inclusion proof for leaf ``index``."""
        if not 0 <= index < self._num_leaves:
            raise IndexError(f"leaf index {index} out of range [0, {self._num_leaves})")
        siblings: list[bytes] = []
        pos = index
        for depth in range(len(self._levels) - 1):
            siblings.append(self._sibling(depth, pos))
            pos //= 2
        return MerkleProof(index=index, siblings=tuple(siblings))

    def proofs_all(self) -> list[MerkleProof]:
        """Inclusion proofs for every original leaf.

        What AVID-M's dispersal needs (one proof per server); proofs slice
        their siblings straight out of the packed level buffers.
        """
        return [self.proof(index) for index in range(self._num_leaves)]


def merkle_root(leaves: list[bytes]) -> bytes:
    """Convenience helper: the root of a tree over ``leaves``."""
    return MerkleTree(leaves).root


def verify_proof(root: bytes, leaf: bytes, proof: MerkleProof) -> bytes | None:
    """Check that ``leaf`` is the ``proof.index``-th leaf under ``root``.

    Returns the leaf's digest when the proof holds (so a caller can reuse it
    instead of hashing the leaf again), else ``None``.
    """
    digest = leaf_digest = hash_data(leaf)
    pos = proof.index
    for sibling in proof.siblings:
        if pos % 2 == 0:
            digest = hash_pair(digest, sibling)
        else:
            digest = hash_pair(sibling, digest)
        pos //= 2
    return leaf_digest if digest == root else None
