"""Hash helpers.

The paper uses a single security parameter ``lambda = 32`` bytes for hashes
(S3.2).  We use SHA-256 everywhere, with domain separation between leaf and
interior Merkle nodes to rule out second-preimage tricks between levels.
"""

from __future__ import annotations

import hashlib

#: Size of every digest produced by this module, in bytes (``lambda`` in the paper).
DIGEST_SIZE = 32

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

_sha256 = hashlib.sha256


def hash_data(data: bytes) -> bytes:
    """Hash raw data (used for Merkle leaves and content digests).

    Prefix and data are fed to the hasher separately (hashing is
    incremental), so a chunk is never copied just to prepend one byte.
    """
    hasher = _sha256(_LEAF_PREFIX)
    hasher.update(data)
    return hasher.digest()


def hash_pair(left: bytes, right: bytes) -> bytes:
    """Hash the concatenation of two child digests (interior Merkle nodes)."""
    return _sha256(_NODE_PREFIX + left + right).digest()


def digest_level_into(out: bytearray, level: bytes | bytearray) -> None:
    """Hash consecutive digest pairs of ``level`` into ``out``.

    ``level`` is a packed array of an even number of ``DIGEST_SIZE`` digests;
    ``out`` receives half as many interior-node digests.  Equivalent to
    :func:`hash_pair` on every pair, with a single slice per node instead of
    two concatenations.
    """
    sha, prefix = _sha256, _NODE_PREFIX
    pos = 0
    for src in range(0, len(level), 2 * DIGEST_SIZE):
        out[pos : pos + DIGEST_SIZE] = sha(
            prefix + level[src : src + 2 * DIGEST_SIZE]
        ).digest()
        pos += DIGEST_SIZE
