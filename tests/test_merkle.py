"""Tests for the Merkle tree and inclusion proofs."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import DIGEST_SIZE, hash_data, hash_pair
from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root, verify_proof


class TestHashing:
    def test_digest_size(self):
        assert len(hash_data(b"x")) == DIGEST_SIZE
        assert len(hash_pair(b"a" * 32, b"b" * 32)) == DIGEST_SIZE

    def test_leaf_and_node_domains_differ(self):
        # Leaf hashing and pair hashing must not collide even on equal input
        # bytes (second-preimage resistance between tree levels).
        data = b"a" * 64
        assert hash_data(data) != hash_pair(data[:32], data[32:])

    def test_deterministic(self):
        assert hash_data(b"hello") == hash_data(b"hello")
        assert hash_data(b"hello") != hash_data(b"hellO")

    @pytest.mark.parametrize("data", [b"", b"x", bytes(range(256)) * 800])
    def test_leaf_digest_is_prefixed_sha256(self, data):
        assert hash_data(data) == hashlib.sha256(b"\x00" + data).digest()


class TestMerkleTree:
    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        proof = tree.proof(0)
        assert verify_proof(tree.root, b"only", proof)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_proofs_verify_for_all_leaves(self):
        leaves = [f"leaf-{i}".encode() for i in range(7)]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            assert verify_proof(tree.root, leaf, tree.proof(index))

    def test_wrong_leaf_fails(self):
        leaves = [f"leaf-{i}".encode() for i in range(8)]
        tree = MerkleTree(leaves)
        assert not verify_proof(tree.root, b"not-a-leaf", tree.proof(3))

    def test_wrong_index_fails(self):
        leaves = [f"leaf-{i}".encode() for i in range(8)]
        tree = MerkleTree(leaves)
        proof = tree.proof(3)
        wrong = MerkleProof(index=4, siblings=proof.siblings)
        assert not verify_proof(tree.root, leaves[3], wrong)

    def test_proof_against_other_root_fails(self):
        tree_a = MerkleTree([b"a", b"b", b"c", b"d"])
        tree_b = MerkleTree([b"a", b"b", b"c", b"e"])
        assert not verify_proof(tree_b.root, b"a", tree_a.proof(0))

    def test_out_of_range_proof(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(IndexError):
            tree.proof(2)
        with pytest.raises(IndexError):
            tree.proof(-1)

    def test_num_leaves_excludes_padding(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        assert tree.num_leaves == 3

    def test_root_depends_on_leaf_order(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    def test_padding_distinguishes_sizes(self):
        # A 3-leaf tree and the same 3 leaves plus an explicit padding-like
        # leaf must not share a root.
        assert merkle_root([b"a", b"b", b"c"]) != merkle_root([b"a", b"b", b"c", b"c"])

    def test_proof_wire_size(self):
        tree = MerkleTree([bytes([i]) for i in range(16)])
        proof = tree.proof(0)
        assert proof.wire_size == 4 + DIGEST_SIZE * 4


class TestProofsAll:
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 16, 33])
    def test_matches_individual_proofs(self, count):
        leaves = [f"leaf-{i}".encode() for i in range(count)]
        tree = MerkleTree(leaves)
        proofs = tree.proofs_all()
        assert proofs == [tree.proof(i) for i in range(count)]

    def test_all_batch_proofs_verify(self):
        leaves = [bytes([i]) * (i + 1) for i in range(11)]
        tree = MerkleTree(leaves)
        for leaf, proof in zip(leaves, tree.proofs_all()):
            assert verify_proof(tree.root, leaf, proof)


class TestKnownDigests:
    @pytest.mark.parametrize("count", range(1, 18))
    def test_digest_built_tree_matches_hashed_tree(self, count):
        leaves = [f"leaf-{i}".encode() * (i + 1) for i in range(count)]
        reference = MerkleTree(leaves)
        for known_positions in (range(count), range(0, count, 2), range(count - 1, count)):
            known = {pos: hash_data(leaves[pos]) for pos in known_positions}
            fresh = [leaf for pos, leaf in enumerate(leaves) if pos not in known]
            tree = MerkleTree(fresh, known=known)
            assert tree.root == reference.root
            assert tree.proofs_all() == reference.proofs_all()

    def test_known_position_out_of_range(self):
        with pytest.raises(ValueError):
            MerkleTree([b"a"], known={2: hash_data(b"b")})

    def test_verify_proof_returns_the_leaf_digest(self):
        leaves = [b"a", b"b", b"c"]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            assert verify_proof(tree.root, leaf, tree.proof(index)) == hash_data(leaf)
        assert verify_proof(tree.root, b"z", tree.proof(0)) is None


class TestMerkleProperties:
    @given(
        leaves=st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=33),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_proof_verifies(self, leaves, data):
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        assert verify_proof(tree.root, leaves[index], tree.proof(index))

    @given(leaves=st.lists(st.binary(min_size=1, max_size=16), min_size=2, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_tampered_leaf_never_verifies(self, leaves):
        tree = MerkleTree(leaves)
        tampered = leaves[0] + b"\x01"
        assert not verify_proof(tree.root, tampered, tree.proof(0))
