"""Unit tests for plain Dewey labeling."""

from __future__ import annotations

import pytest

from repro.core.dewey import (
    DeweyIndex,
    common_prefix,
    is_prefix,
    label_from_string,
    label_to_string,
)
from repro.errors import QueryError
from repro.trees.build import caterpillar
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


class TestLabelStrings:
    def test_root_label_is_empty_string(self):
        assert label_to_string(()) == ""

    def test_roundtrip(self):
        assert label_from_string(label_to_string((2, 1, 1))) == (2, 1, 1)

    def test_empty_string_is_root(self):
        assert label_from_string("") == ()

    def test_invalid_component(self):
        with pytest.raises(QueryError):
            label_from_string("2.x.1")

    def test_zero_component_rejected(self):
        with pytest.raises(QueryError):
            label_from_string("2.0.1")


class TestPrefixAlgebra:
    def test_common_prefix(self):
        assert common_prefix((2, 1, 1), (2, 1, 2)) == (2, 1)

    def test_disjoint_prefix(self):
        assert common_prefix((1, 2), (2, 1)) == ()

    def test_identical(self):
        assert common_prefix((3, 1), (3, 1)) == (3, 1)

    def test_prefix_of_longer(self):
        assert common_prefix((2,), (2, 5, 7)) == (2,)

    def test_is_prefix(self):
        assert is_prefix((2, 1), (2, 1, 5))
        assert is_prefix((), (1,))
        assert is_prefix((2,), (2,))
        assert not is_prefix((2, 2), (2, 1, 5))
        assert not is_prefix((2, 1, 5), (2, 1))


class TestDeweyIndex:
    def test_labels_unique(self, fig1):
        index = DeweyIndex(fig1)
        labels = [index.label(node) for node in fig1.preorder()]
        assert len(set(labels)) == len(labels)

    def test_node_at_inverts_label(self, fig1):
        index = DeweyIndex(fig1)
        for node in fig1.preorder():
            assert index.node_at(index.label(node)) is node

    def test_node_at_unknown_raises(self, fig1):
        index = DeweyIndex(fig1)
        with pytest.raises(QueryError):
            index.node_at((9, 9, 9))

    def test_foreign_node_raises(self, fig1):
        index = DeweyIndex(fig1)
        with pytest.raises(QueryError):
            index.label(Node("alien"))

    def test_lca_matches_naive(self, fig1, random_tree_factory):
        from repro.trees.traversal import naive_lca

        for seed in range(5):
            tree = random_tree_factory(40, seed)
            index = DeweyIndex(tree)
            nodes = list(tree.preorder())
            for a in nodes[::3]:
                for b in nodes[::4]:
                    assert index.lca(a, b) is naive_lca(a, b)

    def test_lca_many(self, fig1):
        index = DeweyIndex(fig1)
        anchor = index.lca_many(
            [fig1.find("Lla"), fig1.find("Spy"), fig1.find("Bha")]
        )
        assert anchor is fig1.find("A")

    def test_lca_many_empty_raises(self, fig1):
        with pytest.raises(QueryError):
            DeweyIndex(fig1).lca_many([])

    def test_is_ancestor_or_self(self, fig1):
        index = DeweyIndex(fig1)
        assert index.is_ancestor_or_self(fig1.find("A"), fig1.find("Lla"))
        assert index.is_ancestor_or_self(fig1.find("Lla"), fig1.find("Lla"))
        assert not index.is_ancestor_or_self(fig1.find("Lla"), fig1.find("A"))

    def test_max_label_length_equals_depth(self):
        tree = caterpillar(50)
        index = DeweyIndex(tree)
        assert index.max_label_length() == tree.max_depth()

    def test_label_bytes_grow_superlinearly_with_depth(self):
        """The paper's complaint: total Dewey label bytes on a deep chain
        grow quadratically (each node stores its whole path)."""
        small = DeweyIndex(caterpillar(50)).total_label_bytes()
        large = DeweyIndex(caterpillar(200)).total_label_bytes()
        assert large > 10 * small

    def test_single_node_tree(self):
        tree = PhyloTree(Node("only"))
        index = DeweyIndex(tree)
        assert index.label(tree.root) == ()
        assert index.max_label_length() == 0
        assert index.lca(tree.root, tree.root) is tree.root

    def test_insertion_order_is_preorder(self, fig1, random_tree_factory):
        """Regression: the build traversal used to visit reversed-DFS,
        so the index dicts' insertion order violated pre-order."""
        for tree in (fig1, random_tree_factory(60, seed=9)):
            index = DeweyIndex(tree)
            expected = [id(node) for node in tree.preorder()]
            assert list(index._label_of) == expected
            assert [id(node) for node in index._node_at.values()] == expected

    def test_lca_many_early_exit_at_root(self, fig1):
        """There is no early exit at the root: the set's LCA comes from
        its pre-order extremes, so every node is label-looked-up and a
        foreign node after the root is reached still raises."""
        index = DeweyIndex(fig1)
        foreign = Node("alien")
        assert index.lca_many([fig1.find("Lla"), fig1.find("Syn")]) is fig1.root
        with pytest.raises(QueryError):
            index.lca_many([fig1.find("Lla"), fig1.find("Syn"), foreign])
        with pytest.raises(QueryError):
            index.lca_many([fig1.find("Lla"), foreign])
