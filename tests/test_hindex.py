"""Unit tests for the hierarchical (layered) index."""

from __future__ import annotations

import pytest

from repro.core.hindex import HierarchicalIndex
from repro.errors import QueryError
from repro.trees.build import balanced, caterpillar
from repro.trees.node import Node
from repro.trees.traversal import naive_lca
from repro.trees.tree import PhyloTree


class TestConstruction:
    def test_invalid_bound(self, fig1):
        with pytest.raises(QueryError):
            HierarchicalIndex(fig1, 0)

    def test_shallow_tree_single_layer(self, fig1):
        index = HierarchicalIndex(fig1, 10)
        assert index.n_layers == 1
        assert index.n_blocks() == 1

    def test_deep_tree_multiple_layers(self):
        index = HierarchicalIndex(caterpillar(100), 4)
        assert index.n_layers >= 3

    def test_label_bound_holds_across_layers(self):
        for f in (1, 2, 4, 8):
            index = HierarchicalIndex(caterpillar(60), f)
            assert index.max_label_length() <= f

    def test_layer_summary_shape(self):
        index = HierarchicalIndex(caterpillar(40), 3)
        summary = index.layer_summary()
        assert len(summary) == index.n_layers
        assert summary[-1]["blocks"] == 1  # top layer is a single block
        assert sum(row["blocks"] for row in summary) == index.n_blocks()

    def test_single_node_tree(self):
        tree = PhyloTree(Node("only"))
        index = HierarchicalIndex(tree, 2)
        assert index.n_layers == 1
        assert index.lca(tree.root, tree.root) is tree.root

    def test_repr(self, fig1):
        assert "HierarchicalIndex" in repr(HierarchicalIndex(fig1, 2))


class TestLabels:
    def test_canonical_label_bounded(self):
        tree = caterpillar(64)
        index = HierarchicalIndex(tree, 4)
        for node in tree.preorder():
            _block, label = index.label_of(node)
            assert len(label) <= 4

    def test_describe_label(self, fig1):
        index = HierarchicalIndex(fig1, 2)
        assert index.describe_label(fig1.find("x")) == "0:2.1"
        assert index.describe_label(fig1.root) == "0:ε"

    def test_foreign_node_raises(self, fig1):
        index = HierarchicalIndex(fig1, 2)
        with pytest.raises(QueryError):
            index.inode_of(Node("alien"))

    def test_total_label_bytes_bounded_on_deep_trees(self):
        """The headline storage claim: layered label bytes grow linearly
        with tree size even on a chain, unlike plain Dewey."""
        from repro.core.dewey import DeweyIndex

        tree = caterpillar(400)
        layered = HierarchicalIndex(tree, 8).total_label_bytes()
        plain = DeweyIndex(tree).total_label_bytes()
        assert layered < plain / 10


class TestLcaCorrectness:
    @pytest.mark.parametrize("f", [1, 2, 3, 8])
    def test_all_pairs_on_fig1(self, fig1, f):
        index = HierarchicalIndex(fig1, f)
        nodes = list(fig1.preorder())
        for a in nodes:
            for b in nodes:
                assert index.lca(a, b) is naive_lca(a, b)

    @pytest.mark.parametrize("f", [2, 3, 5])
    def test_all_pairs_on_caterpillar(self, f):
        tree = caterpillar(24)
        index = HierarchicalIndex(tree, f)
        nodes = list(tree.preorder())
        for a in nodes[::2]:
            for b in nodes[::3]:
                assert index.lca(a, b) is naive_lca(a, b)

    @pytest.mark.parametrize("f", [2, 4])
    def test_all_pairs_on_balanced(self, f):
        tree = balanced(4)
        index = HierarchicalIndex(tree, f)
        nodes = list(tree.preorder())
        for a in nodes[::2]:
            for b in nodes[::3]:
                assert index.lca(a, b) is naive_lca(a, b)

    def test_random_trees_against_naive(self, random_tree_factory):
        for seed in range(8):
            tree = random_tree_factory(60, seed)
            index = HierarchicalIndex(tree, 1 + seed % 4)
            nodes = list(tree.preorder())
            for a in nodes[::5]:
                for b in nodes[::7]:
                    assert index.lca(a, b) is naive_lca(a, b)

    def test_lca_of_node_with_itself(self, fig1):
        index = HierarchicalIndex(fig1, 2)
        for node in fig1.preorder():
            assert index.lca(node, node) is node

    def test_lca_symmetry(self, fig1):
        index = HierarchicalIndex(fig1, 2)
        nodes = list(fig1.preorder())
        for a in nodes:
            for b in nodes:
                assert index.lca(a, b) is index.lca(b, a)

    def test_lca_many(self, fig1):
        index = HierarchicalIndex(fig1, 2)
        assert index.lca_many([fig1.find("Lla")]) is fig1.find("Lla")
        assert (
            index.lca_many([fig1.find("Lla"), fig1.find("Spy"), fig1.find("Bha")])
            is fig1.find("A")
        )

    def test_lca_many_empty_raises(self, fig1):
        with pytest.raises(QueryError):
            HierarchicalIndex(fig1, 2).lca_many([])

    def test_is_ancestor_or_self(self, fig1):
        index = HierarchicalIndex(fig1, 2)
        assert index.is_ancestor_or_self(fig1.root, fig1.find("Spy"))
        assert index.is_ancestor_or_self(fig1.find("Spy"), fig1.find("Spy"))
        assert not index.is_ancestor_or_self(fig1.find("Spy"), fig1.root)


class TestVeryDeepTree:
    def test_ten_thousand_level_chain(self):
        """Million-level trees are the paper's motivation; a 10k chain
        must index and answer LCA instantly with tiny labels."""
        tree = caterpillar(10000)
        index = HierarchicalIndex(tree, 8)
        assert index.max_label_length() <= 8
        leaves = list(tree.root.leaves())
        first, last = leaves[0], leaves[-1]
        assert index.lca(first, last) is naive_lca(first, last)


class TestRankSpaceBuild:
    """The build runs on the walk's rank tables: upper layers are child
    lists of blocks, not trees of synthetic nodes."""

    def test_no_node_or_tree_is_created(self, monkeypatch):
        tree = caterpillar(2500)  # 4,999 nodes, depth 2,499
        created = {"Node": 0, "PhyloTree": 0}
        for cls in (Node, PhyloTree):
            original = cls.__init__

            def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
                created[_name] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        index = HierarchicalIndex(tree, 2)
        assert index.n_layers >= 3
        assert created == {"Node": 0, "PhyloTree": 0}

    def test_hundred_thousand_deep_caterpillar(self):
        # Linked by hand: add_child's cycle check walks to the root, which
        # would make building the caterpillar itself quadratic.
        root = spine = Node("root")
        for depth in range(1, 100_001):
            for child in (Node(f"t{depth}", 1.0), Node(None, 1.0)):
                child.parent = spine
                spine.children.append(child)
            spine = child
        tree = PhyloTree(root)
        index = HierarchicalIndex(tree, 2)
        assert index.max_label_length() <= 2
        first_leaf, deepest = root.children[0], spine
        assert index.lca(deepest, first_leaf) is root
        assert index.lca(deepest, spine.parent.children[0]) is spine.parent
