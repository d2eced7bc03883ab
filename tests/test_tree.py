"""Unit tests for PhyloTree."""

from __future__ import annotations

import pytest

from repro.errors import QueryError, TreeStructureError
from repro.trees.node import Node
from repro.trees.tree import PhyloTree, validate_tree


class TestConstruction:
    def test_rejects_parented_root(self):
        parent = Node("p")
        child = parent.new_child("c")
        with pytest.raises(TreeStructureError):
            PhyloTree(child)

    def test_copy_preserves_everything(self, fig1):
        clone = fig1.copy()
        assert clone.to_newick() == fig1.to_newick()
        assert clone.root is not fig1.root

    def test_copy_is_deep(self, fig1):
        clone = fig1.copy()
        clone.find("Lla").name = "renamed"
        assert "Lla" in fig1

    def test_from_newick(self):
        tree = PhyloTree.from_newick("((a:1,b:2):0.5,c:3);", name="demo")
        assert tree.name == "demo"
        assert set(tree.leaf_names()) == {"a", "b", "c"}


class TestLookup:
    def test_find(self, fig1):
        assert fig1.find("Lla").name == "Lla"

    def test_find_interior(self, fig1):
        assert fig1.find("x").children

    def test_find_unknown_raises(self, fig1):
        with pytest.raises(QueryError):
            fig1.find("nope")

    def test_contains(self, fig1):
        assert "Syn" in fig1
        assert "nope" not in fig1
        assert 42 not in fig1

    def test_duplicate_names_raise_on_lookup(self):
        root = Node("r")
        root.new_child("a")
        root.new_child("a")
        tree = PhyloTree(root)
        with pytest.raises(TreeStructureError):
            tree.find("a")

    def test_invalidate_caches_after_surgery(self, fig1):
        fig1.find("Lla")  # build cache
        fig1.find("x").new_child("NewLeaf", 1.0)
        fig1.invalidate_caches()
        assert fig1.find("NewLeaf").name == "NewLeaf"


class TestStatistics:
    def test_size(self, fig1):
        assert fig1.size() == 8

    def test_n_leaves(self, fig1):
        assert fig1.n_leaves() == 5

    def test_max_depth(self, fig1):
        assert fig1.max_depth() == 3

    def test_avg_leaf_depth(self, fig1):
        # Leaves: Syn(1), Lla(3), Spy(3), Bha(2), Bsu(1).
        assert fig1.avg_leaf_depth() == pytest.approx(2.0)

    def test_total_edge_length(self, fig1):
        assert fig1.total_edge_length() == pytest.approx(
            2.5 + 0.75 + 0.5 + 1.0 + 1.0 + 1.5 + 1.25
        )

    def test_depths_table(self, fig1):
        depths = fig1.depths()
        assert depths[id(fig1.root)] == 0
        assert depths[id(fig1.find("Lla"))] == 3

    def test_distances_table(self, fig1):
        distances = fig1.distances_from_root()
        assert distances[id(fig1.find("Lla"))] == pytest.approx(2.25)

    def test_single_node_tree(self):
        tree = PhyloTree(Node("only"))
        assert tree.size() == 1
        assert tree.n_leaves() == 1
        assert tree.max_depth() == 0
        assert tree.avg_leaf_depth() == 0.0


class TestPreorderRank:
    def test_root_is_zero(self, fig1):
        assert fig1.preorder_rank(fig1.root) == 0

    def test_order_matches_traversal(self, fig1):
        for rank, node in enumerate(fig1.preorder()):
            assert fig1.preorder_rank(node) == rank

    def test_foreign_node_raises(self, fig1):
        with pytest.raises(QueryError):
            fig1.preorder_rank(Node("alien"))


class TestEquality:
    def test_equal_trees(self, fig1):
        assert fig1.equals(fig1.copy())

    def test_length_difference_detected(self, fig1):
        clone = fig1.copy()
        clone.find("Lla").length += 0.5
        assert not fig1.equals(clone)
        assert fig1.equals(clone, compare_lengths=False)

    def test_order_sensitivity(self):
        a = PhyloTree.from_newick("(x:1,y:1);")
        b = PhyloTree.from_newick("(y:1,x:1);")
        assert not a.equals(b)
        assert a.topology_key() == b.topology_key()

    def test_topology_key_distinguishes_shapes(self):
        a = PhyloTree.from_newick("((x,y),z);")
        b = PhyloTree.from_newick("((x,z),y);")
        assert a.topology_key() != b.topology_key()


class TestValidation:
    def test_valid_tree_passes(self, fig1):
        validate_tree(fig1)

    def test_negative_length_rejected(self, fig1):
        fig1.find("Lla").length = -1.0
        with pytest.raises(TreeStructureError):
            validate_tree(fig1)

    def test_unnamed_leaf_rejected(self):
        root = Node("r")
        root.new_child(None, 1.0)
        root.new_child("b", 1.0)
        with pytest.raises(TreeStructureError):
            validate_tree(PhyloTree(root))

    def test_unnamed_leaf_allowed_when_not_required(self):
        root = Node("r")
        root.new_child(None, 1.0)
        root.new_child("b", 1.0)
        validate_tree(PhyloTree(root), require_leaf_names=False)

    def test_duplicate_leaf_names_rejected(self):
        root = Node("r")
        root.new_child("a", 1.0)
        root.new_child("a", 1.0)
        with pytest.raises(TreeStructureError):
            validate_tree(PhyloTree(root))

    def test_corrupted_parent_pointer_rejected(self, fig1):
        fig1.find("Lla").parent = fig1.root
        with pytest.raises(TreeStructureError):
            validate_tree(fig1)

    def test_cycle_through_the_root_rejected(self, fig1):
        # Every back-pointer agrees, so only the root's own parent
        # pointer shows the cycle; the walk must stop, not loop.
        leaf = fig1.find("Lla")
        leaf.children.append(fig1.root)
        fig1.root.parent = leaf
        with pytest.raises(TreeStructureError):
            validate_tree(fig1)
