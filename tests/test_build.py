"""Unit tests for tree construction helpers."""

from __future__ import annotations

import time

import pytest

from repro.errors import TreeStructureError
from repro.trees.build import (
    balanced,
    caterpillar,
    from_parent_table,
    rename_leaves,
    sample_tree,
    star,
)
from repro.trees.newick import write_newick
from repro.trees.tree import validate_tree


class TestSampleTree:
    def test_shape(self):
        tree = sample_tree()
        assert tree.size() == 8
        assert tree.n_leaves() == 5
        assert set(tree.leaf_names()) == {"Syn", "Lla", "Spy", "Bha", "Bsu"}

    def test_edge_lengths_match_paper(self):
        tree = sample_tree()
        assert tree.find("Syn").length == 2.5
        assert tree.find("A").length == 0.75
        assert tree.find("x").length == 0.5
        assert tree.find("Lla").length == 1.0
        assert tree.find("Bha").length == 1.5
        assert tree.find("Bsu").length == 1.25


class TestCaterpillar:
    def test_depth_is_linear(self):
        tree = caterpillar(10)
        assert tree.n_leaves() == 10
        assert tree.max_depth() == 9

    def test_leaf_names(self):
        tree = caterpillar(4)
        assert set(tree.leaf_names()) == {"t1", "t2", "t3", "t4"}

    def test_minimum_size(self):
        tree = caterpillar(2)
        assert tree.n_leaves() == 2

    def test_too_small_raises(self):
        with pytest.raises(TreeStructureError):
            caterpillar(1)

    def test_custom_edge_length(self):
        tree = caterpillar(5, edge_length=2.0)
        assert tree.find("t1").length == 2.0

    def test_deep_build_and_copy_are_linear(self):
        # Node.add_child's cycle check walks to the root, which is
        # quadratic in the spine's length: both link nodes directly.
        start = time.perf_counter()
        tree = caterpillar(20_000)
        built = time.perf_counter() - start
        start = time.perf_counter()
        clone = tree.copy()
        copied = time.perf_counter() - start
        assert built < 1.0 and copied < 1.0
        assert tree.max_depth() == 19_999
        assert write_newick(clone) == write_newick(tree)
        originals = {id(node) for node in tree.preorder()}
        assert not originals & {id(node) for node in clone.preorder()}
        validate_tree(clone)


class TestBalanced:
    def test_binary_counts(self):
        tree = balanced(3)
        assert tree.n_leaves() == 8
        assert tree.size() == 15
        assert tree.max_depth() == 3

    def test_ternary(self):
        tree = balanced(2, arity=3)
        assert tree.n_leaves() == 9

    def test_depth_zero(self):
        tree = balanced(0)
        assert tree.size() == 1
        assert tree.root.name == "t1"

    def test_invalid_args(self):
        with pytest.raises(TreeStructureError):
            balanced(-1)
        with pytest.raises(TreeStructureError):
            balanced(2, arity=1)

    def test_leaf_names_unique(self):
        tree = balanced(4)
        names = tree.leaf_names()
        assert len(names) == len(set(names))


class TestFromParentTable:
    def test_basic(self):
        tree = from_parent_table(
            {"r": None, "a": "r", "b": "r", "c": "a"},
            lengths={"a": 1.0, "b": 2.0, "c": 0.5},
        )
        assert tree.root.name == "r"
        assert tree.find("c").dist_from_root == pytest.approx(1.5)

    def test_child_order_follows_mapping_order(self):
        tree = from_parent_table({"r": None, "b": "r", "a": "r"})
        assert [child.name for child in tree.root.children] == ["b", "a"]

    def test_no_root_raises(self):
        with pytest.raises(TreeStructureError):
            from_parent_table({"a": "b", "b": "a"})

    def test_two_roots_raise(self):
        with pytest.raises(TreeStructureError):
            from_parent_table({"a": None, "b": None})

    def test_unknown_parent_raises(self):
        with pytest.raises(TreeStructureError):
            from_parent_table({"a": None, "b": "ghost"})


class TestStarAndRename:
    def test_star(self):
        tree = star(["a", "b", "c"])
        assert tree.max_depth() == 1
        assert len(tree.root.children) == 3

    def test_star_too_small(self):
        with pytest.raises(TreeStructureError):
            star(["a"])

    def test_rename_leaves(self, fig1):
        renamed = rename_leaves(fig1, {"Lla": "Lactococcus"})
        assert "Lactococcus" in renamed
        assert "Lla" in fig1  # original untouched
        assert "Lla" not in renamed
