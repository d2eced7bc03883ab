"""Unit tests for traversal utilities."""

from __future__ import annotations

import pytest

from repro.trees.build import caterpillar, star
from repro.trees.traversal import (
    iter_edges,
    naive_lca,
    path_to_root,
    preorder_columns,
)


def rank_of(walk, node):
    return next(r for r, candidate in enumerate(walk.nodes) if candidate is node)


class TestPreorderTables:
    def test_ranks_are_dense(self, fig1):
        walk = preorder_columns(fig1)
        assert [id(n) for n in walk.nodes] == [id(n) for n in fig1.preorder()]
        assert all(
            len(column) == fig1.size() for column in walk
        )

    def test_intervals_nest(self, fig1):
        walk = preorder_columns(fig1)
        for node in fig1.preorder():
            low = rank_of(walk, node)
            high = walk.ends[low]
            for descendant in node.preorder():
                d_low = rank_of(walk, descendant)
                d_high = walk.ends[d_low]
                assert low <= d_low <= d_high <= high

    def test_leaf_interval_is_point(self, fig1):
        walk = preorder_columns(fig1)
        low = rank_of(walk, fig1.find("Lla"))
        assert walk.ends[low] == low
        assert walk.leaves[low]

    def test_root_interval_spans_tree(self, fig1):
        walk = preorder_columns(fig1)
        assert walk.nodes[0] is fig1.root
        assert (0, walk.ends[0]) == (0, fig1.size() - 1)

    def test_interval_contains_exactly_subtree(self, fig1):
        walk = preorder_columns(fig1)
        low = rank_of(walk, fig1.find("x"))
        inside = {
            node.name
            for rank, node in enumerate(walk.nodes)
            if low <= rank <= walk.ends[low]
        }
        assert inside == {"x", "Lla", "Spy"}

    def test_parents_and_positions_match_the_pointers(self, fig1):
        walk = preorder_columns(fig1)
        assert walk.parents[0] is None and walk.positions[0] == 0
        for rank, node in enumerate(walk.nodes[1:], start=1):
            assert walk.nodes[walk.parents[rank]] is node.parent
            assert walk.positions[rank] == node.child_order

    def test_star_positions_count_the_fan_out(self):
        walk = preorder_columns(star([f"s{i}" for i in range(1000)]))
        assert walk.positions == list(range(1001))
        assert walk.parents[1:] == [0] * 1000


class TestDepthAndDistance:
    def test_depth_table(self, fig1):
        walk = preorder_columns(fig1)
        assert walk.depths[rank_of(walk, fig1.find("Spy"))] == 3

    def test_distance_table(self, fig1):
        walk = preorder_columns(fig1)
        distance = walk.distances[rank_of(walk, fig1.find("Bha"))]
        assert distance == pytest.approx(2.25)

    def test_deep_tree_single_pass(self):
        tree = caterpillar(5000)
        walk = preorder_columns(tree)
        assert max(walk.depths) == tree.max_depth()


class TestEdgesAndPaths:
    def test_iter_edges_count(self, fig1):
        assert sum(1 for _ in iter_edges(fig1)) == fig1.size() - 1

    def test_edges_are_parent_child(self, fig1):
        for parent, child in iter_edges(fig1):
            assert child.parent is parent

    def test_path_to_root(self, fig1):
        path = [node.name for node in path_to_root(fig1.find("Lla"))]
        assert path == ["Lla", "x", "A", "R"]


class TestNaiveLca:
    def test_basic(self, fig1):
        assert naive_lca(fig1.find("Lla"), fig1.find("Spy")) is fig1.find("x")

    def test_self_lca(self, fig1):
        node = fig1.find("Syn")
        assert naive_lca(node, node) is node

    def test_ancestor_descendant(self, fig1):
        assert naive_lca(fig1.find("A"), fig1.find("Lla")) is fig1.find("A")

    def test_disjoint_trees_raise(self, fig1):
        from repro.trees.build import sample_tree

        other = sample_tree()
        with pytest.raises(ValueError):
            naive_lca(fig1.find("Lla"), other.find("Spy"))
