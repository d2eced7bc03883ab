"""Unit tests for majority-rule consensus."""

from __future__ import annotations

import random

import pytest

from repro.benchmark.consensus import (
    build_tree_from_clusters,
    majority_consensus_tree,
    majority_rule_consensus,
)
from repro.benchmark.metrics import clusters, same_topology
from repro.errors import QueryError
from repro.trees.newick import parse_newick, write_newick


class TestMajorityRule:
    def test_unanimous_profile(self):
        tree = parse_newick("(((a,b),c),(d,e));")
        consensus = majority_consensus_tree([tree, tree.copy(), tree.copy()])
        assert same_topology(consensus, tree)

    def test_majority_wins(self):
        majority = parse_newick("(((a,b),c),d);")
        minority = parse_newick("(((a,c),b),d);")
        consensus = majority_consensus_tree(
            [majority, majority.copy(), minority]
        )
        assert frozenset({"a", "b"}) in clusters(consensus)
        assert frozenset({"a", "c"}) not in clusters(consensus)

    def test_tied_cluster_dropped(self):
        first = parse_newick("((a,b),(c,d));")
        second = parse_newick("((a,c),(b,d));")
        consensus = majority_consensus_tree([first, second])
        # Neither grouping has >50% support: the consensus is a star.
        assert clusters(consensus) == set()

    def test_support_values(self):
        majority = parse_newick("(((a,b),c),d);")
        minority = parse_newick("(((a,c),b),d);")
        _tree, support = majority_rule_consensus(
            [majority, majority.copy(), minority]
        )
        assert support[frozenset({"a", "b"})] == pytest.approx(2 / 3)

    def test_higher_threshold_is_stricter(self):
        trees = [
            parse_newick("(((a,b),c),d);"),
            parse_newick("(((a,b),c),d);"),
            parse_newick("(((a,b),d),c);"),
        ]
        half = majority_consensus_tree(trees, threshold=0.5)
        strict = majority_consensus_tree(trees, threshold=0.9)
        assert len(clusters(half)) >= len(clusters(strict))

    def test_consensus_majority_property(self):
        """Every cluster in the consensus appears in > half the inputs,
        and every cluster in > half the inputs appears in the consensus."""
        profile = [
            parse_newick("(((a,b),c),(d,e));"),
            parse_newick("(((a,b),d),(c,e));"),
            parse_newick("(((a,b),c),(d,e));"),
        ]
        consensus = majority_consensus_tree(profile)
        consensus_clusters = clusters(consensus)
        from collections import Counter

        counts: Counter = Counter()
        for tree in profile:
            counts.update(clusters(tree))
        majority_clusters = {
            cluster
            for cluster, count in counts.items()
            if count > len(profile) / 2
        }
        assert consensus_clusters == majority_clusters

    def test_empty_profile_raises(self):
        with pytest.raises(QueryError):
            majority_consensus_tree([])

    def test_mismatched_leafsets_raise(self):
        with pytest.raises(QueryError):
            majority_consensus_tree(
                [parse_newick("(a,b);"), parse_newick("(a,c);")]
            )

    def test_low_threshold_rejected(self):
        tree = parse_newick("((a,b),c);")
        with pytest.raises(QueryError):
            majority_consensus_tree([tree], threshold=0.3)

    def test_leafset_preserved(self):
        profile = [
            parse_newick("((a,b),(c,d));"),
            parse_newick("((a,c),(b,d));"),
            parse_newick("((a,d),(b,c));"),
        ]
        consensus = majority_consensus_tree(profile)
        assert set(consensus.leaf_names()) == {"a", "b", "c", "d"}


class TestBuildFromClusters:
    def test_nested_clusters(self):
        tree = build_tree_from_clusters(
            ["a", "b", "c", "d"],
            [frozenset({"a", "b"}), frozenset({"a", "b", "c"})],
        )
        assert same_topology(tree, parse_newick("(((a,b),c),d);"))

    def test_child_order_does_not_depend_on_input_order(self):
        # Equal-size sibling clusters used to keep the set's (hash-seed
        # dependent) order, so stored and in-memory consensus could
        # disagree on child order.
        leaves = [f"s{i:02d}" for i in range(12)]
        clusters = [
            frozenset(leaves[i : i + 2]) for i in range(0, 12, 2)
        ] + [frozenset(leaves[0:6]), frozenset(leaves[6:12])]
        expected = (
            "(((s00:1.0,s01:1.0):1.0,(s02:1.0,s03:1.0):1.0,"
            "(s04:1.0,s05:1.0):1.0):1.0,((s06:1.0,s07:1.0):1.0,"
            "(s08:1.0,s09:1.0):1.0,(s10:1.0,s11:1.0):1.0):1.0);"
        )
        for seed in range(20):
            shuffled = list(clusters)
            random.Random(seed).shuffle(shuffled)
            tree = build_tree_from_clusters(leaves, shuffled)
            assert write_newick(tree) == expected

    def test_no_clusters_gives_star(self):
        tree = build_tree_from_clusters(["a", "b", "c"], [])
        assert len(tree.root.children) == 3

    def test_incompatible_clusters_raise(self):
        with pytest.raises(QueryError):
            build_tree_from_clusters(
                ["a", "b", "c"],
                [frozenset({"a", "b"}), frozenset({"b", "c"})],
            )
