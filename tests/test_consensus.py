"""Unit tests for majority-rule consensus."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

    def test_nan_threshold_rejected(self):
        tree = parse_newick("((a,b),c);")
        with pytest.raises(QueryError, match="threshold"):
            majority_consensus_tree([tree], threshold=float("nan"))

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

    def test_unknown_name_escapes_the_root(self):
        with pytest.raises(QueryError, match="escapes the root leaf set"):
            build_tree_from_clusters(
                ["a", "b", "c"], [frozenset({"a", "z"})]
            )


PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_leaf_tree(rng: random.Random, names: list[str]) -> str:
    """A random binary Newick over ``names`` by random joining."""
    parts = list(names)
    rng.shuffle(parts)
    while len(parts) > 1:
        first, second = sorted(rng.sample(range(len(parts)), 2))
        joined = f"({parts[second]},{parts[first]})"
        parts.pop(second)
        parts.pop(first)
        parts.append(joined)
    return parts[0] + ";"


class TestBuilderProperties:
    @PROPERTY_SETTINGS
    @given(
        n_leaves=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_laminar_family_round_trips_in_any_order(self, n_leaves, seed):
        rng = random.Random(seed)
        names = [f"t{i}" for i in range(n_leaves)]
        tree = parse_newick(_random_leaf_tree(rng, names))
        family = [
            cluster for cluster in clusters(tree) if rng.random() < 0.6
        ]
        rng.shuffle(family)
        built = build_tree_from_clusters(sorted(names), family)
        assert clusters(built) == set(family)
        assert sorted(built.leaf_names()) == sorted(names)
        reordered = list(family)
        rng.shuffle(reordered)
        assert write_newick(
            build_tree_from_clusters(sorted(names), reordered)
        ) == write_newick(built)

    @PROPERTY_SETTINGS
    @given(
        n_leaves=st.integers(min_value=3, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_overlapping_pair_raises(self, n_leaves, seed):
        rng = random.Random(seed)
        names = [f"t{i}" for i in range(n_leaves)]
        shared, only_a, only_b = rng.sample(names, 3)
        rest = [name for name in names if name not in (shared, only_a, only_b)]
        first = {shared, only_a, *rng.sample(rest, rng.randint(0, len(rest)))}
        second = {shared, only_b} | {
            name for name in rest if name not in first and rng.random() < 0.5
        }
        family = [frozenset(first), frozenset(second)]
        rng.shuffle(family)
        with pytest.raises(QueryError, match="incompatible clusters"):
            build_tree_from_clusters(names, family)
