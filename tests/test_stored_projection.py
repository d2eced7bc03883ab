"""Unit tests for SQL-backed projection."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.projection import project_tree
from repro.errors import QueryError
from repro.simulation.birth_death import yule_tree
from repro.storage.projection import project_stored


@pytest.fixture
def stored(store, fig1):
    return store.trees.store_tree(fig1, f=2)


class TestPaperExample:
    def test_figure2_via_sql(self, stored):
        projection = project_stored(stored, ["Bha", "Lla", "Syn"])
        lengths = sorted(
            node.length
            for node in projection.preorder()
            if node.parent is not None
        )
        assert lengths == pytest.approx([0.75, 1.5, 1.5, 2.5])
        assert projection.find("Lla").length == pytest.approx(1.5)

    def test_single_leaf(self, stored):
        projection = project_stored(stored, ["Bha"])
        assert projection.size() == 1
        assert projection.root.length == 0.0

    def test_keep_root_edge(self, stored):
        projection = project_stored(stored, ["Lla", "Spy"], keep_root_edge=True)
        assert projection.root.name == "x"
        assert projection.root.length == pytest.approx(1.25)

    def test_duplicates_collapsed(self, stored):
        projection = project_stored(stored, ["Lla", "Lla", "Spy"])
        assert sorted(projection.leaf_names()) == ["Lla", "Spy"]


class TestErrors:
    def test_empty(self, stored):
        with pytest.raises(QueryError):
            project_stored(stored, [])

    def test_unknown(self, stored):
        with pytest.raises(QueryError):
            project_stored(stored, ["ghost"])

    def test_interior(self, stored):
        with pytest.raises(QueryError):
            project_stored(stored, ["x", "Lla"])


class TestEdgeCasesAgainstInMemory:
    """Boundary leaf sets, checked row-for-row against the in-memory
    algorithm (`repro.core.projection.project_tree`)."""

    def _assert_matches_in_memory(self, stored, tree, sample):
        via_sql = project_stored(stored, sample)
        in_memory = project_tree(tree, sample)
        assert via_sql.equals(in_memory, tolerance=1e-9)

    def test_single_leaf_equals_in_memory(self, stored, fig1):
        for name in fig1.leaf_names():
            self._assert_matches_in_memory(stored, fig1, [name])

    def test_duplicate_leaf_names_equal_in_memory(self, stored, fig1):
        self._assert_matches_in_memory(
            stored, fig1, ["Syn", "Lla", "Syn", "Lla", "Syn"]
        )

    def test_all_duplicates_of_one_leaf(self, stored, fig1):
        projection = project_stored(stored, ["Bsu", "Bsu", "Bsu"])
        assert projection.size() == 1
        assert projection.root.name == "Bsu"
        assert projection.equals(
            project_tree(fig1, ["Bsu", "Bsu", "Bsu"]), tolerance=1e-9
        )

    def test_leaves_spanning_roots_first_and_last_children(self, store):
        """The projection root must be the tree root when the sample
        straddles the root's first and last subtrees."""
        rng = np.random.default_rng(99)
        tree = yule_tree(80, rng=rng)
        handle = store.trees.store_tree(tree, name="span", f=4)
        first_child = tree.root.children[0]
        last_child = tree.root.children[-1]
        first_leaf = next(
            node.name for node in first_child.preorder() if not node.children
        )
        last_leaf = next(
            node.name
            for node in last_child.preorder()
            if not node.children
        )
        sample = [first_leaf, last_leaf]
        via_sql = project_stored(handle, sample)
        assert via_sql.equals(project_tree(tree, sample), tolerance=1e-9)
        # Spanning the outermost subtrees anchors the projection at the
        # root: its two leaves hang directly off the cloned root.
        assert sorted(via_sql.leaf_names()) == sorted(sample)
        extra_first = [
            node.name for node in first_child.preorder() if not node.children
        ][-1]
        full_span = list(dict.fromkeys([first_leaf, extra_first, last_leaf]))
        via_sql_full = project_stored(handle, full_span)
        assert via_sql_full.equals(
            project_tree(tree, full_span), tolerance=1e-9
        )

    def test_every_leaf_projects_to_whole_frontier(self, stored, fig1):
        names = fig1.leaf_names()
        via_sql = project_stored(stored, names)
        assert via_sql.equals(project_tree(fig1, names), tolerance=1e-9)
        assert sorted(via_sql.leaf_names()) == sorted(names)


class TestAgainstInMemory:
    def test_random_samples_agree(self, store):
        rng = np.random.default_rng(31)
        tree = yule_tree(120, rng=rng)
        handle = store.trees.store_tree(tree, name="gold", f=4)
        names = tree.leaf_names()
        draw = random.Random(8)
        for _ in range(15):
            sample = draw.sample(names, draw.randint(1, 25))
            via_sql = project_stored(handle, sample)
            in_memory = project_tree(tree, sample)
            assert via_sql.equals(in_memory, tolerance=1e-9)

    def test_interior_names_preserved(self, stored, fig1):
        via_sql = project_stored(stored, ["Lla", "Bha"])
        assert via_sql.root.name == "A"
