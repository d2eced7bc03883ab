"""Stored-tree analytics: differential identity with the in-memory path.

The subsystem's contract is exact: every number computed from stored
rows — clusters, bipartitions, Robinson–Foulds figures, distance
matrices, consensus topologies and supports — must equal what the
in-memory references (:mod:`repro.benchmark.metrics`,
:mod:`repro.benchmark.consensus`) produce on the same materialized
trees, including error behaviour on the edges (single-tree profiles,
disjoint leaf sets, unnamed/duplicate leaves, threshold boundaries).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.admission import estimate_analytics
from repro.analytics import (
    compare_stored,
    rf_matrix,
    stored_bipartitions,
    stored_clusters,
    stored_consensus,
    stored_leaf_names,
)
from repro.analytics.bipartitions import TreeScan, scan_tree
from repro.benchmark.consensus import (
    majority_rule_consensus,
    strict_consensus,
)
from repro.benchmark.metrics import (
    bipartitions,
    clusters,
    compare_splits,
    robinson_foulds,
)
from repro.errors import CrimsonError, QueryError, StorageError
from repro.reconstruction.random_tree import random_topology
from repro.reconstruction.rearrange import perturb
from repro.storage.api import (
    AnalyticsRequest,
    AnalyticsResult,
    CrimsonSession,
)
from repro.storage.store import CrimsonStore
from repro.trees.build import balanced, caterpillar, sample_tree
from repro.trees.newick import write_newick
from repro.trees.node import Node
from repro.trees.tree import PhyloTree

N_PROFILE = 8


@pytest.fixture(scope="module")
def profile():
    """A profile of same-leaf-set trees: a base topology plus SPR noise."""
    rng = np.random.default_rng(2006)
    names = [f"s{i:02d}" for i in range(18)]
    base = random_topology(names, rng)
    return [base] + [perturb(base, 2, rng) for _ in range(N_PROFILE - 1)]


@pytest.fixture(scope="module")
def store(profile):
    store = CrimsonStore.open()
    for index, tree in enumerate(profile):
        store.load_tree(tree, name=f"rep{index}", f=4)
    store.load_tree(sample_tree(), name="fig1", f=2)
    store.load_tree(caterpillar(40), name="deep", f=4)
    store.load_tree(balanced(4), name="wide", f=8)
    yield store
    store.close()


@pytest.fixture(scope="module")
def handles(store):
    return [store.open_tree(f"rep{index}") for index in range(N_PROFILE)]


class TestExtractionMatchesInMemory:
    SHAPES = ["fig1", "deep", "wide", "rep0", "rep3"]

    @pytest.mark.parametrize("name", SHAPES)
    def test_clusters_identical(self, store, name):
        handle = store.open_tree(name)
        tree = handle.fetch_tree()
        assert stored_clusters(handle) == clusters(tree)
        assert stored_clusters(handle, include_trivial=True) == clusters(
            tree, include_trivial=True
        )

    @pytest.mark.parametrize("name", SHAPES)
    def test_bipartitions_identical(self, store, name):
        handle = store.open_tree(name)
        assert stored_bipartitions(handle) == bipartitions(
            handle.fetch_tree()
        )

    @pytest.mark.parametrize("name", SHAPES)
    def test_leaf_names_identical(self, store, name):
        handle = store.open_tree(name)
        assert stored_leaf_names(handle) == handle.fetch_tree().leaf_names()

    @staticmethod
    def rename_leaf(store, handle, old, new):
        """Rewrite one stored leaf name in place.  Loads validate leaf
        names, so rows like these come only from files written before
        they did; the extraction must still mirror the in-memory error."""
        store.db.execute(
            "UPDATE nodes SET name = ? WHERE tree_id = ? AND name = ?",
            (new, handle.info.tree_id, old),
        )

    def test_unnamed_leaf_raises_like_in_memory(self, store):
        root = Node("r")
        root.new_child("a", 1.0)
        root.new_child("b", 1.0)
        handle = store.trees.store_tree(PhyloTree(root), name="unnamed")
        self.rename_leaf(store, handle, "b", None)  # an unnamed leaf
        with pytest.raises(QueryError, match="unnamed leaves"):
            stored_clusters(handle)
        # The in-memory path refuses too (via leaf_names' structural
        # check); both surface as typed CrimsonErrors.
        with pytest.raises(CrimsonError, match="unnamed leaf"):
            clusters(handle.fetch_tree())

    def test_duplicate_leaves_raise_for_splits_only(self, store):
        root = Node("r")
        inner = root.new_child(None, 1.0)
        inner.new_child("dup", 1.0)
        inner.new_child("other", 1.0)
        root.new_child("twin", 1.0)
        handle = store.trees.store_tree(PhyloTree(root), name="dupes")
        self.rename_leaf(store, handle, "twin", "dup")
        with pytest.raises(QueryError, match="duplicate leaf names"):
            stored_bipartitions(handle)
        # Rooted clusters tolerate duplicates, exactly like in-memory.
        assert stored_clusters(handle) == clusters(handle.fetch_tree())

    def test_warm_repeat_extraction_is_sql_free(self, store):
        handle = store.open_tree("rep0")
        stored_clusters(handle)
        with store.db.count_statements() as counter:
            stored_clusters(handle)
            stored_bipartitions(handle)
        assert counter.count == 0


class TestCompareMatchesInMemory:
    def test_pairwise_figures_identical(self, store, profile):
        for other in range(1, N_PROFILE):
            outcome = compare_stored(
                store.open_tree("rep0"), store.open_tree(f"rep{other}")
            )
            assert outcome.splits == compare_splits(
                profile[0], profile[other]
            )
            assert outcome.shared_clusters == len(
                clusters(profile[0]) & clusters(profile[other])
            )
            assert outcome.rf_distance == robinson_foulds(
                profile[0], profile[other]
            )

    def test_cluster_counts_reported(self, store, profile):
        outcome = compare_stored(
            store.open_tree("rep0"), store.open_tree("rep1")
        )
        assert outcome.n_clusters_a == len(clusters(profile[0]))
        assert outcome.n_clusters_b == len(clusters(profile[1]))

    def test_matrix_matches_pairwise_rf(self, handles, profile):
        matrix = rf_matrix(handles)
        for i in range(N_PROFILE):
            assert matrix[i][i] == 0
            for j in range(N_PROFILE):
                assert matrix[i][j] == matrix[j][i]
                assert matrix[i][j] == robinson_foulds(
                    profile[i], profile[j]
                )

    def test_disjoint_leaf_sets_raise_typed_error(self, store):
        message = "different leaf sets"
        with pytest.raises(QueryError, match=message):
            compare_stored(store.open_tree("rep0"), store.open_tree("fig1"))
        with pytest.raises(QueryError, match=message):
            rf_matrix([store.open_tree("rep0"), store.open_tree("fig1")])
        # In-memory raises the same way on the same trees.
        with pytest.raises(QueryError, match=message):
            compare_splits(
                store.open_tree("rep0").fetch_tree(),
                store.open_tree("fig1").fetch_tree(),
            )


class TestConsensusMatchesInMemory:
    def test_majority_topology_and_support_identical(self, handles, profile):
        tree_stored, support_stored = stored_consensus(handles)
        tree_memory, support_memory = majority_rule_consensus(profile)
        assert write_newick(tree_stored) == write_newick(tree_memory)
        assert support_stored == support_memory

    @pytest.mark.parametrize("threshold", [0.5, 0.75, 1.0])
    def test_thresholds_identical(self, handles, profile, threshold):
        tree_stored, support_stored = stored_consensus(
            handles, threshold=threshold
        )
        tree_memory, support_memory = majority_rule_consensus(
            profile, threshold=threshold
        )
        assert write_newick(tree_stored) == write_newick(tree_memory)
        assert support_stored == support_memory

    def test_strict_identical_and_differs_from_threshold_one(
        self, handles, profile
    ):
        tree_stored, support = stored_consensus(handles, strict=True)
        assert write_newick(tree_stored) == write_newick(
            strict_consensus(profile)
        )
        assert set(support.values()) <= {1.0}
        # Strict keeps unanimous clusters that a 1.0 threshold drops
        # (count > N is never true), so the two are different requests.
        threshold_tree, _ = stored_consensus(handles, threshold=1.0)
        assert len(clusters(tree_stored)) >= len(clusters(threshold_tree))

    def test_single_tree_profile(self, store, profile):
        tree_stored, support = stored_consensus([store.open_tree("rep0")])
        tree_memory, support_memory = majority_rule_consensus(profile[:1])
        assert write_newick(tree_stored) == write_newick(tree_memory)
        assert support == support_memory
        assert set(support.values()) <= {1.0}

    def test_empty_profile_raises(self):
        with pytest.raises(QueryError, match="empty tree profile"):
            stored_consensus([])

    def test_mismatched_leaf_sets_raise(self, store):
        with pytest.raises(QueryError, match="different leaf sets"):
            stored_consensus(
                [store.open_tree("rep0"), store.open_tree("deep")]
            )

    def test_bad_threshold_raises(self, handles):
        for threshold in (0.4, 1.5, -1.0):
            with pytest.raises(QueryError, match="threshold"):
                stored_consensus(handles, threshold=threshold)

    def test_nan_threshold_raises(self, handles, profile):
        # A NaN fails every comparison, so a negative-form range check
        # let it through and returned a star tree with empty support.
        with pytest.raises(QueryError, match="threshold"):
            stored_consensus(handles, threshold=float("nan"))
        with pytest.raises(QueryError, match="threshold"):
            majority_rule_consensus(profile, threshold=float("nan"))


class TestAnalyticsRequestValidation:
    def test_unknown_operation(self):
        with pytest.raises(QueryError, match="unknown analytics operation"):
            AnalyticsRequest(operation="blend", trees=("a", "b"))

    def test_compare_needs_exactly_two(self):
        with pytest.raises(QueryError, match="exactly two"):
            AnalyticsRequest.compare("a", "b").__class__(
                operation="compare", trees=("a",)
            )
        with pytest.raises(QueryError, match="exactly two"):
            AnalyticsRequest(operation="compare", trees=("a", "b", "c"))

    def test_matrix_needs_two(self):
        with pytest.raises(QueryError, match="at least two"):
            AnalyticsRequest.distance_matrix("only")

    def test_consensus_needs_one(self):
        with pytest.raises(QueryError, match="at least one"):
            AnalyticsRequest.consensus()

    def test_tree_names_must_be_strings(self):
        for bad in (("a", 3), (None, "b"), ("", "b"), "ab", 7):
            with pytest.raises(QueryError):
                AnalyticsRequest(operation="compare", trees=bad)

    def test_threshold_validated_at_construction(self):
        for bad in (0.4, 1.2, True, "half"):
            with pytest.raises(QueryError):
                AnalyticsRequest.consensus("a", threshold=bad)

    def test_strict_bypasses_threshold_range(self):
        request = AnalyticsRequest.consensus("a", threshold=0.0, strict=True)
        assert request.strict is True

    def test_params_shape(self):
        assert AnalyticsRequest.compare("a", "b").params() == {
            "trees": ["a", "b"]
        }
        assert AnalyticsRequest.consensus("a", threshold=0.75).params() == {
            "trees": ["a"],
            "threshold": 0.75,
            "strict": False,
        }


class TestAnalyticsResultSurface:
    def test_summary_covers_every_kind(self, store):
        trees = ["rep0", "rep1", "rep2"]
        compare = store.analyze(AnalyticsRequest.compare("rep0", "rep1"))
        assert compare.summary().startswith("RF=")
        matrix = store.analyze(AnalyticsRequest.distance_matrix(*trees))
        assert matrix.summary() == "3x3 RF matrix"
        consensus = store.analyze(AnalyticsRequest.consensus(*trees))
        assert consensus.summary().endswith("clusters")

    def test_summary_refuses_hollow_results(self):
        request = AnalyticsRequest.compare("a", "b")
        with pytest.raises(QueryError, match="carries no comparison"):
            AnalyticsResult(request=request, duration_ms=0.0).summary()
        matrix_request = AnalyticsRequest.distance_matrix("a", "b")
        with pytest.raises(QueryError, match="carries no matrix"):
            AnalyticsResult(request=matrix_request, duration_ms=0.0).summary()
        consensus_request = AnalyticsRequest.consensus("a")
        with pytest.raises(QueryError, match="carries no tree"):
            AnalyticsResult(
                request=consensus_request, duration_ms=0.0
            ).summary()

    def test_support_table_is_deterministic(self, store):
        trees = [f"rep{i}" for i in range(N_PROFILE)]
        result = store.analyze(AnalyticsRequest.consensus(*trees))
        table = result.support_table()
        assert table == sorted(table, key=lambda row: (-row[1], row[0]))
        assert all(
            isinstance(name, str) for cluster, _ in table for name in cluster
        )

    def test_empty_support_table(self):
        request = AnalyticsRequest.consensus("a")
        assert (
            AnalyticsResult(request=request, duration_ms=0.0).support_table()
            == []
        )


class TestSessionSurface:
    def test_local_session_still_satisfies_protocol(self, store):
        assert isinstance(store.session(), CrimsonSession)

    def test_named_verbs_build_the_right_requests(self, store):
        session = store.session()
        compare = session.compare("rep0", "rep1")
        assert compare.request.operation == "compare"
        matrix = session.distance_matrix(["rep0", "rep1", "rep2"])
        assert matrix.request.trees == ("rep0", "rep1", "rep2")
        consensus = session.consensus(
            ["rep0", "rep1"], threshold=0.75, strict=False
        )
        assert consensus.request.threshold == 0.75

    def test_unknown_tree_is_storage_error(self, store):
        with pytest.raises(StorageError, match="no tree named"):
            store.analyze(AnalyticsRequest.compare("rep0", "missing"))

    def test_bare_string_is_not_splatted_into_characters(self, store):
        session = store.session()
        with pytest.raises(QueryError, match="not a single string"):
            session.consensus("rep0")
        with pytest.raises(QueryError, match="not a single string"):
            session.distance_matrix("rep0")

    def test_single_scan_per_tree(self, profile):
        """compare/matrix/consensus each read every input tree once."""
        with CrimsonStore.open() as store:
            for index, tree in enumerate(profile[:4]):
                store.load_tree(tree, name=f"rep{index}", f=4)
            names = [f"rep{i}" for i in range(4)]
            # Each tree is small enough for one IN (...) chunk, and a
            # catalogue lookup accompanies each cold open_tree — so a
            # cold N-tree request costs exactly 2·N statements.
            for request, n_trees in (
                (AnalyticsRequest.consensus(*names), 4),
                (AnalyticsRequest.distance_matrix(*names), 4),
                (AnalyticsRequest.compare("rep0", "rep1"), 2),
            ):
                with CrimsonStore.open() as fresh:
                    for index, tree in enumerate(profile[:4]):
                        fresh.load_tree(tree, name=f"rep{index}", f=4)
                    with fresh.db.count_statements() as counter:
                        fresh.analyze(request)
                    assert counter.count == 2 * n_trees

    def test_recorded_analytics_land_in_history(self, profile):
        with CrimsonStore.open() as store:
            for index, tree in enumerate(profile[:3]):
                store.load_tree(tree, name=f"rep{index}")
            store.analyze(
                AnalyticsRequest.consensus("rep0", "rep1", "rep2"),
                record=True,
            )
            store.session().compare("rep0", "rep1", record=True)
            operations = [
                entry.operation for entry in store.history.recent(limit=5)
            ]
            assert operations[:2] == ["compare", "consensus"]
            entry = store.history.recent(limit=1)[0]
            assert entry.result_summary.startswith("RF=")

    def test_duration_is_measured(self, store):
        result = store.analyze(AnalyticsRequest.compare("rep0", "rep1"))
        assert result.duration_ms >= 0.0

    def test_warm_analyze_is_sql_free(self, profile):
        with CrimsonStore.open() as store:
            for index, tree in enumerate(profile):
                store.load_tree(tree, name=f"rep{index}")
            request = AnalyticsRequest.consensus(
                *[f"rep{i}" for i in range(N_PROFILE)]
            )
            store.analyze(request)
            with store.db.count_statements() as counter:
                store.analyze(request)
            assert counter.count == 0


def _row_scan(handle) -> TreeScan:
    """The NodeRow-based extraction the narrow kernel replaced."""
    return TreeScan.from_rows(
        [
            (row.node_id, row.pre_order_end, row.is_leaf, row.name)
            for row in handle.preorder_rows()
        ]
    )


def _named_random_tree(seed: int, leaves: int = 260) -> PhyloTree:
    """A random binary tree (> 400 nodes) whose interior nodes are named."""
    rng = np.random.default_rng(seed)
    tree = random_topology([f"t{i}" for i in range(leaves)], rng)
    for index, node in enumerate(tree.preorder()):
        if not node.is_leaf:
            node.name = f"n{index}"
    tree.invalidate_caches()
    return tree


class TestNarrowScanKernel:
    """``scan_tree``'s one-statement range scan and its engine memo."""

    @pytest.fixture()
    def kernel_store(self):
        with CrimsonStore.open() as store:
            for seed in range(3):
                store.load_tree(_named_random_tree(seed), name=f"r{seed}", f=4)
            yield store

    def _fresh(self, store, name, cache_size=4096):
        return store.open_tree(name, cache_size=cache_size)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_node_row_extraction(self, kernel_store, seed):
        handle = self._fresh(kernel_store, f"r{seed}")
        assert handle.info.n_nodes > 400
        reference = _row_scan(self._fresh(kernel_store, f"r{seed}"))
        assert scan_tree(handle) == reference
        # Repeats (memoised) and uncacheable trees give the same slots.
        assert scan_tree(handle) == reference
        assert scan_tree(self._fresh(kernel_store, f"r{seed}", 64)) == reference

    def test_cold_is_one_statement_and_warm_is_none(self, kernel_store):
        handle = self._fresh(kernel_store, "r0")
        with handle.db.count_statements() as counter:
            scan_tree(handle)
        assert counter.count == 1
        assert handle.engine.scan_resident
        with handle.db.count_statements() as counter:
            scan_tree(handle)
            stored_bipartitions(handle)
        assert counter.count == 0

    def test_scan_leaves_the_row_caches_alone(self, kernel_store):
        handle = self._fresh(kernel_store, "r0")
        scan_tree(handle)
        assert handle.cache_stats()["total"].size == 0

    def test_tree_larger_than_cache_is_never_memoised(self, kernel_store):
        handle = self._fresh(kernel_store, "r1", cache_size=64)
        assert handle.info.n_nodes > 64
        for _ in range(3):
            with handle.db.count_statements() as counter:
                scan_tree(handle)
            assert counter.count == 1
        assert not handle.engine.scan_resident

    def test_clear_cache_makes_the_scan_cold_again(self, kernel_store):
        handle = self._fresh(kernel_store, "r2")
        scan_tree(handle)
        handle.clear_cache()
        assert not handle.engine.scan_resident
        with handle.db.count_statements() as counter:
            scan_tree(handle)
        assert counter.count == 1

    def test_stale_handle_raises_storage_error(self, kernel_store):
        handle = self._fresh(kernel_store, "r0")
        kernel_store.trees.delete_tree("r0")
        with pytest.raises(StorageError, match="no longer stored"):
            scan_tree(handle)
        assert not handle.engine.scan_resident

    def test_sharded_store_scans_the_shard_reader(self, tmp_path):
        with CrimsonStore.open(tmp_path / "s.db", shards=2) as store:
            for seed in range(2):
                store.load_tree(_named_random_tree(seed), name=f"r{seed}", f=4)
            handles = [self._fresh(store, f"r{seed}") for seed in range(2)]
            assert any(handle.db is not store.db for handle in handles)
            for handle in handles:
                reference = _row_scan(self._fresh(store, handle.info.name))
                with handle.db.count_statements() as counter:
                    assert scan_tree(handle) == reference
                assert counter.count == 1

    @pytest.mark.parametrize("warm", [False, True])
    def test_estimate_bounds_actual_statements_and_rows(
        self, kernel_store, monkeypatch, warm
    ):
        names = ["r0", "r1", "r2"]
        handles = [self._fresh(kernel_store, name) for name in names]
        if warm:
            for handle in handles:
                scan_tree(handle)
        db = handles[0].db
        fetched = []
        query_all = db.query_all

        def counting(*args, **kwargs):
            rows = query_all(*args, **kwargs)
            fetched.append(len(rows))
            return rows

        monkeypatch.setattr(db, "query_all", counting)
        request = AnalyticsRequest.consensus(*names)
        estimate = estimate_analytics(request, handles)
        with db.count_statements() as counter:
            stored_consensus(handles)
        assert estimate.statements >= counter.count
        assert estimate.rows >= sum(fetched)
        if warm:
            assert counter.count == estimate.statements == 0
            assert estimate.rows == 0 and estimate.warm_fraction == 1.0
        else:
            assert counter.count == estimate.statements == len(names)
            assert estimate.rows == sum(h.info.n_nodes for h in handles)


class TestScanTableLifecycle:
    """The per-handle cluster table across a delete and a re-load."""

    SCAN = "SELECT node_id, pre_order_end, is_leaf, name FROM nodes"

    def test_replaced_slot_rescans_only_the_new_tree(
        self, profile, monkeypatch
    ):
        names = [f"rep{i}" for i in range(4)]
        with CrimsonStore.open() as store:
            for name, tree in zip(names, profile):
                store.load_tree(tree, name=name, f=4)
            request = AnalyticsRequest.consensus(*names)
            store.analyze(request)
            store.trees.delete_tree("rep0")
            replacement = profile[N_PROFILE - 1]
            new = store.load_tree(replacement, name="rep0", f=4)
            scanned = []
            query_all = store.db.query_all

            def recording(sql, parameters=(), **kwargs):
                if sql.startswith(self.SCAN):
                    scanned.append(parameters[0])
                return query_all(sql, parameters, **kwargs)

            monkeypatch.setattr(store.db, "query_all", recording)
            result = store.analyze(request)
            assert scanned == [new.info.tree_id]
            expected, support = majority_rule_consensus(
                [replacement, *profile[1:4]]
            )
            assert write_newick(result.consensus) == write_newick(expected)
            assert result.support == support


@st.composite
def cluster_profiles(draw):
    """Same-leaf-set profiles of random rooted trees.

    Names ``t0..t<n-1>`` sort lexicographically (``t10`` before ``t2``)
    and are placed at random, so bit order differs from pre-order.
    Random edges are collapsed into multifurcations, and half the trees
    are collapsed copies of one base tree, so some clusters win a
    majority.
    """
    n_leaves = draw(st.integers(min_value=1, max_value=12))
    n_trees = draw(st.integers(min_value=1, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    names = [f"t{i}" for i in range(n_leaves)]

    def random_tree() -> PhyloTree:
        if n_leaves == 1:
            root = Node()
            root.new_child(names[0], 1.0)
            return PhyloTree(root)
        parts = [Node(name, 1.0) for name in rng.sample(names, n_leaves)]
        while len(parts) > 1:
            first, second = sorted(rng.sample(range(len(parts)), 2))
            node = Node(None, 1.0)
            node.add_child(parts.pop(second))
            node.add_child(parts.pop(first))
            parts.append(node)
        parts[0].length = 0.0
        return PhyloTree(parts[0])

    def collapsed(tree: PhyloTree) -> PhyloTree:
        tree = tree.copy()
        inner = [
            node
            for node in tree.preorder()
            if node.parent is not None and not node.is_leaf
        ]
        for node in inner:
            if rng.random() < 0.3:
                parent = node.parent
                for child in list(node.children):
                    node.remove_child(child)
                    parent.add_child(child)
                parent.remove_child(node)
        tree.invalidate_caches()
        return tree

    base = random_tree()
    return [
        collapsed(base if rng.random() < 0.5 else random_tree())
        for _ in range(n_trees)
    ]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    trees=cluster_profiles(),
    threshold=st.floats(min_value=0.5, max_value=1.0),
)
def test_stored_analytics_match_in_memory(trees, threshold):
    with CrimsonStore.open() as store:
        handles = [
            store.load_tree(tree, name=f"p{index}", f=3)
            for index, tree in enumerate(trees)
        ]
        for handle, tree in zip(handles, trees):
            assert stored_clusters(handle, include_trivial=True) == clusters(
                tree, include_trivial=True
            )
            assert stored_bipartitions(handle) == bipartitions(tree)
            assert stored_leaf_names(handle) == tree.leaf_names()
        for kind in (threshold, 0.5, 1.0):
            stored_tree, stored_support = stored_consensus(
                handles, threshold=kind
            )
            tree, support = majority_rule_consensus(trees, threshold=kind)
            assert write_newick(stored_tree) == write_newick(tree)
            assert stored_support == support

        stored_tree, stored_support = stored_consensus(handles, strict=True)
        assert write_newick(stored_tree) == write_newick(
            strict_consensus(trees)
        )
        shared = set.intersection(*(clusters(tree) for tree in trees))
        assert stored_support == {cluster: 1.0 for cluster in shared}

        if len(trees) >= 2:
            outcome = compare_stored(handles[0], handles[1])
            assert outcome.splits == compare_splits(trees[0], trees[1])
            assert outcome.shared_clusters == len(
                clusters(trees[0]) & clusters(trees[1])
            )
            assert rf_matrix(handles) == [
                [robinson_foulds(a, b) for b in trees] for a in trees
            ]
