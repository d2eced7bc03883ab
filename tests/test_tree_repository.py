"""Unit tests for the Tree Repository and SQL-backed queries."""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

import repro.storage.tree_repository as tree_repository
from reference_hindex import ReferenceIndex, v4_numbering
from repro.core.dewey import label_to_string
from repro.errors import QueryError, StorageError
from repro.simulation.birth_death import yule_tree
from repro.storage.store import CrimsonStore
from repro.trees.build import balanced, caterpillar, sample_tree, star
from repro.trees.newick import parse_newick
from repro.trees.node import Node
from repro.trees.traversal import naive_lca
from repro.trees.tree import PhyloTree


@pytest.fixture
def repo(store):
    return store.trees


@pytest.fixture
def stored(repo, fig1):
    return repo.store_tree(fig1, f=2)


class TestStoreAndCatalogue:
    def test_store_returns_handle(self, stored):
        assert stored.info.name == "fig1-sample"
        assert stored.info.n_nodes == 8
        assert stored.info.n_leaves == 5
        assert stored.info.max_depth == 3
        assert stored.info.f == 2

    def test_store_requires_name(self, repo, fig1):
        fig1.name = None
        with pytest.raises(StorageError):
            repo.store_tree(fig1)

    def test_duplicate_name_rejected(self, repo, fig1, stored):
        with pytest.raises(StorageError):
            repo.store_tree(fig1)

    def test_info_unknown_raises(self, repo):
        with pytest.raises(StorageError):
            repo.info("ghost")

    def test_list_trees(self, repo, fig1, stored):
        repo.store_tree(balanced(3), name="balanced")
        names = [info.name for info in repo.list_trees()]
        assert names == ["balanced", "fig1-sample"]

    def test_delete_tree(self, repo, store, stored):
        repo.delete_tree("fig1-sample")
        assert repo.list_trees() == []
        for table in ("nodes", "blocks", "inodes"):
            row = store.db.query_one(f"SELECT COUNT(*) AS n FROM {table}")
            assert row["n"] == 0

    def test_delete_unknown_raises(self, repo):
        with pytest.raises(StorageError):
            repo.delete_tree("ghost")

    def test_open(self, repo, stored):
        handle = repo.open("fig1-sample")
        assert handle.info.tree_id == stored.info.tree_id

    def test_index_metadata_recorded(self, stored):
        assert stored.info.n_layers == 2
        assert stored.info.n_blocks == 3  # two layer-0 + one layer-1


class TestNodeAccess:
    def test_root(self, stored):
        root = stored.root()
        assert root.name == "R"
        assert root.parent_id is None
        assert root.depth == 0

    def test_node_by_name(self, stored):
        row = stored.node_by_name("Lla")
        assert row.is_leaf
        assert row.dist_from_root == pytest.approx(2.25)
        assert row.depth == 3

    def test_unknown_name_raises(self, stored):
        with pytest.raises(QueryError):
            stored.node_by_name("ghost")

    def test_unknown_id_raises(self, stored):
        with pytest.raises(QueryError):
            stored.node(999)

    def test_leaves_in_preorder(self, stored):
        assert [row.name for row in stored.leaves()] == [
            "Syn",
            "Lla",
            "Spy",
            "Bha",
            "Bsu",
        ]

    def test_leaf_names(self, stored):
        assert stored.leaf_names() == ["Syn", "Lla", "Spy", "Bha", "Bsu"]

    def test_children_in_order(self, stored):
        root = stored.root()
        children = stored.children(root.node_id)
        assert [row.name for row in children] == ["Syn", "A", "Bsu"]
        assert [row.child_order for row in children] == [1, 2, 3]

    def test_subtree_interval(self, stored):
        x = stored.node_by_name("x")
        low, high = x.subtree_interval
        assert high - low + 1 == 3  # x, Lla, Spy


class TestSqlLca:
    def test_paper_walkthrough(self, stored):
        assert stored.lca("Lla", "Syn").name == "R"
        assert stored.lca("Lla", "Spy").name == "x"

    def test_by_id(self, stored):
        lla = stored.node_by_name("Lla")
        spy = stored.node_by_name("Spy")
        assert stored.lca(lla.node_id, spy.node_id).name == "x"

    def test_matches_in_memory_on_random_trees(self, repo, random_tree_factory):
        for seed in range(4):
            tree = random_tree_factory(50, seed, name_prefix=f"s{seed}n")
            handle = repo.store_tree(tree, name=f"random-{seed}", f=2 + seed)
            nodes = list(tree.preorder())
            rng = random.Random(seed)
            for _ in range(30):
                a, b = rng.choice(nodes), rng.choice(nodes)
                expected = naive_lca(a, b)
                assert handle.lca(a.name, b.name).name == expected.name

    def test_lca_many(self, stored):
        assert stored.lca_many(["Lla", "Spy", "Bha"]).name == "A"
        assert stored.lca_many(["Lla"]).name == "Lla"

    def test_lca_many_empty_raises(self, stored):
        with pytest.raises(QueryError):
            stored.lca_many([])

    def test_deep_tree_lca(self, repo):
        tree = caterpillar(300)
        handle = repo.store_tree(tree, name="deep", f=4)
        assert handle.lca("t1", "t300").depth == 0
        # t299 and t300 hang off the deepest interior node.
        assert handle.lca("t299", "t300").depth == 298


class TestCladeAndFrontier:
    def test_clade(self, stored):
        names = [row.name for row in stored.clade(["Lla", "Bha"])]
        assert names == ["A", "x", "Lla", "Spy", "Bha"]

    def test_leaf_ids_are_the_preorder_leaves(self, stored):
        rows = stored.nodes_by_id(list(stored.leaf_ids()))
        assert [row.name for row in rows] == ["Syn", "Lla", "Spy", "Bha", "Bsu"]

    def test_leaf_ids_slice_a_clade(self, stored):
        ids = stored.leaf_ids()
        for name, leaves in (("x", ["Lla", "Spy"]), ("A", ["Lla", "Spy", "Bha"])):
            anchor = stored.node_by_name(name)
            inside = [i for i in ids if anchor.contains(i)]
            assert [row.name for row in stored.nodes_by_id(inside)] == leaves

    def test_time_frontier_matches_paper(self, stored):
        names = {row.name for row in stored.time_frontier(1.0)}
        assert names == {"Bha", "x", "Syn", "Bsu"}

    def test_frontier_beyond_tree_is_empty(self, stored):
        assert stored.time_frontier(100.0) == []

    def test_frontier_at_zero_is_root_children(self, stored):
        names = {row.name for row in stored.time_frontier(0.0)}
        assert names == {"Syn", "A", "Bsu"}


class TestMaterialization:
    def test_fetch_tree_roundtrip(self, stored, fig1):
        assert stored.fetch_tree().to_newick() == fig1.to_newick()

    def test_fetch_preserves_child_order(self, repo):
        tree = balanced(3)
        handle = repo.store_tree(tree, name="b3")
        assert handle.fetch_tree().to_newick() == tree.to_newick()

    @staticmethod
    def deep_caterpillar(depth):
        """A caterpillar ``depth`` levels deep, linked by hand:
        ``add_child``'s cycle check walks to the root, which would make
        building it quadratic."""
        root = spine = Node("root")
        for level in range(1, depth + 1):
            for child in (Node(f"t{level}", 1.0), Node(None, 0.5)):
                child.parent = spine
                spine.children.append(child)
            spine = child
        spine.name = "deepest"
        return PhyloTree(root, name="deep")

    def test_deep_tree_fetches_in_linear_time(self, repo):
        tree = self.deep_caterpillar(20_000)
        handle = repo.store_tree(tree, f=8)
        started = time.perf_counter()
        fetched = handle.fetch_tree()
        assert time.perf_counter() - started < 1.0
        assert fetched.to_newick() == tree.to_newick()


# ----------------------------------------------------------------------
# Row-level differential: what a load writes vs the in-memory helpers
# ----------------------------------------------------------------------

SHAPES = {
    "fig1": lambda factory: sample_tree(),
    "caterpillar": lambda factory: caterpillar(40),
    "yule": lambda factory: yule_tree(60, rng=np.random.default_rng(7)),
    "random": lambda factory: factory(90, seed=11),
    "star2000": lambda factory: star([f"s{i}" for i in range(2000)]),
    # Zero-length edges and unnamed interior nodes.
    "zero_unnamed": lambda factory: parse_newick(
        "((a:0,b:0):0,(c:1,(d:0,e:2):0,f:0.5):0.5,g:0);"
    ),
}


def expected_rows(tree, f, tree_id, version=4):
    """The rows and catalogue figures of ``tree``, built from the
    node pointers, ``PhyloTree``'s own tables and the ``Node``-based
    reference index of ``tests/reference_hindex.py`` — none of the
    loader's or the production index's code.

    ``version=3`` gives the rows schema version 3 wrote: the
    reference's own inode ids and an ``is_canonical`` column.  The
    default is the current layout, the same rows renumbered by
    ``v4_numbering`` without that column."""
    order = list(tree.preorder())
    rank = {id(node): position for position, node in enumerate(order)}
    depths = tree.depths()
    distances = tree.distances_from_root()
    ends: dict[int, int] = {}
    for node in tree.postorder():
        ends[id(node)] = max(
            [rank[id(node)], *(ends[id(child)] for child in node.children)]
        )
    nodes = [
        (
            tree_id,
            rank[id(node)],
            rank[id(node.parent)] if node.parent is not None else None,
            node.child_order,
            node.name,
            node.length,
            depths[id(node)],
            distances[id(node)],
            ends[id(node)],
            int(node.is_leaf),
        )
        for node in order
    ]
    index = ReferenceIndex(tree, f)
    canonical = {index.inode_of(node) for node in order}
    inodes = [
        (
            tree_id,
            inode,
            index.inode_layer[inode],
            index.inode_block[inode],
            label_to_string(index.inode_label[inode]),
            len(index.inode_label[inode]),
            (
                rank[id(index.inode_orig[inode])]
                if index.inode_orig[inode] is not None
                else None
            ),
            index.inode_represents[inode],
            int(inode in canonical),
        )
        for inode in range(len(index.inode_layer))
    ]
    blocks = [
        (
            tree_id,
            block,
            index.block_layer[block],
            index.block_root_inode[block],
            index.block_source_inode[block],
            index.block_rep_inode[block],
        )
        for block in range(len(index.block_layer))
    ]
    if version >= 4:
        v4_order, new_id = v4_numbering(index)
        inodes = [
            (tree_id, new_id[old], *inodes[old][2:-1]) for old in v4_order
        ]
        blocks = [
            (*row[:3], *(None if old is None else new_id[old] for old in row[3:]))
            for row in blocks
        ]
    catalogue = (
        len(order),
        tree.n_leaves(),
        tree.max_depth(),
        index.n_layers,
        len(index.block_layer),
    )
    return {"nodes": nodes, "inodes": inodes, "blocks": blocks}, catalogue


def stored_rows(store, info):
    data_db = store.shard_database(info.shard)
    tables = {
        table: [
            tuple(row)
            for row in data_db.query_all(
                f"SELECT * FROM {table} WHERE tree_id = ? ORDER BY 2",
                (info.tree_id,),
            )
        ]
        for table in ("nodes", "inodes", "blocks")
    }
    catalogue = (
        info.n_nodes, info.n_leaves, info.max_depth, info.n_layers,
        info.n_blocks,
    )
    return tables, catalogue


class TestStoredRowsMatchTheInMemoryHelpers:
    """Every ``nodes``/``inodes``/``blocks`` row and the catalogue
    figures a load writes equal rows built independently in the test.
    ``verify()`` checks only that intervals nest, so an exact oracle
    catches a column written from the wrong source (a root distance
    recorded as ``max_depth``, say)."""

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("f", [1, 2, 4, 8])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_rows_equal_the_oracle(
        self, tmp_path, random_tree_factory, shape, f, shards
    ):
        tree = SHAPES[shape](random_tree_factory)
        with CrimsonStore.open(tmp_path / "rows.db", shards=shards) as store:
            # Two loads: with two shards, one lands on the primary file
            # and one crosses files, so both placements are compared.
            for name in ("first", "second"):
                handle = store.trees.store_tree(tree, name=name, f=f)
                info = store.trees.info(name)
                assert handle.info == info
                assert stored_rows(store, info) == expected_rows(
                    tree, f, info.tree_id
                )
            placements = {i.shard for i in store.trees.list_trees()}
            assert placements == set(range(shards))

    def test_figure4_index_rows(self, repo, fig1):
        """Figure 4: at f = 2 the Figure-1 tree indexes into two layers,
        three blocks, with the Lla/Spy block hanging off x at 2.1."""
        handle = repo.store_tree(fig1, name="fig4", f=2)
        tables, catalogue = stored_rows(repo.store, handle.info)
        assert catalogue == (8, 5, 3, 2, 3)
        assert tables == expected_rows(fig1, 2, handle.info.tree_id)[0]
        x = handle.node_by_name("x").node_id
        split_root = next(
            row for row in tables["inodes"]
            if row[3] == 1 and row[4] == "" and row[2] == 0
        )
        assert split_root[6] == x  # the split block's ε copy is x
        source = tables["blocks"][1][4]
        assert tables["inodes"][source][4] == "2.1"

    def test_star_child_order_reads_one_to_n(self, repo):
        """Positions come from the walk, one per child, in order."""
        handle = repo.store_tree(
            star([f"s{i}" for i in range(1000)]), name="star"
        )
        rows = repo.db.query_all(
            "SELECT child_order FROM nodes WHERE tree_id = ? "
            "AND parent_id = 0 ORDER BY node_id",
            (handle.info.tree_id,),
        )
        assert [row["child_order"] for row in rows] == list(range(1, 1001))


class TestOneTransactionLoad:
    """A load placed on the primary file allocates its id, writes its
    rows and its catalogue row inside one transaction."""

    @staticmethod
    def commits(database):
        log: list[str] = []
        database.connection.set_trace_callback(log.append)
        return log

    def test_single_file_load_commits_once(self, tmp_path):
        with CrimsonStore.open(tmp_path / "one.db") as store:
            store.load_newick_text("(a:1,b:1);", name="warm")
            log = self.commits(store.db)
            store.trees.store_tree(caterpillar(200), name="cat", f=2)
            assert log.count("COMMIT") == 1

    def test_cross_file_load_commits_the_id_first(self, tmp_path, monkeypatch):
        with CrimsonStore.open(tmp_path / "two.db", shards=2) as store:
            monkeypatch.setattr(store, "place_tree", lambda: 1)
            primary = self.commits(store.db)
            shard = self.commits(store.shard_database(1))
            handle = store.trees.store_tree(sample_tree(), name="fig1")
            assert handle.info.shard == 1
            # Allocator, then catalogue on the primary; rows on the shard.
            assert primary.count("COMMIT") == 2
            assert shard.count("COMMIT") == 1

    @pytest.mark.parametrize("shards", [1, 2])
    def test_failure_inside_the_load_leaves_the_store_as_it_was(
        self, tmp_path, monkeypatch, shards
    ):
        path = tmp_path / f"fail{shards}.db"
        with CrimsonStore.open(path, shards=shards) as store:
            for name in ("one", "two"):
                store.load_newick_text("((a:1,b:1):1,c:2);", name=name)
            # Shard 0 of a sharded store is primary placement too.
            monkeypatch.setattr(store, "place_tree", lambda: 0)

            def counter():
                row = store.db.query_one(
                    "SELECT value FROM meta WHERE key = 'next_tree_id'"
                )
                return row["value"]

            before = (store.trees.list_trees(), counter())
            insert_rows = tree_repository._insert_tree_rows

            def insert_then_fail(connection, tree_id, walk, index):
                insert_rows(connection, tree_id, walk, index)
                raise RuntimeError("injected failure after the row inserts")

            monkeypatch.setattr(
                tree_repository, "_insert_tree_rows", insert_then_fail
            )
            with pytest.raises(RuntimeError, match="injected"):
                store.trees.store_tree(sample_tree(), name="doomed")
            monkeypatch.setattr(
                tree_repository, "_insert_tree_rows", insert_rows
            )
            assert (store.trees.list_trees(), counter()) == before
            orphans = store.db.query_one(
                "SELECT COUNT(*) AS n FROM nodes WHERE tree_id NOT IN "
                "(SELECT tree_id FROM trees)"
            )["n"]
            assert orphans == 0
            # The rolled-back id is issued again: nothing burned it.
            handle = store.trees.store_tree(sample_tree(), name="fig1")
            assert str(handle.info.tree_id) == before[1]
