"""Failure injection: corrupted stores, closed handles, bad files.

A data management system must fail loudly and specifically, not return
wrong answers.  These tests damage the relational store in targeted
ways and assert every corruption surfaces as :class:`StorageError`
(never a silent wrong result), and that OS-level problems propagate
sanely.
"""

from __future__ import annotations

import pytest

from repro.errors import CrimsonError, ParseError, QueryError, StorageError
from repro.storage.projection import project_stored
from repro.storage.store import CrimsonStore


@pytest.fixture
def stored(store, fig1):
    return store.trees.store_tree(fig1, f=2)


def _lca(handle, a: str, b: str) -> str:
    return handle.lca(a, b).name


def _lca_batch(handle, a: str, b: str) -> str:
    return handle.lca_batch([(a, b)])[0].name


def _project(handle, a: str, b: str) -> str:
    return project_stored(handle, [a, b]).root.name


#: Every read path that walks the layered index, as "name of the LCA of
#: two leaves": the recursive per-pair walk, the level-synchronous batch
#: walk, and a projection (one batch over the sorted leaves).
WALKS = (_lca, _lca_batch, _project)


def _cold(store, stored):
    """A fresh handle on the damaged tree: no row cached before."""
    return store.trees.open(stored.info.name)


class TestIndexCorruption:
    """Each damage case raises the same typed error on every walk."""

    def test_missing_canonical_inode(self, store, stored):
        lla = stored.node_by_name("Lla")
        # Node r's canonical inode is inode r.
        store.db.execute(
            "DELETE FROM inodes WHERE inode_id = ?", (lla.node_id,)
        )
        for walk in WALKS:
            with pytest.raises(StorageError, match="canonical"):
                walk(_cold(store, stored), "Lla", "Syn")

    def test_missing_block_row(self, store, stored):
        store.db.execute("DELETE FROM blocks WHERE block_id = 1")
        for walk in WALKS:
            with pytest.raises(StorageError):
                walk(_cold(store, stored), "Lla", "Syn")

    def test_missing_rep_inode(self, store, stored):
        store.db.execute("UPDATE blocks SET rep_inode_id = NULL WHERE layer = 0")
        for walk in WALKS:
            with pytest.raises(StorageError, match="rep"):
                walk(_cold(store, stored), "Lla", "Syn")

    def test_broken_source_chain(self, store, stored):
        store.db.execute(
            "UPDATE blocks SET source_inode_id = NULL WHERE source_inode_id "
            "IS NOT NULL AND layer = 0"
        )
        for walk in WALKS:
            with pytest.raises(StorageError):
                walk(_cold(store, stored), "Lla", "Syn")

    def test_missing_prefix_inode(self, store, stored):
        # Remove the inode the common-prefix lookup lands on (the root ε).
        store.db.execute(
            "DELETE FROM inodes WHERE local_label = '' AND layer = 0 "
            "AND block_id = 0"
        )
        for walk in WALKS:
            with pytest.raises(StorageError):
                walk(_cold(store, stored), "Syn", "Bsu")

    def test_same_block_queries_unaffected_by_other_block_damage(
        self, store, stored
    ):
        """Corruption in block 2's rows must not disturb block-1-local
        queries — locality is the point of the decomposition."""
        store.db.execute("DELETE FROM blocks WHERE block_id = 1")
        for walk in WALKS:
            assert walk(_cold(store, stored), "Syn", "Bsu") == "R"


class TestClosedDatabase:
    def test_stored_tree_after_close(self, fig1):
        store = CrimsonStore.open()
        handle = store.trees.store_tree(fig1, f=2)
        store.close()
        with pytest.raises(StorageError, match="closed"):
            handle.node_by_name("Lla")

    def test_repositories_after_close(self, fig1):
        store = CrimsonStore.open()
        repo = store.trees
        handle = repo.store_tree(fig1, f=2)
        species = store.species
        history = store.history
        store.close()
        with pytest.raises(StorageError):
            repo.list_trees()
        with pytest.raises(StorageError):
            species.count(handle)
        with pytest.raises(StorageError):
            history.recent()

    def test_projection_after_close(self, fig1):
        store = CrimsonStore.open()
        handle = store.trees.store_tree(fig1, f=2)
        store.close()
        with pytest.raises(StorageError):
            project_stored(handle, ["Lla", "Syn"])


class TestTransactionalAtomicity:
    def test_failed_store_leaves_no_partial_rows(self, store, fig1):
        """A storage failure mid-transaction must roll back everything:
        no orphan node/inode rows without a catalogue entry."""
        repo = store.trees
        repo.store_tree(fig1, f=2)
        clone = fig1.copy()
        with pytest.raises(StorageError):
            repo.store_tree(clone)  # duplicate name → fails before writes
        trees = store.db.query_one("SELECT COUNT(*) AS n FROM trees")["n"]
        nodes = store.db.query_one(
            "SELECT COUNT(DISTINCT tree_id) AS n FROM nodes"
        )["n"]
        assert trees == nodes == 1

    def test_species_attach_is_atomic(self, store, stored):
        species = store.species
        with pytest.raises(QueryError):
            # Second row is bad → nothing may be written.
            species.attach_sequences(stored, {"Lla": "AC", "ghost": "AC"})
        assert species.count(stored) == 0


class TestBadInputFiles:
    def test_loader_on_missing_file(self, store, tmp_path):
        loader = store.loader
        # I/O failures are part of the CrimsonError hierarchy now.
        with pytest.raises(StorageError):
            loader.load_nexus_file(tmp_path / "missing.nex")

    def test_loader_on_binary_garbage(self, store, tmp_path):
        path = tmp_path / "garbage.nex"
        path.write_bytes(bytes(range(256)))
        loader = store.loader
        with pytest.raises((ParseError, UnicodeDecodeError)):
            loader.load_nexus_file(path)

    def test_loader_reports_nothing_stored_after_parse_error(self, store):
        loader = store.loader
        with pytest.raises(ParseError):
            loader.load_nexus_text("#NEXUS\nBEGIN TREES;\nTREE t = ((a,b);\nEND;\n")
        assert store.trees.list_trees() == []

    def test_all_library_errors_share_base(self):
        """Callers can catch everything with one except clause."""
        for exc in (ParseError, StorageError, QueryError):
            assert issubclass(exc, CrimsonError)
