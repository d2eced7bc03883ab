"""Files written by older schema versions upgrade in place when opened.

The DDL of versions 1 to 3 is frozen under ``tests/fixtures/schema``.
Each test writes a store with it, rows included (the version-3 rows of
the row oracle: the reference index's own inode ids and the
``is_canonical`` column), opens the store with the current code, and
checks the upgraded files as strictly as fresh ones: the version row,
the absence of foreign keys, of the dropped indexes and of the dropped
column, the partial name index, ``PRAGMA integrity_check``, the
row-level oracle of ``test_tree_repository``, the rows of a fresh load
of the same trees and ``verify()``.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

import numpy as np
import pytest

import repro.storage.schema as schema
import repro.storage.sql as sql
from repro.core.hindex import HierarchicalIndex
from repro.errors import StorageError
from repro.simulation.birth_death import yule_tree
from repro.storage.api import QueryRequest
from repro.storage.store import CrimsonStore, shard_path
from repro.trees.build import caterpillar, sample_tree
from test_tree_repository import expected_rows, stored_rows

FIXTURES = Path(__file__).parent / "fixtures" / "schema"
TREE_DATA = ("nodes", "blocks", "inodes")
DROPPED_INDEXES = {"idx_nodes_dist", "idx_nodes_parent", "idx_inodes_orig"}
DDL = {
    1: ("v1.sql", None),
    2: ("v2_primary.sql", "v2_shard.sql"),
    3: ("v3_primary.sql", "v3_shard.sql"),
}


def old_trees():
    """(name, tree, f) of the trees an old store holds."""
    return [
        ("fig1", sample_tree(), 2),
        ("cat", caterpillar(40), 4),
        ("yule", yule_tree(60, rng=np.random.default_rng(5)), 8),
    ]


def write_old_store(path: Path, version: int, shards: int) -> None:
    """A store laid out by schema ``version``, holding :func:`old_trees`,
    whose rows are the ones that version's loader wrote (the row
    oracle's version-3 rows, which versions 1 and 2 shared)."""
    primary_ddl, shard_ddl = DDL[version]
    files = [sqlite3.connect(path)]
    files[0].executescript((FIXTURES / primary_ddl).read_text())
    meta = {"schema_version": str(version)}
    if version >= 2:
        meta["role"] = "primary"
        meta["shards"] = str(shards)
    for k in range(1, shards):
        shard = sqlite3.connect(shard_path(path, k))
        shard.executescript((FIXTURES / shard_ddl).read_text())
        shard.executemany(
            "INSERT INTO meta(key, value) VALUES (?, ?)",
            [("schema_version", str(version)), ("role", "shard")],
        )
        files.append(shard)
    files[0].executemany(
        "INSERT INTO meta(key, value) VALUES (?, ?)", sorted(meta.items())
    )
    for tree_id, (name, tree, f) in enumerate(old_trees(), start=1):
        tables, (n_nodes, n_leaves, max_depth, n_layers, n_blocks) = (
            expected_rows(tree, f, tree_id, version=3)
        )
        catalogue = [
            tree_id, name, n_nodes, n_leaves, max_depth, f, n_layers,
            n_blocks, "2006-09-12T00:00:00", "",
        ]
        shard = (tree_id - 1) % shards
        if version >= 2:
            catalogue.append(shard)
        files[0].execute(
            f"INSERT INTO trees VALUES ({', '.join('?' * len(catalogue))})",
            catalogue,
        )
        for table, rows in tables.items():
            files[shard].executemany(
                f"INSERT INTO {table} VALUES "
                f"({', '.join('?' * len(rows[0]))})",
                rows,
            )
    for connection in files:
        connection.commit()
        connection.close()


def file_state(path) -> dict:
    """What the upgrade changes in one file, read with a raw connection."""
    connection = sqlite3.connect(path)
    try:
        return {
            "version": connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()[0],
            "foreign_keys": {
                table: connection.execute(
                    f"PRAGMA foreign_key_list({table})"
                ).fetchall()
                for table in TREE_DATA
            },
            "indexes": {
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index' "
                    "AND name LIKE 'idx_%'"
                )
            },
            "partial": {
                row[1]: row[4]
                for row in connection.execute("PRAGMA index_list(nodes)")
            },
            "inode_columns": [
                row[1] for row in connection.execute("PRAGMA table_info(inodes)")
            ],
            "rows": {
                table: connection.execute(
                    f"SELECT * FROM {table} ORDER BY 1, 2"
                ).fetchall()
                for table in TREE_DATA
            },
            "integrity": connection.execute(
                "PRAGMA integrity_check"
            ).fetchall(),
            "schema": connection.execute(
                "SELECT type, name, sql FROM sqlite_master ORDER BY name"
            ).fetchall(),
        }
    finally:
        connection.close()


def assert_upgraded(path: Path, shards: int) -> None:
    for k in range(shards):
        state = file_state(shard_path(path, k) if k else path)
        assert state["version"] == str(schema.SCHEMA_VERSION) == "4"
        assert state["foreign_keys"] == {table: [] for table in TREE_DATA}
        assert state["indexes"] == {"idx_nodes_name", "idx_inodes_label"}
        assert state["partial"]["idx_nodes_name"] == 1
        assert "is_canonical" not in state["inode_columns"]
        assert state["integrity"] == [("ok",)]


def without_tree_ids(rows):
    tables, catalogue = rows
    return {
        table: [row[1:] for row in table_rows]
        for table, table_rows in tables.items()
    }, catalogue


def assert_rows_match_the_oracle(store: CrimsonStore) -> None:
    """Every upgraded row equals the row oracle's and a fresh load's."""
    trees = {name: (tree, f) for name, tree, f in old_trees()}
    infos = store.trees.list_trees()
    assert sorted(info.name for info in infos) == sorted(trees)
    with CrimsonStore.open() as fresh:
        for info in infos:
            tree, f = trees[info.name]
            rows = stored_rows(store, info)
            assert rows == expected_rows(tree, f, info.tree_id)
            fresh.trees.store_tree(tree, name=info.name, f=f)
            assert without_tree_ids(rows) == without_tree_ids(
                stored_rows(fresh, fresh.trees.info(info.name))
            )
    assert all(report.ok for report in store.verify())


def assert_queries_match_the_index(store: CrimsonStore) -> None:
    """The stored layered walks of an upgraded tree (the recursive pair
    walk, the batch walk and the canonical fills under both) agree with
    the in-memory index."""
    for name, tree, f in old_trees():
        handle = store.open_tree(name)
        index = HierarchicalIndex(tree, f)
        leaves = tree.leaves()
        pairs = list(zip(leaves, leaves[::-1]))
        expected = [index.lca(a, b).name for a, b in pairs]
        names = [(a.name, b.name) for a, b in pairs]
        assert [handle.lca(a, b).name for a, b in names] == expected
        assert [row.name for row in handle.lca_batch(names)] == expected


@pytest.mark.parametrize(
    "version, shards", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
)
def test_old_store_upgrades_in_place(tmp_path, version, shards):
    """A version-1 file has no shards of its own; opened with two it
    keeps its trees on the primary and gains a fresh shard file."""
    path = tmp_path / f"v{version}.db"
    write_old_store(path, version, shards=1 if version == 1 else shards)
    old = file_state(path)
    assert old["version"] == str(version)
    assert all(old["foreign_keys"].values()) == (version < 3)
    assert "idx_inodes_orig" in old["indexes"]
    assert (DROPPED_INDEXES <= old["indexes"]) == (version < 3)
    assert "is_canonical" in old["inode_columns"]
    assert old["partial"]["idx_nodes_name"] == 0
    with CrimsonStore.open(path, shards=shards, readers=2) as store:
        assert store.shards == shards
        assert_rows_match_the_oracle(store)
        assert_queries_match_the_index(store)
        assert store.query(QueryRequest.lca("fig1", "Lla", "Syn")).node.name == "R"
        # The upgraded files take new loads and deletes.
        store.load_tree(caterpillar(30), name="new", f=2)
        store.trees.delete_tree("cat")
        assert all(report.ok for report in store.verify())
    assert_upgraded(path, shards)
    # The catalogue keeps its species key; only tree data lost theirs.
    connection = sqlite3.connect(path)
    try:
        assert connection.execute("PRAGMA foreign_key_list(species)").fetchall()
    finally:
        connection.close()
    # A second open finds nothing left to do.
    before = [file_state(shard_path(path, k) if k else path) for k in range(shards)]
    CrimsonStore.open(path).close()
    after = [file_state(shard_path(path, k) if k else path) for k in range(shards)]
    assert after == before


def test_failed_rebuild_leaves_the_version_2_file_as_it_was(
    tmp_path, monkeypatch
):
    path = tmp_path / "v2.db"
    write_old_store(path, version=2, shards=1)
    before = file_state(path)
    assert before["version"] == "2"
    assert DROPPED_INDEXES <= before["indexes"]
    rebuild = sql.REBUILD_WITHOUT_FOREIGN_KEYS
    renamed = rebuild.index("ALTER TABLE blocks_v3 RENAME TO blocks") + 1
    # Fail after the old tables are dropped and the copies renamed over
    # them, before the indexes come back: a duplicate primary key.
    monkeypatch.setattr(
        sql,
        "REBUILD_WITHOUT_FOREIGN_KEYS",
        (*rebuild[:renamed], "INSERT INTO nodes SELECT * FROM nodes",
         *rebuild[renamed:]),
    )
    with pytest.raises(StorageError, match=f"{path.name}.*upgrade failed"):
        CrimsonStore.open(path)
    assert file_state(path) == before
    monkeypatch.setattr(sql, "REBUILD_WITHOUT_FOREIGN_KEYS", rebuild)
    with CrimsonStore.open(path) as store:
        assert_rows_match_the_oracle(store)
    assert_upgraded(path, shards=1)


@pytest.mark.parametrize("shards", [1, 2])
def test_failed_renumbering_leaves_the_version_3_files_as_they_were(
    tmp_path, monkeypatch, shards
):
    path = tmp_path / "v3.db"
    write_old_store(path, version=3, shards=shards)
    files = [shard_path(path, k) if k else path for k in range(shards)]
    before = [file_state(target) for target in files]
    assert before[0]["version"] == "3"
    steps = sql.RENUMBER_INODES
    renamed = steps.index("ALTER TABLE inodes_v4 RENAME TO inodes") + 1
    # Fail after the renumbered table replaced the old one and the
    # block references were rewritten: a duplicate primary key.
    monkeypatch.setattr(
        sql,
        "RENUMBER_INODES",
        (*steps[:renamed], "INSERT INTO nodes SELECT * FROM nodes",
         *steps[renamed:]),
    )
    with pytest.raises(StorageError, match="upgrade failed.*UNIQUE"):
        CrimsonStore.open(path, shards=shards)
    assert [file_state(target) for target in files] == before
    monkeypatch.setattr(sql, "RENUMBER_INODES", steps)
    with CrimsonStore.open(path, shards=shards) as store:
        assert_rows_match_the_oracle(store)
    assert_upgraded(path, shards)


@pytest.mark.parametrize("shards", [1, 2])
def test_version_3_file_missing_a_canonical_inode_opens(tmp_path, shards):
    """Non-canonical inodes are numbered from the tree's node count, so
    a missing canonical row cannot make a new id collide with a node
    id: the file opens, and verify() reports the fault."""
    path = tmp_path / "v3.db"
    write_old_store(path, version=3, shards=shards)
    # The caterpillar's first leaf, t1 (node 1): no block hangs from a
    # leaf, so its canonical inode is no block's root or source.
    tree_id = [name for name, _, _ in old_trees()].index("cat") + 1
    target = shard_path(path, (tree_id - 1) % shards) if shards > 1 else path
    connection = sqlite3.connect(target)
    deleted = connection.execute(
        "DELETE FROM inodes WHERE tree_id = ? AND orig_node_id = 1 "
        "AND is_canonical = 1",
        (tree_id,),
    ).rowcount
    connection.commit()
    connection.close()
    assert deleted == 1
    with CrimsonStore.open(path) as store:
        (report,) = store.verify("cat")
        assert report.problems == [
            "1 nodes without a canonical inode "
            "(inode r in layer 0 holding node r)"
        ]
        assert all(other.ok for other in store.verify() if other.tree_name != "cat")
    assert_upgraded(path, shards)


def test_failing_upgrade_raises_storage_error_naming_the_file(
    tmp_path, monkeypatch
):
    path = tmp_path / "v3.db"
    write_old_store(path, version=3, shards=1)
    before = file_state(path)
    monkeypatch.setattr(
        sql,
        "RENUMBER_INODES",
        (*sql.RENUMBER_INODES[:1], "SELECT no_such_column FROM inodes"),
    )
    with pytest.raises(StorageError, match=f"{path.name}.*no_such_column"):
        CrimsonStore.open(path)
    assert file_state(path) == before


@pytest.mark.parametrize("role", ["primary", "shard"])
def test_newer_file_is_refused_untouched(tmp_path, role):
    path = tmp_path / "new.db"
    CrimsonStore.open(path, shards=2).close()
    target = path if role == "primary" else Path(shard_path(path, 1))
    connection = sqlite3.connect(target)
    connection.execute(
        "UPDATE meta SET value = '5' WHERE key = 'schema_version'"
    )
    connection.commit()
    connection.close()
    before = file_state(target)
    with pytest.raises(StorageError, match=f"{target.name}.*schema version 5"):
        CrimsonStore.open(path)
    assert file_state(target) == before
