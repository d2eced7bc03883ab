"""Unit tests for connection management and schema creation."""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.errors import StorageError
from repro.storage.database import CrimsonDatabase
from repro.storage.schema import SCHEMA_VERSION


class TestLifecycle:
    def test_in_memory_default(self):
        db = CrimsonDatabase()
        assert db.path == ":memory:"
        assert not db.is_closed
        db.close()

    def test_close_is_idempotent(self):
        db = CrimsonDatabase()
        db.close()
        db.close()
        assert db.is_closed

    def test_use_after_close_raises(self):
        db = CrimsonDatabase()
        db.close()
        with pytest.raises(StorageError):
            db.execute("SELECT 1")

    def test_context_manager_closes(self):
        with CrimsonDatabase() as db:
            db.execute("SELECT 1")
        assert db.is_closed

    def test_file_database(self, tmp_path):
        path = tmp_path / "crimson.db"
        with CrimsonDatabase(path) as db:
            assert db.query_one("SELECT 1 AS one")["one"] == 1
        assert path.exists()

    def test_file_database_persists(self, tmp_path):
        path = tmp_path / "crimson.db"
        with CrimsonDatabase(path) as db:
            db.execute(
                "INSERT INTO query_history (issued_at, operation, params_json) "
                "VALUES ('now', 'test', '{}')"
            )
            db.connection.commit()
        with CrimsonDatabase(path) as db:
            row = db.query_one("SELECT COUNT(*) AS n FROM query_history")
            assert row["n"] == 1

    def test_repr_states(self):
        db = CrimsonDatabase()
        assert "open" in repr(db)
        db.close()
        assert "closed" in repr(db)


class TestSchema:
    EXPECTED_TABLES = {
        "meta",
        "trees",
        "nodes",
        "blocks",
        "inodes",
        "species",
        "query_history",
    }

    def test_all_tables_created(self, db):
        rows = db.query_all(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
        names = {row["name"] for row in rows}
        assert self.EXPECTED_TABLES <= names

    def test_schema_version_recorded(self, db):
        row = db.query_one("SELECT value FROM meta WHERE key = 'schema_version'")
        assert row["value"] == str(SCHEMA_VERSION)

    def test_schema_creation_idempotent(self, db):
        from repro.storage.schema import create_schema

        create_schema(db.connection)  # second run must not fail

    def test_tree_name_unique(self, db):
        db.execute(
            "INSERT INTO trees (name, n_nodes, n_leaves, max_depth, f, "
            "n_layers, n_blocks, created_at) VALUES "
            "('t', 1, 1, 0, 8, 1, 1, 'now')"
        )
        # Constraint violations surface as StorageError (CrimsonError),
        # with the sqlite error preserved as the cause.
        with pytest.raises(StorageError) as excinfo:
            db.execute(
                "INSERT INTO trees (name, n_nodes, n_leaves, max_depth, f, "
                "n_layers, n_blocks, created_at) VALUES "
                "('t', 1, 1, 0, 8, 1, 1, 'now')"
            )
        assert isinstance(excinfo.value.__cause__, sqlite3.IntegrityError)

    def test_expected_indexes_exist(self, db):
        rows = db.query_all(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )
        names = {
            row["name"] for row in rows
            if not row["name"].startswith("sqlite_autoindex")
        }
        assert names == {"idx_nodes_name", "idx_inodes_label"}
        # The name index is partial: unnamed nodes are left out.
        partial = {
            row["name"]: row["partial"]
            for row in db.query_all("PRAGMA index_list(nodes)")
        }
        assert partial == {"idx_nodes_name": 1, "sqlite_autoindex_nodes_1": 0}

    def test_primary_and_shard_files_share_one_tree_data_ddl(self, tmp_path):
        """The tree-data tables and indexes are declared once: their
        stored SQL is the same text in a primary and a shard file."""

        def tree_data_sql(path):
            connection = sqlite3.connect(path)
            try:
                return connection.execute(
                    "SELECT type, name, sql FROM sqlite_master "
                    "WHERE tbl_name IN ('nodes', 'blocks', 'inodes') "
                    "ORDER BY name"
                ).fetchall()
            finally:
                connection.close()

        CrimsonDatabase(tmp_path / "primary.db").close()
        CrimsonDatabase(tmp_path / "shard.db", shard_schema=True).close()
        primary = tree_data_sql(tmp_path / "primary.db")
        assert [name for _, name, _ in primary] == [
            "blocks", "idx_inodes_label", "idx_nodes_name", "inodes", "nodes",
        ]
        assert "REFERENCES" not in " ".join(sql for _, _, sql in primary)
        assert primary == tree_data_sql(tmp_path / "shard.db")


class TestQueryHelpers:
    def test_plain_rows_are_tuples_and_count_as_statements(self, db):
        before = db.statements_executed
        rows = db.query_all("SELECT key, value FROM meta ORDER BY key")
        plain = db.query_all(
            "SELECT key, value FROM meta ORDER BY key", plain=True
        )
        assert db.statements_executed == before + 2
        assert all(type(row) is tuple for row in plain)
        assert plain == [tuple(row) for row in rows]
        # The connection default is untouched by a plain read.
        assert db.query_one("SELECT 1 AS one")["one"] == 1


class TestTransactions:
    def test_commit_on_success(self, db):
        with db.transaction() as connection:
            connection.execute(
                "INSERT INTO query_history (issued_at, operation, params_json) "
                "VALUES ('now', 'op', '{}')"
            )
        row = db.query_one("SELECT COUNT(*) AS n FROM query_history")
        assert row["n"] == 1

    def test_rollback_on_error(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction() as connection:
                connection.execute(
                    "INSERT INTO query_history (issued_at, operation, params_json) "
                    "VALUES ('now', 'op', '{}')"
                )
                raise RuntimeError("boom")
        row = db.query_one("SELECT COUNT(*) AS n FROM query_history")
        assert row["n"] == 0

    def test_cross_thread_reads_wait_for_open_transactions(self, tmp_path):
        """Regression: a read from another thread on a shared connection
        must block until the open transaction commits, never observe
        its uncommitted middle (connections are check_same_thread=False
        so pool-less stores can be driven from worker threads)."""
        db = CrimsonDatabase(tmp_path / "iso.db")
        in_transaction = threading.Event()
        release = threading.Event()
        result: dict[str, object] = {}

        def writer():
            with db.transaction() as connection:
                connection.execute(
                    "INSERT INTO meta(key, value) VALUES ('probe', 'set')"
                )
                in_transaction.set()
                release.wait(timeout=5)

        def reader():
            row = db.query_one("SELECT value FROM meta WHERE key = 'probe'")
            result["value"] = row["value"] if row is not None else None
            result["after_release"] = release.is_set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert in_transaction.wait(timeout=5)
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        release.set()
        writer_thread.join()
        reader_thread.join()
        db.close()
        # The read completed only after the commit (so it saw the
        # committed row, not the transaction's uncommitted middle).
        assert result == {"value": "set", "after_release": True}
