"""SQLite checks the SQL catalogue, ``repro.storage.sql``.

- Every entry prepares with ``EXPLAIN`` and a dummy tuple of its arity
  on a fresh primary and a fresh shard schema, so SQLite rejects an
  unknown table, column or ``INDEXED BY`` index.  A shard file has no
  catalogue tables, so there a missing ``trees``/``species``/
  ``query_history`` is the one error allowed.  The schema upgrade steps
  prepare, in the order they run, on the frozen DDL of the version they
  upgrade (``tests/fixtures/schema``).
- The query-plan gate: no entry reads ``nodes``, ``inodes`` or
  ``blocks`` by a full scan, or by a search narrowed only to
  ``tree_id``, unless the catalogue lists it in ``WHOLE_TREE_READS``.
- The typed rows of ``storage/rows.py`` unpack ``SELECT *`` rows by
  position, so their fields follow the table columns.
- The runtime census: under the sanitizer, a workload through every
  storage path executes only catalogue statements, and every entry at
  least once.  A wrong binding count at a call site fails there.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.benchmark.sampling import random_sample_stored
from repro.errors import QueryError
from repro.lint.rules_sql import normalize_sql
from repro.storage import sql
from repro.storage.api import AnalyticsRequest, QueryRequest
from repro.storage.rows import BlockRow, InodeRow, NodeRow
from repro.storage.sanitize import record_statements, statement_budget
from repro.storage.schema import create_schema
from repro.storage.store import CrimsonStore
from repro.trees.build import caterpillar, sample_tree
from test_schema_migration import write_old_store

SCHEMAS = Path(__file__).parent / "fixtures" / "schema"
CATALOGUE_TABLES = ("trees", "species", "query_history")

#: Each upgrade step's statements, in the order they run, with the
#: frozen DDL of the files it upgrades.
UPGRADES: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (
    (("v1.sql",), (sql.ADD_SHARD_COLUMN,)),
    (
        ("v1.sql", "v2_primary.sql", "v2_shard.sql"),
        (
            sql.DROP_IDX_NODES_DIST,
            sql.DROP_IDX_NODES_PARENT,
            *sql.REBUILD_WITHOUT_FOREIGN_KEYS,
        ),
    ),
    (("v3_primary.sql", "v3_shard.sql"), sql.RENUMBER_INODES),
)
UPGRADE_ONLY = frozenset(
    {"ADD_SHARD_COLUMN", "DROP_IDX_NODES_DIST", "DROP_IDX_NODES_PARENT",
     "REBUILD_WITHOUT_FOREIGN_KEYS", "RENUMBER_INODES"}
)

ENTRIES = sql.entries()
FRESH = sorted(
    {
        text
        for name, text in ENTRIES.items()
        if name.split("[")[0] not in UPGRADE_ONLY
    }
)
IN_LISTS = [text for text in FRESH if " IN (?)" in text]


def dummy(statement: str) -> tuple[int, ...]:
    return (0,) * statement.count("?")


def prepare_error(
    connection: sqlite3.Connection,
    statement: str,
    parameters: tuple | None = None,
) -> str | None:
    """SQLite's complaint about ``statement`` prepared with ``EXPLAIN``
    and ``parameters`` (default: a dummy tuple of its arity), or
    ``None`` when it prepares."""
    if parameters is None:
        parameters = dummy(statement)
    try:
        connection.execute("EXPLAIN " + statement, parameters).fetchall()
    except sqlite3.Error as error:
        return f"{type(error).__name__}: {error}"
    return None


def plan(connection: sqlite3.Connection, statement: str) -> list[str]:
    return [
        row[3]
        for row in connection.execute(
            "EXPLAIN QUERY PLAN " + statement, dummy(statement)
        )
    ]


_GATED_TABLES = ("nodes", "inodes", "blocks")
_ALIAS = re.compile(r"\b(?:nodes|inodes|blocks)\s+AS\s+(\w+)")
_READ = re.compile(r"(SCAN|SEARCH) (\w+)")


def whole_tree_reads(statement: str, details: list[str]) -> list[str]:
    """The plan lines reading a tree-data table (or an alias of one) by
    a full scan or by a search on ``tree_id`` alone."""
    gated = {*_GATED_TABLES, *_ALIAS.findall(statement)}
    found = []
    for detail in details:
        match = _READ.match(detail)
        if match is None or match.group(2) not in gated:
            continue
        if match.group(1) == "SCAN" or detail.endswith("(tree_id=?)"):
            found.append(detail)
    return found


@pytest.fixture(scope="module")
def primary():
    connection = sqlite3.connect(":memory:")
    create_schema(connection)
    connection.commit()
    yield connection
    connection.close()


@pytest.fixture(scope="module")
def shard():
    connection = sqlite3.connect(":memory:")
    create_schema(connection, shard=True)
    connection.commit()
    yield connection
    connection.close()


class TestEveryEntryPrepares:
    def test_every_entry_is_checked_fresh_or_as_an_upgrade(self):
        upgrades = {text for _, statements in UPGRADES for text in statements}
        assert set(FRESH) | upgrades == set(ENTRIES.values())
        assert len(ENTRIES) > 100

    @pytest.mark.parametrize("statement", FRESH)
    def test_on_the_primary_schema(self, primary, statement):
        assert prepare_error(primary, statement) is None

    @pytest.mark.parametrize("statement", FRESH)
    def test_on_the_shard_schema(self, shard, statement):
        error = prepare_error(shard, statement)
        if error is not None:
            missing = re.fullmatch(r"OperationalError: no such table: (\w+)", error)
            assert missing and missing.group(1) in CATALOGUE_TABLES, error

    @pytest.mark.parametrize("statement", IN_LISTS)
    def test_an_in_list_widens_to_its_size(self, primary, statement):
        widened = sql.in_list(statement, 3)
        assert widened.count("?") == statement.count("?") + 2
        assert prepare_error(primary, widened) is None
        assert sql.in_list(statement, 1) == statement

    @pytest.mark.parametrize(
        "files, statements",
        [(name, statements) for files, statements in UPGRADES for name in files],
    )
    def test_upgrade_steps_on_the_version_they_upgrade(
        self, files, statements
    ):
        connection = sqlite3.connect(":memory:", isolation_level=None)
        try:
            connection.executescript((SCHEMAS / files).read_text())
            for statement in statements:
                assert prepare_error(connection, statement) is None, statement
                connection.execute(statement)
        finally:
            connection.close()


class TestQueryPlanGate:
    @pytest.mark.parametrize(
        "statement",
        FRESH + [sql.in_list(text, 3) for text in IN_LISTS],
    )
    def test_tree_data_is_read_by_key_ranges(self, primary, statement):
        found = whole_tree_reads(statement, plan(primary, statement))
        if statement in sql.WHOLE_TREE_READS:
            assert found, "listed as a whole-tree read, but reads by key"
        else:
            assert not found, found

    def test_whole_tree_reads_are_catalogue_entries(self):
        assert sql.WHOLE_TREE_READS <= set(FRESH)

    def test_a_name_lookup_without_its_index_hint_fails_the_gate(
        self, primary
    ):
        """The fault the gate is for: without the hint, SQLite walks
        the tree's whole primary-key range to find one name."""
        for statement in (sql.NODE_BY_NAME, sql.NODES_BY_NAMES):
            unhinted = statement.replace(" INDEXED BY idx_nodes_name", "")
            assert whole_tree_reads(unhinted, plan(primary, unhinted)) == [
                "SEARCH nodes USING PRIMARY KEY (tree_id=?)"
            ]


@pytest.mark.parametrize(
    "table, row_type, renamed",
    [
        ("nodes", NodeRow, {}),
        ("blocks", BlockRow, {}),
        # The builder parses the label text into a tuple and drops its
        # length, which the tuple carries.
        ("inodes", InodeRow, {"local_label": "label", "label_depth": None}),
    ],
)
def test_row_fields_follow_the_table_columns(primary, table, row_type, renamed):
    columns = [
        row[0]
        for row in primary.execute(
            "SELECT name FROM pragma_table_info(?) ORDER BY cid", (table,)
        )
    ]
    assert columns[0] == "tree_id"
    expected = [renamed.get(c, c) for c in columns[1:]]
    assert [f.name for f in fields(row_type)] == [
        name for name in expected if name is not None
    ]


def test_the_runtime_statements_are_the_catalogue(sanitized, tmp_path):
    """Both directions: every statement a workload through every storage
    path executes is a catalogue entry, and every entry runs."""
    # A one-file v1 store runs every upgrade step; a v3 one, two files.
    old = [(1, tmp_path / "v1.db", 1), (3, tmp_path / "v3.db", 2)]
    for version, path, shards in old:
        write_old_store(path, version=version, shards=shards)
    with record_statements() as recorded:
        for _, path, shards in old:
            CrimsonStore.open(path, shards=shards).close()
        with CrimsonStore.open(
            tmp_path / "census.db", readers=2, shards=2
        ) as store:
            store.trees.store_tree(sample_tree(), name="fig1", f=2)
            store.trees.store_tree(caterpillar(60), name="cat", f=2)
            store.trees.store_tree(caterpillar(60), name="cat2", f=2)
            lca = QueryRequest.lca("fig1", "Lla", "Syn")
            store.query(lca, record=True)
            with statement_budget(0):
                store.query(lca)
            store.query(QueryRequest.clade("cat", "t3", "t9"))
            store.query(QueryRequest.lca_batch("cat", [("t1", "t50"), ("t2", "t3")]))
            store.query(QueryRequest.project("cat", "t1", "t7", "t30"))
            store.analyze(AnalyticsRequest.consensus("cat", "cat2"))
            store.analyze(AnalyticsRequest.compare("cat", "cat2"))

            handle = store.trees.open("cat")
            assert handle.node_by_name("t5").is_leaf
            assert handle.children(0) and handle.leaves()
            assert handle.leaf_names()
            assert random_sample_stored(handle, 3, np.random.default_rng(1))
            assert handle.time_frontier(1.0) is not None
            assert handle.fetch_tree()
            with pytest.raises(QueryError):
                handle.node_by_name("no such taxon")

            sequences = {name: "ACGT" for name in handle.leaf_names()[:5]}
            store.species.attach_sequences(handle, sequences)
            assert store.species.sequences_for(handle, sequences) == sequences
            assert store.species.delete_for_tree(handle) == 5

            (entry,) = store.history.recent()
            assert store.history.entry(entry.query_id) == entry
            assert store.history.recent(tree_name="fig1") == [entry]
            assert store.history.clear() == 1

            assert store.tree_count() == len(store.trees.list_trees()) == 3
            store.trees.delete_tree("cat2")
            assert all(report.ok for report in store.verify())

    executed = {normalize_sql(text) for _, text in recorded}
    catalogue = {normalize_sql(text) for text in ENTRIES.values()}
    assert executed - catalogue == set()
    assert catalogue - executed == set()
