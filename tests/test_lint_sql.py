"""crimson-lint v2 self-tests: the sql-* and wire-* rule families.

Three layers, matching the ISSUE 8 acceptance bar:

- the real package is clean under every new rule and every SQL sink
  site resolves statically (no unresolved strings, no tainted values);
- the seeded fixture trees (``sql_bad``, and ``wire_drift`` for the
  error-details contract) trip every rule id with the expected
  message on the expected line;
- the static statement census agrees with the *runtime* statement
  recorder from ``storage/sanitize.py`` on the warm/cold smoke
  workload: every statement a real store executes must already be in
  the census, and a census built over the drifted fixture fails the
  same containment check.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

from repro.lint import default_root, lint_project, main
from repro.lint.framework import Project, run_rules
from repro.lint.rules_sql import (
    SqlInterpolation,
    SqlPlaceholders,
    SqlSchema,
    SqlSchemaSync,
    build_census,
    sql_sites,
)
from repro.lint.rules_wire import WireErrorDetails
from repro.lint.sqlgrammar import normalize_sql, parse_statement
from repro.storage import schema as schema_module
from repro.storage.api import AnalyticsRequest, QueryRequest
from repro.storage.sanitize import record_statements, statement_budget
from repro.storage.schema import (
    SHARD_TABLES,
    TABLE_COLUMNS,
    create_schema,
)
from repro.storage.store import CrimsonStore
from repro.trees.build import caterpillar, sample_tree

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

SQL = (SqlSchema(), SqlPlaceholders(), SqlInterpolation(), SqlSchemaSync())
WIRE = (WireErrorDetails(),)


def lint_fixture(name: str, rules):
    project, findings = lint_project(FIXTURES / name, rules)
    assert not project.broken, project.broken
    return findings


class TestRealPackageIsClean:
    def test_sql_and_wire_rules_have_no_findings(self):
        _, findings = lint_project(default_root(), SQL + WIRE)
        assert not findings, "\n".join(f.render() for f in findings)

    def test_every_sink_site_resolves_statically(self):
        project = Project.load(default_root())
        sites = sql_sites(project)
        assert len(sites) > 50  # the repo really does talk this much SQL
        unresolved = [s for s in sites if s.texts is None]
        assert not unresolved, [(s.path, s.line, s.unresolved)
                                for s in unresolved]
        tainted = [
            (site.path, site.line)
            for site in sites
            for value in site.texts
            if value.taints()
        ]
        assert not tainted, tainted


class TestSqlRules:
    def test_seeded_violations_are_found(self):
        findings = lint_fixture("sql_bad", SQL)
        by_rule = {}
        for finding in findings:
            by_rule.setdefault(finding.rule, []).append(finding)

        schema = by_rule.pop("sql-schema")
        assert [(f.path, f.line) for f in schema] == [
            ("storage/repo.py", 6),
            ("storage/repo.py", 9),
            ("storage/repo.py", 15),
        ]
        messages = " | ".join(f.message for f in schema)
        assert "column 'weight' does not exist" in messages
        assert "unknown table 'missing_table'" in messages
        assert "table 'trees' has no column 'nope'" in messages

        placeholders = by_rule.pop("sql-placeholders")
        assert [(f.path, f.line) for f in placeholders] == [
            ("storage/repo.py", 11)
        ]
        assert "2 '?' placeholder(s)" in placeholders[0].message
        assert "1 argument(s)" in placeholders[0].message

        interpolation = by_rule.pop("sql-interpolation")
        assert [(f.path, f.line) for f in interpolation] == [
            ("storage/repo.py", 13)
        ]
        assert "parameter 'name'" in interpolation[0].message

        sync = by_rule.pop("sql-schema-sync")
        assert all(f.path == "storage/schema.py" for f in sync)
        sync_messages = " | ".join(f.message for f in sync)
        assert "'ghosts'" in sync_messages  # declared but never created
        assert "'phantom'" in sync_messages or "SHARD_TABLES" in sync_messages
        assert not by_rule

    def test_clean_statements_pass(self, tmp_path):
        (tmp_path / "storage").mkdir()
        (tmp_path / "storage" / "schema.py").write_text(
            'TABLE_COLUMNS = {"trees": ("tree_id", "name")}\n'
            'DDL_STATEMENTS = (\n'
            '    "CREATE TABLE IF NOT EXISTS trees '
            '(tree_id INTEGER PRIMARY KEY, name TEXT)",\n'
            ')\n'
        )
        (tmp_path / "storage" / "repo.py").write_text(
            "def good(db, tree_id):\n"
            '    db.query_one("SELECT name FROM trees '
            'WHERE tree_id = ?", (tree_id,))\n'
        )
        _, findings = lint_project(tmp_path, SQL)
        assert not findings, "\n".join(f.render() for f in findings)


    def _trees_project(self, tmp_path, code: str):
        (tmp_path / "storage").mkdir()
        (tmp_path / "storage" / "schema.py").write_text(
            'TABLE_COLUMNS = {"trees": ("tree_id", "name")}\n'
            'DDL_STATEMENTS = (\n'
            '    "CREATE TABLE IF NOT EXISTS trees '
            '(tree_id INTEGER PRIMARY KEY, name TEXT)",\n'
            ')\n'
        )
        (tmp_path / "storage" / "repo.py").write_text(code)

    MULTI_ROW = (
        "ROWS = 3\n"
        'ROW = "(?, ?)"\n'
        'INTO = "INSERT INTO trees (tree_id, name) VALUES "\n'
        "MANY = INTO + (ROW + ', ') * (ROWS - 1) + ROW\n"
        "ONE = INTO + ROW\n"
    )

    def test_repeated_value_rows_keep_their_placeholder_count(
        self, tmp_path
    ):
        """``text * n`` with a constant ``n`` resolves to the repeated
        text, so a multi-row ``VALUES`` list is still counted."""
        self._trees_project(
            tmp_path,
            self.MULTI_ROW
            + "def good(db):\n"
            + '    db.execute(MANY, (1, "a", 2, "b", 3, "c"))\n'
            + "def bad(db):\n"
            + '    db.execute(MANY, (1, "a", 2, "b"))\n',
        )
        _, findings = lint_project(tmp_path, SQL)
        assert [(f.rule, f.line) for f in findings] == [
            ("sql-placeholders", 9)
        ]
        assert "6 '?' placeholder(s)" in findings[0].message
        assert "4 argument(s)" in findings[0].message

    def test_every_statement_a_forwarder_takes_is_analyzed(self, tmp_path):
        """A helper forwarding two statement parameters to two sinks
        yields a site for each, so both reach the census."""
        self._trees_project(
            tmp_path,
            self.MULTI_ROW
            + "def insert(db, many, one, flat, rows):\n"
            + "    db.execute(many, flat)\n"
            + "    db.executemany(one, rows)\n"
            + "def load(db, flat, rows):\n"
            + "    insert(db, MANY, ONE, flat, rows)\n",
        )
        census = build_census(Project.load(tmp_path))
        assert census["unresolved"] == []
        assert census["statements"] == [
            "INSERT INTO trees (tree_id, name) VALUES (?)",
            "INSERT INTO trees (tree_id, name) VALUES (?), (?), (?)",
        ]

    def test_indexed_by_names_an_index_not_a_column(self, tmp_path):
        info = parse_statement(
            "SELECT c.name FROM nodes AS c INDEXED BY idx_nodes_parent "
            "WHERE c.tree_id = ? AND c.parent_id = ?"
        )
        assert info.tables == {"nodes"}
        assert info.aliases == {"c": "nodes"}
        assert info.index_hints == [("nodes", "idx_nodes_parent")]
        assert info.column_refs == [
            ("c", "name"), ("c", "tree_id"), ("c", "parent_id"),
        ]

        (tmp_path / "storage").mkdir()
        (tmp_path / "storage" / "schema.py").write_text(
            'TABLE_COLUMNS = {"t": ("k", "v"), "u": ("k",)}\n'
            "DDL_STATEMENTS = (\n"
            '    "CREATE TABLE IF NOT EXISTS t (k INTEGER, v TEXT)",\n'
            '    "CREATE TABLE IF NOT EXISTS u (k INTEGER)",\n'
            '    "CREATE INDEX IF NOT EXISTS idx_t_v ON t(k, v)",\n'
            ")\n"
            "SHARD_DDL_STATEMENTS = ()\n"
        )
        (tmp_path / "storage" / "repo.py").write_text(
            "def lookups(db):\n"
            '    db.query_all("SELECT k FROM t INDEXED BY idx_t_v '
            'WHERE k = ? AND v = ?", (1, 2))\n'
            '    db.query_all("SELECT k FROM t INDEXED BY idx_gone '
            'WHERE k = ?", (1,))\n'
            '    db.query_all("SELECT k FROM u INDEXED BY idx_t_v '
            'WHERE k = ?", (1,))\n'
        )
        _, findings = lint_project(tmp_path, SQL)
        assert [(f.rule, f.line) for f in findings] == [
            ("sql-schema", 3),
            ("sql-schema", 4),
        ]
        assert "'idx_gone'" in findings[0].message
        assert "on table 'u'" in findings[1].message

    def test_a_table_rebuild_is_checked_against_its_scratch_table(
        self, tmp_path
    ):
        """The copy a rebuild creates is a known table to the statements
        that fill and rename it, ``RENAME TO`` names a table, and a
        statement reaching ``StoredTree._scan`` is checked too."""
        (tmp_path / "storage").mkdir()
        (tmp_path / "storage" / "schema.py").write_text(
            'TABLE_COLUMNS = {"t": ("k", "v")}\n'
            "DDL_STATEMENTS = (\n"
            '    "CREATE TABLE IF NOT EXISTS t (k INTEGER, v TEXT)",\n'
            ")\n"
            "SHARD_DDL_STATEMENTS = ()\n"
        )
        (tmp_path / "storage" / "migrate.py").write_text(
            "def rebuild(db, handle):\n"
            '    db.execute("CREATE TABLE t_new (k INTEGER, v TEXT)")\n'
            '    db.execute("INSERT INTO t_new SELECT * FROM t")\n'
            '    db.execute("DROP TABLE t")\n'
            '    db.execute("ALTER TABLE t_new RENAME TO t")\n'
            '    db.execute("INSERT INTO t_old SELECT * FROM t")\n'
            '    db.execute("SELECT w FROM t_new")\n'
            '    handle._scan("SELECT * FROM t INDEXED BY idx_gone", ())\n'
        )
        _, findings = lint_project(tmp_path, SQL)
        assert [(f.rule, f.line) for f in findings] == [
            ("sql-schema", 6),
            ("sql-schema", 7),
            ("sql-schema", 8),
        ]
        assert "'t_old'" in findings[0].message
        assert "'w'" in findings[1].message
        assert "'idx_gone'" in findings[2].message

    def test_a_column_alias_is_known_to_its_statement(self, tmp_path):
        """``expr AS name`` defines a column the enclosing query may
        read; a table alias is not one, and a partial index's ``WHERE``
        is checked against the indexed table."""
        info = parse_statement(
            "SELECT CASE WHEN big THEN k END FROM "
            "(SELECT k, v > 1 AS big FROM t AS a)"
        )
        assert info.column_aliases == {"big"}
        assert info.aliases == {"a": "t"}
        (tmp_path / "storage").mkdir()
        (tmp_path / "storage" / "schema.py").write_text(
            'TABLE_COLUMNS = {"t": ("k", "v")}\n'
            "DDL_STATEMENTS = (\n"
            '    "CREATE TABLE IF NOT EXISTS t (k INTEGER, v TEXT)",\n'
            '    "CREATE INDEX IF NOT EXISTS idx_t_v ON t(k, v) '
            'WHERE v IS NOT NULL",\n'
            ")\n"
            "SHARD_DDL_STATEMENTS = ()\n"
        )
        (tmp_path / "storage" / "repo.py").write_text(
            "def reads(db):\n"
            '    db.execute("SELECT SUM(big) FROM (SELECT v > 1 AS big FROM t)")\n'
            '    db.execute("SELECT SUM(big) FROM (SELECT v > 1 AS bog FROM t)")\n'
            '    db.execute("CREATE INDEX idx_t_w ON t(k) WHERE w IS NOT NULL")\n'
        )
        _, findings = lint_project(tmp_path, SQL)
        assert [(f.rule, f.line) for f in findings] == [
            ("sql-schema", 3),
            ("sql-schema", 4),
        ]
        assert "'big'" in findings[0].message
        assert "'w'" in findings[1].message


class TestWireRules:
    def test_seeded_violations_are_found(self):
        findings = lint_fixture("wire_drift", WIRE)
        rules = sorted(f.rule for f in findings)
        assert rules == [
            "wire-error-details",
            "wire-error-details",
            "wire-error-details",
        ]
        details = " | ".join(
            f.message for f in findings if f.rule == "wire-error-details"
        )
        assert "DriftError defines wire_details but no apply_wire_details" \
            in details
        assert "DriftError.__init__ requires ['code']" in details
        assert "HalfError defines apply_wire_details but no wire_details" \
            in details


class TestStatementCensus:
    def test_census_shape_and_coverage(self):
        census = build_census(Project.load(default_root()))
        assert census["version"] == 1
        assert census["unresolved"] == []
        assert census["sites"] and census["statements"]
        # Site statements are drawn from the same normalized pool.
        pool = set(census["statements"])
        for site in census["sites"]:
            assert site["statements"], site
            assert set(site["statements"]) <= pool
        # Every parsed statement is one the grammar understands.
        for text in census["statements"]:
            assert parse_statement(text).kind != "other" or \
                text.upper().startswith("PRAGMA")
        # Schema version 4 dropped the canonical flag and its index; no
        # statement, the upgrade from version 3 included, names them.
        for text in census["statements"]:
            assert "is_canonical" not in text
            assert "idx_inodes_orig" not in text

    def test_runtime_smoke_workload_is_contained_in_the_census(
        self, sanitized, tmp_path
    ):
        census = build_census(Project.load(default_root()))
        known = set(census["statements"])
        path = str(tmp_path / "census.db")
        with record_statements() as recorded:
            with CrimsonStore.open(path, readers=2) as store:
                store.trees.store_tree(sample_tree(), name="fig1", f=2)
                store.trees.store_tree(caterpillar(30), name="cat", f=2)
                lca = QueryRequest.lca("fig1", "Lla", "Syn")
                store.query(lca)  # cold: hits SQL
                store.analyze(AnalyticsRequest.consensus("fig1", "fig1"))
                with statement_budget(0):  # warm: no statements at all
                    store.query(lca)
        assert recorded, "the sanitizer recorded nothing — is it active?"
        executed = {normalize_sql(sql) for _, sql in recorded}
        missing = sorted(executed - known)
        assert not missing, (
            "statements executed at runtime but absent from the static "
            f"census: {missing}"
        )

    def test_drifted_fixture_census_fails_the_containment_check(self):
        census = build_census(Project.load(default_root()))
        known = set(census["statements"])
        drifted = build_census(Project.load(FIXTURES / "sql_bad"))
        assert "SELECT * FROM missing_table" in drifted["statements"]
        assert not set(drifted["statements"]) <= known


class TestSchemaStructuredData:
    def _table_info(self, connection, table):
        rows = connection.execute(
            f"PRAGMA table_info({table})"
        ).fetchall()
        return tuple(row[1] for row in rows)

    def test_table_columns_match_the_primary_schema(self):
        connection = sqlite3.connect(":memory:")
        try:
            create_schema(connection)
            live = {
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
                if not row[0].startswith("sqlite_")
            }
            assert live == set(TABLE_COLUMNS)
            for table, columns in TABLE_COLUMNS.items():
                assert self._table_info(connection, table) == columns, table
        finally:
            connection.close()

    def test_shard_tables_match_the_shard_schema(self):
        connection = sqlite3.connect(":memory:")
        try:
            create_schema(connection, shard=True)
            live = {
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
                if not row[0].startswith("sqlite_")
            }
            assert live == set(SHARD_TABLES)
            for table in SHARD_TABLES:
                assert self._table_info(connection, table) == \
                    TABLE_COLUMNS[table], table
        finally:
            connection.close()

    def test_shard_tables_are_a_subset_of_table_columns(self):
        assert set(SHARD_TABLES) <= set(TABLE_COLUMNS)
        assert schema_module.SHARD_TABLES is SHARD_TABLES


class TestOutputFormats:
    def test_github_format_emits_error_annotations(self, capsys):
        code = main(
            [
                "--root", str(FIXTURES / "sql_bad"),
                "--format", "github",
                "--rules", "sql-schema,sql-placeholders",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        # Every line but the trailing human summary is an annotation.
        *annotations, summary = [line for line in out.splitlines() if line]
        assert "4 problem(s)" in summary
        assert annotations, out
        for line in annotations:
            assert line.startswith("::error file="), line
            assert ",line=" in line and "::" in line[8:]
        assert any("sql-schema" in line for line in annotations)

    def test_github_format_on_clean_tree_emits_no_annotations(self, capsys):
        assert main(["--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert "no problems" in out

    def test_sql_census_flag_writes_the_census_file(self, capsys, tmp_path):
        out_path = tmp_path / "census.json"
        assert main(["--sql-census", str(out_path)]) == 0
        capsys.readouterr()
        census = json.loads(out_path.read_text())
        assert census["version"] == 1
        assert census["statements"]
        assert census["unresolved"] == []

    def test_crimson_lint_forwards_the_census_flag(self, capsys, tmp_path):
        from repro.cli.main import main as crimson

        out_path = tmp_path / "cli-census.json"
        assert crimson(["lint", "--sql-census", str(out_path)]) == 0
        capsys.readouterr()
        assert json.loads(out_path.read_text())["statements"]
