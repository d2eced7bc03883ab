"""crimson-lint's SQL rule and the catalogue checker on seeded faults.

- The real package is clean: every statement a sink receives is a
  catalogue name, and the rule follows statements through the helpers
  that forward them.
- Every case of the ``sql_bad`` fixture is caught: the f-string
  ``DELETE`` by ``sql-interpolation``, and each bad entry of the
  fixture's catalogue by SQLite, when the catalogue checker of
  ``test_sql_catalogue`` prepares it on the primary schema.
- ``crimson lint --sql-census`` writes the catalogue's statements.
"""

from __future__ import annotations

import json
import runpy
import sqlite3
from pathlib import Path

import pytest

from repro.lint import default_root, lint_project, main
from repro.lint.rules_sql import SqlInterpolation, build_census, normalize_sql
from repro.storage import sql
from repro.storage.schema import create_schema
from test_sql_catalogue import prepare_error

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

SQL = (SqlInterpolation(),)


def lint_fixture(name: str, rules):
    project, findings = lint_project(FIXTURES / name, rules)
    assert not project.broken, project.broken
    return findings


class TestRealPackageIsClean:
    def test_sql_rule_has_no_findings(self):
        _, findings = lint_project(default_root(), SQL)
        assert not findings, "\n".join(f.render() for f in findings)


class TestSqlInterpolation:
    def test_the_spliced_statement_is_found(self):
        findings = lint_fixture("sql_bad", SQL)
        assert [(f.path, f.line) for f in findings] == [("storage/repo.py", 12)]
        assert "DELETE FROM trees" in findings[0].message

    def test_statements_are_followed_through_forwarding_helpers(
        self, tmp_path
    ):
        (tmp_path / "storage").mkdir()
        (tmp_path / "storage" / "sql.py").write_text(
            'ONE = "SELECT 1"\nPAIR = ("SELECT 1", "SELECT 2")\n'
        )
        (tmp_path / "storage" / "repo.py").write_text(
            "from repro.storage import sql\n"  # 1
            "def insert(db, many, rows):\n"
            "    db.execute(many, rows)\n"
            "def load(db, rows, name):\n"
            "    insert(db, sql.ONE, rows)\n"  # 5
            "    insert(db, 'SELECT ' + name, rows)\n"
            "class Handle:\n"
            "    def _scan(self, statement, parameters):\n"
            "        return self.db.query_all(statement, parameters)\n"
            "    def good(self, flag):\n"  # 10
            "        return self._scan(sql.ONE if flag else sql.ONE, ())\n"
            "    def bad(self, text):\n"
            "        return self._scan(text.upper(), ())\n"
            "def loops(db, proxy, args):\n"
            "    for statement in sql.PAIR:\n"  # 15
            "        db.execute(statement)\n"
            "    for other in (sql.ONE, 'SELECT 3'):\n"
            "        db.execute(other)\n"
            "    db.query_all(sql.in_list(sql.ONE, 3))\n"
            "    db.query_all(sql.in_list('SELECT ?', 3))\n"  # 20
            "    db.execute(sql.NOPE)\n"
            "    proxy.execute(*args)\n"
            "def reassigned(db, text):\n"
            "    text = text.strip()\n"
            "    db.execute(text)\n"  # 25
        )
        _, findings = lint_project(tmp_path, SQL)
        assert [f.line for f in findings] == [6, 13, 18, 20, 21, 25]


class TestCatalogueChecker:
    """The fixture's bad entries, each rejected by SQLite."""

    @pytest.fixture(scope="class")
    def primary(self):
        connection = sqlite3.connect(":memory:")
        create_schema(connection)
        connection.commit()
        yield connection
        connection.close()

    @pytest.fixture(scope="class")
    def bad(self):
        return runpy.run_path(str(FIXTURES / "sql_bad" / "storage" / "sql.py"))

    @pytest.mark.parametrize(
        "name, error",
        [
            ("UNKNOWN_COLUMN", "OperationalError: no such column: weight"),
            ("UNKNOWN_TABLE", "OperationalError: no such table: missing_table"),
            (
                "UNKNOWN_QUALIFIED_COLUMN",
                "OperationalError: no such column: t.nope",
            ),
        ],
    )
    def test_unknown_names_fail_to_prepare(self, primary, bad, name, error):
        assert prepare_error(primary, bad[name]) == error

    def test_a_wrong_binding_count_fails(self, primary, bad):
        # As its call site sends it: two ``?`` and one value.
        assert prepare_error(primary, bad["TWO_PLACEHOLDERS"]) is None
        assert prepare_error(primary, bad["TWO_PLACEHOLDERS"], (1,)) == (
            "ProgrammingError: Incorrect number of bindings supplied. The "
            "current statement uses 2, and there are 1 supplied."
        )

    def test_an_unknown_index_hint_fails_to_prepare(self, primary):
        assert prepare_error(
            primary, "SELECT * FROM nodes INDEXED BY idx_gone WHERE tree_id = ?"
        ) == "OperationalError: no such index: idx_gone"


class TestStatementCensus:
    def test_census_is_the_catalogue(self):
        census = build_census()
        assert census["version"] == 2
        assert census["entries"] == {
            name: normalize_sql(text) for name, text in sql.entries().items()
        }
        assert census["statements"] == sorted(set(census["entries"].values()))
        # Schema version 4 dropped the canonical flag and its index; no
        # statement, the upgrade from version 3 included, names them.
        for text in census["statements"]:
            assert "is_canonical" not in text
            assert "idx_inodes_orig" not in text

    def test_normalization_collapses_placeholder_runs(self):
        assert normalize_sql(sql.in_list(sql.NODES_BY_IDS, 4)) == \
            sql.NODES_BY_IDS
        assert normalize_sql(sql.INSERT_NODE_CHUNK).endswith(
            "VALUES " + ", ".join(["(?)"] * sql.CHUNK_ROWS)
        )


class TestOutputFormats:
    def test_github_format_emits_error_annotations(self, capsys):
        code = main(
            [
                "--root", str(FIXTURES / "sql_bad"),
                "--format", "github",
                "--rules", "sql-interpolation",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        # Every line but the trailing human summary is an annotation.
        *annotations, summary = [line for line in out.splitlines() if line]
        assert "1 problem(s)" in summary
        assert annotations, out
        for line in annotations:
            assert line.startswith("::error file="), line
            assert ",line=" in line and "::" in line[8:]
        assert any("sql-interpolation" in line for line in annotations)

    def test_github_format_on_clean_tree_emits_no_annotations(self, capsys):
        assert main(["--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert "no problems" in out

    def test_sql_census_flag_writes_the_census_file(self, capsys, tmp_path):
        out_path = tmp_path / "census.json"
        assert main(["--sql-census", str(out_path)]) == 0
        capsys.readouterr()
        assert json.loads(out_path.read_text()) == build_census()

    def test_crimson_lint_forwards_the_census_flag(self, capsys, tmp_path):
        from repro.cli.main import main as crimson

        out_path = tmp_path / "cli-census.json"
        assert crimson(["lint", "--sql-census", str(out_path)]) == 0
        capsys.readouterr()
        assert json.loads(out_path.read_text())["statements"]
