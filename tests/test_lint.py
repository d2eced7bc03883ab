"""crimson-lint self-tests: the repo is clean, seeded violations are not.

The fixture trees under ``tests/fixtures/lint/`` are minimal
``repro``-shaped packages, each violating one rule family on purpose
(see the README there).  The bar: the linter exits 0 on the real
package and non-zero on every fixture.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, default_root, lint_project, main
from repro.lint.framework import Module, Project, run_rules
from repro.lint.rules_concurrency import (
    LockOrder,
    ReaderEscape,
    SameThreadGuard,
)
from repro.lint.rules_errors import SwallowedExceptions, TypedRaises
from repro.lint.rules_layering import (
    NoCliImports,
    ReadOnlyImports,
    SqliteLayering,
)
from repro.lint.rules_resources import ManagedResources

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

LAYERING = (SqliteLayering(), ReadOnlyImports(), NoCliImports())
ERRORS = (TypedRaises(), SwallowedExceptions())
CONCURRENCY = (ReaderEscape(), LockOrder(), SameThreadGuard())


def lint_fixture(name: str, rules):
    project, findings = lint_project(FIXTURES / name, rules)
    assert not project.broken, project.broken
    return findings


class TestRepoIsClean:
    def test_the_real_package_has_no_findings(self):
        project, findings = lint_project(default_root())
        assert not findings, "\n".join(f.render() for f in findings)
        # Sanity: this really was the repro package, fully loaded.
        assert "storage/database.py" in project.modules
        assert len(project.modules) > 50

    def test_default_root_is_the_repro_package(self):
        import repro

        assert default_root() == Path(repro.__file__).resolve().parent

    def test_rule_ids_are_unique_and_kebab_case(self):
        ids = [rule.rule_id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))
        for rule_id in ids:
            assert rule_id == rule_id.lower() and " " not in rule_id
        assert len(ids) == 10


class TestLayeringRules:
    def test_seeded_violations_are_found(self):
        findings = lint_fixture("layering_bad", LAYERING)
        by_rule = {}
        for finding in findings:
            by_rule.setdefault(finding.rule, []).append(finding)
        sqlite = by_rule.pop("layering-sqlite3")
        assert {(f.path, f.line) for f in sqlite} == {
            ("storage/engine.py", 1),
            ("storage/engine.py", 6),
            ("server/handler.py", 1),
        }
        read_only = by_rule.pop("layering-read-only")
        assert [(f.path, f.line) for f in read_only] == [
            ("analytics/stats.py", 1)
        ]
        no_cli = by_rule.pop("layering-no-cli")
        assert [(f.path, f.line) for f in no_cli] == [("trees/helpers.py", 1)]
        assert not by_rule

    def test_database_module_itself_is_exempt(self):
        project = Project(FIXTURES / "layering_bad")
        module = Module("storage/database.py", "import sqlite3\n")
        project.modules[module.path] = module
        assert run_rules(project, (SqliteLayering(),)) == []


class TestErrorRules:
    def test_seeded_violations_are_found(self):
        findings = lint_fixture("errors_bad", ERRORS)
        rules = sorted(f.rule for f in findings)
        assert rules == ["errors-no-swallow", "errors-typed-raise"]
        typed = next(f for f in findings if f.rule == "errors-typed-raise")
        assert typed.path == "server/views.py" and "ValueError" in typed.message

    def test_real_package_raise_and_registry_shapes_pass(self):
        project, findings = lint_project(default_root(), ERRORS)
        assert not findings, "\n".join(f.render() for f in findings)


class TestConcurrencyRules:
    def test_seeded_violations_are_found(self):
        findings = lint_fixture("concurrency_bad", CONCURRENCY)
        rules = sorted(f.rule for f in findings)
        assert rules == [
            "concurrency-lock-order",
            "concurrency-lock-order",
            "concurrency-reader-escape",
            "concurrency-same-thread",
        ]
        lock_order = [f for f in findings if f.rule == "concurrency-lock-order"]
        messages = " | ".join(f.message for f in lock_order)
        assert "Deadlocker" in messages and "'_a', '_b'" in messages
        assert "Reacquire" in messages and "'_guard'" in messages
        escape = next(
            f for f in findings if f.rule == "concurrency-reader-escape"
        )
        assert escape.path == "storage/registry.py"

    def test_reentrant_and_ordered_locks_pass(self):
        source = (
            "import threading\n"
            "\n"
            "\n"
            "class Ordered:\n"
            "    def __init__(self):\n"
            "        self._outer = threading.Lock()\n"
            "        self._inner = threading.Lock()\n"
            "        self._rlock = threading.RLock()\n"
            "\n"
            "    def work(self):\n"
            "        with self._outer:\n"
            "            with self._inner:\n"
            "                pass\n"
            "\n"
            "    def nested_reentrant(self):\n"
            "        with self._rlock:\n"
            "            self.helper()\n"
            "\n"
            "    def helper(self):\n"
            "        with self._rlock:\n"
            "            pass\n"
        )
        project = Project(Path("."))
        project.modules["storage/ok.py"] = Module("storage/ok.py", source)
        assert run_rules(project, (LockOrder(),)) == []


class TestResourceRule:
    def test_unmanaged_calls_are_found_and_managed_shapes_pass(self):
        findings = lint_fixture("resources_bad", (ManagedResources(),))
        assert [(f.path, f.line) for f in findings] == [
            ("storage/raw.py", 6),
            ("storage/raw.py", 11),
        ]


class TestSuppressions:
    def test_allow_comment_silences_the_named_rules(self):
        findings = lint_fixture(
            "suppressed", (SqliteLayering(), ManagedResources())
        )
        assert findings == []

    def test_allow_comment_parses_comma_separated_ids(self):
        module = Module(
            "storage/x.py",
            "import sqlite3  # crimson: allow[rule-a, rule-b] because\n",
        )
        assert module.allows(1, "rule-a")
        assert module.allows(1, "rule-b")
        assert not module.allows(1, "rule-c")
        assert not module.allows(2, "rule-a")

    def test_suppression_does_not_leak_to_other_lines(self):
        findings = lint_fixture("layering_bad", (SqliteLayering(),))
        assert findings  # same violation, no allow comment -> reported


class TestRunnerAndOutput:
    def test_unparseable_file_is_a_parse_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def (\n")
        # No rules: only the parse pseudo-findings can appear.
        project, findings = lint_project(tmp_path, ())
        assert [f.rule for f in findings] == ["parse"]
        assert findings[0].path == "broken.py"
        # And a full run still reports it alongside the rule findings.
        _, full = lint_project(tmp_path)
        assert "parse" in {f.rule for f in full}

    def test_main_exits_nonzero_on_fixture_and_emits_json(self, capsys):
        code = main(
            [
                "--root",
                str(FIXTURES / "layering_bad"),
                "--format",
                "json",
                "--rules",
                "layering-sqlite3",
            ]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["rules"] == ["layering-sqlite3"]
        assert {f["rule"] for f in report["findings"]} == {"layering-sqlite3"}
        assert all(f["line"] >= 1 for f in report["findings"])

    def test_main_exits_zero_on_the_real_package(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "no problems" in out

    def test_main_rejects_unknown_rule_ids(self, capsys):
        with pytest.raises(SystemExit):
            main(["--rules", "no-such-rule"])

    def test_list_rules_prints_all_ids(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def test_python_dash_m_entry_point(self):
        # The child does not inherit pytest's ``pythonpath`` setting, so
        # a clean checkout must hand it ``src`` explicitly.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).parents[1] / "src"),
                          env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert "layering-sqlite3" in result.stdout


class TestCliIntegration:
    def test_crimson_lint_subcommand(self, capsys):
        from repro.cli.main import main as crimson

        assert crimson(["lint"]) == 0
        assert "no problems" in capsys.readouterr().out
        assert (
            crimson(
                ["lint", "--root", str(FIXTURES / "errors_bad"), "--format",
                 "json"]
            )
            == 1
        )
        report = json.loads(capsys.readouterr().out)
        assert report["findings"]

    def test_crimson_lint_never_creates_a_database(self, tmp_path, capsys):
        from repro.cli.main import main as crimson

        db = tmp_path / "untouched.db"
        assert crimson(["--db", str(db), "lint"]) == 0
        capsys.readouterr()
        assert not db.exists()
