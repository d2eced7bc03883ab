"""crimson-lint self-tests: the repo is clean, seeded violations are not.

The fixture trees under ``tests/fixtures/lint/`` are minimal
``repro``-shaped packages, each violating one rule family on purpose
(see the README there).  The acceptance bar from ISSUE 6: the linter
exits 0 on the real package and non-zero on every fixture, and the
protocol-exhaustiveness rule names every surface the unwired
``frontier`` operation is missing from.
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
from repro.lint.rules_errors import (
    RegistrySync,
    SwallowedExceptions,
    TypedRaises,
)
from repro.lint.rules_layering import (
    NoCliImports,
    ReadOnlyImports,
    SqliteLayering,
)
from repro.lint.rules_protocol import ProtocolExhaustiveness
from repro.lint.rules_resources import ManagedResources
from repro.lint.rules_sql import (
    SqlInterpolation,
    SqlPlaceholders,
    SqlSchema,
    SqlSchemaSync,
    build_census,
    sql_sites,
)
from repro.lint.rules_wire import (
    WireErrorDetails,
    WireFieldDrift,
    WireRoundtrip,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

LAYERING = (SqliteLayering(), ReadOnlyImports(), NoCliImports())
ERRORS = (TypedRaises(), SwallowedExceptions(), RegistrySync())
CONCURRENCY = (ReaderEscape(), LockOrder(), SameThreadGuard())
SQL = (SqlSchema(), SqlPlaceholders(), SqlInterpolation(), SqlSchemaSync())
WIRE = (WireFieldDrift(), WireRoundtrip(), WireErrorDetails())


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
        assert len(ids) == 18


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
        assert rules == [
            "errors-no-swallow",
            "errors-registry",
            "errors-registry",
            "errors-registry",
            "errors-registry",
            "errors-typed-raise",
        ]
        typed = next(f for f in findings if f.rule == "errors-typed-raise")
        assert typed.path == "server/views.py" and "ValueError" in typed.message
        registry_messages = " | ".join(
            f.message for f in findings if f.rule == "errors-registry"
        )
        assert "'QueryError'" in registry_messages  # missing from wire
        assert "'ResourceError'" in registry_messages  # PR 7 kind, missing
        assert "'ParseError'" in registry_messages  # unknown to errors.py
        assert "'AnalyticsError'" in registry_messages  # defined elsewhere

    def test_real_package_raise_and_registry_shapes_pass(self):
        project, findings = lint_project(default_root(), ERRORS)
        assert not findings, "\n".join(f.render() for f in findings)


class TestProtocolExhaustiveness:
    def test_unwired_operation_is_flagged_on_every_surface_by_name(self):
        findings = lint_fixture(
            "protocol_unwired", (ProtocolExhaustiveness(),)
        )
        frontier = [f for f in findings if "'frontier'" in f.message]
        assert {f.path for f in frontier} == {
            "storage/api.py", "storage/store.py", "cli/main.py"
        }
        messages = " | ".join(f.message for f in frontier)
        assert "no QueryRequest constructor" in messages
        assert "no branch in CrimsonStore._execute" in messages
        assert "no CLI subcommand 'frontier'" in messages

    def test_half_wired_estimate_verb_is_flagged_by_name(self):
        # ``estimate`` is in the session protocol, VERBS, the server
        # dispatch, and LocalSession — but RemoteSession and the CLI
        # were forgotten.  Exactly those two surfaces must be named.
        findings = lint_fixture(
            "protocol_unwired", (ProtocolExhaustiveness(),)
        )
        estimate = [f for f in findings if "'estimate'" in f.message]
        assert {f.path for f in estimate} == {
            "server/client.py", "cli/main.py"
        }
        messages = " | ".join(f.message for f in estimate)
        assert "never sent by RemoteSession" in messages
        assert "does not implement session method 'estimate'" in messages
        assert "no CLI subcommand 'estimate'" in messages
        # And nothing else is flagged: the two seeded gaps are the lot.
        assert len(findings) == len(frontier := [
            f for f in findings if "'frontier'" in f.message
        ]) + len(estimate), "\n".join(f.render() for f in findings)
        assert len(frontier) == 3 and len(estimate) == 3

    def test_half_wired_stats_verb_is_flagged_by_name(self):
        # The observability PR's failure mode: ``stats`` in the session
        # protocol, VERBS, the server dispatch, and LocalSession — but
        # no RemoteSession method and no CLI subcommand.  Exactly those
        # surfaces must be named, and nothing else.
        findings = lint_fixture("stats_unwired", (ProtocolExhaustiveness(),))
        assert {f.path for f in findings} == {
            "server/client.py", "cli/main.py"
        }
        messages = " | ".join(f.message for f in findings)
        assert "wire verb 'stats' is never sent by RemoteSession" in messages
        assert "does not implement session method 'stats'" in messages
        assert "session verb 'stats' has no CLI subcommand 'stats'" in messages
        assert len(findings) == 3, "\n".join(f.render() for f in findings)

    def test_half_wired_health_verb_is_flagged_by_name(self):
        # The monitoring PR's failure mode: ``health`` declared in the
        # session protocol, VERBS, and LocalSession — but no server
        # dispatch branch, no RemoteSession method, and no CLI
        # subcommand.  Every missing surface must be named, and
        # nothing else (``stats`` is fully wired here).
        findings = lint_fixture("health_unwired", (ProtocolExhaustiveness(),))
        assert {f.path for f in findings} == {
            "server/server.py", "server/client.py", "cli/main.py"
        }
        messages = " | ".join(f.message for f in findings)
        assert (
            "wire verb 'health' has no branch in CrimsonServer.dispatch"
            in messages
        )
        assert "wire verb 'health' is never sent by RemoteSession" in messages
        assert "does not implement session method 'health'" in messages
        assert (
            "session verb 'health' has no CLI subcommand 'health'" in messages
        )
        assert len(findings) == 4, "\n".join(f.render() for f in findings)

    def test_missing_surface_file_is_reported(self, tmp_path):
        (tmp_path / "storage").mkdir()
        (tmp_path / "storage" / "api.py").write_text("OPERATIONS = ()\n")
        _, findings = lint_project(tmp_path, (ProtocolExhaustiveness(),))
        missing = {f.path for f in findings}
        assert "server/protocol.py" in missing
        assert "cli/main.py" in missing


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
