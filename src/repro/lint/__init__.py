"""crimson-lint: the project's own AST-based invariant checker.

Run it as ``crimson lint`` or ``python -m repro.lint``.  The rules and
the framework live next to the code they check on purpose: an invariant
of *this* codebase (sqlite3 behind CrimsonDatabase, typed errors over
the wire, reader thread-affinity, released resources) is enforced
here, not in a reviewer's memory.

See :mod:`repro.lint.framework` for the suppression syntax and how to
add a rule.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.framework import (
    Finding,
    Project,
    Rule,
    render_github,
    render_json,
    render_text,
    run_rules,
)
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
from repro.lint.rules_sql import SqlInterpolation, build_census

__all__ = [
    "ALL_RULES",
    "Finding",
    "Project",
    "Rule",
    "build_census",
    "default_root",
    "lint_project",
    "main",
]

#: Every rule, in report order.  Register new rules here.
ALL_RULES: tuple[Rule, ...] = (
    SqliteLayering(),
    ReadOnlyImports(),
    NoCliImports(),
    TypedRaises(),
    SwallowedExceptions(),
    ReaderEscape(),
    LockOrder(),
    SameThreadGuard(),
    ManagedResources(),
    SqlInterpolation(),
)


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parent.parent


def lint_project(
    root: Path, rules: Sequence[Rule] = ALL_RULES
) -> tuple[Project, list[Finding]]:
    project = Project.load(root)
    return project, run_rules(project, rules)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crimson lint",
        description="check the repro package against its own invariants",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package directory to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (github: Actions ::error annotations)",
    )
    parser.add_argument(
        "--sql-census",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the SQL catalogue's statements as JSON",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule ids and descriptions, then exit",
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}: {rule.description}")
        return 0

    rules: Sequence[Rule] = ALL_RULES
    if options.rules is not None:
        wanted = {part.strip() for part in options.rules.split(",")}
        known = {rule.rule_id for rule in ALL_RULES}
        unknown = sorted(wanted - known)
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")
        rules = [rule for rule in ALL_RULES if rule.rule_id in wanted]

    root = options.root if options.root is not None else default_root()
    if not root.is_dir():
        parser.error(f"not a directory: {root}")
    project, findings = lint_project(root, rules)
    if options.sql_census is not None:
        import json as _json

        options.sql_census.write_text(
            _json.dumps(build_census(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
    if options.format == "json":
        print(render_json(project, rules, findings))
    elif options.format == "github":
        print(render_github(project, rules, findings))
    else:
        print(render_text(project, rules, findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
