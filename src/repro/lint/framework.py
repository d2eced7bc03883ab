"""The crimson-lint core: project model, rule protocol, runner, output.

crimson-lint is a project-specific static analyzer over the ``repro``
package: it parses every module with the stdlib :mod:`ast`, hands the
parsed project to a set of :class:`Rule` objects, and reports the
invariant violations they find.  Rules encode the *unwritten* rules the
PR review cycles have been enforcing by hand — sqlite3 stays behind
``CrimsonDatabase``, errors crossing the session boundary are typed,
pooled readers never escape their thread, resources are released — so
the invariants break a CI job instead of a user.

Suppressions
------------
A finding is suppressed by a comment on the same line::

    except Exception as error:  # crimson: allow[errors-no-swallow] reason

The bracket takes one rule id or a comma-separated list; everything
after the bracket is a free-form justification (write one — the next
reader of the suppression is a reviewer asking "why is this exempt?").

Adding a rule
-------------
Subclass :class:`Rule`, give it a kebab-case ``rule_id`` and a
``description``, implement :meth:`Rule.check` as a generator of
:class:`Finding` objects over the whole :class:`Project`, and register
the class in :data:`repro.lint.ALL_RULES`.  Rules never modify the
project and never import the code they inspect (the one deliberate
exception: nothing — even the error-registry rule works off the AST, so
fixture trees lint without being importable).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

_ALLOW = re.compile(r"#\s*crimson:\s*allow\[([^\]]*)\]")

_PARSE_RULE = "parse"
"""Pseudo rule id carried by findings about unparseable files."""


@dataclass(frozen=True)
class Finding:
    """One invariant violation at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


class Module:
    """One parsed source file plus its per-line suppressions."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source)
        _annotate_parents(self.tree)
        #: line number -> set of rule ids allowed on that line
        self.allowed: dict[int, set[str]] = {}
        for number, text in enumerate(source.splitlines(), start=1):
            match = _ALLOW.search(text)
            if match is not None:
                rules = {
                    part.strip()
                    for part in match.group(1).split(",")
                    if part.strip()
                }
                self.allowed.setdefault(number, set()).update(rules)

    def allows(self, line: int, rule_id: str) -> bool:
        return rule_id in self.allowed.get(line, ())


class Project:
    """Every parsed module of one package tree, keyed by relative path.

    ``root`` is the directory of a ``repro``-shaped package: module
    paths are recorded relative to it with ``/`` separators (so the
    rules address ``storage/database.py`` the same way on every
    platform, and fixture trees in the test suite mirror the layout).
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.modules: dict[str, Module] = {}
        #: Files the parser rejected (reported as ``parse`` findings).
        self.broken: list[Finding] = []

    @classmethod
    def load(cls, root: Path) -> "Project":
        project = cls(root)
        for file in sorted(root.rglob("*.py")):
            if "__pycache__" in file.parts:
                continue
            path = file.relative_to(root).as_posix()
            try:
                source = file.read_text(encoding="utf-8")
                project.modules[path] = Module(path, source)
            except (SyntaxError, ValueError, OSError) as error:
                line = getattr(error, "lineno", None) or 1
                project.broken.append(
                    Finding(_PARSE_RULE, path, line, f"cannot parse: {error}")
                )
        return project

    def module(self, path: str) -> Module | None:
        return self.modules.get(path)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules.values())


class Rule:
    """Base class of every crimson-lint rule."""

    rule_id: str = ""
    description: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, path: str, node: ast.AST | int, message: str
    ) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(self.rule_id, path, line, message)


# ----------------------------------------------------------------------
# AST helpers shared by the rule modules
# ----------------------------------------------------------------------

def _annotate_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._crimson_parent = node  # type: ignore[attr-defined]


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Walk from ``node``'s parent up to the module root."""
    current = getattr(node, "_crimson_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_crimson_parent", None)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attribute(node: ast.AST) -> str | None:
    """``x`` when ``node`` is an attribute rooted at ``self`` (``self.x``,
    ``self.x.y`` reports the first hop), else ``None``."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and chain:
        return chain[-1]
    return None


def imported_modules(module: Module) -> Iterator[tuple[str, int]]:
    """Every imported module name with its line.

    ``import a.b`` yields ``a.b``; ``from a.b import c`` yields both
    ``a.b`` and ``a.b.c`` (the imported name may itself be a module —
    the caller matches whichever granularity it cares about).
    Relative imports are yielded with their leading dots intact.
    """
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            yield prefix, node.lineno
            for alias in node.names:
                yield f"{prefix}.{alias.name}", node.lineno


# ----------------------------------------------------------------------
# Runner and output
# ----------------------------------------------------------------------

def run_rules(
    project: Project, rules: Iterable[Rule]
) -> list[Finding]:
    """Apply ``rules`` to ``project``; return unsuppressed findings."""
    findings = list(project.broken)
    for rule in rules:
        findings.extend(rule.check(project))
    kept = []
    # dict.fromkeys: one report per (rule, path, line, message) even when
    # two import forms of one statement both match a rule.
    for finding in dict.fromkeys(findings):
        module = project.module(finding.path)
        if module is not None and module.allows(finding.line, finding.rule):
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept


def render_text(
    project: Project, rules: Iterable[Rule], findings: list[Finding]
) -> str:
    lines = [finding.render() for finding in findings]
    rule_count = len(list(rules))
    summary = (
        f"{len(findings)} problem(s) in "
        f"{len({f.path for f in findings})} file(s); "
        if findings
        else "no problems; "
    )
    summary += (
        f"checked {len(project.modules)} file(s) "
        f"against {rule_count} rule(s)"
    )
    lines.append(summary)
    return "\n".join(lines)


def _github_escape(text: str) -> str:
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def render_github(
    project: Project, rules: Iterable[Rule], findings: list[Finding]
) -> str:
    """GitHub Actions workflow commands: one ``::error`` per finding.

    Paths are emitted relative to the working directory when the
    project root lies under it (the CI checkout layout), so the
    annotations attach to the right files in the PR view.
    """
    try:
        prefix = Path(project.root).resolve().relative_to(Path.cwd())
    except ValueError:
        prefix = Path(project.root)
    lines = [
        "::error file={file},line={line},title={title}::{message}".format(
            file=(prefix / finding.path).as_posix(),
            line=finding.line,
            title=_github_escape(finding.rule),
            message=_github_escape(finding.message),
        )
        for finding in findings
    ]
    lines.append(render_text(project, rules, findings).splitlines()[-1])
    return "\n".join(lines)


def render_json(
    project: Project, rules: Iterable[Rule], findings: list[Finding]
) -> str:
    return json.dumps(
        {
            "root": str(project.root),
            "checked_files": len(project.modules),
            "rules": [rule.rule_id for rule in rules],
            "findings": [finding.to_json() for finding in findings],
        },
        indent=2,
        sort_keys=True,
    )
