"""Typed-error discipline: everything crossing the session boundary is
a :class:`~repro.errors.CrimsonError`.

The session protocol's contract (PR 4) is that both transports raise
the *same typed* errors, and the wire codec re-raises them client-side
by class name.  That only holds while (a) public API modules raise
registered ``CrimsonError`` subclasses, and (b) nothing silently
swallows the escape hatch ``except Exception``.  These rules check both
statically.  The wire registry is built from ``errors.py`` at import,
and ``tests/test_error_roundtrip.py`` checks that no subclass lives
anywhere else.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import Finding, Project, Rule

ERRORS_MODULE = "errors.py"

PUBLIC_API_MODULES = ("storage/api.py", "storage/store.py", "storage/wire.py")
PUBLIC_API_PREFIXES = ("server/", "analytics/", "admission/")

#: Functions that *return* a typed CrimsonError (so ``raise f(...)`` is
#: as typed as ``raise Cls(...)``).
ERROR_FACTORIES = frozenset({"decode_error"})

ROOT_ERROR = "CrimsonError"


def error_registry(project: Project) -> dict[str, int]:
    """CrimsonError subclass names declared in ``errors.py`` (+ lines).

    Resolved transitively within the module: a class is registered when
    any base (by name) is the root error or an already-registered class.
    """
    module = project.module(ERRORS_MODULE)
    if module is None:
        return {}
    classes: dict[str, list[str]] = {}
    lines: dict[str, int] = {}
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            bases = [
                base.id for base in node.bases if isinstance(base, ast.Name)
            ]
            classes[node.name] = bases
            lines[node.name] = node.lineno
    registered: set[str] = {ROOT_ERROR} if ROOT_ERROR in classes else set()
    changed = True
    while changed:
        changed = False
        for name, bases in classes.items():
            if name not in registered and any(b in registered for b in bases):
                registered.add(name)
                changed = True
    return {name: lines[name] for name in registered}


def _raised_callee(node: ast.Raise) -> ast.expr | None:
    """The class/function being raised: ``X`` in ``raise X(...)``."""
    exc = node.exc
    if isinstance(exc, ast.Call):
        return exc.func
    return exc


def _callee_name(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class TypedRaises(Rule):
    """Public API modules raise registered CrimsonError subclasses only."""

    rule_id = "errors-typed-raise"
    description = (
        "raise statements in storage/api.py, store.py, wire.py, "
        "server/* and analytics/* must raise CrimsonError subclasses "
        "(or re-raise), so every failure crossing the session boundary "
        "decodes to the same type client-side"
    )

    def _in_scope(self, path: str) -> bool:
        return path in PUBLIC_API_MODULES or path.startswith(
            PUBLIC_API_PREFIXES
        )

    def check(self, project: Project) -> Iterator[Finding]:
        registry = set(error_registry(project)) | {ROOT_ERROR}
        for module in project:
            if not self._in_scope(module.path):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Raise):
                    continue
                if node.exc is None:
                    continue  # bare re-raise keeps the original type
                name = _callee_name(_raised_callee(node))
                if name in registry or name in ERROR_FACTORIES:
                    continue
                yield self.finding(
                    module.path,
                    node,
                    f"raises {name or 'a dynamic value'!r}, which is not "
                    "a registered CrimsonError subclass; sessions would "
                    "surface it untyped (add the class to repro.errors "
                    "or raise an existing kind)",
                )


class SwallowedExceptions(Rule):
    """No ``except Exception:`` / bare ``except:`` without a raise."""

    rule_id = "errors-no-swallow"
    description = (
        "a handler catching Exception/BaseException (or everything) "
        "must contain a raise; a swallowing backstop hides bugs the "
        "typed-error discipline exists to surface"
    )

    _BROAD = ("Exception", "BaseException")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                caught = node.type
                name = None
                if isinstance(caught, ast.Attribute):
                    name = caught.attr
                elif isinstance(caught, ast.Name):
                    name = caught.id
                if caught is not None and name not in self._BROAD:
                    continue
                if any(
                    isinstance(child, ast.Raise)
                    for child in ast.walk(
                        ast.Module(body=node.body, type_ignores=[])
                    )
                ):
                    continue
                label = name or "everything"
                yield self.finding(
                    module.path,
                    node,
                    f"handler catches {label} without re-raising; narrow "
                    "it to a typed error, or justify it with "
                    "`# crimson: allow[errors-no-swallow] <why>`",
                )
