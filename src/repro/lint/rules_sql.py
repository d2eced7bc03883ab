"""sql-interpolation: every statement a sink sends is a catalogue entry.

Every SQL statement the program sends is a named constant of
``storage/sql.py``, the catalogue, and the test suite has SQLite check
each entry there (tables, columns, ``INDEXED BY`` names, binding
counts and query plans; see ``tests/test_sql_catalogue.py``).  This
rule checks, on the AST alone, that nothing reaches the database
around the catalogue: the statement argument of every sink call
(:data:`SINK_METHODS`) must be

* ``sql.NAME``, a name the catalogue defines (``sql.A if c else sql.B``
  too);
* ``sql.in_list(sql.NAME, n)``, the one helper that widens an entry's
  ``IN (?)`` list;
* a ``for`` target over such an expression (a tuple entry); or
* a parameter of the enclosing function, which makes that function a
  sink as well: its callers are checked at that argument in turn
  (``CrimsonDatabase.execute``, ``StoredTree._scan``, local helpers).

A call whose statement argument is ``*args`` is a pure pass-through,
as in the sanitizer's connection proxy, and is skipped.

:func:`build_census` describes the catalogue for ``crimson lint
--sql-census``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.framework import Finding, Module, Project, Rule, ancestors

CATALOGUE_MODULE = "storage/sql.py"
CATALOGUE_ALIAS = "sql"
IN_LIST = "in_list"

#: Methods whose first argument is a statement.
SINK_METHODS = frozenset(
    {"execute", "executemany", "executescript", "query_one", "query_all"}
)

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def catalogue_names(project: Project) -> frozenset[str]:
    """The public constants ``storage/sql.py`` assigns at top level."""
    module = project.module(CATALOGUE_MODULE)
    if module is None:
        return frozenset()
    names: set[str] = set()
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names.update(
            target.id
            for target in targets
            if isinstance(target, ast.Name)
            and target.id.isupper()
            and not target.id.startswith("_")
        )
    return frozenset(names)


def _is_entry(expr: ast.expr, names: frozenset[str]) -> bool:
    if isinstance(expr, ast.IfExp):
        return _is_entry(expr.body, names) and _is_entry(expr.orelse, names)
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == CATALOGUE_ALIAS
        and expr.attr in names
    )


def _is_in_list(expr: ast.expr, names: frozenset[str]) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and isinstance(expr.func.value, ast.Name)
        and expr.func.value.id == CATALOGUE_ALIAS
        and expr.func.attr == IN_LIST
        and bool(expr.args)
        and _is_entry(expr.args[0], names)
    )


def _assigned(name: str, scope: ast.AST) -> Iterator[ast.AST]:
    """The parents of every binding of ``name`` inside ``scope``."""
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Store)
        ):
            yield getattr(node, "_crimson_parent", node)


def _accepted(argument: ast.expr, module: Module, names: frozenset[str]) -> bool:
    """A catalogue entry, an ``in_list`` of one, or a name bound only as
    a loop target over entries."""
    if _is_entry(argument, names) or _is_in_list(argument, names):
        return True
    if not isinstance(argument, ast.Name):
        return False
    scope = _enclosing_function(argument) or module.tree
    loops = list(_assigned(argument.id, scope))
    return bool(loops) and all(
        isinstance(loop, (ast.For, ast.comprehension))
        and _is_entry(loop.iter, names)
        for loop in loops
    )


def _forwarded(argument: ast.expr) -> tuple[str, int] | None:
    """(function name, argument position) when ``argument`` is an
    unassigned parameter of its enclosing function."""
    function = _enclosing_function(argument)
    if not isinstance(argument, ast.Name) or not isinstance(
        function, _FUNCTIONS
    ):
        return None
    if any(True for _ in _assigned(argument.id, function)):
        return None
    params = [
        arg.arg for arg in (*function.args.posonlyargs, *function.args.args)
    ]
    parent = getattr(function, "_crimson_parent", None)
    if isinstance(parent, ast.ClassDef) and params[:1] in (["self"], ["cls"]):
        params = params[1:]
    if argument.id not in params:
        return None
    return function.name, params.index(argument.id)


def _enclosing_function(
    node: ast.AST,
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for parent in ancestors(node):
        if isinstance(parent, _FUNCTIONS):
            return parent
    return None


def _describe(expr: ast.AST) -> str:
    text = ast.unparse(expr)
    return text if len(text) <= 60 else text[:57] + "..."


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _sink_arguments(
    module: Module, sinks: dict[str, set[int]]
) -> Iterator[tuple[ast.Call, ast.expr]]:
    """Every (call, argument) passing a statement to a sink; ``*args``
    pass-throughs are left out."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        positions = sinks.get(_callee(node), ())
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            continue
        for position in sorted(positions):
            if position < len(node.args):
                yield node, node.args[position]


class SqlInterpolation(Rule):
    """Statements come from the catalogue, never from built strings."""

    rule_id = "sql-interpolation"
    description = (
        "every statement reaching an execute/query sink is a name of the "
        "storage/sql.py catalogue (or its in_list helper), so no runtime "
        "value is ever spliced into SQL text"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        names = catalogue_names(project)
        # sink name -> argument positions that carry a statement; a
        # forwarding function joins with its parameter's position, and
        # the scan repeats until no sink is added.
        sinks: dict[str, set[int]] = {name: {0} for name in SINK_METHODS}
        findings: dict[tuple[str, int, str], Finding] = {}
        grew = True
        while grew:
            grew = False
            for module in project:
                for call, argument in _sink_arguments(module, sinks):
                    if _accepted(argument, module, names):
                        continue
                    forwarded = _forwarded(argument)
                    if forwarded is not None:
                        function, position = forwarded
                        positions = sinks.setdefault(function, set())
                        grew |= position not in positions
                        positions.add(position)
                        continue
                    method = _callee(call)
                    findings[(module.path, call.lineno, method)] = (
                        self.finding(
                            module.path,
                            call,
                            f"{method}() is sent {_describe(argument)!r}; "
                            "pass a catalogue name (sql.NAME) or "
                            "sql.in_list(sql.NAME, n)",
                        )
                    )
        yield from findings.values()


# ----------------------------------------------------------------------
# Statement census
# ----------------------------------------------------------------------

_WHITESPACE = re.compile(r"\s+")
_PLACEHOLDER_RUN = re.compile(r"\?(?:\s*,\s*\?)+")


def normalize_sql(text: str) -> str:
    """The census key of a statement: whitespace runs collapsed to one
    space and every comma-joined run of ``?`` to one ``?``, so an
    ``IN (?,?,?)`` fill and a multi-row ``VALUES`` list share the key
    of their catalogue entry whatever their length."""
    return _PLACEHOLDER_RUN.sub("?", _WHITESPACE.sub(" ", text).strip())


def build_census() -> dict:
    """The catalogue as JSON: each entry's normalized statement by name
    (a tuple's members as ``NAME[i]``) and the sorted distinct
    statements."""
    from repro.storage import sql

    entries = {name: normalize_sql(text) for name, text in sql.entries().items()}
    return {
        "version": 2,
        "entries": entries,
        "statements": sorted(set(entries.values())),
    }
