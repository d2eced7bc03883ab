"""sql-* rules: schema-aware static analysis of every SQL statement.

The family works in two stages.  First, :func:`sql_sites` finds every
call whose receiver method is in :data:`SINK_METHODS` (``execute``,
``executemany``, ``executescript``, ``query_one``, ``query_all``) and
uses the constant-propagation evaluator in :mod:`repro.lint.framework`
to resolve the statement argument to a set of possible SQL strings —
following module constants, local assignments, f-strings, loop targets
over literal tuples, local DDL-builder functions, and nested
forwarding helpers (a local ``def one(sql, *params)`` that passes its
argument through to a sink).  Wrapper methods that merely forward a
``sql`` parameter (``CrimsonDatabase.execute``, the sanitizer proxies)
are skipped: their *callers* are the analyzed sites.

Second, each resolved statement is parsed with
:mod:`repro.lint.sqlgrammar` and checked against the schema declared
in ``storage/schema.py`` — the ``TABLE_COLUMNS`` literal, itself
cross-checked against the DDL tuples by :class:`SqlSchemaSync`:

* ``sql-schema``        — referenced tables and columns must exist,
  and every ``INDEXED BY`` index must be created on its table;
* ``sql-placeholders``  — ``?`` counts must match statically-known
  argument tuple lengths;
* ``sql-interpolation`` — no runtime value (parameter, attribute) may
  be interpolated into statement text;
* ``sql-schema-sync``   — ``TABLE_COLUMNS``/``SHARD_TABLES`` must
  agree with the parsed ``DDL_STATEMENTS``/``SHARD_DDL_STATEMENTS``.

:func:`build_census` reuses the same extraction to emit the
machine-readable statement census behind ``crimson lint --sql-census``,
which the test suite cross-validates against the runtime statement log
of ``storage/sanitize.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.framework import (
    AbstractString,
    AbstractTuple,
    Finding,
    Module,
    Project,
    Rule,
    ancestors,
    call_scope,
    module_scope,
    scope_of,
    tuple_literal,
)
from repro.lint.sqlgrammar import (
    normalize_sql,
    parse_create_index,
    parse_create_table,
    parse_statement,
)

SCHEMA_MODULE = "storage/schema.py"

#: method name -> index of the parameters argument (None: no parameter
#: tuple to count — executescript takes none, executemany takes a
#: *sequence* of tuples whose lengths are rarely static).
#: ``_scan`` is ``StoredTree``'s row-building wrapper over ``query_all``.
SINK_METHODS: dict[str, int | None] = {
    "execute": 1,
    "query_one": 1,
    "query_all": 1,
    "_scan": 1,
    "executemany": None,
    "executescript": None,
}


# ----------------------------------------------------------------------
# Schema extraction
# ----------------------------------------------------------------------

def _dict_of_string_tuples(
    module: Module, name: str
) -> dict[str, tuple[str, ...]] | None:
    """A top-level ``NAME = {"t": ("c", ...), ...}`` literal."""
    for node in module.tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if not (
            isinstance(target, ast.Name)
            and target.id == name
            and isinstance(value, ast.Dict)
        ):
            continue
        out: dict[str, tuple[str, ...]] = {}
        for key, columns in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                return None
            if not isinstance(columns, (ast.Tuple, ast.List)):
                return None
            names: list[str] = []
            for element in columns.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None
                names.append(element.value)
            out[key.value] = tuple(names)
        return out
    return None


def _ddl_texts(module: Module, constant: str) -> list[str] | None:
    """The statement texts of the DDL tuple ``constant``."""
    scope = module_scope(module)
    values = scope._name_values(constant, 0)
    if values is None:
        return None
    texts: list[str] = []
    for value in values:
        if not isinstance(value, AbstractTuple):
            return None
        for item in value.items:
            if item is None:
                return None
            for statement in item:
                if not isinstance(statement, AbstractString):
                    return None
                text = statement.render()
                if text is None:
                    return None
                texts.append(text)
    return texts


def _ddl_tables(
    module: Module, constant: str
) -> dict[str, tuple[str, ...]] | None:
    """Tables defined by the CREATE TABLE statements in ``constant``."""
    texts = _ddl_texts(module, constant)
    if texts is None:
        return None
    return dict(
        parsed for text in texts if (parsed := parse_create_table(text))
    )


def _ddl_indexes(module: Module) -> dict[str, str] | None:
    """Index name -> table over both DDL tuples (primary and shard);
    ``None`` when either cannot be resolved, so hints go unchecked."""
    indexes: dict[str, str] = {}
    for constant in ("DDL_STATEMENTS", "SHARD_DDL_STATEMENTS"):
        texts = _ddl_texts(module, constant)
        if texts is None:
            return None
        indexes.update(
            parsed for text in texts if (parsed := parse_create_index(text))
        )
    return indexes


@dataclass
class ProjectSchema:
    """Everything the sql rules know about the declared database schema."""

    declared: dict[str, tuple[str, ...]] | None
    ddl: dict[str, tuple[str, ...]] | None
    shard_ddl: dict[str, tuple[str, ...]] | None
    shard_declared: tuple[str, ...] | None
    #: index name -> indexed table, from the CREATE INDEX statements
    indexes: dict[str, str] | None = None

    @property
    def tables(self) -> dict[str, tuple[str, ...]] | None:
        """The schema statements are checked against."""
        return self.declared if self.declared is not None else self.ddl


def project_schema(project: Project) -> ProjectSchema | None:
    module = project.module(SCHEMA_MODULE)
    if module is None:
        return None
    return ProjectSchema(
        declared=_dict_of_string_tuples(module, "TABLE_COLUMNS"),
        ddl=_ddl_tables(module, "DDL_STATEMENTS"),
        shard_ddl=_ddl_tables(module, "SHARD_DDL_STATEMENTS"),
        shard_declared=tuple_literal(module, "SHARD_TABLES"),
        indexes=_ddl_indexes(module),
    )


# ----------------------------------------------------------------------
# Sink extraction
# ----------------------------------------------------------------------

@dataclass
class SqlSite:
    """One call site through which SQL text reaches the database."""

    path: str
    line: int
    method: str
    #: possible statement values; ``None`` = could not resolve at all
    texts: tuple[AbstractString, ...] | None
    #: possible argument-tuple lengths; ``None`` = unknown / uncounted
    argument_counts: set[int] | None
    #: human description of the unresolved statement expression
    unresolved: str | None = None


def _enclosing_function(
    node: ast.AST,
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for parent in ancestors(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return parent
    return None


def _is_method(funcdef: ast.AST) -> bool:
    parent = getattr(funcdef, "_crimson_parent", None)
    return isinstance(parent, ast.ClassDef)


def _argument_counts(
    scope, call: ast.Call, method: str
) -> set[int] | None:
    index = SINK_METHODS[method]
    if index is None:
        return None
    expr: ast.expr | None = None
    if len(call.args) > index:
        expr = call.args[index]
    else:
        for keyword in call.keywords:
            if keyword.arg == "parameters":
                expr = keyword.value
    if expr is None:
        return {0}
    return scope.tuple_lengths(expr)


def _module_sites(module: Module) -> list[SqlSite]:
    sites: list[SqlSite] = []
    #: forwarding helpers found in this module: funcdef -> its inner
    #: sink calls and their method names (a helper may forward several
    #: statement parameters)
    forwarders: dict[ast.FunctionDef, list[tuple[ast.Call, str]]] = {}

    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SINK_METHODS
        ):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Starred):
            # ``proxy.execute(*args)`` — a pure pass-through wrapper;
            # its callers are the analyzed sites.
            continue
        scope = scope_of(module, node)
        enclosing = _enclosing_function(node)
        if (
            isinstance(first, ast.Name)
            and enclosing is not None
            and scope.node is enclosing
            and scope.is_parameter(first.id)
        ):
            # The statement is this function's own parameter: a
            # forwarding wrapper.  Methods are skipped (their callers
            # hit the sink-attribute net themselves); plain local
            # functions are inlined at each call site below.
            if isinstance(enclosing, ast.FunctionDef) and not _is_method(
                enclosing
            ):
                forwarders.setdefault(enclosing, []).append(
                    (node, node.func.attr)
                )
            continue
        texts = scope.string_values(first)
        sites.append(
            SqlSite(
                path=module.path,
                line=node.lineno,
                method=node.func.attr,
                texts=tuple(sorted(texts, key=_sort_key)) if texts else None,
                argument_counts=_argument_counts(scope, node, node.func.attr),
                unresolved=None if texts else _describe(first),
            )
        )

    if forwarders:
        by_name = {fd.name: fd for fd in forwarders}
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in by_name
            ):
                continue
            caller_scope = scope_of(module, node)
            resolved = caller_scope.function(node.func.id)
            if resolved is None or resolved[1] is not by_name[node.func.id]:
                continue
            owner, funcdef = resolved
            inlined = call_scope(caller_scope, owner, funcdef, node)
            if inlined is None:
                continue
            for sink, method in forwarders[funcdef]:
                texts = inlined.string_values(sink.args[0])
                sites.append(
                    SqlSite(
                        path=module.path,
                        line=node.lineno,
                        method=method,
                        texts=(
                            tuple(sorted(texts, key=_sort_key))
                            if texts
                            else None
                        ),
                        argument_counts=_argument_counts(
                            inlined, sink, method
                        ),
                        unresolved=(
                            None if texts else _describe(node.args[0])
                            if node.args
                            else "<no statement argument>"
                        ),
                    )
                )
    return sites


def _sort_key(value: AbstractString) -> str:
    return value.render() or repr(value.parts)


def _describe(expr: ast.AST) -> str:
    try:
        text = ast.unparse(expr)
    except (ValueError, RecursionError):  # pragma: no cover - deep trees
        text = type(expr).__name__
    return text if len(text) <= 60 else text[:57] + "..."


def sql_sites(project: Project) -> list[SqlSite]:
    """Every SQL call site of the project (cached per project)."""
    cached = getattr(project, "_crimson_sql_sites", None)
    if cached is None:
        cached = [
            site
            for module in project
            for site in _module_sites(module)
        ]
        project._crimson_sql_sites = cached  # type: ignore[attr-defined]
    return cached


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

class SqlSchema(Rule):
    """Every referenced table, column and hinted index must exist in the DDL."""

    rule_id = "sql-schema"
    description = (
        "SQL statements only reference tables, columns and INDEXED BY "
        "indexes declared in storage/schema.py (shard-file schemas "
        "included)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        schema = project_schema(project)
        if schema is None or schema.tables is None:
            return
        tables = dict(schema.tables)
        for name, columns in (schema.shard_ddl or {}).items():
            tables.setdefault(name, columns)
        # A table the program creates at one of its own sites (the
        # scratch copy a table rebuild renames into place) is known to
        # the statements that fill and rename it.
        for site in sql_sites(project):
            for value in site.texts or ():
                parsed = parse_create_table(value.render() or "")
                if parsed is not None:
                    tables.setdefault(*parsed)
        for site in sql_sites(project):
            if site.texts is None:
                continue
            for value in site.texts:
                text = value.render()
                if text is None:
                    continue
                info = parse_statement(text)
                if not info.checkable or info.kind == "create-table":
                    continue
                known = [t for t in info.tables if t in tables]
                for table in sorted(info.tables):
                    if table not in tables:
                        yield self.finding(
                            site.path,
                            site.line,
                            f"statement references unknown table "
                            f"{table!r}: {info.normalized[:80]}",
                        )
                if len(known) != len(info.tables):
                    continue  # unknown table: column checks would lie
                for table, index in info.index_hints:
                    if (
                        schema.indexes is not None
                        and schema.indexes.get(index) != table
                    ):
                        yield self.finding(
                            site.path,
                            site.line,
                            f"INDEXED BY names index {index!r}, which "
                            f"storage/schema.py does not create on table "
                            f"{table!r}",
                        )
                visible = set(info.column_aliases)
                for table in known:
                    visible.update(tables[table])
                for qualifier, column in info.column_refs:
                    if qualifier is not None:
                        target = info.aliases.get(qualifier, qualifier)
                        if target not in tables:
                            yield self.finding(
                                site.path,
                                site.line,
                                f"qualifier {qualifier!r} does not "
                                f"resolve to a known table in: "
                                f"{info.normalized[:80]}",
                            )
                            continue
                        if column != "*" and column not in tables[target]:
                            yield self.finding(
                                site.path,
                                site.line,
                                f"column {qualifier}.{column} does not "
                                f"exist (table {target!r} has no column "
                                f"{column!r})",
                            )
                    elif column != "*" and column not in visible:
                        yield self.finding(
                            site.path,
                            site.line,
                            f"column {column!r} does not exist in any "
                            f"referenced table "
                            f"({', '.join(sorted(info.tables)) or 'none'})",
                        )


class SqlPlaceholders(Rule):
    """``?`` counts must match statically-known argument tuples."""

    rule_id = "sql-placeholders"
    description = (
        "the number of '?' placeholders in a statement matches the "
        "length of its statically-known argument tuple"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for site in sql_sites(project):
            if site.texts is None or site.argument_counts is None:
                continue
            for value in site.texts:
                if value.has_placeholder_run():
                    continue  # variable-length IN (...) fill
                text = value.render()
                if text is None:
                    continue
                info = parse_statement(text)
                if info.kind in ("pragma", "other"):
                    continue
                if info.placeholders not in site.argument_counts:
                    expected = ", ".join(
                        str(n) for n in sorted(site.argument_counts)
                    )
                    yield self.finding(
                        site.path,
                        site.line,
                        f"statement carries {info.placeholders} '?' "
                        f"placeholder(s) but is executed with {expected} "
                        f"argument(s): {info.normalized[:80]}",
                    )


class SqlInterpolation(Rule):
    """No runtime value is ever interpolated into statement text."""

    rule_id = "sql-interpolation"
    description = (
        "SQL statement text never embeds a runtime value (parameter or "
        "attribute) — bind it with a '?' placeholder instead"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for site in sql_sites(project):
            if site.texts is None:
                yield self.finding(
                    site.path,
                    site.line,
                    f"cannot statically resolve SQL statement "
                    f"({site.unresolved}); build it from literals and "
                    f"constants so the sql-* rules can check it",
                )
                continue
            for value in site.texts:
                taints = value.taints()
                if taints:
                    sources = ", ".join(
                        sorted({t.source for t in taints})
                    )
                    yield self.finding(
                        site.path,
                        site.line,
                        f"runtime value interpolated into SQL text "
                        f"({sources}); bind it with a '?' placeholder",
                    )


class SqlSchemaSync(Rule):
    """``TABLE_COLUMNS`` and the DDL tuples describe the same schema."""

    rule_id = "sql-schema-sync"
    description = (
        "the structured TABLE_COLUMNS/SHARD_TABLES declarations in "
        "storage/schema.py match the parsed DDL statement tuples"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        module = project.module(SCHEMA_MODULE)
        schema = project_schema(project)
        if module is None or schema is None:
            return
        if schema.declared is None or schema.ddl is None:
            return
        for table in sorted(set(schema.declared) - set(schema.ddl)):
            yield self.finding(
                module.path,
                1,
                f"TABLE_COLUMNS declares table {table!r} that no "
                f"DDL_STATEMENTS entry creates",
            )
        for table in sorted(set(schema.ddl) - set(schema.declared)):
            yield self.finding(
                module.path,
                1,
                f"DDL_STATEMENTS creates table {table!r} missing from "
                f"TABLE_COLUMNS",
            )
        for table in sorted(set(schema.declared) & set(schema.ddl)):
            if set(schema.declared[table]) != set(schema.ddl[table]):
                missing = set(schema.ddl[table]) - set(schema.declared[table])
                extra = set(schema.declared[table]) - set(schema.ddl[table])
                detail = "; ".join(
                    part
                    for part in (
                        f"missing {sorted(missing)}" if missing else "",
                        f"extra {sorted(extra)}" if extra else "",
                    )
                    if part
                )
                yield self.finding(
                    module.path,
                    1,
                    f"TABLE_COLUMNS[{table!r}] disagrees with the DDL: "
                    f"{detail}",
                )
        if schema.shard_ddl is not None:
            for table, columns in sorted(schema.shard_ddl.items()):
                if table not in schema.declared:
                    yield self.finding(
                        module.path,
                        1,
                        f"shard DDL creates table {table!r} missing from "
                        f"TABLE_COLUMNS",
                    )
                elif set(columns) - set(schema.declared[table]):
                    unknown = sorted(
                        set(columns) - set(schema.declared[table])
                    )
                    yield self.finding(
                        module.path,
                        1,
                        f"shard DDL table {table!r} carries columns "
                        f"{unknown} not in TABLE_COLUMNS",
                    )
            if schema.shard_declared is not None and set(
                schema.shard_declared
            ) != set(schema.shard_ddl):
                yield self.finding(
                    module.path,
                    1,
                    f"SHARD_TABLES {sorted(schema.shard_declared)} does "
                    f"not match the shard DDL's tables "
                    f"{sorted(schema.shard_ddl)}",
                )


# ----------------------------------------------------------------------
# Statement census
# ----------------------------------------------------------------------

def build_census(project: Project) -> dict:
    """The machine-readable call-site -> statements census.

    ``statements`` is the sorted union of every normalized statement
    the project can execute; the test suite asserts the runtime
    statement log (``storage/sanitize.py``) stays inside it.
    """
    site_entries = []
    statements: set[str] = set()
    unresolved = []
    for site in sql_sites(project):
        if site.texts is None:
            unresolved.append(
                {
                    "path": site.path,
                    "line": site.line,
                    "expression": site.unresolved,
                }
            )
            continue
        normalized = sorted(
            {
                normalize_sql(text)
                for value in site.texts
                if (text := value.render()) is not None
            }
        )
        statements.update(normalized)
        site_entries.append(
            {
                "path": site.path,
                "line": site.line,
                "method": site.method,
                "statements": normalized,
            }
        )
    site_entries.sort(key=lambda e: (e["path"], e["line"]))
    return {
        "version": 1,
        "root": str(project.root),
        "sites": site_entries,
        "unresolved": unresolved,
        "statements": sorted(statements),
    }
