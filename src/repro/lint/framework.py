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


def tuple_literal(module: Module, name: str) -> tuple[str, ...] | None:
    """The string elements of a top-level ``NAME = ("a", "b", ...)``."""
    for node in module.tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if (
            isinstance(target, ast.Name)
            and target.id == name
            and isinstance(value, (ast.Tuple, ast.List))
        ):
            items = []
            for element in value.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None
                items.append(element.value)
            return tuple(items)
    return None


# ----------------------------------------------------------------------
# Constant propagation / dataflow evaluation
#
# The sql-* rules need to know, for every expression that reaches an
# ``execute``-family call, the *set of strings it can evaluate to* —
# without importing the code.  The evaluator below is a small abstract
# interpreter over the AST: literals, module constants, local variable
# assignments, f-strings, ``str.format``, ``+`` concatenation, loop
# targets over literal tuples, and depth-limited calls to local helper
# functions all resolve to concrete strings; anything fed by a runtime
# value (a parameter, an attribute) resolves to a *tainted* string that
# names its source.  Placeholder runs built with
# ``",".join("?" for _ in xs)`` become a dedicated marker so a batched
# ``IN (?, ?, ...)`` statement normalizes to the same census key
# regardless of runtime batch size.
# ----------------------------------------------------------------------


class _PlaceholderRun:
    """Marker part: a comma-joined run of ``?`` of runtime length."""

    def __repr__(self) -> str:
        return "<?-run>"


PLACEHOLDER_RUN = _PlaceholderRun()


@dataclass(frozen=True)
class Taint:
    """A string part fed by a runtime value the analyzer cannot prove."""

    source: str

    def __repr__(self) -> str:
        return f"<taint {self.source}>"


@dataclass(frozen=True)
class AbstractString:
    """One possible value of a string expression.

    ``parts`` interleaves literal ``str`` segments with
    :data:`PLACEHOLDER_RUN` and :class:`Taint` markers.
    """

    parts: tuple[object, ...]

    def taints(self) -> tuple[Taint, ...]:
        return tuple(p for p in self.parts if isinstance(p, Taint))

    def has_placeholder_run(self) -> bool:
        return any(p is PLACEHOLDER_RUN for p in self.parts)

    def render(self) -> str | None:
        """The concrete text (runs render as one ``?``); None if tainted."""
        out: list[str] = []
        for part in self.parts:
            if isinstance(part, str):
                out.append(part)
            elif part is PLACEHOLDER_RUN:
                out.append("?")
            else:
                return None
        return "".join(out)


@dataclass(frozen=True)
class AbstractTuple:
    """One possible shape of a tuple/list expression.

    Item value-sets may be ``None`` (unknown item) — the *length* is
    still exact, which is all the placeholder-count check needs.
    """

    items: tuple[object, ...]


_MAX_VALUES = 64
_MAX_CALL_DEPTH = 3

_FORMAT_FIELD = re.compile(r"\{([^{}]*)\}")


def _concat_strings(a: AbstractString, b: AbstractString) -> AbstractString:
    parts = list(a.parts)
    if (
        parts
        and b.parts
        and isinstance(parts[-1], str)
        and isinstance(b.parts[0], str)
    ):
        parts[-1] = parts[-1] + b.parts[0]
        parts.extend(b.parts[1:])
    else:
        parts.extend(b.parts)
    return AbstractString(tuple(parts))


def _is_placeholder_join(call: ast.Call) -> bool:
    """``",".join("?" for _ in xs)`` (and friends) — a ``?`` run."""
    func = call.func
    if not (
        isinstance(func, ast.Attribute)
        and func.attr == "join"
        and isinstance(func.value, ast.Constant)
        and isinstance(func.value.value, str)
        and func.value.value.strip() in ("", ",")
    ):
        return False
    if len(call.args) != 1:
        return False
    arg = call.args[0]
    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
        element = arg.elt
        return (
            isinstance(element, ast.Constant)
            and element.value == "?"
        )
    return False


def _scope_nodes(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Every node lexically inside ``body``, without entering nested
    function/class/lambda scopes (the nested def itself is yielded so
    it can be registered as a callable of this scope)."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


class Scope:
    """A lazy constant-propagation environment for one lexical scope.

    Name lookups union over every assignment to the name in this scope
    (assignments, ``for`` targets, comprehension generators), falling
    back to the parent scope — so closure variables resolve — and
    finally to a :class:`Taint` for function parameters.  ``overrides``
    pre-binds names to already-computed value sets (used to inline
    calls to local forwarding helpers).
    """

    def __init__(
        self,
        module: Module,
        node: ast.AST,
        parent: "Scope | None" = None,
        overrides: dict[str, frozenset | None] | None = None,
    ) -> None:
        self.module = module
        self.node = node
        self.parent = parent
        self._overrides = dict(overrides or {})
        self._bindings: dict[str, list[tuple[str, ast.AST | None]]] = {}
        self._functions: dict[str, ast.FunctionDef] = {}
        self._params: set[str] = set()
        self._stack: set[str] = set()
        self._collect()

    # -- construction --------------------------------------------------

    def _collect(self) -> None:
        if isinstance(self.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = self.node.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
            ):
                self._params.add(arg.arg)
            if args.vararg is not None:
                self._params.add(args.vararg.arg)
            if args.kwarg is not None:
                self._params.add(args.kwarg.arg)
            body = self.node.body
        else:
            body = getattr(self.node, "body", [])
        for node in _scope_nodes(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(node, ast.FunctionDef):
                    self._functions[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._bind(target.id, ("expr", node.value))
                    else:
                        for name_node in ast.walk(target):
                            if isinstance(name_node, ast.Name):
                                self._bind(name_node.id, ("opaque", None))
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value is not None:
                    self._bind(node.target.id, ("expr", node.value))
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    self._bind(node.target.id, ("opaque", None))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if isinstance(node.target, ast.Name):
                    self._bind(node.target.id, ("iter", node.iter))
                else:
                    for name_node in ast.walk(node.target):
                        if isinstance(name_node, ast.Name):
                            self._bind(name_node.id, ("opaque", None))
            elif isinstance(node, ast.comprehension):
                if isinstance(node.target, ast.Name):
                    self._bind(node.target.id, ("iter", node.iter))
                else:
                    for name_node in ast.walk(node.target):
                        if isinstance(name_node, ast.Name):
                            self._bind(name_node.id, ("opaque", None))
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    for name_node in ast.walk(node.optional_vars):
                        if isinstance(name_node, ast.Name):
                            self._bind(name_node.id, ("opaque", None))

    def _bind(self, name: str, binding: tuple[str, ast.AST | None]) -> None:
        self._bindings.setdefault(name, []).append(binding)

    # -- name resolution -----------------------------------------------

    def function(self, name: str) -> "tuple[Scope, ast.FunctionDef] | None":
        scope: Scope | None = self
        while scope is not None:
            funcdef = scope._functions.get(name)
            if funcdef is not None:
                return scope, funcdef
            scope = scope.parent
        return None

    def _name_values(self, name: str, depth: int) -> frozenset | None:
        if name in self._overrides:
            return self._overrides[name]
        bindings = self._bindings.get(name)
        if bindings is not None:
            if name in self._stack:
                return None
            self._stack.add(name)
            try:
                values: set = set()
                for kind, target in bindings:
                    if kind == "opaque":
                        return None
                    assert target is not None
                    if kind == "expr":
                        sub = self.values(target, depth)
                    else:  # "iter"
                        sub = self._iterated(target, depth)
                    if sub is None:
                        return None
                    values.update(sub)
                    if len(values) > _MAX_VALUES:
                        return None
                return frozenset(values)
            finally:
                self._stack.discard(name)
        if name in self._params:
            return frozenset(
                {AbstractString((Taint(f"parameter {name!r}"),))}
            )
        if self.parent is not None:
            return self.parent._name_values(name, depth)
        return None

    def _iterated(self, expr: ast.AST, depth: int) -> frozenset | None:
        """Union of the elements of every tuple ``expr`` can be."""
        sources = self.values(expr, depth)
        if sources is None:
            return None
        values: set = set()
        for value in sources:
            if not isinstance(value, AbstractTuple):
                return None
            for item in value.items:
                if item is None:
                    return None
                values.update(item)
        if len(values) > _MAX_VALUES:
            return None
        return frozenset(values)

    # -- evaluation ----------------------------------------------------

    def values(self, expr: ast.AST, depth: int = 0) -> frozenset | None:
        """Every :class:`AbstractString`/:class:`AbstractTuple` value
        ``expr`` can take, or ``None`` when the set is unknown."""
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, str):
                return frozenset({AbstractString((expr.value,))})
            if isinstance(expr.value, bool) or expr.value is None:
                return None
            if isinstance(expr.value, (int, float)):
                return frozenset({AbstractString((str(expr.value),))})
            return None
        if isinstance(expr, ast.Name):
            return self._name_values(expr.id, depth)
        if isinstance(expr, ast.Attribute):
            source = dotted_name(expr) or "<attribute>"
            return frozenset({AbstractString((Taint(source),))})
        if isinstance(expr, (ast.Tuple, ast.List)):
            return self._tuple_values(expr, depth)
        if isinstance(expr, ast.JoinedStr):
            return self._joined_values(expr, depth)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            return self._concat_values(expr.left, expr.right, depth)
        if isinstance(expr, ast.IfExp):
            left = self.values(expr.body, depth)
            right = self.values(expr.orelse, depth)
            if left is None or right is None:
                return None
            union = left | right
            return union if len(union) <= _MAX_VALUES else None
        if isinstance(expr, ast.Call):
            return self._call_values(expr, depth)
        return None

    def string_values(
        self, expr: ast.AST, depth: int = 0
    ) -> frozenset | None:
        """Like :meth:`values` but only string results count."""
        values = self.values(expr, depth)
        if values is None:
            return None
        strings = frozenset(
            v for v in values if isinstance(v, AbstractString)
        )
        return strings if len(strings) == len(values) else None

    def tuple_lengths(self, expr: ast.AST, depth: int = 0) -> set[int] | None:
        """Every length the tuple/list ``expr`` can have, or ``None``."""
        values = self.values(expr, depth)
        if values is None:
            return None
        lengths: set[int] = set()
        for value in values:
            if not isinstance(value, AbstractTuple):
                return None
            lengths.add(len(value.items))
        return lengths or None

    def _tuple_values(
        self, expr: ast.Tuple | ast.List, depth: int
    ) -> frozenset | None:
        shapes: list[tuple] = [()]
        for element in expr.elts:
            if isinstance(element, ast.Starred):
                spliced = self.values(element.value, depth)
                if spliced is None:
                    return None
                grown: list[tuple] = []
                for shape in shapes:
                    for value in spliced:
                        if not isinstance(value, AbstractTuple):
                            return None
                        grown.append(shape + value.items)
                shapes = grown
            else:
                item = self.values(element, depth)
                shapes = [shape + (item,) for shape in shapes]
            if len(shapes) > _MAX_VALUES:
                return None
        return frozenset(AbstractTuple(shape) for shape in shapes)

    def _joined_values(
        self, expr: ast.JoinedStr, depth: int
    ) -> frozenset | None:
        results: list[AbstractString] = [AbstractString(())]
        for part in expr.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                options: list[AbstractString] = [AbstractString((part.value,))]
            elif isinstance(part, ast.FormattedValue):
                inner = self.string_values(part.value, depth)
                if inner is None:
                    source = _describe_expr(part.value)
                    options = [AbstractString((Taint(source),))]
                else:
                    options = list(inner)
            else:
                return None
            results = [
                _concat_strings(prefix, option)
                for prefix in results
                for option in options
            ]
            if len(results) > _MAX_VALUES:
                return None
        return frozenset(results)

    def _concat_values(
        self, left: ast.AST, right: ast.AST, depth: int
    ) -> frozenset | None:
        lhs = self.values(left, depth)
        rhs = self.values(right, depth)
        if lhs is None or rhs is None:
            return None
        out: set = set()
        for a in lhs:
            for b in rhs:
                if isinstance(a, AbstractString) and isinstance(
                    b, AbstractString
                ):
                    out.add(_concat_strings(a, b))
                elif isinstance(a, AbstractTuple) and isinstance(
                    b, AbstractTuple
                ):
                    out.add(AbstractTuple(a.items + b.items))
                else:
                    return None
                if len(out) > _MAX_VALUES:
                    return None
        return frozenset(out)

    def _call_values(self, call: ast.Call, depth: int) -> frozenset | None:
        if _is_placeholder_join(call):
            return frozenset({AbstractString((PLACEHOLDER_RUN,))})
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "format"
            and isinstance(func.value, ast.Constant)
            and isinstance(func.value.value, str)
        ):
            return self._format_values(func.value.value, call, depth)
        if isinstance(func, ast.Name) and depth < _MAX_CALL_DEPTH:
            found = self.function(func.id)
            if found is not None:
                owner, funcdef = found
                return self._inline_call(owner, funcdef, call, depth)
        return None

    def _format_values(
        self, template: str, call: ast.Call, depth: int
    ) -> frozenset | None:
        """``"...{}...".format(args)`` with auto/indexed/named fields."""
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            return None
        positional = [self.string_values(a, depth) for a in call.args]
        named = {
            kw.arg: self.string_values(kw.value, depth)
            for kw in call.keywords
            if kw.arg is not None
        }
        results = [AbstractString(())]
        auto = 0
        index = 0
        for match in _FORMAT_FIELD.finditer(template):
            literal = template[index:match.start()]
            literal = literal.replace("{{", "{").replace("}}", "}")
            field = match.group(1).split("!")[0].split(":")[0]
            if field == "":
                slot = positional[auto] if auto < len(positional) else None
                auto += 1
            elif field.isdigit():
                i = int(field)
                slot = positional[i] if i < len(positional) else None
            else:
                slot = named.get(field)
            if slot is None:
                options = [AbstractString((Taint(f"format field {{{field}}}"),))]
            else:
                options = list(slot)
            results = [
                _concat_strings(
                    _concat_strings(prefix, AbstractString((literal,))),
                    option,
                )
                for prefix in results
                for option in options
            ]
            if len(results) > _MAX_VALUES:
                return None
            index = match.end()
        tail = template[index:].replace("{{", "{").replace("}}", "}")
        return frozenset(
            _concat_strings(prefix, AbstractString((tail,)))
            for prefix in results
        )

    def is_parameter(self, name: str) -> bool:
        """``name`` is an unreassigned parameter of this scope."""
        return name in self._params and name not in self._bindings

    def _inline_call(
        self,
        owner: "Scope",
        funcdef: ast.FunctionDef,
        call: ast.Call,
        depth: int,
    ) -> frozenset | None:
        """Evaluate a call to a local function by symbolic inlining."""
        inlined = call_scope(self, owner, funcdef, call, depth)
        if inlined is None:
            return None
        returns = [
            node
            for node in _scope_nodes(funcdef.body)
            if isinstance(node, ast.Return) and node.value is not None
        ]
        if not returns:
            return None
        out: set = set()
        for ret in returns:
            sub = inlined.values(ret.value, depth + 1)
            if sub is None:
                return None
            out.update(sub)
            if len(out) > _MAX_VALUES:
                return None
        return frozenset(out)


def call_scope(
    caller: Scope,
    owner: Scope,
    funcdef: ast.FunctionDef,
    call: ast.Call,
    depth: int = 0,
) -> Scope | None:
    """A fresh scope for ``funcdef`` with parameters bound to the value
    sets of ``call``'s arguments (evaluated in ``caller``).  Extra
    positional arguments flow into the vararg as an exact-length tuple.
    Returns ``None`` when the call shape cannot be bound statically."""
    args = funcdef.args
    if args.posonlyargs or args.kwonlyargs or args.kwarg:
        return None
    names = [a.arg for a in args.args]
    overrides: dict[str, frozenset | None] = {}
    call_args = list(call.args)
    if any(isinstance(a, ast.Starred) for a in call_args):
        return None
    for name, arg in zip(names, call_args):
        overrides[name] = caller.values(arg, depth + 1)
    for keyword in call.keywords:
        if keyword.arg is None or keyword.arg not in names:
            return None
        overrides[keyword.arg] = caller.values(keyword.value, depth + 1)
    defaults = args.defaults
    for name, default in zip(names[len(names) - len(defaults):], defaults):
        if name not in overrides:
            overrides[name] = owner.values(default, depth + 1)
    if args.vararg is not None:
        extra = call_args[len(names):]
        items = tuple(caller.values(a, depth + 1) for a in extra)
        overrides[args.vararg.arg] = frozenset({AbstractTuple(items)})
    return Scope(caller.module, funcdef, parent=owner, overrides=overrides)


def _describe_expr(expr: ast.AST) -> str:
    try:
        text = ast.unparse(expr)
    except (ValueError, RecursionError):  # pragma: no cover - deep trees
        text = type(expr).__name__
    return text if len(text) <= 60 else text[:57] + "..."


def module_scope(module: Module) -> Scope:
    """The (cached) module-level scope of ``module``."""
    scope = getattr(module, "_crimson_scope", None)
    if scope is None:
        scope = Scope(module, module.tree)
        module._crimson_scope = scope  # type: ignore[attr-defined]
    return scope


def function_scope(module: Module, funcdef: ast.AST) -> Scope:
    """The (cached) scope of ``funcdef``, with its full parent chain."""
    cached = getattr(funcdef, "_crimson_scope", None)
    if cached is not None:
        return cached
    enclosing = next(
        (
            node
            for node in ancestors(funcdef)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ),
        None,
    )
    parent = (
        function_scope(module, enclosing)
        if enclosing is not None
        else module_scope(module)
    )
    scope = Scope(module, funcdef, parent=parent)
    funcdef._crimson_scope = scope  # type: ignore[attr-defined]
    return scope


def scope_of(module: Module, node: ast.AST) -> Scope:
    """The scope enclosing ``node`` (a function scope or the module's)."""
    for candidate in ancestors(node):
        if isinstance(candidate, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return function_scope(module, candidate)
    return module_scope(module)


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
