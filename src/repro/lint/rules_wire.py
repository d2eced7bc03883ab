"""wire-error-details: error context hooks cross the wire intact.

The wire codec (``storage/wire.py``) encodes dataclass fields from
their annotations, so its shapes cannot drift from the classes they
serialize.  Errors are the exception: ``encode_error`` ships whatever
an error's ``wire_details`` hook returns and ``decode_error`` rebuilds
the class by name as ``KIND(message)`` before handing the details to
``apply_wire_details``.  This rule checks that contract in
``errors.py``: error classes carrying structured context implement
*both* hooks with agreeing key sets, and every error class stays
constructible from a single message argument.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import Finding, Module, Project, Rule

ERRORS_MODULE = "errors.py"
ERROR_ROOT = "CrimsonError"


def _class_method(
    classdef: ast.ClassDef, name: str
) -> ast.FunctionDef | None:
    for node in classdef.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _string_subscript_key(node: ast.Subscript) -> str | None:
    if isinstance(node.slice, ast.Constant) and isinstance(
        node.slice.value, str
    ):
        return node.slice.value
    return None


def mapping_reads(body: ast.AST, param: str) -> set[str]:
    """Every key literal read off ``param``: ``param["k"]`` and
    ``param.get("k", ...)``."""
    keys: set[str] = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Subscript):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == param
                and isinstance(node.ctx, ast.Load)
            ):
                key = _string_subscript_key(node)
                if key is not None:
                    keys.add(key)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and isinstance(func.value, ast.Name)
                and func.value.id == param
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                keys.add(node.args[0].value)
    return keys


def dict_keys_written(body: ast.AST) -> set[str]:
    """Key literals of every dict literal and string-subscript store."""
    keys: set[str] = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.add(key.value)
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Store
        ):
            key = _string_subscript_key(node)
            if key is not None:
                keys.add(key)
    return keys


def _error_classes(module: Module) -> dict[str, ast.ClassDef]:
    """Classes transitively subclassing the error root, by name."""
    classes = {
        node.name: node
        for node in module.tree.body
        if isinstance(node, ast.ClassDef)
    }
    bases = {
        name: {
            base.id
            for base in node.bases
            if isinstance(base, ast.Name)
        }
        for name, node in classes.items()
    }
    kinds: set[str] = {ERROR_ROOT} if ERROR_ROOT in classes else set()
    grew = True
    while grew:
        grew = False
        for name, parents in bases.items():
            if name not in kinds and parents & kinds:
                kinds.add(name)
                grew = True
    return {name: classes[name] for name in kinds}


def _required_extra_params(init: ast.FunctionDef) -> list[str]:
    """Required parameters beyond ``self`` and the message."""
    args = init.args
    positional = [*args.posonlyargs, *args.args]
    defaults = args.defaults
    required = positional[: len(positional) - len(defaults)]
    extra = [a.arg for a in required[2:]]  # beyond self + message
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is None:
            extra.append(arg.arg)
    return extra


class WireErrorDetails(Rule):
    """Error context hooks stay symmetric and decodable."""

    rule_id = "wire-error-details"
    description = (
        "error classes define wire_details and apply_wire_details "
        "together with agreeing keys, and stay constructible from one "
        "message argument (the ERROR_KINDS decode contract)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        errors = project.module(ERRORS_MODULE)
        if errors is None:
            return
        for name, classdef in sorted(_error_classes(errors).items()):
            writer = _class_method(classdef, "wire_details")
            reader = _class_method(classdef, "apply_wire_details")
            if writer is not None and reader is None:
                yield self.finding(
                    errors.path,
                    classdef,
                    f"{name} defines wire_details but no "
                    f"apply_wire_details — its context encodes but is "
                    f"dropped on decode",
                )
            elif reader is not None and writer is None:
                yield self.finding(
                    errors.path,
                    classdef,
                    f"{name} defines apply_wire_details but no "
                    f"wire_details — nothing ever encodes its context",
                )
            elif writer is not None and reader is not None:
                written = dict_keys_written(writer)
                param = [
                    *reader.args.posonlyargs, *reader.args.args
                ]
                read = (
                    mapping_reads(reader, param[1].arg)
                    if len(param) > 1
                    else set()
                )
                for key in sorted(written - read):
                    yield self.finding(
                        errors.path,
                        reader,
                        f"{name}.wire_details writes key {key!r} that "
                        f"apply_wire_details never reads",
                    )
                for key in sorted(read - written):
                    yield self.finding(
                        errors.path,
                        reader,
                        f"{name}.apply_wire_details reads key {key!r} "
                        f"that wire_details never writes",
                    )
            init = _class_method(classdef, "__init__")
            if init is not None:
                extra = _required_extra_params(init)
                if extra:
                    yield self.finding(
                        errors.path,
                        init,
                        f"{name}.__init__ requires {extra} beyond the "
                        f"message — decode_error rebuilds kinds as "
                        f"KIND(message), so this class cannot cross "
                        f"the wire",
                    )
