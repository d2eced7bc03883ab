"""The verb registry covers every surface it cannot derive.

The registry (:mod:`repro.storage.verbs`) derives the server dispatch,
the protocol's verb list and both sessions' verb methods, so those
cannot drift apart.  What it cannot derive is checked here: every
query and analytics operation has a request constructor and a CLI
subcommand, every verb is part of the :class:`CrimsonSession`
protocol and has a CLI subcommand, and both sessions implement the
whole protocol.  ``tests/test_wire.py`` round-trips every verb's
request and result types.
"""

from __future__ import annotations

import argparse

from repro.cli.main import build_parser
from repro.server import RemoteSession
from repro.storage.api import (
    ANALYTICS_OPERATIONS,
    OPERATIONS,
    AnalyticsRequest,
    CrimsonSession,
    QueryRequest,
)
from repro.storage.verbs import REGISTRY, LocalSession

#: CLI subcommands spelled differently from what they run.  A
#: ``distance_matrix`` request is issued by ``crimson compare`` with
#: more than two trees; ``query`` and ``analyze`` are reached through
#: one subcommand per operation.
CLI_ALIASES = {
    "lca_batch": "lca-batch",
    "distance_matrix": "compare",
    "query": "lca",
    "analyze": "consensus",
    "list_trees": "list",
    "describe": "info",
}


def cli_subcommands() -> set[str]:
    parser = build_parser()
    return {
        name
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for name in action.choices
    }


def protocol_methods() -> set[str]:
    return {
        name
        for name, value in vars(CrimsonSession).items()
        if callable(value) and not name.startswith("_")
    }


class TestRegistryCoverage:
    def test_operations_have_constructors_and_cli_subcommands(self):
        commands = cli_subcommands()
        for cls, operations in (
            (QueryRequest, OPERATIONS),
            (AnalyticsRequest, ANALYTICS_OPERATIONS),
        ):
            for operation in operations:
                assert callable(getattr(cls, operation, None)), operation
                assert CLI_ALIASES.get(operation, operation) in commands

    def test_verbs_are_session_methods_with_cli_subcommands(self):
        commands = cli_subcommands()
        methods = protocol_methods()
        for name in REGISTRY:
            assert name in methods, name
            assert CLI_ALIASES.get(name, name) in commands, name

    def test_both_sessions_implement_the_protocol(self):
        for session in (LocalSession, RemoteSession):
            for name in protocol_methods():
                assert callable(getattr(session, name, None)), (
                    session.__name__, name
                )
