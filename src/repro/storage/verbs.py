"""The verb registry: one declaration per verb of the session protocol.

A :class:`Verb` names a verb, the wire types of its argument and its
answer, and the store handler that answers it.  Everything else is
derived from :data:`REGISTRY`:

* :data:`repro.server.protocol.VERBS`, the verbs a server accepts;
* :meth:`repro.server.CrimsonServer.dispatch` — decode the argument
  with the verb's request type, run its handler, encode the answer
  with its result type;
* the verb methods of :class:`LocalSession` (run the handler in this
  process) and :class:`repro.server.RemoteSession` (one round trip
  through :mod:`repro.storage.wire`), installed by
  :func:`session_verbs`.

Adding a verb is one entry here plus its CLI subcommand.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.admission.estimator import CostEstimate
from repro.storage.api import (
    AnalyticsRequest,
    AnalyticsResult,
    AnalyticsVerbs,
    CrimsonSession,
    DescribeRequest,
    HealthReport,
    QueryRequest,
    QueryResult,
    StatsRequest,
    StatsSnapshot,
    VerifyRequest,
    service_info,
)
from repro.storage.maintenance import IntegrityReport
from repro.storage.tree_repository import TreeInfo
from repro.storage.wire import ESTIMATE_REQUEST


class Call(NamedTuple):
    """How one verb call runs: the transport answering it, the caller's
    ``record`` flag, and whether the serving process is draining."""

    transport: str
    record: bool = False
    draining: bool = False


@dataclass(frozen=True)
class Verb:
    """One verb of the session protocol.

    ``request`` and ``result`` are wire types (:func:`repro.storage.
    wire.codec`); ``request`` is ``None`` for a verb without an
    argument.  ``handler(store, request, call)`` answers the verb.
    ``arguments`` has the session method's signature and builds the
    request from the method's arguments.  ``drain_exempt`` verbs are
    answered while a server drains for shutdown; ``recorded`` verbs
    take a ``record`` flag that files the call in the query history.
    """

    name: str
    request: Any
    result: Any
    handler: Callable[[Any, Any, Call], Any]
    arguments: Callable[..., Any] = lambda request: request
    drain_exempt: bool = False
    recorded: bool = False


def _nothing() -> None:
    return None


def _stats(request: StatsRequest | None = None) -> StatsRequest:
    return request if request is not None else StatsRequest()


REGISTRY: dict[str, Verb] = {
    verb.name: verb
    for verb in (
        Verb(
            "query", QueryRequest, QueryResult,
            lambda store, request, call: store.query(
                request, record=call.record
            ),
            recorded=True,
        ),
        Verb(
            "analyze", AnalyticsRequest, AnalyticsResult,
            lambda store, request, call: store.analyze(
                request, record=call.record
            ),
            recorded=True,
        ),
        Verb(
            "list_trees", None, list[TreeInfo],
            lambda store, request, call: store.list_trees(),
            arguments=_nothing,
        ),
        Verb(
            "describe", DescribeRequest, TreeInfo,
            lambda store, request, call: store.describe(request.name),
            arguments=DescribeRequest,
        ),
        Verb(
            "verify", VerifyRequest, list[IntegrityReport],
            lambda store, request, call: store.verify(request.tree),
            arguments=VerifyRequest,
        ),
        Verb(
            "ping", None, dict[str, Any],
            lambda store, request, call: service_info(store, call.transport),
            arguments=_nothing,
        ),
        Verb(
            "estimate", ESTIMATE_REQUEST, CostEstimate,
            lambda store, request, call: store.estimate(request),
        ),
        Verb(
            "stats", StatsRequest, StatsSnapshot,
            lambda store, request, call: store.stats(
                request, transport=call.transport
            ),
            arguments=_stats,
        ),
        Verb(
            "health", None, HealthReport,
            lambda store, request, call: store.health(
                transport=call.transport, draining=call.draining
            ),
            arguments=_nothing,
            drain_exempt=True,
        ),
    )
}
"""Every verb, in the order servers list them."""


def _session_method(verb: Verb, owner: type) -> Callable[..., Any]:
    arguments = verb.arguments
    if verb.recorded:
        def method(self, request, *, record: bool = False):
            return self._run(verb, request, record)
    else:
        def method(self, *args, **kwargs):
            return self._run(verb, arguments(*args, **kwargs), False)

        # help() and IDEs show the verb's own parameters.
        signature = inspect.signature(arguments)
        method.__signature__ = signature.replace(
            parameters=[
                inspect.Parameter(
                    "self", inspect.Parameter.POSITIONAL_OR_KEYWORD
                ),
                *signature.parameters.values(),
            ],
            return_annotation=verb.result,
        )
    method.__name__ = verb.name
    method.__qualname__ = f"{owner.__name__}.{verb.name}"
    method.__doc__ = getattr(CrimsonSession, verb.name).__doc__
    return method


def session_verbs(cls: type) -> type:
    """Class decorator: one method per registry verb on ``cls`` itself.

    Each method builds the verb's request from its arguments and hands
    it to ``cls._run(verb, request, record)``, the one place a session
    kind decides how a verb executes.  Docstrings come from the
    :class:`~repro.storage.api.CrimsonSession` protocol.
    """
    for verb in REGISTRY.values():
        setattr(cls, verb.name, _session_method(verb, cls))
    return cls


@session_verbs
class LocalSession(AnalyticsVerbs):
    """:class:`~repro.storage.api.CrimsonSession` over an in-process store.

    Every verb runs its registry handler against the owning
    :class:`~repro.storage.store.CrimsonStore`, whose reader pool
    already binds each calling thread to its own connection.  Get one
    from :meth:`~repro.storage.store.CrimsonStore.session`, or own the
    store outright with :meth:`LocalSession.open`::

        with LocalSession.open("crimson.db", readers=4) as session:
            result = session.query(QueryRequest.lca("gold", "Lla", "Syn"))

    Parameters
    ----------
    store:
        The store to adapt.
    owns_store:
        Close the store when the session closes.  ``False`` (the
        default) for sessions borrowed from a longer-lived store;
        :meth:`open` sets it.
    """

    def __init__(self, store, *, owns_store: bool = False) -> None:
        self.store = store
        self._owns_store = owns_store

    @classmethod
    def open(cls, path=":memory:", **kwargs) -> "LocalSession":
        """Open a store at ``path`` and wrap it in an owning session.

        Keyword arguments are passed through to
        :meth:`~repro.storage.store.CrimsonStore.open`.
        """
        from repro.storage.store import CrimsonStore

        return cls(CrimsonStore.open(path, **kwargs), owns_store=True)

    def _run(self, verb: Verb, request: Any, record: bool) -> Any:
        return verb.handler(self.store, request, Call("local", record))

    def close(self) -> None:
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "LocalSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        owns = ", owning" if self._owns_store else ""
        return f"LocalSession({self.store!r}{owns})"
