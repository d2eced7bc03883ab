"""Runtime connection sanitizer: thread affinity + statement budgets.

``CRIMSON_SANITIZE=1`` makes :class:`~repro.storage.database.CrimsonDatabase`
wrap its sqlite connection in a :class:`SanitizedConnection` proxy that
turns two conventions into hard assertions:

* **Thread affinity** — read-only (pooled) connections may only be used
  by threads that checked them out.  The creating thread is bound
  automatically; :meth:`ReaderPool.checkout` binds the checking-out
  thread.  Executing a statement from any other thread raises a typed
  :class:`~repro.errors.StorageError` instead of racing another
  thread's cursor.
* **Statement budgets** — every statement increments a global counter,
  and :func:`statement_budget` scopes a hard ceiling: the statement
  that exceeds it raises at the call site, so "the warm path executes
  zero statements" is asserted, not hoped.

The proxy deliberately knows nothing about sqlite3 (no import — the
``layering-sqlite3`` lint rule applies here too): it delegates every
attribute to the wrapped connection and intercepts only the execute
family.  When the environment flag is off, :func:`maybe_sanitize`
returns the raw connection and this module costs nothing.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.errors import StorageError

_FALSEY = frozenset({"", "0", "false", "no", "off"})

_state_lock = threading.Lock()
_total_statements = 0
_budgets: list["StatementBudget"] = []
_recorders: list[list[tuple[str, str]]] = []


def sanitize_enabled() -> bool:
    """Is ``CRIMSON_SANITIZE`` set to a truthy value?"""
    return os.environ.get("CRIMSON_SANITIZE", "").strip().lower() not in _FALSEY


def total_statements() -> int:
    """Statements executed through sanitized connections, process-wide."""
    with _state_lock:
        return _total_statements


def _count_statement(label: str, sql: str | None = None) -> None:
    global _total_statements
    with _state_lock:
        _total_statements += 1
        if sql is not None:
            for recorder in _recorders:
                recorder.append((label, sql))
        for budget in _budgets:
            spent = _total_statements - budget.start
            if spent > budget.limit:
                raise StorageError(
                    f"statement budget exceeded on {label!r}: statement "
                    f"{spent} issued under a budget of {budget.limit} "
                    "(a path expected to be warm touched the database)"
                )


class StatementBudget:
    """One active ceiling; exposes how many statements it has seen."""

    def __init__(self, start: int, limit: int) -> None:
        self.start = start
        self.limit = limit

    @property
    def spent(self) -> int:
        with _state_lock:
            return _total_statements - self.start


@contextmanager
def statement_budget(limit: int) -> Iterator[StatementBudget]:
    """Fail the statement that would take the process past ``limit``.

    Counts statements on *sanitized* connections only — run the code
    under ``CRIMSON_SANITIZE=1`` (e.g. the ``sanitized`` pytest
    fixture), otherwise the budget observes nothing.
    """
    with _state_lock:
        budget = StatementBudget(_total_statements, limit)
        _budgets.append(budget)
    try:
        yield budget
    finally:
        with _state_lock:
            _budgets.remove(budget)


@contextmanager
def record_statements() -> Iterator[list[tuple[str, str]]]:
    """Collect ``(connection label, statement text)`` while active.

    Statements on *sanitized* connections only, like
    :func:`statement_budget`.  The yielded list grows in execution
    order and is the runtime side of the SQL catalogue check
    (``tests/test_sql_catalogue.py``): every text recorded there must
    normalize to an entry of :mod:`repro.storage.sql`, and every entry
    must be recorded.
    """
    log: list[tuple[str, str]] = []
    with _state_lock:
        _recorders.append(log)
    try:
        yield log
    finally:
        with _state_lock:
            _recorders.remove(log)


class SanitizedConnection:
    """Delegating proxy that checks affinity and counts statements.

    ``affine`` connections (the pool's read-only readers) track the set
    of thread idents allowed to use them; non-affine connections (the
    writer, which serializes behind the transaction lock) only count.
    """

    _LOCAL = frozenset(
        {"_san_inner", "_san_label", "_san_affine", "_san_threads",
         "_san_lock"}
    )

    def __init__(self, inner: Any, label: str, *, affine: bool) -> None:
        object.__setattr__(self, "_san_inner", inner)
        object.__setattr__(self, "_san_label", label)
        object.__setattr__(self, "_san_affine", affine)
        object.__setattr__(self, "_san_threads", {threading.get_ident()})
        object.__setattr__(self, "_san_lock", threading.Lock())

    # -- affinity ------------------------------------------------------

    def bind_thread(self) -> None:
        """Allow the current thread to use this connection."""
        with self._san_lock:
            self._san_threads.add(threading.get_ident())

    def _check(self) -> None:
        if not self._san_affine:
            return
        ident = threading.get_ident()
        with self._san_lock:
            bound = ident in self._san_threads
        if not bound:
            raise StorageError(
                f"reader connection for {self._san_label!r} used from "
                f"thread {ident}, which never checked it out; pooled "
                "readers are thread-sticky — call ReaderPool.checkout() "
                "in the using thread instead of caching the connection"
            )

    # -- intercepted statement API ------------------------------------

    @staticmethod
    def _statement_text(args: tuple) -> str | None:
        return args[0] if args and isinstance(args[0], str) else None

    def execute(self, *args: Any, **kwargs: Any) -> Any:
        self._check()
        _count_statement(self._san_label, self._statement_text(args))
        return self._san_inner.execute(*args, **kwargs)

    def executemany(self, *args: Any, **kwargs: Any) -> Any:
        self._check()
        _count_statement(self._san_label, self._statement_text(args))
        return self._san_inner.executemany(*args, **kwargs)

    def executescript(self, *args: Any, **kwargs: Any) -> Any:
        self._check()
        _count_statement(self._san_label, self._statement_text(args))
        return self._san_inner.executescript(*args, **kwargs)

    def cursor(self, *args: Any, **kwargs: Any) -> Any:
        self._check()
        return self._san_inner.cursor(*args, **kwargs)

    # -- transparent delegation ---------------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(self._san_inner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in self._LOCAL:
            object.__setattr__(self, name, value)
        else:
            setattr(self._san_inner, name, value)

    def __repr__(self) -> str:
        kind = "affine" if self._san_affine else "counted"
        return f"SanitizedConnection({self._san_label!r}, {kind})"


def maybe_sanitize(connection: Any, label: str, *, read_only: bool) -> Any:
    """Wrap ``connection`` when the sanitizer is enabled, else pass it."""
    if not sanitize_enabled():
        return connection
    return SanitizedConnection(connection, label, affine=read_only)
