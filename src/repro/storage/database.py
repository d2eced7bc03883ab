"""Connection management for the Crimson relational store.

:class:`CrimsonDatabase` owns one sqlite connection, applies the pragmas a
bulk-loading scientific workload wants, creates the schema on first use,
and hands out transaction scopes.  It works equally with on-disk files
(persistent repositories) and ``":memory:"`` (tests and benchmarks).

With ``read_only=True`` the connection is opened in sqlite's
``mode=ro`` URI mode instead: no schema creation, no write pragmas, and
:meth:`CrimsonDatabase.transaction` refuses to start.  The
:class:`~repro.storage.pool.ReaderPool` hands these out so WAL readers
run beside the writer without sharing its connection.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator
from urllib.parse import quote

from repro.errors import StorageError
from repro.storage import sql
from repro.storage.sanitize import maybe_sanitize
from repro.storage.schema import create_schema

Row = sqlite3.Row
"""Re-export of the row type the convenience helpers return.

Modules outside this one annotate and inspect rows as
``database.Row`` instead of importing sqlite3 themselves — sqlite is
an implementation detail of this module (the ``layering-sqlite3`` lint
rule enforces exactly that boundary).
"""


def _read_only_uri(path: str) -> str:
    """sqlite URI opening ``path`` read-only (WAL readers still allowed)."""
    return f"file:{quote(str(Path(path).absolute()))}?mode=ro"


class CrimsonDatabase:
    """One sqlite-backed Crimson store.

    Parameters
    ----------
    path:
        Filesystem path of the database, or ``":memory:"`` for an
        ephemeral store.
    read_only:
        Open an existing file database read-only (``mode=ro``).  The
        schema is not touched and write transactions are refused.
    shard_schema:
        Create the shard-file subset of the schema (tree-data tables
        only, no catalogue) instead of the full primary schema.  Set by
        the store when it opens the side files of a sharded layout.

    Notes
    -----
    The connection is opened eagerly, with foreign keys enforced.  File
    databases run in WAL mode so benchmark readers do not block the
    loader.  Every connection is created with
    ``check_same_thread=False`` — sqlite is built in serialized mode
    (``sqlite3.threadsafety == 3``), readers may be shared when threads
    outnumber the pool, and writers serialize their transactions behind
    :meth:`transaction`'s internal lock so a multi-threaded loader can
    target several shard writers concurrently.  Use the object as a
    context manager to guarantee the connection is closed::

        with CrimsonDatabase("crimson.db") as db:
            ...
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        *,
        read_only: bool = False,
        shard_schema: bool = False,
    ) -> None:
        self.path = str(path)
        self.read_only = read_only
        self.shard_schema = shard_schema
        # Serializes write transactions when several threads share this
        # writer (e.g. parallel loads that all place on one shard).
        self._transaction_lock = threading.RLock()
        #: Number of SQL statements issued through the convenience
        #: helpers (``execute`` / ``query_one`` / ``query_all``).  The
        #: stored-LCA benchmark reads deltas of this counter to prove
        #: the warm cache path touches the database zero times.
        self.statements_executed = 0
        if read_only and self.path == ":memory:":
            raise StorageError(
                "an in-memory database is private to its writer connection "
                "and cannot be opened read-only"
            )
        # ``cached_statements`` keeps the compiled form of the engine's
        # parameterized point/batch queries resident, so the hot path
        # re-binds rather than re-prepares.
        try:
            # maybe_sanitize is an identity function unless
            # CRIMSON_SANITIZE is set, in which case the connection is
            # proxied for thread-affinity checks and statement budgets.
            self._connection: sqlite3.Connection | None = maybe_sanitize(
                sqlite3.connect(
                    _read_only_uri(self.path) if read_only else self.path,
                    cached_statements=256,
                    uri=read_only,
                    check_same_thread=False,
                ),
                self.path,
                read_only=read_only,
            )
        except sqlite3.Error as error:
            raise StorageError(
                f"cannot open database {self.path!r}: {error}"
            ) from error
        self._connection.row_factory = sqlite3.Row
        self._connection.execute(sql.FOREIGN_KEYS_ON)
        if read_only:
            # Belt and braces: reject writes at the connection level too.
            self._connection.execute(sql.QUERY_ONLY_ON)
        elif self.path != ":memory:":
            self._connection.execute(sql.JOURNAL_MODE_WAL)
            self._connection.execute(sql.SYNCHRONOUS_NORMAL)
        if not read_only:
            self._guard_role(shard_schema)
            # A refused (newer) file or a failed upgrade must not leak
            # the connection, and is reported against the file.
            try:
                create_schema(self._connection, shard=shard_schema)
                self._connection.commit()
            except StorageError as error:
                self.close()
                raise StorageError(f"{self.path!r}: {error}") from None
            except Exception as error:
                self.close()
                raise StorageError(
                    f"{self.path!r}: schema upgrade failed: {error}"
                ) from error
            except BaseException:
                self.close()
                raise

    def _guard_role(self, shard_schema: bool) -> None:
        """Refuse to open a file under the wrong schema role.

        A shard file opened as a primary would silently grow catalogue
        tables (and report zero trees while holding real data); a
        primary opened as a shard would hide its catalogue.  Files
        created before the role marker existed carry no ``role`` row
        and open under either role.
        """
        try:
            row = self._connection.execute(sql.FILE_ROLE).fetchone()
        except sqlite3.Error:
            return  # no meta table yet: a brand-new or foreign file
        existing = row[0] if row is not None else None
        expected = "shard" if shard_schema else "primary"
        if existing is not None and existing != expected:
            self._connection.close()
            self._connection = None
            raise StorageError(
                f"{self.path!r} is a {existing} file of a sharded store "
                f"and cannot be opened as a {expected}; "
                + (
                    "open the primary database file instead"
                    if existing == "shard"
                    else "point the store at this file's own shards"
                )
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def connection(self) -> sqlite3.Connection:
        """The live connection.

        Raises
        ------
        StorageError
            If the database has been closed.
        """
        if self._connection is None:
            raise StorageError(f"database {self.path!r} is closed")
        return self._connection

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    @property
    def is_closed(self) -> bool:
        return self._connection is None

    def bind_current_thread(self) -> None:
        """Mark the current thread as a legal user of this connection.

        A no-op unless the connection is sanitized (``CRIMSON_SANITIZE``).
        The reader pool calls this at checkout so thread-sticky readers
        record every thread the round-robin legitimately hands them to.
        """
        binder = getattr(self._connection, "bind_thread", None)
        if binder is not None:
            binder()

    def __enter__(self) -> "CrimsonDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transactions and convenience execution
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """Scope a write transaction; rolls back on any exception.

        Transactions from different threads on the same connection are
        serialized behind an internal lock, so concurrent loaders that
        land on the same writer queue up instead of interleaving their
        statements inside each other's transactions.

        Raises
        ------
        StorageError
            If the database was opened read-only.
        """
        if self.read_only:
            raise StorageError(
                f"database {self.path!r} is open read-only; writes go "
                "through the store's writer connection"
            )
        with self._transaction_lock:
            connection = self.connection
            try:
                yield connection
                connection.commit()
            except sqlite3.Error as error:
                connection.rollback()
                raise StorageError(
                    f"write transaction on {self.path!r} failed: {error}"
                ) from error
            except BaseException:
                connection.rollback()
                raise

    def execute(
        self, statement: str, parameters: tuple = ()
    ) -> sqlite3.Cursor:
        """Run one statement on the live connection.

        Statements take the same lock as :meth:`transaction` (reentrant,
        so reads inside a transaction still run), which keeps a read
        from another thread from observing the uncommitted middle of a
        transaction on a shared connection — a multi-threaded caller on
        a pool-less store blocks briefly instead of dirty-reading.

        Raises
        ------
        StorageError
            If the database is closed or sqlite rejects the statement,
            so storage failures surface as :class:`CrimsonError`.
        """
        self.statements_executed += 1
        with self._transaction_lock:
            try:
                return self.connection.execute(statement, parameters)
            except sqlite3.Error as error:
                raise StorageError(
                    f"statement on {self.path!r} failed: {error}"
                ) from error

    def query_one(
        self, statement: str, parameters: tuple = ()
    ) -> sqlite3.Row | None:
        """Run a statement and return the first row (or ``None``)."""
        with self._transaction_lock:  # the fetch steps the cursor too
            return self.execute(statement, parameters).fetchone()

    def query_all(
        self, statement: str, parameters: tuple = (), *, plain: bool = False
    ) -> list[Any]:
        """Run a statement and return all rows.

        ``plain`` returns bare tuples instead of :class:`sqlite3.Row`
        objects — cheaper to build and unpack on whole-tree scans that
        read columns by position.
        """
        with self._transaction_lock:
            cursor = self.execute(statement, parameters)
            if plain:
                cursor.row_factory = None
            return cursor.fetchall()

    @contextmanager
    def count_statements(self) -> Iterator["StatementCounter"]:
        """Count statements issued through the helpers inside the scope.

        The counting cursor of the benchmarks::

            with db.count_statements() as counter:
                stored.lca("Lla", "Syn")
            print(counter.count)
        """
        counter = StatementCounter(self)
        try:
            yield counter
        finally:
            counter.stop()

    def __repr__(self) -> str:
        state = "closed" if self.is_closed else "open"
        mode = ", read-only" if self.read_only else (
            ", shard" if self.shard_schema else ""
        )
        return f"CrimsonDatabase({self.path!r}, {state}{mode})"


class StatementCounter:
    """Delta view over :attr:`CrimsonDatabase.statements_executed`."""

    def __init__(self, db: CrimsonDatabase) -> None:
        self._db = db
        self._start = db.statements_executed
        self._stopped_at: int | None = None

    def stop(self) -> None:
        if self._stopped_at is None:
            self._stopped_at = self._db.statements_executed

    @property
    def count(self) -> int:
        """Statements executed since the counter started (live until stop)."""
        end = (
            self._stopped_at
            if self._stopped_at is not None
            else self._db.statements_executed
        )
        return end - self._start
