"""The Query Repository: persistent history of user queries.

The paper pairs this with the GUI's query wizard: every query a user
issues is recorded and can be recalled and re-run later.  Here the record
is a JSON-parameterized operation descriptor plus timing, and re-running
is dispatched through a registry of operation callables so the CLI and
the Benchmark Manager share one mechanism.
"""

from __future__ import annotations

import datetime as _datetime
import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import QueryError, StorageError
from repro.storage import sql

if TYPE_CHECKING:
    from repro.storage.store import CrimsonStore


@dataclass(frozen=True)
class HistoryEntry:
    """One recorded query."""

    query_id: int
    issued_at: str
    tree_name: str | None
    operation: str
    params: dict[str, Any]
    duration_ms: float | None
    result_summary: str


class QueryRepository:
    """Records, lists, and re-runs queries.

    Reach it as ``store.history``; its rows live on the store's
    primary writer.
    """

    def __init__(self, store: CrimsonStore) -> None:
        self.db = store.db
        self._operations: dict[str, Callable[..., Any]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(
        self,
        operation: str,
        params: dict[str, Any],
        tree_name: str | None = None,
        duration_ms: float | None = None,
        result_summary: str = "",
    ) -> int:
        """Insert a history row and return its id."""
        issued = _datetime.datetime.now(_datetime.timezone.utc).isoformat()
        with self.db.transaction() as connection:
            cursor = connection.execute(
                sql.INSERT_HISTORY,
                (
                    issued,
                    tree_name,
                    operation,
                    json.dumps(params, sort_keys=True),
                    duration_ms,
                    result_summary,
                ),
            )
        query_id = cursor.lastrowid
        assert query_id is not None
        return query_id

    # ------------------------------------------------------------------
    # Browsing
    # ------------------------------------------------------------------

    def entry(self, query_id: int) -> HistoryEntry:
        """Fetch one history row.

        Raises
        ------
        StorageError
            If the id does not exist.
        """
        row = self.db.query_one(sql.HISTORY_ENTRY, (query_id,))
        if row is None:
            raise StorageError(f"no query {query_id} in history")
        return self._to_entry(row)

    def recent(self, limit: int = 20, tree_name: str | None = None) -> list[HistoryEntry]:
        """The most recent queries, newest first."""
        if tree_name is None:
            rows = self.db.query_all(sql.RECENT_HISTORY, (limit,))
        else:
            rows = self.db.query_all(
                sql.RECENT_TREE_HISTORY, (tree_name, limit)
            )
        return [self._to_entry(row) for row in rows]

    def _to_entry(self, row) -> HistoryEntry:
        return HistoryEntry(
            query_id=row["query_id"],
            issued_at=row["issued_at"],
            tree_name=row["tree_name"],
            operation=row["operation"],
            params=json.loads(row["params_json"]),
            duration_ms=row["duration_ms"],
            result_summary=row["result_summary"],
        )

    # ------------------------------------------------------------------
    # Execution with recording, and recall/re-run
    # ------------------------------------------------------------------

    def register_operation(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a callable so recorded queries can be re-run.

        The callable receives the recorded params as keyword arguments.
        """
        self._operations[name] = fn

    def run_recorded(
        self,
        operation: str,
        params: dict[str, Any],
        tree_name: str | None = None,
        summarize: Callable[[Any], str] = lambda result: str(result)[:200],
    ) -> Any:
        """Execute a registered operation, recording it with its timing.

        Raises
        ------
        QueryError
            If the operation name is not registered.
        """
        if operation not in self._operations:
            raise QueryError(f"operation {operation!r} is not registered")
        start = time.perf_counter()
        result = self._operations[operation](**params)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.record(
            operation,
            params,
            tree_name=tree_name,
            duration_ms=elapsed_ms,
            result_summary=summarize(result),
        )
        return result

    def rerun(self, query_id: int) -> Any:
        """Recall a historical query and execute it again.

        The re-run is itself recorded, so history reflects actual usage.

        Raises
        ------
        QueryError
            If the recorded operation was never registered in this session.
        """
        entry = self.entry(query_id)
        return self.run_recorded(
            entry.operation, entry.params, tree_name=entry.tree_name
        )

    def clear(self) -> int:
        """Delete the whole history; returns the number of rows removed."""
        row = self.db.query_one(sql.HISTORY_COUNT)
        assert row is not None
        with self.db.transaction() as connection:
            connection.execute(sql.CLEAR_HISTORY)
        return row["n"]
