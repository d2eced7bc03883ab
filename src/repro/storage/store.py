"""`CrimsonStore`: the one public entry point of the storage layer.

The paper's Crimson is a *service*: one handle that loads gold
standards, answers structure queries, records history, and verifies
itself.  This module is that handle.  A store owns

* a single **primary writer**
  :class:`~repro.storage.database.CrimsonDatabase` (catalogue rows,
  species data, history),
* optional **shards**: side database files that each hold the
  ``nodes``/``inodes``/``blocks`` rows of the trees placed on them,
  every shard with its own writer and
  :class:`~repro.storage.pool.ReaderPool`, so bulk loads and query
  traffic spread across files instead of funnelling through one,
* the repositories as cohesive namespaces: :attr:`CrimsonStore.trees`,
  :attr:`CrimsonStore.species`, :attr:`CrimsonStore.history`, plus the
  loader's ``load_*`` methods and :meth:`CrimsonStore.verify`,
* a typed query surface: :meth:`CrimsonStore.query` takes a
  :class:`~repro.storage.api.QueryRequest` and returns a
  :class:`~repro.storage.api.QueryResult`, and
  :meth:`CrimsonStore.analyze` answers cross-tree
  :class:`~repro.storage.api.AnalyticsRequest`\\ s (Robinson–Foulds
  comparison, distance matrices, consensus) straight from stored rows
  via :mod:`repro.analytics`.

Example
-------
::

    with CrimsonStore.open("crimson.db", readers=4, shards=4) as store:
        store.load_newick_file("gold.nwk", name="gold")
        result = store.query(QueryRequest.lca("gold", "Lla", "Syn"))
        print(result.node.name, result.duration_ms)

Sharding
--------
``shards=N`` splits tree data over ``N`` database files: shard 0 is the
primary file itself; shards 1..N-1 live beside it as
``<stem>.shard<k><suffix>``.  A tree is placed on the emptiest shard
(fewest stored nodes) when it is loaded, and its catalogue row records
the shard, so :meth:`open_tree` resolves the right file before binding a
handle — callers never see the layout.  The shard count is persisted in
the primary file's ``meta`` table: reopening without ``shards`` restores
the stored layout, growing the count adds shards, and shrinking it is
refused (trees would become unreachable).  Single-file stores are the
one-shard degenerate case, and files created before sharding open
unchanged (all their trees read as shard 0).

Threads and connections
-----------------------
:meth:`CrimsonStore.open_tree` returns a per-thread
:class:`~repro.storage.tree_repository.StoredTree` handle bound to the
calling thread's pooled reader on the tree's shard (or to that shard's
writer when the store has no pools — in-memory stores, or
``readers=0``).  Handles and their row caches are cached per thread, so
repeated queries from a worker thread hit warm caches without any
cross-thread sharing; the one shared structure is each tree's
append-only :class:`~repro.storage.engine.IndexSkeleton`, which every
handle and thread of the store reads without a lock, so a fresh handle
finds the index rows its predecessors fetched.  A delete revalidates
only the cached handles on the name it removed: it stamps that name
from a store-wide counter, and each thread's handle on it checks the
catalogue once more on its next use, while handles on every other name
stay as they are.  All writes — loading,
deleting, history recording — go through writer connections whose
transactions serialize behind per-connection locks; :meth:`query`
serializes its optional history recording behind a lock so concurrent
readers may record safely.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from pathlib import Path
from typing import Any

import repro.analytics as analytics
from repro.admission import (
    AdmissionController,
    AdmissionLimits,
    CostEstimate,
    estimate_analytics,
    estimate_query,
)
from repro.core.pattern import compare_projection
from repro.errors import QueryError, StorageError
from repro.obs import (
    HealthThresholds,
    MetricsRegistry,
    SlowQueryLog,
    Span,
    TimeSeries,
    current_span,
    evaluate_health,
)
from repro.storage import projection, sql
from repro.storage.api import (
    AnalyticsRequest,
    AnalyticsResult,
    HealthReport,
    QueryRequest,
    QueryResult,
    StatsRequest,
    StatsSnapshot,
    service_info,
)
from repro.storage.cache import CacheStats
from repro.storage.database import CrimsonDatabase
from repro.storage.engine import DEFAULT_CACHE_SIZE, IndexSkeleton
from repro.storage.loader import DataLoader, Reporter, _silent
from repro.storage.pool import ReaderPool, Shard
from repro.storage.query_repository import QueryRepository
from repro.storage.species_repository import SpeciesRepository
from repro.storage.tree_repository import (
    StoredTree,
    TreeInfo,
    TreeRepository,
    catalogue_info,
    catalogue_infos,
)
from repro.trees.newick import parse_newick


def shard_path(path: str | Path, shard: int) -> str:
    """Filesystem path of shard ``shard`` of the store at ``path``.

    Shard 0 is the primary file itself; higher shards are sibling files
    named ``<stem>.shard<k><suffix>`` (``crimson.db`` →
    ``crimson.shard1.db``).  In-memory stores shard into further private
    in-memory databases.
    """
    base = str(path)
    if shard == 0 or base == ":memory:":
        return base
    parent = Path(base)
    suffix = parent.suffix or ".db"
    return str(parent.with_name(f"{parent.stem}.shard{shard}{suffix}"))


#: The estimate an unlimited controller admits without pricing the
#: request — estimation is skipped entirely when no limit is configured,
#: so default stores pay zero overhead.
_FREE_ESTIMATE = CostEstimate(
    operation="unlimited",
    trees=(),
    statements=0,
    rows=0,
    result_bytes=0,
    warm_fraction=1.0,
    cost=0.0,
)


class CrimsonStore:
    """One Crimson data service over one database file.

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` for an ephemeral store.
    readers:
        Size of the read-only connection pool behind **each** shard.
        ``0`` (the default) serves reads on the shard's writer
        connection — the right choice for single-threaded scripts.
        In-memory stores cannot pool (the database is private to its
        writer connection) and silently fall back to ``0``.
    shards:
        Number of database files tree data spreads over (see the module
        docstring).  ``None`` (the default) reopens whatever layout the
        file was created with — ``1`` for new and pre-sharding files.
        Passing a count grows the layout; shrinking below the stored
        count raises :class:`StorageError`.
    cache_size:
        Per-cache row bound for every query handle the store creates
        (see :mod:`repro.storage.engine` for sizing guidance).
    limits:
        Admission limits enforced over :meth:`query` and
        :meth:`analyze` (see :mod:`repro.admission`).  ``None`` (the
        default) admits everything without even estimating, so
        unlimited stores pay zero overhead.
    report:
        Callback receiving the loader's progress messages.
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        *,
        readers: int = 0,
        shards: int | None = None,
        cache_size: int | None = None,
        limits: AdmissionLimits | None = None,
        report: Reporter = _silent,
    ) -> None:
        if readers < 0:
            raise StorageError(f"readers must be >= 0, got {readers}")
        if shards is not None and shards < 1:
            raise StorageError(f"shards must be >= 1, got {shards}")
        self.db = CrimsonDatabase(path)
        self.cache_size = (
            cache_size if cache_size is not None else DEFAULT_CACHE_SIZE
        )
        # tree_id -> the tree's shared index skeleton, filled lazily by
        # every handle of the tree (see index_skeleton).
        self._skeletons: dict[int, IndexSkeleton] = {}
        self.pool: ReaderPool | None = None
        self._shards: list[Shard] = []
        try:
            self.pool = (
                ReaderPool(self.db.path, readers)
                if readers and self.db.path != ":memory:"
                else None
            )
            self.shards = self._resolve_shard_count(shards)
            self._shards = [
                Shard(0, self.db.path, db=self.db, pool=self.pool)
            ] + [
                Shard(k, shard_path(self.db.path, k), readers)
                for k in range(1, self.shards)
            ]
        except BaseException:
            # Don't leak the connections opened before the failure
            # (e.g. a refused shard-count shrink).
            self.close()
            raise
        #: The Tree Repository namespace (catalogue, store/open/delete).
        self.trees = TreeRepository(self)
        #: The Species Repository namespace (sequence data).
        self.species = SpeciesRepository(self)
        #: The Query Repository namespace (history, recall, re-run).
        self.history = QueryRepository(self)
        self._loader = DataLoader(self, report=report)
        #: The admission controller guarding query/analyze (swap it to
        #: re-limit a live store, e.g. ``crimson serve`` flag wiring).
        self.admission = AdmissionController(limits)
        #: The store's metrics registry; every layer (pool, server)
        #: shares it so local and remote snapshots carry the same names.
        self.metrics = MetricsRegistry()
        #: Ring buffer of the slowest recent requests (local + served).
        self.slow_log = SlowQueryLog()
        #: Windowed rate history over the registry.  Local stores
        #: sample on demand (a ``stats``/``health`` call rolls the
        #: windows); ``crimson serve`` adds a 1 Hz sampler thread.
        self.timeseries = TimeSeries(self.metrics)
        #: Cut points the ``health`` verb evaluates against; swap the
        #: instance to re-tune a live store.
        self.health_thresholds = HealthThresholds()
        for shard in self._shards:
            if shard.pool is not None:
                shard.pool.metrics = self.metrics
        self._local = threading.local()
        # Every live query handle, across threads, so stats() can
        # aggregate cache residency; weak references keep the registry
        # from pinning handles whose threads are gone.
        self._handles_lock = threading.Lock()
        self._live_handles: weakref.WeakSet[StoredTree] = weakref.WeakSet()
        self._record_lock = threading.Lock()
        self._placement_lock = threading.Lock()
        self._placement_cursor = -1
        # Name -> stamp of its latest delete (see forget_tree).  Every
        # thread's cached handle on that name revalidates once; handles
        # on other names are untouched.  Stamps come from one counter,
        # so two deletes never write the same stamp.
        self._deleted: dict[str, int] = {}
        self._delete_stamps = itertools.count(1)
        # (verb, operation) -> the instruments _serve records into.
        self._meters: dict[tuple[str, str], tuple] = {}

    @classmethod
    def open(
        cls,
        path: str | Path = ":memory:",
        *,
        readers: int = 0,
        shards: int | None = None,
        cache_size: int | None = None,
        limits: AdmissionLimits | None = None,
        report: Reporter = _silent,
    ) -> "CrimsonStore":
        """Open (creating if needed) the store at ``path``."""
        return cls(
            path,
            readers=readers,
            shards=shards,
            cache_size=cache_size,
            limits=limits,
            report=report,
        )

    def _resolve_shard_count(self, requested: int | None) -> int:
        """Reconcile the requested shard count with the stored layout."""
        row = self.db.query_one(sql.STORE_SHARDS)
        stored = int(row["value"]) if row is not None else 1
        if requested is None:
            return stored
        if requested < stored:
            raise StorageError(
                f"store {self.db.path!r} spreads trees over {stored} "
                f"shard(s); opening with shards={requested} would make "
                "some trees unreachable"
            )
        if requested > stored:
            with self.db.transaction() as connection:
                connection.execute(sql.SET_STORE_SHARDS, (str(requested),))
        return requested

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every shard's pool and writer connection (idempotent).

        Shard 0 adopts the primary writer and pool, so closing the
        shard list covers them; the explicit primary closes only matter
        for a store that failed before its shard list was built.
        """
        for shard in self._shards:
            shard.close()
        if self.pool is not None:
            self.pool.close()
        self.db.close()
        self._skeletons.clear()

    @property
    def is_closed(self) -> bool:
        return self.db.is_closed

    def __enter__(self) -> "CrimsonStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Loading (the Data Loader namespace)
    # ------------------------------------------------------------------

    @property
    def loader(self) -> DataLoader:
        """The underlying Data Loader (all ``load_*`` methods delegate)."""
        return self._loader

    def load_nexus_file(self, path, **kwargs) -> list[StoredTree]:
        """See :meth:`repro.storage.loader.DataLoader.load_nexus_file`."""
        return self._loader.load_nexus_file(path, **kwargs)

    def load_nexus_text(self, text: str, **kwargs) -> list[StoredTree]:
        """See :meth:`repro.storage.loader.DataLoader.load_nexus_text`."""
        return self._loader.load_nexus_text(text, **kwargs)

    def load_newick_file(self, path, **kwargs) -> StoredTree:
        """See :meth:`repro.storage.loader.DataLoader.load_newick_file`."""
        return self._loader.load_newick_file(path, **kwargs)

    def load_newick_text(self, text: str, name: str, **kwargs) -> StoredTree:
        """See :meth:`repro.storage.loader.DataLoader.load_newick_text`."""
        return self._loader.load_newick_text(text, name, **kwargs)

    def load_tree(self, tree, **kwargs) -> StoredTree:
        """See :meth:`repro.storage.loader.DataLoader.load_tree`."""
        return self._loader.load_tree(tree, **kwargs)

    def append_species_nexus(self, tree_name: str, text: str, **kwargs) -> int:
        """See :meth:`repro.storage.loader.DataLoader.append_species_nexus`."""
        return self._loader.append_species_nexus(tree_name, text, **kwargs)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def verify(self, tree: str | None = None):
        """Integrity reports for one tree, or for every stored tree.

        Returns a list of
        :class:`~repro.storage.maintenance.IntegrityReport`.
        """
        from repro.storage.maintenance import verify_store, verify_tree

        if tree is not None:
            return [verify_tree(self, tree)]
        return verify_store(self)

    # ------------------------------------------------------------------
    # Query handles and the typed query surface
    # ------------------------------------------------------------------

    def reader_database(self) -> CrimsonDatabase:
        """The connection serving this thread's catalogue reads.

        A pooled read-only connection on the primary file when the store
        has a pool, the primary writer connection otherwise.
        """
        if self.pool is not None:
            return self.pool.checkout()
        return self.db

    # ------------------------------------------------------------------
    # Shard routing (used by the Tree Repository and maintenance)
    # ------------------------------------------------------------------

    def shard_database(self, shard: int) -> CrimsonDatabase:
        """The writer connection of one shard (``0`` is the primary)."""
        try:
            return self._shards[shard].db
        except IndexError:
            raise StorageError(
                f"catalogue names shard {shard}, but the store only has "
                f"{self.shards} shard(s); reopen with shards={shard + 1} "
                "or higher"
            ) from None

    def shard_reader(self, shard: int) -> CrimsonDatabase:
        """This thread's read connection on one shard."""
        try:
            return self._shards[shard].reader()
        except IndexError:
            raise StorageError(
                f"catalogue names shard {shard}, but the store only has "
                f"{self.shards} shard(s); reopen with shards={shard + 1} "
                "or higher"
            ) from None

    def place_tree(self) -> int:
        """Pick the shard for a new tree: the one storing fewest nodes.

        The count comes from the catalogue, so placement is one small
        indexed aggregate regardless of shard sizes.  Ties rotate
        through the tied shards via an atomic cursor rather than always
        taking the lowest id — so a burst of concurrent loads against a
        young catalogue (where every placement still reads the same
        totals) fans out across the shards instead of pile-driving one.
        """
        if self.shards == 1:
            return 0
        rows = self.db.query_all(sql.SHARD_NODE_TOTALS)
        totals = {row["shard"]: row["total"] for row in rows}
        smallest = min(totals.get(s, 0) for s in range(self.shards))
        tied = [
            s for s in range(self.shards) if totals.get(s, 0) == smallest
        ]
        with self._placement_lock:
            self._placement_cursor += 1
            return tied[self._placement_cursor % len(tied)]

    def index_skeleton(self, tree_id: int) -> IndexSkeleton:
        """The index skeleton every handle of tree ``tree_id`` shares.

        Created empty on first use and filled by the handles' walks;
        the first sample of the tree fills its leaf-id table.  Stored
        rows never change and a ``tree_id`` is never re-issued
        in a file, so one copy is right for every handle and thread of
        this store.  It holds at most the store's ``cache_size`` rows
        per kind; a handle keeps skeleton rows past that cap in its own
        row caches, which its own ``cache_size`` bounds.
        """
        skeleton = self._skeletons.get(tree_id)
        if skeleton is None:
            skeleton = self._skeletons.setdefault(
                tree_id, IndexSkeleton(self.cache_size)
            )
        return skeleton

    def forget_tree(self, name: str, tree_id: int) -> None:
        """Drop what the store caches for a deleted tree: its index
        skeleton with its leaf-id table and time frontier, and (by
        stamping its name)
        every thread's cached handle on ``name``, which
        :meth:`open_tree` revalidates."""
        self._skeletons.pop(tree_id, None)
        self._deleted[name] = next(self._delete_stamps)

    def list_trees(self):
        """Catalogue rows of every stored tree, on this thread's reader.

        Unlike ``store.trees.list_trees()`` (which reads on the writer
        connection), this runs on the calling thread's pooled reader, so
        catalogue listings from many server threads never contend with
        the writer.  Returns a list of
        :class:`~repro.storage.tree_repository.TreeInfo`.
        """
        return catalogue_infos(self.reader_database())

    def tree_count(self) -> int:
        """Number of stored trees — one aggregate on this thread's reader."""
        row = self.reader_database().query_one(sql.TREE_COUNT)
        return int(row["n"])

    def describe(self, name: str):
        """Catalogue row of one stored tree, on this thread's reader.

        Raises
        ------
        StorageError
            If no tree of that name is stored.
        """
        return catalogue_info(self.reader_database(), name)

    def session(self):
        """A :class:`~repro.storage.verbs.LocalSession` over this store.

        The session borrows the store (closing it does not close the
        store) and presents the same :class:`CrimsonSession` protocol a
        :class:`repro.server.RemoteSession` does.
        """
        from repro.storage.verbs import LocalSession

        return LocalSession(self)

    def open_tree(
        self, name: str, cache_size: int | None = None
    ) -> StoredTree:
        """A query handle on a stored tree, bound to this thread's reader
        on the tree's shard.

        The catalogue row (read on this thread's primary reader) names
        the shard holding the tree's rows; the handle then binds to this
        thread's pooled reader on that shard.  Handles (and their warm
        row caches) are cached per thread and per tree name.  A
        ``delete_tree`` through this store stamps the name it removed;
        a cached handle whose name was stamped since it was cached is
        revalidated on its next use: the name is looked up in the
        catalogue again, and the handle is kept — row caches and scan
        memo intact — when it still resolves to the same ``tree_id``.
        Stored rows never change and ids are never re-issued, so the
        same id means the same rows; a re-stored name gets a fresh
        ``tree_id`` and so a fresh handle.  Handles on other names are
        never revalidated, and a load invalidates nothing.  Mutations
        made through *another* store or process are not observed.  Every
        handle of a tree shares the tree's index skeleton
        (:meth:`index_skeleton`).  Pass an explicit ``cache_size`` to get
        a fresh handle with empty row caches of that size; it still
        reads the shared skeleton, so for a fully cold handle call its
        ``clear_cache()``, which also empties the tree's skeleton for
        every handle.

        Raises
        ------
        StorageError
            If no tree of that name is stored.
        """
        if cache_size is not None:
            info = catalogue_info(self.reader_database(), name)
            return self.new_handle(
                self.shard_reader(info.shard), info, cache_size
            )
        handles: dict[str, tuple[int, StoredTree]] | None = getattr(
            self._local, "handles", None
        )
        if handles is None:
            handles = self._local.handles = {}
        # Read before the catalogue, so a delete racing this lookup
        # leaves a stamp that makes the next call revalidate.
        stamp = self._deleted.get(name, 0)
        entry = handles.get(name)
        cached = None
        if entry is not None and not entry[1].db.is_closed:
            cached_stamp, cached = entry
            if cached_stamp == stamp:
                return cached
        info = catalogue_info(self.reader_database(), name)
        if cached is not None and cached.info.tree_id == info.tree_id:
            handles[name] = (stamp, cached)
            return cached
        handle = self.new_handle(self.shard_reader(info.shard), info)
        handles[name] = (stamp, handle)
        return handle

    def new_handle(
        self,
        db: CrimsonDatabase,
        info: TreeInfo,
        cache_size: int | None = None,
    ) -> StoredTree:
        """A fresh query handle on the tree ``info`` describes, reading
        on ``db`` and sharing the tree's index skeleton.

        ``cache_size`` bounds the handle's row caches (default: the
        store's).  Every handle the store or its repositories open is
        built here, so :meth:`stats` counts it while it is alive.
        """
        handle = StoredTree(
            db,
            info,
            self.cache_size if cache_size is None else cache_size,
            self.index_skeleton(info.tree_id),
        )
        with self._handles_lock:
            self._live_handles.add(handle)
        return handle

    def estimate(
        self, request: QueryRequest | AnalyticsRequest
    ) -> CostEstimate:
        """Pre-flight cost estimate of one request, without running it.

        Reads only catalogue rows and this thread's live cache state —
        the estimate itself executes zero statements against the
        tree's data rows (see :mod:`repro.admission.estimator`).

        Raises
        ------
        StorageError
            If a named tree is unknown or the store is closed.
        """
        if isinstance(request, AnalyticsRequest):
            handles = [self.open_tree(name) for name in request.trees]
            return estimate_analytics(request, handles)
        if isinstance(request, QueryRequest):
            return estimate_query(request, self.open_tree(request.tree))
        raise QueryError(
            f"cannot estimate a {type(request).__name__}; expected a "
            "QueryRequest or AnalyticsRequest"
        )

    def _shard_statements(self) -> int:
        """Total statements executed across every shard's connections."""
        total = 0
        for shard in self._shards:
            total += shard.db.statements_executed
            if shard.pool is not None:
                total += shard.pool.statements_executed()
        return total

    def stats(
        self,
        request: StatsRequest | None = None,
        *,
        transport: str = "local",
    ) -> StatsSnapshot:
        """A point-in-time observability snapshot of this store.

        Sections the request does not ask for come back empty, so a
        narrow ``stats`` stays cheap over the wire.  ``transport`` is
        stamped into the service section (``"tcp"`` when the server
        answers on behalf of a remote session).
        """
        if request is None:
            request = StatsRequest()
        metrics: dict[str, Any] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        if request.wants("metrics"):
            metrics = self.metrics.snapshot()
        caches: dict[str, Any] = {}
        if request.wants("caches"):
            caches = self._stats_caches()
        pool: dict[str, Any] = {}
        if request.wants("pool"):
            pool = self._stats_pool()
        admission: dict[str, Any] = {}
        if request.wants("admission"):
            admission = {
                str(key): value
                for key, value in self.admission.snapshot().items()
            }
        slow: tuple[dict[str, Any], ...] = ()
        if request.wants("slow_queries"):
            slow = tuple(self.slow_log.entries())
        history: dict[str, Any] = {}
        if request.wants("history"):
            # On-demand rollover: pollers (``crimson top``) drive the
            # windows for a local store; the server's sampler thread
            # makes this call a cheap no-op between intervals.
            self.timeseries.sample()
            history = self.timeseries.history()
        return StatsSnapshot(
            counters=metrics["counters"],
            gauges=metrics["gauges"],
            histograms=metrics["histograms"],
            caches=caches,
            pool=pool,
            admission=admission,
            slow_queries=slow,
            history=history,
            service=dict(service_info(self, transport)),
        )

    def _stats_caches(self) -> dict[str, Any]:
        """Row-cache stats aggregated over every live query handle, with
        the store's shared skeletons counted once, and the ids held in
        their leaf-id tables and the nodes of their memoised time
        frontiers once per tree (``leaf_ids`` and ``frontier``, outside
        ``total``, which counts rows)."""
        with self._handles_lock:
            handles = list(self._live_handles)
        totals: dict[str, CacheStats] = {}
        for handle in handles:
            for name, stats in handle.cache_stats().items():
                if name == "total":
                    continue
                if name == "skeleton":
                    # Hits are per handle; rows belong to the store.
                    stats = CacheStats(hits=stats.hits)
                existing = totals.get(name)
                totals[name] = stats if existing is None else existing + stats
        out: dict[str, Any] = {"handles": len(handles)}
        if not totals:
            return out
        skeletons = list(self._skeletons.values())
        totals["skeleton"] = totals["skeleton"] + CacheStats(
            size=sum(len(skeleton) for skeleton in skeletons),
            maxsize=sum(2 * skeleton.maxsize for skeleton in skeletons),
        )
        totals["total"] = sum(totals.values(), CacheStats())
        held = sum(len(skeleton.leaf_ids or ()) for skeleton in skeletons)
        totals["leaf_ids"] = CacheStats(size=held, maxsize=held)
        held = sum(
            len(memo[1]) // 2
            for skeleton in skeletons
            if (memo := skeleton.frontier) is not None
        )
        totals["frontier"] = CacheStats(size=held, maxsize=held)
        for name in sorted(totals):
            out[name] = totals[name].as_dict()
        return out

    def health(
        self,
        *,
        transport: str = "local",
        draining: bool = False,
    ) -> HealthReport:
        """Evaluate :attr:`health_thresholds` over the history windows.

        ``draining`` is the server's shutdown signal: while set, the
        status is ``"draining"`` regardless of the checks, so a load
        balancer polling ``health`` stops routing before the listener
        closes.
        """
        self.timeseries.sample()
        snapshot = self.metrics.snapshot()
        admission = self.admission.snapshot()
        verdict = evaluate_health(
            history=self.timeseries.history(),
            counters=snapshot["counters"],
            histograms=snapshot["histograms"],
            admission=admission,
            inflight=float(admission.get("active", 0)),
            capacity=self.admission.limits.max_concurrent,
            thresholds=self.health_thresholds,
            draining=draining,
        )
        return HealthReport(
            status=verdict["status"],
            checks=tuple(verdict["checks"]),
            draining=verdict["draining"],
            service=dict(service_info(self, transport)),
        )

    def _stats_pool(self) -> dict[str, Any]:
        """Per-shard reader-pool depth and statement counts."""
        out: dict[str, Any] = {
            "writer_statements": self.db.statements_executed,
        }
        for shard in self._shards:
            entry: dict[str, Any] = {
                "shard_statements": shard.db.statements_executed,
            }
            if shard.pool is not None:
                entry["open_readers"] = shard.pool.open_readers
                entry["pool_size"] = shard.pool.size
                entry["reader_statements"] = (
                    shard.pool.statements_executed()
                )
            out[f"shard{shard.shard_id}"] = entry
        return out

    def query(
        self, request: QueryRequest, *, record: bool = False
    ) -> QueryResult:
        """Execute a typed query on this thread's reader connection.

        ``duration_ms`` of the result is the engine time: the span's
        ``engine`` phase, without handle resolution and admission.

        Parameters
        ----------
        request:
            The validated query description.
        record:
            Also record the query (with its timing and a result
            summary) in the Query Repository.  Recording writes through
            the writer connection behind a lock, so it is safe — if
            serialized — under concurrent readers.

        Raises
        ------
        QueryError
            On unknown taxa, interior-node projections, and the other
            per-operation argument errors.
        StorageError
            If the tree is unknown or the store is closed.
        ResourceError
            If admission control refuses the request (over budget,
            quota exhausted, or the concurrency cap is full).
        """
        return self._serve("query", request, record)

    def analyze(
        self, request: AnalyticsRequest, *, record: bool = False
    ) -> AnalyticsResult:
        """Execute a cross-tree analytics request on this thread's readers.

        Every named tree is opened through :meth:`open_tree`, so the
        computation runs on the calling thread's pooled read-only
        connections (and warm per-thread row caches) — the writer
        executes zero statements unless ``record`` is set.  Resolving
        the handles is part of the engine time ``duration_ms`` reports.

        Parameters
        ----------
        request:
            The validated analytics description.
        record:
            Also record the request (with its timing and a result
            summary) in the Query Repository, like :meth:`query`.

        Raises
        ------
        QueryError
            On mismatched leaf sets, unnamed leaves, and the other
            per-operation argument errors.
        StorageError
            If a named tree is unknown or the store is closed.
        ResourceError
            If admission control refuses the request (over budget,
            quota exhausted, or the concurrency cap is full).
        """
        return self._serve("analyze", request, record)

    def _serve(self, verb: str, request: Any, record: bool) -> Any:
        """The one request path behind :meth:`query` and :meth:`analyze`.

        It opens a span (or joins the one the server activated, which
        the server finishes), admits the request and runs it.  The
        phases, the ``store.<verb>.<operation>`` histogram, the
        counters, the slow log and the history row all come from the
        clock stamps around admission and the engine.  A query resolves
        its handle before admission, whose estimate prices it; an
        analytics request resolves its handles in the engine phase.
        Every error but an admission refusal counts once in
        ``store.<verb>.errors`` and fails the span.
        """
        clock = time.perf_counter
        operation = request.operation
        is_query = verb == "query"
        span = current_span()
        owned = span is None
        if owned:
            target = request.tree if is_query else " ".join(request.trees[:4])
            span = Span(verb, detail=f"{operation} {target}".strip())
        else:
            span.annotate("operation", operation)
        started = clock()
        try:
            if is_query:
                handle = self.open_tree(request.tree)
                db = handle.db
                before = db.statements_executed
            else:
                before = self._shard_statements()
            estimate = _FREE_ESTIMATE
            if not self.admission.limits.unlimited:
                estimate = self.estimate(request)
                span.annotate("estimate_cost", round(estimate.cost, 3))
        except Exception as error:
            self._failed(verb, span, owned, error)
            raise
        try:
            # A served request's quota is its connection's; a local
            # call's (no session key) is its thread's.
            slot = self.admission.admit(estimate, span.session_key)
        finally:
            admitted = clock()
            span.add_phase("admission", (admitted - started) * 1000.0)
        try:
            payload = (
                self._execute(handle, request)
                if is_query
                else self._analyze(request)
            )
            finished = clock()
        except Exception as error:
            span.add_phase("engine", (clock() - admitted) * 1000.0)
            self._failed(verb, span, owned, error)
            raise
        finally:
            slot.release()
        engine_ms = (finished - admitted) * 1000.0
        span.add_phase("engine", engine_ms)
        latency, requests, statements = self._meters.get(
            (verb, operation)
        ) or self._meter(verb, operation)
        latency.record(finished - admitted)
        requests.inc()
        statements.inc(
            (db.statements_executed if is_query else self._shard_statements())
            - before
        )
        if owned:
            span.finish()
            self.slow_log.observe(span)
        result = (QueryResult if is_query else AnalyticsResult)(
            request, engine_ms, **payload
        )
        if record:
            with self._record_lock:
                self.history.record(
                    operation,
                    request.params(),
                    tree_name=request.tree if is_query else None,
                    duration_ms=engine_ms,
                    result_summary=result.summary(),
                )
        return result

    def _meter(self, verb: str, operation: str) -> tuple:
        """The instruments one verb and operation record into, looked up
        on the operation's first success so that a snapshot shows no
        entry for an operation that never ran."""
        meter = (
            self.metrics.histogram(f"store.{verb}.{operation}"),
            self.metrics.counter(f"store.{verb}.requests"),
            self.metrics.counter("store.statements"),
        )
        self._meters[(verb, operation)] = meter
        return meter

    def _failed(
        self, verb: str, span: Span, owned: bool, error: Exception
    ) -> None:
        """Count a failed request once and fail its span; a store-owned
        span is finished and offered to the slow log."""
        self.metrics.counter(f"store.{verb}.errors").inc()
        span.fail(type(error).__name__)
        if owned:
            span.finish()
            self.slow_log.observe(span)

    def _execute(
        self, handle: StoredTree, request: QueryRequest
    ) -> dict[str, Any]:
        """Run one query operation; returns the result's payload fields.

        The engine entry points are looked up at call time
        (``handle`` methods, ``projection.project_stored``), so a
        wrapper installed on them sees every query.
        """
        operation = request.operation
        if operation == "lca":
            return {"nodes": (handle.lca_many(list(request.taxa)),)}
        if operation == "lca_batch":
            return {"nodes": tuple(handle.lca_batch(list(request.pairs)))}
        if operation == "clade":
            return {"nodes": tuple(handle.clade(list(request.taxa)))}
        if operation == "project":
            return {
                "projection": projection.project_stored(
                    handle, list(request.taxa)
                )
            }
        assert operation == "match"
        pattern = parse_newick(request.pattern)
        outcome = compare_projection(
            projection.project_stored(handle, pattern.leaf_names()),
            pattern,
            ordered=request.ordered,
        )
        return {
            "projection": outcome.projection,
            "matched": outcome.matched,
            "similarity": outcome.similarity,
        }

    def _analyze(self, request: AnalyticsRequest) -> dict[str, Any]:
        """Run one analytics operation; returns the result's payload
        fields.  Like :meth:`_execute`, it calls the analytics entry
        points through their module, so a wrapper installed on them
        sees every request."""
        handles = [self.open_tree(name) for name in request.trees]
        if request.operation == "compare":
            outcome = analytics.compare_stored(handles[0], handles[1])
            return {
                "comparison": outcome.splits,
                "shared_clusters": outcome.shared_clusters,
            }
        if request.operation == "distance_matrix":
            matrix = analytics.rf_matrix(handles)
            return {"matrix": tuple(tuple(row) for row in matrix)}
        assert request.operation == "consensus"
        tree, support = analytics.stored_consensus(
            handles, threshold=request.threshold, strict=request.strict
        )
        return {"consensus": tree, "support": support}

    def __repr__(self) -> str:
        pool = f", readers={self.pool.size}" if self.pool is not None else ""
        shards = f", shards={self.shards}" if self.shards > 1 else ""
        state = "closed" if self.is_closed else "open"
        return f"CrimsonStore({self.db.path!r}, {state}{pool}{shards})"
