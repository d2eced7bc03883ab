"""Repository Manager: relational storage for trees, species, and queries.

:class:`~repro.storage.store.CrimsonStore` is the one public entry
point — it owns the primary writer connection, the read-only reader
pools, the shard databases tree data spreads over, and the repositories
as namespaces.  The layers underneath:

* :mod:`repro.storage.store` — the store façade, shard routing, and
  typed query dispatch,
* :mod:`repro.storage.api` — ``QueryRequest`` / ``QueryResult`` and
  the ``CrimsonSession`` protocol,
* :mod:`repro.storage.verbs` — the verb registry that drives the RPC
  server's dispatch and both sessions, and the in-process
  ``LocalSession``,
* :mod:`repro.storage.wire` — the versioned JSON wire codec the
  sessions and the RPC front-end (:mod:`repro.server`) share,
* :mod:`repro.storage.pool` — pooled read-only WAL connections and the
  per-shard connection bundle,
* :mod:`repro.storage.database` — sqlite connection management,
* :mod:`repro.storage.schema` — DDL (see DESIGN.md §6),
* :mod:`repro.storage.engine` — the stored-query engine: bounded LRU row
  caches and batched ``IN (...)`` fetches behind every query handle,
* :mod:`repro.storage.cache` — the LRU cache primitive and its stats,
* :mod:`repro.storage.tree_repository` — tree rows + layered index rows,
  with SQL-backed LCA/clade/frontier queries,
* :mod:`repro.storage.species_repository` — sequence data,
* :mod:`repro.storage.query_repository` — query history with recall/re-run,
* :mod:`repro.storage.loader` — NEXUS/Newick ingestion.

The repositories, the loader and ``verify_*`` all take the store they
belong to; reach them through its namespaces.
"""

from repro.storage.cache import CacheStats, LRUCache
from repro.storage.database import CrimsonDatabase, StatementCounter
from repro.storage.engine import DEFAULT_CACHE_SIZE, StoredQueryEngine
from repro.storage.schema import SCHEMA_VERSION, create_schema
from repro.storage.tree_repository import (
    NodeRow,
    StoredTree,
    TreeInfo,
    TreeRepository,
)
from repro.storage.species_repository import SpeciesRepository
from repro.storage.query_repository import HistoryEntry, QueryRepository
from repro.storage.loader import DataLoader
from repro.storage.projection import project_stored
from repro.storage.maintenance import IntegrityReport, verify_store, verify_tree
from repro.storage.api import (
    ANALYTICS_OPERATIONS,
    OPERATIONS,
    AnalyticsRequest,
    AnalyticsResult,
    AnalyticsVerbs,
    CrimsonSession,
    QueryRequest,
    QueryResult,
    StatsRequest,
    StatsSnapshot,
)
from repro.storage.verbs import REGISTRY, LocalSession, Verb
from repro.storage.wire import PROTOCOL_VERSION
from repro.storage.pool import DEFAULT_POOL_SIZE, ReaderPool, Shard
from repro.storage.store import CrimsonStore, shard_path

__all__ = [
    "ANALYTICS_OPERATIONS",
    "AnalyticsRequest",
    "AnalyticsResult",
    "AnalyticsVerbs",
    "CacheStats",
    "CrimsonStore",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_POOL_SIZE",
    "LRUCache",
    "OPERATIONS",
    "QueryRequest",
    "QueryResult",
    "StatsRequest",
    "StatsSnapshot",
    "CrimsonSession",
    "LocalSession",
    "PROTOCOL_VERSION",
    "REGISTRY",
    "Verb",
    "ReaderPool",
    "Shard",
    "shard_path",
    "StatementCounter",
    "StoredQueryEngine",
    "project_stored",
    "IntegrityReport",
    "verify_store",
    "verify_tree",
    "CrimsonDatabase",
    "SCHEMA_VERSION",
    "create_schema",
    "NodeRow",
    "StoredTree",
    "TreeInfo",
    "TreeRepository",
    "SpeciesRepository",
    "HistoryEntry",
    "QueryRepository",
    "DataLoader",
]
