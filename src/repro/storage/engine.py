"""The stored-query engine: cached, batched row access for one tree.

:class:`~repro.storage.tree_repository.StoredTree` answers the paper's
queries (LCA, clades, projection) purely through SQL point lookups.
Correct — but naively each block/inode hop of each layered-LCA call is a
fresh ``SELECT``, so a query costs ``O(f · log_f d)`` statements every
time.  :class:`StoredQueryEngine` sits between the query layer and
:class:`~repro.storage.database.CrimsonDatabase` and makes the hot path
cheap in four ways:

1. **Bounded LRU caches of typed rows.**  Stored trees are immutable,
   and the index's upper layers are tiny (``O(n/f)`` rows), so block,
   inode and node rows are cached per handle.  A warm repeat query
   executes **zero** SQL statements.  Each row is converted once, when
   it is fetched, into a frozen
   :mod:`repro.storage.rows` record — a ``NodeRow`` the query layer
   returns as is, an ``InodeRow`` whose Dewey label is already a tuple
   — so a hit does no column lookups and no label parsing.  Every
   fetched row is cross-populated under all its lookup keys (an inode
   is cached by id *and* by ``(block, label tuple)``), so one access
   path warms the others.  Node ``r``'s canonical inode is inode ``r``
   (schema version 4): finding it is an inode-cache lookup or a
   primary-key fetch, with no cache of its own.
2. **Batch fetches.**  Each point lookup has a batch twin
   (``node_rows_many``, ``canonical_inodes_many``, ``blocks_many``,
   ``inodes_many``, ``inodes_at_many``): one cache ``get`` per distinct
   key, then all misses in chunked ``IN (...)`` statements — label
   lookups in one statement per block — counting one miss per distinct
   key and caching every fetched row under all its keys.  They are the
   rounds of ``StoredTree.lca_batch``'s level-synchronous walk, which
   advances all its pairs one index layer or source-chain hop at a
   time, so a cold batch (and the ``project_stored`` built on it) pays
   one round trip per round, not one per pair and hop.
3. **Segmented admission.**  Upper-layer inode rows (``layer > 0``) and
   block rows — the ``O(n/f)`` skeleton every layered-LCA walk climbs —
   are inserted *pinned* (:meth:`repro.storage.cache.LRUCache.put`
   with ``pinned=True``): a layer-0 scan (a whole-tree batch fetch
   such as
   :meth:`~repro.storage.tree_repository.StoredTree.preorder_rows`)
   churns only the probationary segment and can never evict them, so
   the warm-path statement bound survives adversarial scan loads.  A
   probationary inode the walk reaches through the skeleton is promoted
   once; a hit on an inode that is already pinned is a single ``get``
   with no re-put, so a warm walk writes nothing to the caches.
4. **A narrow scan beside the caches.**  The analytics subsystem needs
   four columns of every row, once per tree.  :meth:`scan_table` reads
   them with one primary-key range statement as plain tuples, without
   touching the row caches, hands them to a builder (the analytics
   cluster-bitmask table), and memoises the *built table* — not the
   rows — when the tree has at most ``cache_size`` nodes.  A warm
   repeat runs zero SQL and no build, and analytics never churns the
   point-query caches.

Cache knobs
-----------
``cache_size`` (per-handle, default :data:`DEFAULT_CACHE_SIZE` = 4096)
bounds **each segment** of each of the five row caches; memory is
therefore at most ``5 · cache_size`` probationary rows plus the pinned
index rows (at most ``cache_size`` each for the inode/block caches,
and in practice only the ``O(n/f)`` upper-layer rows) per open handle,
plus one scan table of a tree of at most ``cache_size`` nodes (for
analytics, the distinct non-trivial cluster bitmasks and two tuples of
leaf names: about 570 KB for a 2,000-leaf Yule tree, below the
four-column rows it is built from).  The five caches and the scan table
are the only state: there is no module-level memo, so nothing outlives
the handle.  A cached row is a slotted record
no larger than the ``sqlite3.Row`` (and its value tuple) it replaces;
an inode's label tuple takes the place of its dotted string, and the
inode caches share one record per row.  Pass ``cache_size`` through
``CrimsonStore.open(path, cache_size=...)`` (every handle the store
opens), ``CrimsonStore.open_tree`` / ``TreeRepository.open(name,
cache_size=...)`` (one handle), or the CLI's global ``--cache-size``
flag.  Sizing
guidance: blocks and inodes above layer 0 number about ``n/f`` and
``n/(f-1)`` rows, so a cache of ``n/f`` entries makes every upper-layer
hop a hit; layer-0 node rows are only worth caching for skewed (hot-key)
workloads.  ``cache_stats()`` exposes per-cache ``hits`` / ``misses`` /
``evictions`` so the benchmarks (``benchmarks/bench_stored_lca.py``) can
verify the warm path, and ``clear_cache()`` restores cold-start
behaviour for measurements.

Concurrency
-----------
An engine (like the handle that owns it) is **not** shared between
threads: ``CrimsonStore.open_tree`` hands every thread its own handle
bound to that thread's pooled read-only connection, so the caches need
no locking and hit/miss counters stay exact per thread.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar, cast

from repro.core.dewey import DeweyLabel, label_to_string
from repro.storage.cache import CacheStats, LRUCache
from repro.storage.database import CrimsonDatabase
from repro.storage.rows import (
    BlockRow,
    InodeRow,
    NodeRow,
    as_block_row,
    as_inode_row,
    as_node_row,
)

T = TypeVar("T")

DEFAULT_CACHE_SIZE = 4096
"""Default per-cache entry bound (see module docstring for sizing)."""

_IN_CHUNK = 400
"""Keys per ``IN (...)`` clause — safely under sqlite's parameter limit."""


def chunked(values: Sequence, size: int = _IN_CHUNK) -> Iterable[Sequence]:
    """``values`` in slices of at most ``size`` (one ``IN (...)`` each)."""
    for start in range(0, len(values), size):
        yield values[start : start + size]


class StoredQueryEngine:
    """Cached, batched reads over one stored tree's rows.

    Parameters
    ----------
    db:
        The open database the tree lives in.
    tree_id:
        Catalogue id of the tree this engine serves.
    cache_size:
        Entry bound applied to each individual row cache.

    Notes
    -----
    The engine returns typed rows (:class:`~repro.storage.rows.NodeRow`,
    :class:`~repro.storage.rows.InodeRow`,
    :class:`~repro.storage.rows.BlockRow`, or ``None`` for absent keys)
    and never raises domain errors itself — the query layer owns the
    ``QueryError`` / ``StorageError`` vocabulary.  Rows of a stored tree
    never change, so cached rows cannot go stale; deleting and
    re-storing a tree allocates a fresh ``tree_id`` and therefore a
    fresh handle.
    """

    def __init__(
        self,
        db: CrimsonDatabase,
        tree_id: int,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.db = db
        self.tree_id = tree_id
        self.cache_size = cache_size
        self._nodes = LRUCache(cache_size)  # node_id -> NodeRow
        self._node_ids = LRUCache(cache_size)  # name -> node_id
        self._inodes = LRUCache(cache_size)  # inode_id -> InodeRow
        self._inode_at = LRUCache(cache_size)  # (block, label) -> InodeRow
        self._blocks = LRUCache(cache_size)  # block_id -> BlockRow
        # The table built from the whole-tree narrow scan, kept only
        # when the tree fits one cache.
        self._scan: object | None = None

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _remember_node(self, values: Sequence) -> NodeRow:
        row = as_node_row(values)
        self._nodes.put(row.node_id, row)
        if row.name is not None:
            self._node_ids.put(row.name, row.node_id)
        return row

    def _remember_inode(self, row: InodeRow, pin: bool = False) -> InodeRow:
        # Upper-layer inodes are part of the O(n/f) skeleton of every
        # layered walk: pin them so layer-0 scans cannot evict them.
        # Callers set ``pin`` for layer-0 rows reached through the
        # skeleton too (block root/source/rep chains — also O(n/f)).
        pinned = pin or row.layer > 0
        self._inodes.put(row.inode_id, row, pinned=pinned)
        self._inode_at.put((row.block_id, row.label), row, pinned=pinned)
        return row

    def _remember_block(self, values: Sequence) -> BlockRow:
        row = as_block_row(values)
        # All block rows are index skeleton (O(n/f) of them): pinned.
        self._blocks.put(row.block_id, row, pinned=True)
        return row

    # ------------------------------------------------------------------
    # Node rows
    # ------------------------------------------------------------------

    def node_row(self, node_id: int) -> NodeRow | None:
        row = self._nodes.get(node_id)
        if row is not None:
            return row
        values = self.db.query_one(
            "SELECT * FROM nodes WHERE tree_id = ? AND node_id = ?",
            (self.tree_id, node_id),
        )
        return self._remember_node(values) if values is not None else None

    def node_row_by_name(self, name: str) -> NodeRow | None:
        node_id = self._node_ids.get(name)
        if node_id is not None:
            cached = self._nodes.get(node_id)
            if cached is not None:
                return cached
        values = self.db.query_one(
            "SELECT * FROM nodes INDEXED BY idx_nodes_name "
            "WHERE tree_id = ? AND name = ?",
            (self.tree_id, name),
        )
        return self._remember_node(values) if values is not None else None

    def node_rows_many(self, node_ids: Iterable[int]) -> dict[int, NodeRow]:
        """Resolve many node ids at once, via cache + ``IN (...)`` fills."""
        wanted = list(dict.fromkeys(node_ids))
        found: dict[int, NodeRow] = {}
        missing: list[int] = []
        for node_id in wanted:
            row = self._nodes.get(node_id)
            if row is not None:
                found[node_id] = row
            else:
                missing.append(node_id)
        for chunk in chunked(missing):
            placeholders = ",".join("?" for _ in chunk)
            for values in self.db.query_all(
                f"SELECT * FROM nodes WHERE tree_id = ? "
                f"AND node_id IN ({placeholders})",
                (self.tree_id, *chunk),
                plain=True,
            ):
                row = self._remember_node(values)
                found[row.node_id] = row
        return found

    def node_rows_by_names(
        self, names: Iterable[str]
    ) -> dict[str, NodeRow]:
        """Resolve many taxon names at once (absent names are omitted)."""
        wanted = list(dict.fromkeys(names))
        found: dict[str, NodeRow] = {}
        missing: list[str] = []
        for name in wanted:
            node_id = self._node_ids.get(name)
            row = self._nodes.get(node_id) if node_id is not None else None
            if row is not None:
                found[name] = row
            else:
                missing.append(name)
        for chunk in chunked(missing):
            placeholders = ",".join("?" for _ in chunk)
            for values in self.db.query_all(
                f"SELECT * FROM nodes INDEXED BY idx_nodes_name "
                f"WHERE tree_id = ? AND name IN ({placeholders})",
                (self.tree_id, *chunk),
                plain=True,
            ):
                row = self._remember_node(values)
                found[row.name] = row
        return found

    def scan_table(
        self, n_nodes: int, build: Callable[[list[tuple]], T]
    ) -> T | None:
        """``build`` over every node's ``(node_id, pre_order_end,
        is_leaf, name)``, in pre-order.

        One primary-key range statement, read as plain tuples and never
        through the row caches.  The built table — not the rows — is
        memoised when ``n_nodes <= cache_size`` (the bound under which
        the row caches could hold the whole tree), so a warm repeat
        executes zero SQL and skips ``build``; a larger tree is re-read
        on every call.  A short read — the tree was deleted under the
        handle — returns ``None`` and is never memoised.  The slot holds
        one table, so every caller passes the same ``build``.
        """
        if self._scan is not None:
            return cast(T, self._scan)
        rows = self.db.query_all(
            "SELECT node_id, pre_order_end, is_leaf, name FROM nodes "
            "WHERE tree_id = ? AND node_id BETWEEN 0 AND ? ORDER BY node_id",
            (self.tree_id, n_nodes - 1),
            plain=True,
        )
        if len(rows) != n_nodes:
            return None
        table = build(rows)
        if n_nodes <= self.cache_size:
            self._scan = table
        return table

    @property
    def scan_resident(self) -> bool:
        """Whether :meth:`scan_table` would run without SQL."""
        return self._scan is not None

    # ------------------------------------------------------------------
    # Index rows (inodes / blocks)
    # ------------------------------------------------------------------

    def canonical_inode(self, node_id: int) -> InodeRow | None:
        """Node ``node_id``'s canonical inode, which is inode
        ``node_id``: ``node_id`` must be a node of the tree, as an id
        past its nodes names an ε copy or an upper-layer inode."""
        return self.inode(node_id)

    def canonical_inodes_many(
        self, node_ids: Iterable[int]
    ) -> dict[int, InodeRow]:
        """Resolve all canonical inodes of ``node_ids`` (nodes of the
        tree, as for :meth:`canonical_inode`) in one pass.

        This is the single ``IN (...)`` primary-key fill the batched LCA
        and projection paths lean on: every per-leaf canonical inode
        arrives in one round trip instead of one point query per leaf.
        """
        return self.inodes_many(node_ids)

    def inode(self, inode_id: int, pin: bool = False) -> InodeRow | None:
        """Fetch an inode by id; ``pin`` marks it as index skeleton.

        The LCA walk sets ``pin`` when resolving block root/source/rep
        references: those inodes — layer 0 included — are part of the
        ``O(n/f)`` structure every walk climbs, so they join the pinned
        segment and survive layer-0 scans.
        """
        row = self._inodes.get(inode_id)
        if row is not None:
            if pin and not self._inodes.is_pinned(inode_id):
                # Promote a probationary hit: once an inode is known to
                # be skeleton, scans must not evict it.  A pinned hit
                # is already there and costs no re-put.
                self._remember_inode(row, pin=True)
            return row
        values = self.db.query_one(
            "SELECT * FROM inodes WHERE tree_id = ? AND inode_id = ?",
            (self.tree_id, inode_id),
        )
        if values is None:
            return None
        return self._remember_inode(as_inode_row(values), pin=pin)

    def inodes_many(
        self, inode_ids: Iterable[int], pin: bool = False
    ) -> dict[int, InodeRow]:
        """Batch twin of :meth:`inode`: one ``get`` per distinct id, the
        misses in one ``IN (...)`` fill, the same pinning rules."""
        found: dict[int, InodeRow] = {}
        missing: list[int] = []
        get = self._inodes.get
        for inode_id in dict.fromkeys(inode_ids):
            row = get(inode_id)
            if row is None:
                missing.append(inode_id)
                continue
            if pin and not self._inodes.is_pinned(inode_id):
                self._remember_inode(row, pin=True)
            found[inode_id] = row
        for chunk in chunked(missing):
            placeholders = ",".join("?" for _ in chunk)
            for values in self.db.query_all(
                f"SELECT * FROM inodes WHERE tree_id = ? "
                f"AND inode_id IN ({placeholders})",
                (self.tree_id, *chunk),
                plain=True,
            ):
                row = self._remember_inode(as_inode_row(values), pin=pin)
                found[row.inode_id] = row
        return found

    def inode_at(self, block_id: int, label: DeweyLabel) -> InodeRow | None:
        """The inode at ``label`` (a parsed Dewey tuple) of a block."""
        row = self._inode_at.get((block_id, label))
        if row is not None:
            return row
        values = self.db.query_one(
            "SELECT * FROM inodes WHERE tree_id = ? AND block_id = ? "
            "AND local_label = ?",
            (self.tree_id, block_id, label_to_string(label)),
        )
        if values is None:
            return None
        return self._remember_inode(as_inode_row(values))

    def inodes_at_many(
        self, keys: Iterable[tuple[int, DeweyLabel]]
    ) -> dict[tuple[int, DeweyLabel], InodeRow]:
        """Batch twin of :meth:`inode_at` over ``(block, label)`` keys.

        The misses are fetched with one statement per distinct block
        (``local_label IN (...)``), pinned to ``idx_inodes_label``:
        SQLite 3.40 does not probe the index for a row-value
        ``(block_id, local_label) IN (VALUES ...)``, and without the
        hint it prefers a walk over the tree's whole primary-key range.
        """
        found: dict[tuple[int, DeweyLabel], InodeRow] = {}
        missing: dict[int, list[str]] = {}
        get = self._inode_at.get
        for key in dict.fromkeys(keys):
            row = get(key)
            if row is not None:
                found[key] = row
            else:
                missing.setdefault(key[0], []).append(label_to_string(key[1]))
        for block_id, labels in missing.items():
            for chunk in chunked(labels):
                placeholders = ",".join("?" for _ in chunk)
                for values in self.db.query_all(
                    f"SELECT * FROM inodes INDEXED BY idx_inodes_label "
                    f"WHERE tree_id = ? AND block_id = ? "
                    f"AND local_label IN ({placeholders})",
                    (self.tree_id, block_id, *chunk),
                    plain=True,
                ):
                    row = self._remember_inode(as_inode_row(values))
                    found[(row.block_id, row.label)] = row
        return found

    def block(self, block_id: int) -> BlockRow | None:
        row = self._blocks.get(block_id)
        if row is not None:
            return row
        values = self.db.query_one(
            "SELECT * FROM blocks WHERE tree_id = ? AND block_id = ?",
            (self.tree_id, block_id),
        )
        if values is None:
            return None
        return self._remember_block(values)

    def blocks_many(self, block_ids: Iterable[int]) -> dict[int, BlockRow]:
        """Batch twin of :meth:`block`: one ``get`` per distinct id, the
        misses in one ``IN (...)`` fill."""
        found: dict[int, BlockRow] = {}
        missing: list[int] = []
        get = self._blocks.get
        for block_id in dict.fromkeys(block_ids):
            row = get(block_id)
            if row is not None:
                found[block_id] = row
            else:
                missing.append(block_id)
        for chunk in chunked(missing):
            placeholders = ",".join("?" for _ in chunk)
            for values in self.db.query_all(
                f"SELECT * FROM blocks WHERE tree_id = ? "
                f"AND block_id IN ({placeholders})",
                (self.tree_id, *chunk),
                plain=True,
            ):
                row = self._remember_block(values)
                found[row.block_id] = row
        return found

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    _CACHE_NAMES: tuple[str, ...] = (
        "nodes",
        "node_ids",
        "inodes",
        "inode_at",
        "blocks",
    )

    def _caches(self) -> dict[str, LRUCache]:
        return {name: getattr(self, f"_{name}") for name in self._CACHE_NAMES}

    def cache_stats(self) -> dict[str, CacheStats]:
        """Per-cache counters plus a ``"total"`` aggregate."""
        stats = {name: cache.stats for name, cache in self._caches().items()}
        total = CacheStats()
        for value in stats.values():
            total = total + value
        stats["total"] = total
        return stats

    def resident_fraction(self, items: Iterable[int | str]) -> float:
        """Fraction of ``items`` already resident in the row caches.

        Names probe the name→id cache, ids the node-row cache, via
        membership tests only — residency probes must not perturb the
        hit/miss counters or the LRU recency order they report on
        (:meth:`repro.storage.cache.LRUCache.__contains__` guarantees
        both).  The admission estimator uses this to scale a request's
        predicted statement count: resolving a warm taxon costs zero
        SQL, a cold one is a real fetch.  Returns ``1.0`` for an empty
        probe (nothing to fetch is fully resident).
        """
        probed = list(dict.fromkeys(items))
        if not probed:
            return 1.0
        resident = sum(
            1
            for item in probed
            if (item in self._node_ids if isinstance(item, str) else item in self._nodes)
        )
        return resident / len(probed)

    def clear_cache(self) -> None:
        """Drop all cached rows and the scan table (cold-start; counters
        are kept)."""
        for cache in self._caches().values():
            cache.clear()
        self._scan = None

    def reset_cache_stats(self) -> None:
        for cache in self._caches().values():
            cache.reset_stats()

    def __repr__(self) -> str:
        total = self.cache_stats()["total"]
        return (
            f"StoredQueryEngine(tree_id={self.tree_id}, "
            f"cache_size={self.cache_size}, hits={total.hits}, "
            f"misses={total.misses})"
        )
