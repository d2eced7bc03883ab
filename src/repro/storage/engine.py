"""The stored-query engine: cached, batched row access for one tree.

:class:`~repro.storage.tree_repository.StoredTree` answers the paper's
queries (LCA, clades, projection) purely through SQL point lookups.
Correct — but naively each block/inode hop of each layered-LCA call is a
fresh ``SELECT``, so a query costs ``O(f · log_f d)`` statements every
time.  :class:`StoredQueryEngine` sits between the query layer and
:class:`~repro.storage.database.CrimsonDatabase` and makes the hot path
cheap in four ways:

1. **Bounded LRU caches of typed rows.**  Stored trees are immutable,
   so node rows and the layer-0 inodes a walk starts and ends on are
   cached per handle.  A warm repeat query executes **zero** SQL
   statements.  Each row is converted once, when it is fetched, into a
   frozen :mod:`repro.storage.rows` record — a ``NodeRow`` the query
   layer returns as is, an ``InodeRow`` whose Dewey label is already a
   tuple — so a hit does no column lookups and no label parsing.  Every
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
3. **One shared index skeleton per tree.**  Every block row, every
   upper-layer inode (``layer > 0``) and every inode a walk reaches
   through a block's root/source/rep reference (``inode(...,
   referenced=True)``, layer 0 included) — the ``O(n/f)`` skeleton
   every layered-LCA walk climbs — goes into the tree's
   :class:`IndexSkeleton`, not into the handle's LRU caches.  The
   store keeps one skeleton per tree and hands it to every handle it
   opens on the tree, in every thread, so a fresh handle's cold walk
   (one per trial of ``BenchmarkManager.run_trial``) re-reads none of
   the rows an earlier handle fetched.  The skeleton only grows and is
   never evicted, so a layer-0 scan (a whole-tree batch fetch through
   :meth:`StoredQueryEngine.node_rows_many`) churns only the LRU
   caches and the warm-path statement bound survives adversarial scan
   loads.  Every lookup that may hit a
   skeleton row reads the skeleton's dict first, with no lock, and a
   hit writes nothing, so a warm walk writes nothing to either
   structure.  The skeleton also carries the tree's leaf-id table,
   which the first sample fills with one ``LEAF_IDS`` read.
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
bounds each of the five row caches of a handle; the store's
``cache_size`` bounds each kind (blocks, inodes) of a tree's skeleton.
Memory is therefore at most ``5 · cache_size`` rows per open handle,
plus at most the store's ``cache_size`` skeleton rows per kind per
tree, store-wide (in practice only the
``O(n/f)`` skeleton rows: skeleton rows past the cap stay in the
handle's LRU caches instead), plus one scan table of a tree of at most
``cache_size`` nodes (for analytics, the distinct non-trivial cluster
bitmasks and two tuples of leaf names: about 570 KB for a 2,000-leaf
Yule tree, below the four-column rows it is built from), plus 8 B
per leaf of each sampled tree, store-wide.  The caches,
the scan table and the store's skeletons are the only state: there is
no module-level memo, so nothing outlives the store, and a file
re-created at the same path starts from empty skeletons.  A cached row
is a slotted record no larger than the ``sqlite3.Row`` (and its value
tuple) it replaces; an inode's label tuple takes the place of its
dotted string, and the inode caches share one record per row.  Pass
``cache_size`` through ``CrimsonStore.open(path, cache_size=...)``
(every handle the store opens, sharing the skeletons),
``CrimsonStore.open_tree`` / ``TreeRepository.open(name,
cache_size=...)`` (one handle's row caches; it still shares the tree's
skeleton), or the CLI's global ``--cache-size`` flag.
Sizing guidance: blocks and inodes above layer 0 number about ``n/f``
and ``n/(f-1)`` rows, so a bound of ``n/f`` entries keeps every
upper-layer hop in the skeleton; layer-0 node rows are only worth
caching for skewed (hot-key) workloads.  ``cache_stats()`` exposes
per-cache ``hits`` / ``misses`` / ``evictions`` and a ``skeleton``
entry so the benchmarks (``benchmarks/bench_stored_lca.py``) can verify
the warm path, and ``clear_cache()`` restores cold-start behaviour for
measurements — for every handle of the tree, as it drops the shared
skeleton and leaf-id table too.

Concurrency
-----------
An engine (like the handle that owns it) is **not** shared between
threads: ``CrimsonStore.open_tree`` hands every thread its own handle
bound to that thread's pooled read-only connection, so the LRU caches
need no locking and hit/miss counters stay exact per thread.  The
skeleton is shared: lookups read its plain dicts without a lock (a
stored row never changes, so any thread may insert it), and its one
lock, taken only around inserts, is a leaf in the lock order.
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, Iterable, Sequence, TypeVar, cast

from repro.core.dewey import DeweyLabel, label_to_string
from repro.errors import StorageError
from repro.storage import sql
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


class IndexSkeleton:
    """The index skeleton of one stored tree, shared by its handles.

    Three plain dicts — block rows by id, skeleton inode rows by id, and
    the same inode rows by ``(block, label tuple)`` — that only grow:
    every block row, every upper-layer (``layer > 0``) inode, and every
    layer-0 inode a walk reaches through a block's root/source/rep
    reference.  Stored rows never change and a ``tree_id`` is never
    re-issued, so one copy serves every handle and thread of a store.

    Lookups read the dicts directly, with no lock; :meth:`add_block` and
    :meth:`add_inode` take the lock around their insert.  Each dict
    holds at most ``maxsize`` rows (the handle's ``cache_size``): a row
    past the cap is refused and the handle keeps it in its own LRU
    cache instead.
    ``leaf_ids`` holds the pre-order ids of the tree's leaves once
    :meth:`~repro.storage.tree_repository.StoredTree.leaf_ids` has read
    them; racing fills publish equal tables.  ``frontier`` holds the
    last ``(time, spans)`` that
    :meth:`~repro.storage.tree_repository.StoredTree.frontier_spans`
    read, published whole by one assignment.
    """

    __slots__ = (
        "maxsize", "blocks", "inodes", "inode_at", "leaf_ids", "frontier",
        "_lock", "_climbable", "_checked_at",
    )

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise StorageError(f"cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.blocks: dict[int, BlockRow] = {}
        self.inodes: dict[int, InodeRow] = {}
        self.inode_at: dict[tuple[int, DeweyLabel], InodeRow] = {}
        self.leaf_ids: array | None = None
        self.frontier: tuple[float, array] | None = None
        self._lock = threading.Lock()
        # Memo of holds_climb: True once proven, else the row count
        # the last failed check saw.
        self._climbable = False
        self._checked_at = -1

    def __len__(self) -> int:
        """Rows held: blocks plus inodes (``inode_at`` re-keys the
        inodes)."""
        return len(self.blocks) + len(self.inodes)

    def add_block(self, row: BlockRow) -> bool:
        """Admit a block row; ``False`` when the skeleton is full and
        does not hold it.  A full skeleton takes no lock."""
        if len(self.blocks) < self.maxsize:
            with self._lock:
                if len(self.blocks) < self.maxsize:
                    self.blocks[row.block_id] = row
                    return True
        return row.block_id in self.blocks

    def add_inode(self, row: InodeRow) -> bool:
        """Admit an inode row under both its keys, like
        :meth:`add_block`."""
        if len(self.inodes) < self.maxsize:
            with self._lock:
                if len(self.inodes) < self.maxsize:
                    self.inodes[row.inode_id] = row
                    self.inode_at[(row.block_id, row.label)] = row
                    return True
        return row.inode_id in self.inodes

    def holds_climb(self, n_blocks: int, n_layers: int) -> bool:
        """Whether a layered walk's climb runs no SQL on a tree of
        ``n_blocks`` blocks in ``n_layers`` layers: the skeleton holds
        every block below the top layer's single block (a walk never
        reads that one) and every rep and source inode they reference.

        The skeleton only grows, so a ``True`` is kept until
        :meth:`clear`, and a ``False`` is re-checked (one pass over the
        blocks) only once the skeleton has grown.
        """
        if self._climbable:
            return True
        if len(self.blocks) < n_blocks - 1 or len(self) == self._checked_at:
            return False
        top = n_layers - 1
        with self._lock:
            self._checked_at = len(self)
            inodes = self.inodes
            below = [
                block for block in self.blocks.values() if block.layer < top
            ]
            self._climbable = len(below) >= n_blocks - 1 and all(
                (block.rep_inode_id is None or block.rep_inode_id in inodes)
                and (
                    block.source_inode_id is None
                    or block.source_inode_id in inodes
                )
                for block in below
            )
            return self._climbable

    def clear(self) -> None:
        """Drop every row, leaf id and frontier (the tree's handles start
        cold again)."""
        with self._lock:
            self.blocks.clear()
            self.inodes.clear()
            self.inode_at.clear()
            self.leaf_ids = None
            self.frontier = None
            self._climbable = False
            self._checked_at = -1


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
    skeleton:
        The tree's :class:`IndexSkeleton`, shared with the other
        handles of the store; ``None`` gives the engine a private one
        bounded by ``cache_size``.

    Notes
    -----
    The engine returns typed rows (:class:`~repro.storage.rows.NodeRow`,
    :class:`~repro.storage.rows.InodeRow`,
    :class:`~repro.storage.rows.BlockRow`, or ``None`` for absent keys)
    and never raises domain errors itself — the query layer owns the
    ``QueryError`` / ``StorageError`` vocabulary.  Rows of a stored tree
    never change, so cached rows cannot go stale; deleting and
    re-storing a tree allocates a fresh ``tree_id`` and therefore a
    fresh handle and skeleton.
    """

    def __init__(
        self,
        db: CrimsonDatabase,
        tree_id: int,
        cache_size: int = DEFAULT_CACHE_SIZE,
        skeleton: IndexSkeleton | None = None,
    ) -> None:
        self.db = db
        self.tree_id = tree_id
        self.cache_size = cache_size
        self.skeleton = skeleton if skeleton is not None else IndexSkeleton(
            cache_size
        )
        # Lookups the skeleton answered; the others are counted by the
        # row cache of their kind.
        self._skeleton_hits = 0
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

    def _remember_inode(
        self, row: InodeRow, referenced: bool = False
    ) -> InodeRow:
        # Upper-layer inodes are part of the O(n/f) skeleton of every
        # layered walk, and so are the layer-0 rows reached through
        # block root/source/rep references (``referenced``).  Everything
        # else, and skeleton rows past the skeleton's cap, stays in this
        # handle's LRU caches.
        if (referenced or row.layer > 0) and self.skeleton.add_inode(row):
            return row
        self._inodes.put(row.inode_id, row)
        self._inode_at.put((row.block_id, row.label), row)
        return row

    def _remember_block(self, values: Sequence) -> BlockRow:
        row = as_block_row(values)
        # All block rows are index skeleton (O(n/f) of them).
        if not self.skeleton.add_block(row):
            self._blocks.put(row.block_id, row)
        return row

    # ------------------------------------------------------------------
    # Node rows
    # ------------------------------------------------------------------

    def node_row(self, node_id: int) -> NodeRow | None:
        row = self._nodes.get(node_id)
        if row is not None:
            return row
        values = self.db.query_one(sql.NODE, (self.tree_id, node_id))
        return self._remember_node(values) if values is not None else None

    def node_row_by_name(self, name: str) -> NodeRow | None:
        node_id = self._node_ids.get(name)
        if node_id is not None:
            cached = self._nodes.get(node_id)
            if cached is not None:
                return cached
        values = self.db.query_one(sql.NODE_BY_NAME, (self.tree_id, name))
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
            for values in self.db.query_all(
                sql.in_list(sql.NODES_BY_IDS, len(chunk)),
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
            for values in self.db.query_all(
                sql.in_list(sql.NODES_BY_NAMES, len(chunk)),
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
            sql.SCAN_COLUMNS,
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

    def inode(
        self, inode_id: int, referenced: bool = False
    ) -> InodeRow | None:
        """Fetch an inode by id.

        ``referenced`` marks an inode a block references (its root,
        source or rep): those — layer 0 included — are part of the
        ``O(n/f)`` structure every layered walk climbs, so the row joins
        the tree's :class:`IndexSkeleton`, also when this handle's cache
        already held it.
        """
        row = self.skeleton.inodes.get(inode_id)
        if row is not None:
            self._skeleton_hits += 1
            return row
        row = self._inodes.get(inode_id)
        if row is not None:
            if referenced:
                self.skeleton.add_inode(row)
            return row
        values = self.db.query_one(sql.INODE, (self.tree_id, inode_id))
        if values is None:
            return None
        return self._remember_inode(as_inode_row(values), referenced)

    def inodes_many(
        self, inode_ids: Iterable[int], referenced: bool = False
    ) -> dict[int, InodeRow]:
        """Batch twin of :meth:`inode`: the skeleton, then this handle's
        cache, then one ``IN (...)`` fill per chunk of misses."""
        found: dict[int, InodeRow] = {}
        missing: list[int] = []
        shared = self.skeleton.inodes.get
        get = self._inodes.get
        for inode_id in dict.fromkeys(inode_ids):
            row = shared(inode_id)
            if row is not None:
                self._skeleton_hits += 1
                found[inode_id] = row
                continue
            row = get(inode_id)
            if row is None:
                missing.append(inode_id)
                continue
            if referenced:
                # Known skeleton now: a hit in this handle's cache
                # joins the shared skeleton, where scans cannot evict
                # it.
                self.skeleton.add_inode(row)
            found[inode_id] = row
        for chunk in chunked(missing):
            for values in self.db.query_all(
                sql.in_list(sql.INODES_BY_IDS, len(chunk)),
                (self.tree_id, *chunk),
                plain=True,
            ):
                row = self._remember_inode(as_inode_row(values), referenced)
                found[row.inode_id] = row
        return found

    def inode_at(self, block_id: int, label: DeweyLabel) -> InodeRow | None:
        """The inode at ``label`` (a parsed Dewey tuple) of a block."""
        key = (block_id, label)
        row = self.skeleton.inode_at.get(key)
        if row is not None:
            self._skeleton_hits += 1
            return row
        row = self._inode_at.get(key)
        if row is not None:
            return row
        values = self.db.query_one(
            sql.INODE_AT, (self.tree_id, block_id, label_to_string(label))
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
        shared = self.skeleton.inode_at.get
        get = self._inode_at.get
        for key in dict.fromkeys(keys):
            row = shared(key)
            if row is not None:
                self._skeleton_hits += 1
                found[key] = row
                continue
            row = get(key)
            if row is not None:
                found[key] = row
            else:
                missing.setdefault(key[0], []).append(label_to_string(key[1]))
        for block_id, labels in missing.items():
            for chunk in chunked(labels):
                for values in self.db.query_all(
                    sql.in_list(sql.INODES_AT, len(chunk)),
                    (self.tree_id, block_id, *chunk),
                    plain=True,
                ):
                    row = self._remember_inode(as_inode_row(values))
                    found[(row.block_id, row.label)] = row
        return found

    def block(self, block_id: int) -> BlockRow | None:
        row = self.skeleton.blocks.get(block_id)
        if row is not None:
            self._skeleton_hits += 1
            return row
        row = self._blocks.get(block_id)
        if row is not None:
            return row
        values = self.db.query_one(sql.BLOCK, (self.tree_id, block_id))
        if values is None:
            return None
        return self._remember_block(values)

    def blocks_many(self, block_ids: Iterable[int]) -> dict[int, BlockRow]:
        """Batch twin of :meth:`block`: one lookup per distinct id, the
        misses in one ``IN (...)`` fill."""
        found: dict[int, BlockRow] = {}
        missing: list[int] = []
        shared = self.skeleton.blocks.get
        get = self._blocks.get
        for block_id in dict.fromkeys(block_ids):
            row = shared(block_id)
            if row is not None:
                self._skeleton_hits += 1
                found[block_id] = row
                continue
            row = get(block_id)
            if row is not None:
                found[block_id] = row
            else:
                missing.append(block_id)
        for chunk in chunked(missing):
            for values in self.db.query_all(
                sql.in_list(sql.BLOCKS_BY_IDS, len(chunk)),
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
        """Per-cache counters, the ``"skeleton"`` entry and a
        ``"total"`` aggregate.

        The skeleton entry counts the lookups it answered for this
        handle; a lookup it cannot answer is counted, hit or miss, by
        the row cache of its kind, so ``total`` counts every lookup
        once.  Its ``size`` is the shared row count (blocks plus
        inodes) and its ``maxsize`` the cap on both.
        """
        stats = {name: cache.stats for name, cache in self._caches().items()}
        stats["skeleton"] = CacheStats(
            hits=self._skeleton_hits,
            size=len(self.skeleton),
            maxsize=2 * self.skeleton.maxsize,
        )
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
        """Drop all cached rows, the tree's shared skeleton (leaf ids
        included) and the scan table (cold-start; counters are kept)."""
        for cache in self._caches().values():
            cache.clear()
        self.skeleton.clear()
        self._scan = None

    def reset_cache_stats(self) -> None:
        for cache in self._caches().values():
            cache.reset_stats()
        self._skeleton_hits = 0

    def __repr__(self) -> str:
        total = self.cache_stats()["total"]
        return (
            f"StoredQueryEngine(tree_id={self.tree_id}, "
            f"cache_size={self.cache_size}, hits={total.hits}, "
            f"misses={total.misses})"
        )
