"""The Tree Repository: relational storage and index-backed queries.

Storing a tree materializes three things in one transaction: the node
table (pre-order ids, parent pointers, depths, weighted root distances,
clade intervals), the layered-label index (``blocks``/``inodes`` rows,
one-for-one with :class:`~repro.core.hindex.HierarchicalIndex`), and the
tree's catalogue row.

Queries against a stored tree run through :class:`StoredTree`, which
answers LCA with the paper's layered algorithm *directly over SQL row
fetches* — no in-memory index is rebuilt — demonstrating the paper's
point that single queries touch only a small portion of a huge tree.
Row access is mediated by a per-handle
:class:`~repro.storage.engine.StoredQueryEngine`, which LRU-caches the
immutable block/inode/node rows as typed records
(:mod:`repro.storage.rows`) and batches multi-key fetches, so the warm
path executes zero SQL statements and ``lca_batch`` walks whole
workloads up the index in lock step, a round of ``IN (...)`` queries
per layer and source-chain hop.  :class:`NodeRow`
lives in :mod:`repro.storage.rows` and is re-exported here.
"""

from __future__ import annotations

import datetime as _datetime
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.dewey import DeweyLabel, common_prefix, label_to_string
from repro.core.hindex import HierarchicalIndex
from repro.core.lca import DEFAULT_LABEL_BOUND
from repro.errors import QueryError, StorageError
from repro.storage.cache import CacheStats
from repro.storage.database import CrimsonDatabase, Row
from repro.storage.engine import DEFAULT_CACHE_SIZE, StoredQueryEngine, T
from repro.storage.rows import BlockRow, InodeRow, NodeRow, as_node_row
from repro.trees.node import Node
from repro.trees.traversal import preorder_intervals
from repro.trees.tree import PhyloTree

if TYPE_CHECKING:
    from repro.storage.store import CrimsonStore


@dataclass(frozen=True)
class TreeInfo:
    """Catalogue row of a stored tree.

    ``shard`` names the database file holding the tree's
    ``nodes``/``inodes``/``blocks`` rows; ``0`` is the primary file
    (the only value single-file and pre-sharding stores ever record).
    """

    tree_id: int
    name: str
    n_nodes: int
    n_leaves: int
    max_depth: int
    f: int
    n_layers: int
    n_blocks: int
    created_at: str
    description: str
    shard: int = 0

    @property
    def node_count(self) -> int:
        """Total stored nodes (spelled-out alias of ``n_nodes``)."""
        return self.n_nodes

    @property
    def leaf_count(self) -> int:
        """Stored leaves, i.e. species (alias of ``n_leaves``)."""
        return self.n_leaves


def _info_of(row: Row) -> TreeInfo:
    """The :class:`TreeInfo` of one ``trees`` row."""
    return TreeInfo(
        tree_id=row["tree_id"],
        name=row["name"],
        n_nodes=row["n_nodes"],
        n_leaves=row["n_leaves"],
        max_depth=row["max_depth"],
        f=row["f"],
        n_layers=row["n_layers"],
        n_blocks=row["n_blocks"],
        created_at=row["created_at"],
        description=row["description"],
        # Read-only snapshots of pre-migration files lack the column.
        shard=row["shard"] if "shard" in row.keys() else 0,
    )


def catalogue_info(db: CrimsonDatabase, name: str) -> TreeInfo:
    """Catalogue entry of one stored tree, read on ``db``.

    ``db`` is any connection to the primary file: the store's writer,
    or a pooled reader so catalogue lookups never queue behind it.

    Raises
    ------
    StorageError
        If no tree of that name is stored.
    """
    row = db.query_one("SELECT * FROM trees WHERE name = ?", (name,))
    if row is None:
        raise StorageError(f"no tree named {name!r} in the repository")
    return _info_of(row)


def catalogue_infos(db: CrimsonDatabase) -> list[TreeInfo]:
    """Every catalogue entry, ordered by name, in one statement on ``db``."""
    return [
        _info_of(row)
        for row in db.query_all("SELECT * FROM trees ORDER BY name")
    ]


class TreeRepository:
    """Stores and serves phylogenetic trees of one Crimson store.

    Reach it as ``store.trees``.  Catalogue rows live on the store's
    primary writer; each new tree's data rows go to the shard
    :meth:`~repro.storage.store.CrimsonStore.place_tree` picks, and
    every handle it opens is bounded by the store's ``cache_size``.
    """

    def __init__(self, store: CrimsonStore) -> None:
        self.store = store
        self.db = store.db

    def _allocate_tree_id(self) -> int:
        """Reserve a catalogue id without inserting the catalogue row.

        Cross-file placement writes a tree's data rows *before* its
        catalogue row (so readers never see a catalogued tree whose rows
        are still in flight), which means the id must exist before the
        ``trees`` insert.  The counter in ``meta`` is monotonic and never
        re-issues an id — even after the highest-numbered tree is
        deleted — so orphaned data rows from a failed load can never
        collide with a later tree.  Files that predate the counter
        start it above their highest catalogued id.
        """
        with self.db.transaction() as connection:
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'next_tree_id'"
            ).fetchone()
            highest = connection.execute(
                "SELECT COALESCE(MAX(tree_id), 0) FROM trees"
            ).fetchone()[0]
            tree_id = max(int(row[0]) if row is not None else 1, highest + 1)
            connection.execute(
                "INSERT OR REPLACE INTO meta(key, value) "
                "VALUES ('next_tree_id', ?)",
                (str(tree_id + 1),),
            )
        return tree_id

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def store_tree(
        self,
        tree: PhyloTree,
        name: str | None = None,
        f: int = DEFAULT_LABEL_BOUND,
        description: str = "",
    ) -> "StoredTree":
        """Persist ``tree`` with its layered index and return a handle.

        Parameters
        ----------
        tree:
            The tree to store (not modified).
        name:
            Repository key; defaults to ``tree.name``.
        f:
            Label bound for the hierarchical index.
        description:
            Free-text note recorded in the catalogue.

        Raises
        ------
        StorageError
            If no name is available or the name is already taken.
        """
        key = name or tree.name
        if not key:
            raise StorageError("a stored tree needs a name")
        if self.db.query_one("SELECT 1 FROM trees WHERE name = ?", (key,)):
            raise StorageError(f"a tree named {key!r} is already stored")

        index = HierarchicalIndex(tree, f)
        intervals = preorder_intervals(tree)
        depths = tree.depths()
        distances = tree.distances_from_root()

        order: list[Node] = list(tree.preorder())
        rank = {id(node): position for position, node in enumerate(order)}

        shard = self.store.place_tree()
        data_db = self.store.shard_database(shard)
        catalogue = (
            key,
            len(order),
            sum(1 for node in order if not node.children),
            max(depths.values()),
            f,
            index.n_layers,
            index.n_blocks(),
            _datetime.datetime.now(_datetime.timezone.utc).isoformat(),
            description,
            shard,
        )

        def insert_rows(connection, tree_id: int) -> None:
            self._insert_tree_rows(
                connection, tree_id, order, rank, index, intervals,
                depths, distances,
            )

        tree_id = self._allocate_tree_id()
        if data_db is self.db:
            # Primary placement (single-file stores and shard 0): one
            # atomic transaction, under an allocator id so this row can
            # never collide with an id reserved by a concurrent (or
            # crashed) load on another shard.
            with self.db.transaction() as connection:
                connection.execute(
                    """
                    INSERT INTO trees
                        (tree_id, name, n_nodes, n_leaves, max_depth, f,
                         n_layers, n_blocks, created_at, description, shard)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (tree_id, *catalogue),
                )
                insert_rows(connection, tree_id)
        else:
            # Cross-file placement: data rows commit into the shard
            # first (under a pre-allocated id), the catalogue row last —
            # a reader can never resolve a catalogue row whose shard
            # rows are missing.  If the catalogue insert fails, the
            # shard rows are purged (and, being uncatalogued under a
            # never-reused id, are invisible garbage even if the purge
            # itself fails mid-crash).
            with data_db.transaction() as connection:
                insert_rows(connection, tree_id)
            try:
                with self.db.transaction() as connection:
                    connection.execute(
                        """
                        INSERT INTO trees
                            (tree_id, name, n_nodes, n_leaves, max_depth, f,
                             n_layers, n_blocks, created_at, description,
                             shard)
                        VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                        """,
                        (tree_id, *catalogue),
                    )
            except BaseException:
                self._purge_data_rows(data_db, tree_id)
                raise

        return StoredTree(
            data_db, self.info(key), cache_size=self.store.cache_size
        )

    @staticmethod
    def _insert_tree_rows(
        connection, tree_id, order, rank, index, intervals, depths, distances
    ) -> None:
        """Bulk-insert one tree's ``nodes``/``inodes``/``blocks`` rows."""
        node_rows = (
            (
                tree_id,
                rank[id(node)],
                rank[id(node.parent)] if node.parent is not None else None,
                node.child_order,
                node.name,
                node.length,
                depths[id(node)],
                distances[id(node)],
                intervals[id(node)][1],
                int(not node.children),
            )
            for node in order
        )
        connection.executemany(
            """
            INSERT INTO nodes
                (tree_id, node_id, parent_id, child_order, name,
                 edge_length, depth, dist_from_root, pre_order_end, is_leaf)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            node_rows,
        )

        canonical = {
            inode for inode in getattr(index, "_inode_of_node").values()
        }
        inode_rows = (
            (
                tree_id,
                inode_id,
                index.inode_layer[inode_id],
                index.inode_block[inode_id],
                label_to_string(index.inode_label[inode_id]),
                len(index.inode_label[inode_id]),
                (
                    rank[id(index.inode_orig[inode_id])]
                    if index.inode_orig[inode_id] is not None
                    else None
                ),
                index.inode_represents[inode_id],
                int(inode_id in canonical),
            )
            for inode_id in range(index.n_inodes())
        )
        connection.executemany(
            """
            INSERT INTO inodes
                (tree_id, inode_id, layer, block_id, local_label,
                 label_depth, orig_node_id, represents_block_id,
                 is_canonical)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            inode_rows,
        )

        block_rows = (
            (
                tree_id,
                block_id,
                index.block_layer[block_id],
                index.block_root_inode[block_id],
                index.block_source_inode[block_id],
                index.block_rep_inode[block_id],
            )
            for block_id in range(index.n_blocks())
        )
        connection.executemany(
            """
            INSERT INTO blocks
                (tree_id, block_id, layer, root_inode_id,
                 source_inode_id, rep_inode_id)
            VALUES (?, ?, ?, ?, ?, ?)
            """,
            block_rows,
        )

    @staticmethod
    def _purge_data_rows(data_db: CrimsonDatabase, tree_id: int) -> None:
        """Best-effort removal of a tree's data rows from its shard."""
        try:
            with data_db.transaction() as connection:
                for table in ("inodes", "blocks", "nodes"):
                    connection.execute(
                        f"DELETE FROM {table} WHERE tree_id = ?", (tree_id,)
                    )
        except StorageError:
            # The id is never re-issued, so leftover rows are inert.
            pass

    # ------------------------------------------------------------------
    # Catalogue
    # ------------------------------------------------------------------

    def info(self, name: str) -> TreeInfo:
        """Catalogue entry for a stored tree.

        Raises
        ------
        StorageError
            If no tree of that name is stored.
        """
        return catalogue_info(self.db, name)

    def open(self, name: str, cache_size: int | None = None) -> "StoredTree":
        """Open a query handle on a stored tree.

        The handle binds to the writer of the shard the tree's catalogue
        row names.  ``cache_size`` overrides the store's default for
        this handle.
        """
        size = cache_size if cache_size is not None else self.store.cache_size
        info = self.info(name)
        return StoredTree(
            self.store.shard_database(info.shard), info, cache_size=size
        )

    def list_trees(self) -> list[TreeInfo]:
        """All catalogue entries, ordered by name (one statement)."""
        return catalogue_infos(self.db)

    def delete_tree(self, name: str) -> None:
        """Remove a stored tree and all dependent rows.

        Raises
        ------
        StorageError
            If no tree of that name is stored.
        """
        info = self.info(name)
        data_db = self.store.shard_database(info.shard)
        if data_db is self.db:
            with self.db.transaction() as connection:
                # Explicit deletes keep the behaviour identical whether or
                # not the connection enforces foreign keys.
                for table in ("species", "inodes", "blocks", "nodes"):
                    connection.execute(
                        f"DELETE FROM {table} WHERE tree_id = ?", (info.tree_id,)
                    )
                connection.execute(
                    "DELETE FROM trees WHERE tree_id = ?", (info.tree_id,)
                )
        else:
            # Catalogue first: once the row is gone the tree is
            # unreachable, so a failure before the shard purge leaves
            # only invisible garbage (flagged by verify's orphan check),
            # never a catalogued tree with missing rows.
            with self.db.transaction() as connection:
                connection.execute(
                    "DELETE FROM species WHERE tree_id = ?", (info.tree_id,)
                )
                connection.execute(
                    "DELETE FROM trees WHERE tree_id = ?", (info.tree_id,)
                )
            with data_db.transaction() as connection:
                for table in ("inodes", "blocks", "nodes"):
                    connection.execute(
                        f"DELETE FROM {table} WHERE tree_id = ?", (info.tree_id,)
                    )
        self.store._bump_catalogue_epoch()

    def __repr__(self) -> str:
        return f"TreeRepository({self.db!r})"


class StoredTree:
    """Query handle over one stored tree; all reads go through SQL.

    Point lookups are served by a per-handle
    :class:`~repro.storage.engine.StoredQueryEngine`: stored rows are
    immutable, so the engine's LRU caches make repeated block/inode hops
    free, and its ``IN (...)`` batch fills back :meth:`lca_batch` and
    :meth:`nodes_by_name`.  Cached ``NodeRow`` records are returned as they
    are; scan-shaped reads (:meth:`clade`, :meth:`leaves`,
    :meth:`leaves_in_subtree`, ...) build theirs by position from plain
    tuples.  ``cache_size`` bounds each row cache; :meth:`cache_stats`
    exposes the counters.

    A handle is bound to one ``tree_id``.  ``CrimsonStore.open_tree``
    caches handles per thread and, after a delete, revalidates them
    tree by tree: a handle whose name still resolves to its
    ``tree_id`` is kept with its warm caches, while a deleted and
    re-stored name gets a new handle.  A handle held across the delete
    of its own tree raises :class:`StorageError` on its next miss.
    """

    def __init__(
        self,
        db: CrimsonDatabase,
        info: TreeInfo,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.db = db
        self.info = info
        self._tree_id = info.tree_id
        self.engine = StoredQueryEngine(db, info.tree_id, cache_size)

    def _raise_missing(self, message: str) -> None:
        """Raise for a row lookup that found nothing.

        Distinguishes the two reasons a row can be absent: the taxon
        genuinely isn't in the tree (:class:`QueryError`), or the whole
        tree was deleted out from under this handle and its row set is
        gone (:class:`StorageError` — the delete-then-query race a
        long-lived handle can lose).  Without the probe, a stale handle
        would misreport every lookup as an unknown-taxon error.
        """
        probe = self.db.query_one(
            "SELECT 1 FROM nodes WHERE tree_id = ? LIMIT 1", (self._tree_id,)
        )
        if probe is None:
            raise StorageError(
                f"tree {self.info.name!r} (id {self._tree_id}) is no longer "
                "stored; this handle is stale — reopen it via "
                "CrimsonStore.open_tree"
            )
        raise QueryError(message)

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------

    def _scan(self, sql: str, parameters: tuple) -> list[NodeRow]:
        """``nodes`` rows of a scan-shaped read, built by position."""
        return [
            as_node_row(values)
            for values in self.db.query_all(sql, parameters, plain=True)
        ]

    def node(self, node_id: int) -> NodeRow:
        """Fetch a node by pre-order id.

        Raises
        ------
        QueryError
            If the id does not exist in this tree.
        """
        row = self.engine.node_row(node_id)
        if row is None:
            self._raise_missing(
                f"no node {node_id} in tree {self.info.name!r}"
            )
        return row

    def node_by_name(self, name: str) -> NodeRow:
        """Fetch a node by taxon name (index-backed point lookup).

        Raises
        ------
        QueryError
            If the name is absent.
        """
        row = self.engine.node_row_by_name(name)
        if row is None:
            self._raise_missing(
                f"no node named {name!r} in tree {self.info.name!r}"
            )
        return row

    def nodes_by_name(self, names: Sequence[str]) -> list[NodeRow]:
        """Fetch many nodes by name in one batched ``IN (...)`` query.

        Returns rows in input order (duplicates allowed).

        Raises
        ------
        QueryError
            If any name is absent.
        """
        return self._resolve_rows(list(names))

    def nodes_by_id(self, node_ids: Sequence[int]) -> list[NodeRow]:
        """Fetch many nodes by pre-order id in one batched ``IN (...)``
        query — the by-id twin of :meth:`nodes_by_name`.

        Returns rows in input order (duplicates allowed) and leaves them
        in the node and name caches, so a later lookup of the same rows
        by id or by name runs no SQL.

        Raises
        ------
        QueryError
            If any id is absent.
        StorageError
            If the tree was deleted out from under this handle.
        """
        return self._resolve_rows(list(node_ids))

    def root(self) -> NodeRow:
        """The root row (pre-order id 0)."""
        return self.node(0)

    def preorder_rows(self) -> list[NodeRow]:
        """Every node row in pre-order, through the engine's batch fetch.

        Cold it costs ``ceil(n / chunk)`` ``IN (...)`` statements and
        fills the node-row cache; a warm repeat (``cache_size >= n``)
        costs **zero** — while the engine's segmented admission keeps
        the scan from evicting the pinned upper-layer index rows the
        point-query warm path depends on.  Analytics reads the narrower
        :meth:`scan_table` instead.

        Raises
        ------
        StorageError
            If the tree was deleted out from under this handle.
        """
        found = self.engine.node_rows_many(range(self.info.n_nodes))
        if len(found) != self.info.n_nodes:
            self._raise_missing(
                f"tree {self.info.name!r} is missing node rows "
                f"({len(found)} of {self.info.n_nodes})"
            )
        return [found[node_id] for node_id in range(self.info.n_nodes)]

    def scan_table(self, build: Callable[[list[tuple]], T]) -> T:
        """``build`` over every node's ``(node_id, pre_order_end,
        is_leaf, name)`` in pre-order — the four columns cluster
        extraction reads.

        One primary-key range statement cold; zero, and no ``build``,
        when the engine has the built table memoised
        (:meth:`~repro.storage.engine.StoredQueryEngine.scan_table`).

        Raises
        ------
        StorageError
            If the tree was deleted out from under this handle.
        """
        table = self.engine.scan_table(self.info.n_nodes, build)
        if table is None:
            self._raise_missing(
                f"tree {self.info.name!r} is missing node rows"
            )
        return table

    def leaves(self) -> list[NodeRow]:
        """All leaf rows in pre-order."""
        return self._scan(
            "SELECT * FROM nodes WHERE tree_id = ? AND is_leaf = 1 "
            "ORDER BY node_id",
            (self._tree_id,),
        )

    def leaf_names(self) -> list[str]:
        """Names of all leaves in pre-order.

        Raises
        ------
        StorageError
            If the tree was deleted out from under this handle.
        """
        rows = self.db.query_all(
            "SELECT name FROM nodes WHERE tree_id = ? AND is_leaf = 1 "
            "ORDER BY node_id",
            (self._tree_id,),
            plain=True,
        )
        if len(rows) != self.info.n_leaves:
            self._raise_missing(
                f"tree {self.info.name!r} is missing leaf rows "
                f"({len(rows)} of {self.info.n_leaves})"
            )
        return [name for (name,) in rows]

    def children(self, node_id: int) -> list[NodeRow]:
        """Child rows of a node, in child order."""
        return self._scan(
            "SELECT * FROM nodes INDEXED BY idx_nodes_parent "
            "WHERE tree_id = ? AND parent_id = ? ORDER BY child_order",
            (self._tree_id, node_id),
        )

    # ------------------------------------------------------------------
    # Layered LCA over SQL
    # ------------------------------------------------------------------

    def _canonical_inode(self, node_id: int) -> InodeRow:
        row = self.engine.canonical_inode(node_id)
        if row is None:
            raise StorageError(
                f"index corrupt: no canonical inode for node {node_id}"
            )
        return row

    def _inode(self, inode_id: int) -> InodeRow:
        # Only ever called to resolve block root/source/rep references,
        # which are index skeleton: pin them against layer-0 scans.
        row = self.engine.inode(inode_id, pin=True)
        if row is None:
            raise StorageError(f"index corrupt: missing inode {inode_id}")
        return row

    def _inode_at(self, block_id: int, label: DeweyLabel) -> InodeRow:
        row = self.engine.inode_at(block_id, label)
        if row is None:
            raise StorageError(
                f"index corrupt: no inode at block {block_id} "
                f"label {label_to_string(label)!r}"
            )
        return row

    def _block(self, block_id: int) -> BlockRow:
        row = self.engine.block(block_id)
        if row is None:
            raise StorageError(f"index corrupt: missing block {block_id}")
        return row

    def lca(self, a: int | str, b: int | str) -> NodeRow:
        """LCA of two nodes given by id or name, via the layered index.

        Every step is an indexed point query (served from the row cache
        when warm); the number of steps is bounded by the number of
        layers plus the block-chain hops, never by the raw tree depth.
        """
        row_a = self.node_by_name(a) if isinstance(a, str) else self.node(a)
        row_b = self.node_by_name(b) if isinstance(b, str) else self.node(b)
        return self._lca_rows(row_a, row_b)

    def _lca_rows(self, row_a: NodeRow, row_b: NodeRow) -> NodeRow:
        """LCA given both node rows (no argument re-fetching).

        When one argument is an ancestor-or-self of the other, the
        stored clade interval answers immediately; otherwise the
        layered algorithm runs over (cached) index rows.
        """
        if row_a.contains(row_b.node_id):
            return row_a
        if row_b.contains(row_a.node_id):
            return row_b
        inode_a = self._canonical_inode(row_a.node_id)
        inode_b = self._canonical_inode(row_b.node_id)
        orig = self._lca_inode(inode_a, inode_b).orig_node_id
        if orig is None:
            raise StorageError("index corrupt: layer-0 LCA without original node")
        return self.node(orig)

    def _lca_inode(self, inode_a: InodeRow, inode_b: InodeRow) -> InodeRow:
        if inode_a.block_id == inode_b.block_id:
            return self._inode_at(
                inode_a.block_id, common_prefix(inode_a.label, inode_b.label)
            )
        rep_a = self._block(inode_a.block_id).rep_inode_id
        rep_b = self._block(inode_b.block_id).rep_inode_id
        if rep_a is None or rep_b is None:
            raise StorageError("index corrupt: multi-block layer lacks reps")
        upper = self._lca_inode(self._inode(rep_a), self._inode(rep_b))
        target_block = upper.represents_block_id
        if target_block is None:
            raise StorageError("index corrupt: upper inode without block ref")
        anc_a = self._ancestor_in_block(inode_a, target_block)
        anc_b = self._ancestor_in_block(inode_b, target_block)
        return self._inode_at(target_block, common_prefix(anc_a.label, anc_b.label))

    def _ancestor_in_block(self, inode: InodeRow, target_block: int) -> InodeRow:
        while inode.block_id != target_block:
            source = self._block(inode.block_id).source_inode_id
            if source is None:
                raise StorageError("index corrupt: source chain left the tree")
            inode = self._inode(source)
        return inode

    def _resolve_rows(self, items: Sequence[int | str]) -> list[NodeRow]:
        """Resolve a mixed id/name sequence to rows with batched fetches."""
        names = [item for item in items if isinstance(item, str)]
        ids = [item for item in items if not isinstance(item, str)]
        by_name = self.engine.node_rows_by_names(names) if names else {}
        by_id = self.engine.node_rows_many(ids) if ids else {}
        rows: list[NodeRow] = []
        for item in items:
            row = by_name.get(item) if isinstance(item, str) else by_id.get(item)
            if row is None:
                kind = "node named" if isinstance(item, str) else "node"
                self._raise_missing(
                    f"no {kind} {item!r} in tree {self.info.name!r}"
                )
            rows.append(row)
        return rows

    def lca_many(self, names_or_ids: Sequence[int | str]) -> NodeRow:
        """LCA of a non-empty collection of nodes.

        Argument rows arrive in one batched fetch and are folded with
        :meth:`_lca_rows` — no per-iteration re-fetch of the running
        result.  Like the in-memory ``lca_many`` implementations, the
        fold exits as soon as it reaches the root: items after that
        point are never inspected (an unknown name there does not
        raise).

        Raises
        ------
        QueryError
            If the collection is empty, or an unknown item is reached
            before the fold hits the root.
        """
        if not names_or_ids:
            raise QueryError("cannot take the LCA of zero nodes")
        items = list(names_or_ids)
        names = [item for item in items if isinstance(item, str)]
        ids = [item for item in items if not isinstance(item, str)]
        by_name = self.engine.node_rows_by_names(names) if names else {}
        by_id = self.engine.node_rows_many(ids) if ids else {}

        def row_of(item: int | str) -> NodeRow:
            row = by_name.get(item) if isinstance(item, str) else by_id.get(item)
            if row is None:
                kind = "node named" if isinstance(item, str) else "node"
                self._raise_missing(
                    f"no {kind} {item!r} in tree {self.info.name!r}"
                )
            return row

        # Warm the canonical inodes the fold can actually need.  If a
        # consecutive pair is ancestor-related, the running result (an
        # ancestor of the left element) is ancestor-related to the right
        # element too, so that step short-circuits on the interval and
        # needs no index rows.  Unresolved items are skipped here — they
        # only matter (and raise) if the fold reaches them.
        resolved = [
            row
            for row in (
                by_name.get(item) if isinstance(item, str) else by_id.get(item)
                for item in items
            )
            if row is not None
        ]
        need_index = {
            row.node_id
            for left, right in zip(resolved, resolved[1:])
            if not left.contains(right.node_id)
            and not right.contains(left.node_id)
            for row in (left, right)
        }
        if need_index:
            self.engine.canonical_inodes_many(sorted(need_index))

        result = row_of(items[0])
        for item in items[1:]:
            result = self._lca_rows(result, row_of(item))
            if result.node_id == 0:
                break
        return result

    def lca_batch(
        self, pairs: Sequence[tuple[int | str, int | str]]
    ) -> list[NodeRow]:
        """LCA of many pairs at once (one result row per input pair).

        Argument rows are resolved with chunked ``IN (...)`` queries and
        ancestor-or-self pairs answer from the clade interval.  The
        other pairs climb the layered index together, one layer at a
        time (:meth:`_lca_level`): each round of the walk resolves its
        keys with one cache pass and fetches all its misses of a kind
        with one statement.  A cold batch costs one canonical-inode
        fill, one block and one rep-inode fill per layer, two fills per
        source-chain hop, one label lookup per distinct target block
        and one fill of result rows — a count set by the index shape and
        the blocks the pairs land in, not by the number of pairs (see
        ``benchmarks/bench_stored_lca.py``).  A warm batch runs no SQL.

        :meth:`lca` and the :meth:`lca_many` fold keep the recursive
        per-pair walk: for one warm pair it is two to three times
        cheaper than building the rounds.

        Raises
        ------
        QueryError
            If an argument is unknown.
        StorageError
            If the index is corrupt (the messages of :meth:`lca`) or the
            tree was deleted out from under this handle.
        """
        pair_list = list(pairs)
        rows = self._resolve_rows([item for pair in pair_list for item in pair])
        results = rows[0::2]
        walked: list[int] = []
        for index, (row_a, row_b) in enumerate(zip(results, rows[1::2])):
            if row_a.contains(row_b.node_id):
                continue
            if row_b.contains(row_a.node_id):
                results[index] = row_b
            else:
                walked.append(index)
        if not walked:
            return results
        starts = [rows[2 * i + side].node_id for i in walked for side in (0, 1)]
        canonical = self.engine.canonical_inodes_many(starts)
        try:
            inodes = [canonical[node_id] for node_id in starts]
        except KeyError as error:
            raise StorageError(
                f"index corrupt: no canonical inode for node {error.args[0]}"
            ) from None
        origs = [top.orig_node_id for top in self._lca_level(inodes)]
        if None in origs:
            raise StorageError("index corrupt: layer-0 LCA without original node")
        found = self.engine.node_rows_many(origs)
        for index, orig in zip(walked, origs):
            row = found.get(orig)
            if row is None:
                self._raise_missing(f"no node {orig} in tree {self.info.name!r}")
            results[index] = row
        return results

    def _lca_level(self, sides: list[InodeRow]) -> list[InodeRow]:
        """LCA inodes of the same-layer pairs ``(sides[2k], sides[2k+1])``.

        The level-synchronous form of :meth:`_lca_inode`: the pairs
        split across blocks fetch their blocks in one round and their
        rep inodes in the next, recurse one layer up together, then
        climb their source chains one hop per round for all of them
        (:meth:`_climb_to`).  Every pair's common-prefix inode then
        comes from one label lookup per distinct block.
        """
        split = [
            k
            for k in range(0, len(sides), 2)
            if sides[k].block_id != sides[k + 1].block_id
        ]
        if split:
            climbing = [sides[k + side] for k in split for side in (0, 1)]
            rep_ids = [block.rep_inode_id for block in self._blocks_of(climbing)]
            if None in rep_ids:
                raise StorageError("index corrupt: multi-block layer lacks reps")
            targets = [
                upper.represents_block_id
                for upper in self._lca_level(self._inodes_by_id(rep_ids))
            ]
            if None in targets:
                raise StorageError("index corrupt: upper inode without block ref")
            sides = list(sides)
            climbed = iter(self._climb_to(climbing, targets))
            for k in split:
                sides[k] = next(climbed)
                sides[k + 1] = next(climbed)
        keys = [
            (sides[k].block_id, common_prefix(sides[k].label, sides[k + 1].label))
            for k in range(0, len(sides), 2)
        ]
        found = self.engine.inodes_at_many(keys)
        try:
            return [found[key] for key in keys]
        except KeyError as error:
            block_id, label = error.args[0]
            raise StorageError(
                f"index corrupt: no inode at block {block_id} "
                f"label {label_to_string(label)!r}"
            ) from None

    def _climb_to(
        self, inodes: list[InodeRow], targets: list[int]
    ) -> list[InodeRow]:
        """Each pair side's ancestor in its pair's target block
        (``inodes[j]`` climbs to ``targets[j // 2]``), one source-chain
        hop per round for every side still below its target."""
        current = list(inodes)
        pending = [
            j for j, inode in enumerate(current) if inode.block_id != targets[j // 2]
        ]
        while pending:
            source_ids = [
                block.source_inode_id
                for block in self._blocks_of([current[j] for j in pending])
            ]
            if None in source_ids:
                raise StorageError("index corrupt: source chain left the tree")
            for j, source in zip(pending, self._inodes_by_id(source_ids)):
                current[j] = source
            pending = [j for j in pending if current[j].block_id != targets[j // 2]]
        return current

    def _blocks_of(self, inodes: list[InodeRow]) -> list[BlockRow]:
        """The block row of each inode, in order (one batch fill)."""
        block_ids = [inode.block_id for inode in inodes]
        found = self.engine.blocks_many(block_ids)
        try:
            return [found[block_id] for block_id in block_ids]
        except KeyError as error:
            raise StorageError(
                f"index corrupt: missing block {error.args[0]}"
            ) from None

    def _inodes_by_id(self, inode_ids: list[int]) -> list[InodeRow]:
        """Rep or source inodes by id, in order (one batch fill); pinned
        as index skeleton, like :meth:`_inode`."""
        found = self.engine.inodes_many(inode_ids, pin=True)
        try:
            return [found[inode_id] for inode_id in inode_ids]
        except KeyError as error:
            raise StorageError(
                f"index corrupt: missing inode {error.args[0]}"
            ) from None

    def is_ancestor_or_self(self, ancestor: int | str, descendant: int | str) -> bool:
        """Ancestor test via the clade interval (O(1) after two lookups)."""
        row_a = (
            self.node_by_name(ancestor)
            if isinstance(ancestor, str)
            else self.node(ancestor)
        )
        row_d = (
            self.node_by_name(descendant)
            if isinstance(descendant, str)
            else self.node(descendant)
        )
        return row_a.contains(row_d.node_id)

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict[str, CacheStats]:
        """Row-cache counters (per cache plus ``"total"``)."""
        return self.engine.cache_stats()

    def clear_cache(self) -> None:
        """Drop all cached rows — subsequent queries start cold."""
        self.engine.clear_cache()

    def reset_cache_stats(self) -> None:
        """Zero the hit/miss/eviction counters (entries are kept)."""
        self.engine.reset_cache_stats()

    # ------------------------------------------------------------------
    # Clades and frontiers
    # ------------------------------------------------------------------

    def clade(self, names_or_ids: Sequence[int | str]) -> list[NodeRow]:
        """Minimal spanning clade: all rows under the LCA (pre-order)."""
        anchor = self.lca_many(names_or_ids)
        return self._scan(
            "SELECT * FROM nodes WHERE tree_id = ? AND node_id BETWEEN ? AND ? "
            "ORDER BY node_id",
            (self._tree_id, anchor.node_id, anchor.pre_order_end),
        )

    def leaves_in_subtree(self, node_id: int) -> list[NodeRow]:
        """Leaf rows inside a node's clade interval."""
        anchor = self.node(node_id)
        return self._scan(
            "SELECT * FROM nodes WHERE tree_id = ? AND node_id BETWEEN ? AND ? "
            "AND is_leaf = 1 ORDER BY node_id",
            (self._tree_id, anchor.node_id, anchor.pre_order_end),
        )

    def count_leaves_in_subtree(self, node_id: int) -> int:
        """Number of leaves in a node's subtree (single aggregate query)."""
        anchor = self.node(node_id)
        row = self.db.query_one(
            "SELECT COUNT(*) AS n FROM nodes WHERE tree_id = ? "
            "AND node_id BETWEEN ? AND ? AND is_leaf = 1",
            (self._tree_id, anchor.node_id, anchor.pre_order_end),
        )
        assert row is not None
        return row["n"]

    def time_frontier(self, time: float) -> list[NodeRow]:
        """Nodes whose root distance exceeds ``time`` but whose parent's
        does not — the paper's sampling frontier (§2.2).

        One indexed join; on the Figure-1 tree with ``time = 1`` this
        returns exactly ``{Bha, x, Syn, Bsu}``.
        """
        frontier = self._scan(
            """
            SELECT child.* FROM nodes AS child
            JOIN nodes AS parent
              ON parent.tree_id = child.tree_id
             AND parent.node_id = child.parent_id
            WHERE child.tree_id = ?
              AND child.dist_from_root > ?
              AND parent.dist_from_root <= ?
            ORDER BY child.node_id
            """,
            (self._tree_id, time, time),
        )
        root = self.root()
        if root.dist_from_root > time:
            frontier.insert(0, root)
        return frontier

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def fetch_tree(self) -> PhyloTree:
        """Reconstruct the full in-memory :class:`PhyloTree`."""
        rows = self.db.query_all(
            "SELECT node_id, parent_id, name, edge_length FROM nodes "
            "WHERE tree_id = ? ORDER BY node_id",
            (self._tree_id,),
        )
        if not rows:
            raise StorageError(f"tree {self.info.name!r} has no nodes")
        nodes: dict[int, Node] = {}
        root: Node | None = None
        for row in rows:
            node = Node(row["name"], row["edge_length"])
            nodes[row["node_id"]] = node
            if row["parent_id"] is None:
                root = node
            else:
                nodes[row["parent_id"]].add_child(node)
        assert root is not None
        return PhyloTree(root, name=self.info.name)

    def fetch_subtree(self, node_id: int) -> PhyloTree:
        """Reconstruct the subtree rooted at ``node_id`` (one range scan)."""
        anchor = self.node(node_id)
        rows = self.db.query_all(
            "SELECT node_id, parent_id, name, edge_length FROM nodes "
            "WHERE tree_id = ? AND node_id BETWEEN ? AND ? ORDER BY node_id",
            (self._tree_id, anchor.node_id, anchor.pre_order_end),
        )
        nodes: dict[int, Node] = {}
        root: Node | None = None
        for row in rows:
            node = Node(row["name"], row["edge_length"])
            nodes[row["node_id"]] = node
            parent_id = row["parent_id"]
            if parent_id is not None and parent_id in nodes:
                nodes[parent_id].add_child(node)
            else:
                root = node
        assert root is not None
        return PhyloTree(root.detach(), name=None)

    def __repr__(self) -> str:
        return f"StoredTree({self.info.name!r}, nodes={self.info.n_nodes})"
