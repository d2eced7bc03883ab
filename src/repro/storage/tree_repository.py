"""The Tree Repository: relational storage and index-backed queries.

Storing a tree materializes three things: the node table (pre-order
ids, parent pointers, depths, weighted root distances, clade
intervals), the layered-label index (``blocks``/``inodes`` rows,
one-for-one with :class:`~repro.core.hindex.HierarchicalIndex`), and the
tree's catalogue row.  Every node column comes from one pre-order walk
(:func:`~repro.trees.traversal.preorder_columns`), the index rows zip
the index's flat tables, and all of them stream into fixed-size
multi-row ``INSERT`` statements (:data:`~repro.storage.sql.CHUNK_ROWS`
rows each, the
remainder through ``executemany``).  A load placed on the primary file
allocates its id, writes its rows and its catalogue row in one
transaction and commits once.

Queries against a stored tree run through :class:`StoredTree`, which
answers LCA with the paper's layered algorithm *directly over SQL row
fetches* — no in-memory index is rebuilt — demonstrating the paper's
point that single queries touch only a small portion of a huge tree.
Row access is mediated by a per-handle
:class:`~repro.storage.engine.StoredQueryEngine`, which keeps the
immutable rows as typed records (:mod:`repro.storage.rows`) — the index
skeleton in an :class:`~repro.storage.engine.IndexSkeleton` shared by
every handle of the tree, the other rows in per-handle LRU caches — and
batches multi-key fetches, so the warm path executes zero SQL
statements and ``lca_batch`` walks whole workloads up the index in lock
step, a round of ``IN (...)`` queries per layer and source-chain hop.
:class:`NodeRow` lives in :mod:`repro.storage.rows` and is re-exported
here.
"""

from __future__ import annotations

import datetime as _datetime
from array import array
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.core.dewey import DeweyLabel, common_prefix, label_to_string
from repro.core.hindex import HierarchicalIndex
from repro.core.lca import DEFAULT_LABEL_BOUND
from repro.errors import QueryError, StorageError
from repro.storage import sql
from repro.storage.cache import CacheStats
from repro.storage.database import CrimsonDatabase, Row
from repro.storage.engine import (
    DEFAULT_CACHE_SIZE,
    IndexSkeleton,
    StoredQueryEngine,
    T,
)
from repro.storage.rows import BlockRow, InodeRow, NodeRow, as_node_row
from repro.trees.node import Node
from repro.trees.traversal import PreorderColumns, preorder_columns
from repro.trees.tree import PhyloTree

if TYPE_CHECKING:
    from repro.storage.store import CrimsonStore


def _insert_chunked(
    connection, chunk_sql: str, row_sql: str, rows: Iterable[tuple]
) -> None:
    """Insert ``rows``: :data:`~repro.storage.sql.CHUNK_ROWS` per
    ``chunk_sql`` statement,
    the remainder one per row through ``executemany`` of ``row_sql``.

    ``rows`` is consumed lazily, so at most one chunk is ever held.
    """
    rows = iter(rows)
    while len(chunk := list(islice(rows, sql.CHUNK_ROWS))) == sql.CHUNK_ROWS:
        connection.execute(chunk_sql, list(chain.from_iterable(chunk)))
    if chunk:
        connection.executemany(row_sql, chunk)


def _insert_tree_rows(
    connection, tree_id: int, walk: PreorderColumns, index: HierarchicalIndex
) -> None:
    """Stream one tree's ``nodes``/``inodes``/``blocks`` rows into
    :func:`_insert_chunked`, zipped straight from ``walk``'s columns and
    ``index``'s rank-space tables (labels already carry their dotted
    text, original nodes are already ranks)."""
    nodes = walk.nodes
    _insert_chunked(
        connection,
        sql.INSERT_NODE_CHUNK,
        sql.INSERT_NODE,
        zip(
            repeat(tree_id),
            count(),
            walk.parents,
            walk.positions,
            map(attrgetter("name"), nodes),
            map(attrgetter("length"), nodes),
            walk.depths,
            walk.distances,
            walk.ends,
            walk.leaves,
        ),
    )

    _insert_chunked(
        connection,
        sql.INSERT_INODE_CHUNK,
        sql.INSERT_INODE,
        zip(
            repeat(tree_id),
            count(),
            index.inode_layer,
            index.inode_block,
            index.inode_text,
            map(len, index.inode_label),
            index.inode_orig,
            index.inode_represents,
        ),
    )

    _insert_chunked(
        connection,
        sql.INSERT_BLOCK_CHUNK,
        sql.INSERT_BLOCK,
        zip(
            repeat(tree_id),
            count(),
            index.block_layer,
            index.block_root_inode,
            index.block_source_inode,
            index.block_rep_inode,
        ),
    )


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
    row = db.query_one(sql.TREE_BY_NAME, (name,))
    if row is None:
        raise StorageError(f"no tree named {name!r} in the repository")
    return _info_of(row)


def catalogue_infos(db: CrimsonDatabase) -> list[TreeInfo]:
    """Every catalogue entry, ordered by name, in one statement on ``db``."""
    return [
        _info_of(row)
        for row in db.query_all(sql.TREES_BY_NAME)
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

    @staticmethod
    def _allocate_tree_id(connection) -> int:
        """Reserve a catalogue id inside the open transaction on the
        primary's ``connection``.

        Cross-file placement writes a tree's data rows *before* its
        catalogue row (so readers never see a catalogued tree whose rows
        are still in flight), which means the id must exist — committed
        on its own — before the ``trees`` insert.  Primary placement
        allocates inside the load's own transaction, so a failed load
        leaves the counter as it was.  The counter in ``meta`` is
        monotonic and never re-issues a committed id — even after the
        highest-numbered tree is deleted — so orphaned data rows from a
        failed cross-file load can never collide with a later tree.
        Files that predate the counter start it above their highest
        catalogued id.
        """
        row = connection.execute(sql.NEXT_TREE_ID).fetchone()
        highest = connection.execute(sql.MAX_TREE_ID).fetchone()[0]
        tree_id = max(int(row[0]) if row is not None else 1, highest + 1)
        connection.execute(sql.SET_NEXT_TREE_ID, (str(tree_id + 1),))
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

        One pre-order walk validates the tree (the checks of
        :func:`~repro.trees.tree.validate_tree`) before any placement
        or transaction, and yields both the node columns and the child
        lists the index is built from; every row goes out in
        :data:`~repro.storage.sql.CHUNK_ROWS`-row ``INSERT`` statements.  On
        the primary file (single-file stores and shard 0) the id
        allocation, the data rows and the catalogue row share one
        transaction: one commit per load, and a failure anywhere leaves
        the store as it was.  Elsewhere the id commits first, then the
        shard rows, then the catalogue row.

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
        TreeStructureError
            If the tree fails validation.
        """
        key = name or tree.name
        if not key:
            raise StorageError("a stored tree needs a name")
        if self.db.query_one(sql.TREE_NAME_TAKEN, (key,)):
            raise StorageError(f"a tree named {key!r} is already stored")

        walk = preorder_columns(tree)
        index = HierarchicalIndex(tree, f, walk)
        shard = self.store.place_tree()
        data_db = self.store.shard_database(shard)
        catalogue = (
            key,
            len(walk.nodes),
            sum(walk.leaves),
            max(walk.depths),
            f,
            index.n_layers,
            index.n_blocks(),
            _datetime.datetime.now(_datetime.timezone.utc).isoformat(),
            description,
            shard,
        )

        if data_db is self.db:
            # Primary placement (single-file stores and shard 0): one
            # atomic transaction, under an allocator id so this row can
            # never collide with an id reserved by a concurrent (or
            # crashed) load on another shard.
            with self.db.transaction() as connection:
                tree_id = self._allocate_tree_id(connection)
                connection.execute(sql.INSERT_TREE, (tree_id, *catalogue))
                _insert_tree_rows(connection, tree_id, walk, index)
        else:
            # Cross-file placement: data rows commit into the shard
            # first (under a pre-allocated id), the catalogue row last —
            # a reader can never resolve a catalogue row whose shard
            # rows are missing.  If the catalogue insert fails, the
            # shard rows are purged (and, being uncatalogued under a
            # never-reused id, are invisible garbage even if the purge
            # itself fails mid-crash).
            with self.db.transaction() as connection:
                tree_id = self._allocate_tree_id(connection)
            with data_db.transaction() as connection:
                _insert_tree_rows(connection, tree_id, walk, index)
            try:
                with self.db.transaction() as connection:
                    connection.execute(sql.INSERT_TREE, (tree_id, *catalogue))
            except BaseException:
                self._purge_data_rows(data_db, tree_id)
                raise

        return self.store.new_handle(data_db, TreeInfo(tree_id, *catalogue))

    @staticmethod
    def _purge_data_rows(data_db: CrimsonDatabase, tree_id: int) -> None:
        """Best-effort removal of a tree's data rows from its shard."""
        try:
            with data_db.transaction() as connection:
                for statement in sql.DELETE_TREE_DATA:
                    connection.execute(statement, (tree_id,))
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
        row names and shares the tree's index skeleton with the store's
        other handles.  ``cache_size`` overrides the store's default for
        this handle's row caches.
        """
        info = self.info(name)
        return self.store.new_handle(
            self.store.shard_database(info.shard), info, cache_size
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
                # The tree-data tables carry no foreign keys, so every
                # table is purged by name (species too, although its key
                # would cascade).
                connection.execute(sql.DELETE_SPECIES, (info.tree_id,))
                for statement in sql.DELETE_TREE_DATA:
                    connection.execute(statement, (info.tree_id,))
                connection.execute(sql.DELETE_TREE, (info.tree_id,))
        else:
            # Catalogue first: once the row is gone the tree is
            # unreachable, so a failure before the shard purge leaves
            # only invisible garbage (flagged by verify's orphan check),
            # never a catalogued tree with missing rows.
            with self.db.transaction() as connection:
                connection.execute(sql.DELETE_SPECIES, (info.tree_id,))
                connection.execute(sql.DELETE_TREE, (info.tree_id,))
            with data_db.transaction() as connection:
                for statement in sql.DELETE_TREE_DATA:
                    connection.execute(statement, (info.tree_id,))
        self.store.forget_tree(name, info.tree_id)

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
    :meth:`children`, ...) build theirs by position from plain
    tuples.  ``cache_size`` bounds each row cache; :meth:`cache_stats`
    exposes the counters.  ``skeleton`` is the tree's
    :class:`~repro.storage.engine.IndexSkeleton`, which the store shares
    between every handle it opens on the tree (``None``: a private
    one).

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
        skeleton: IndexSkeleton | None = None,
    ) -> None:
        self.db = db
        self.info = info
        self._tree_id = info.tree_id
        self.engine = StoredQueryEngine(db, info.tree_id, cache_size, skeleton)

    def _raise_missing(self, message: str) -> None:
        """Raise for a row lookup that found nothing.

        Distinguishes the two reasons a row can be absent: the taxon
        genuinely isn't in the tree (:class:`QueryError`), or the whole
        tree was deleted out from under this handle and its row set is
        gone (:class:`StorageError` — the delete-then-query race a
        long-lived handle can lose).  Without the probe, a stale handle
        would misreport every lookup as an unknown-taxon error.
        """
        probe = self.db.query_one(sql.TREE_HAS_NODES, (self._tree_id,))
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

    def _scan(self, statement: str, parameters: tuple) -> list[NodeRow]:
        """``nodes`` rows of a scan-shaped read, built by position."""
        return [
            as_node_row(values)
            for values in self.db.query_all(statement, parameters, plain=True)
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
        return self._scan(sql.LEAVES, (self._tree_id,))

    def leaf_names(self) -> list[str]:
        """Names of all leaves in pre-order.

        Raises
        ------
        StorageError
            If the tree was deleted out from under this handle.
        """
        rows = self.db.query_all(sql.LEAF_NAMES, (self._tree_id,), plain=True)
        if len(rows) != self.info.n_leaves:
            self._raise_missing(
                f"tree {self.info.name!r} is missing leaf rows "
                f"({len(rows)} of {self.info.n_leaves})"
            )
        return [name for (name,) in rows]

    def leaf_ids(self) -> Sequence[int]:
        """Pre-order ids of all leaves, ascending: one statement the
        first time per tree and store, then the table every handle of
        the tree shares (in its :class:`IndexSkeleton`).

        Raises
        ------
        StorageError
            If the tree was deleted out from under this handle.
        """
        skeleton = self.engine.skeleton
        table = skeleton.leaf_ids
        if table is None:
            rows = self.db.query_all(sql.LEAF_IDS, (self._tree_id,), plain=True)
            if len(rows) != self.info.n_leaves:
                self._raise_missing(f"tree {self.info.name!r} is missing leaf rows")
            table = skeleton.leaf_ids = array("q", [i for (i,) in rows])
        return table

    def children(self, node_id: int) -> list[NodeRow]:
        """Child rows of a node, in child order.

        Children lie inside the parent's clade interval and come in
        pre-order in child order, so this is a primary-key range over
        the (cached) parent row's clade.

        Raises
        ------
        QueryError
            If the id does not exist in this tree.
        """
        parent = self.node(node_id)
        return self._scan(
            sql.CHILDREN,
            (self._tree_id, node_id + 1, parent.pre_order_end, node_id),
        )

    # ------------------------------------------------------------------
    # Layered LCA over SQL
    # ------------------------------------------------------------------

    def _inode(self, inode_id: int) -> InodeRow:
        # Only ever called to resolve block root/source/rep references.
        row = self.engine.inode(inode_id, referenced=True)
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
        """LCA of two nodes given by id or name, via the layered index
        (:meth:`lca_many` of the pair).

        Every step is an indexed point query (served from the row cache
        when warm); the number of steps is bounded by the number of
        layers plus the block-chain hops, never by the raw tree depth.
        """
        return self.lca_many([a, b])

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

        Pre-order ids number every subtree as one interval, so the LCA
        of a set is the LCA of its lowest and highest ids.  Argument
        rows arrive in one batched fetch; when the low row's clade
        interval holds the high row it is the answer, otherwise both
        canonical inodes arrive in one fill and the recursive layered
        walk (:meth:`_lca_inode`) runs once.

        Raises
        ------
        QueryError
            If the collection is empty or any item is unknown.
        StorageError
            If the index is corrupt or the tree was deleted out from
            under this handle.
        """
        if not names_or_ids:
            raise QueryError("cannot take the LCA of zero nodes")
        rows = self._resolve_rows(list(names_or_ids))
        low = min(rows, key=attrgetter("node_id"))
        high = max(rows, key=attrgetter("node_id"))
        if low.contains(high.node_id):
            return low
        canonical = self.engine.canonical_inodes_many([low.node_id, high.node_id])
        try:
            inode_low, inode_high = canonical[low.node_id], canonical[high.node_id]
        except KeyError as error:
            raise StorageError(
                f"index corrupt: no canonical inode for node {error.args[0]}"
            ) from None
        orig = self._lca_inode(inode_low, inode_high).orig_node_id
        if orig is None:
            raise StorageError("index corrupt: layer-0 LCA without original node")
        return self.node(orig)

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

        :meth:`lca`, :meth:`lca_many` and :meth:`clade` walk one pair
        and keep the recursive walk: on a warm 2,000-leaf Yule tree
        (``f = 8``) the level walk over a batch of one takes about twice
        its time.

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
        """Rep or source inodes by id, in order (one batch fill); index
        skeleton, like :meth:`_inode`."""
        found = self.engine.inodes_many(inode_ids, referenced=True)
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
        """Drop all cached rows, the tree's shared index skeleton
        included — subsequent queries, on every handle of the tree,
        start cold."""
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
            sql.CLADE, (self._tree_id, anchor.node_id, anchor.pre_order_end)
        )

    def time_frontier(self, time: float) -> list[NodeRow]:
        """Nodes whose root distance exceeds ``time`` but whose parent's
        does not — the paper's sampling frontier (§2.2).

        One join: a walk of the tree's rows in pre-order, each row's
        parent found by primary key, with no sort.  On the Figure-1 tree
        with ``time = 1`` this returns exactly ``{Bha, x, Syn, Bsu}``.
        """
        frontier = self._scan(sql.TIME_FRONTIER, (self._tree_id, time, time))
        root = self.root()
        if root.dist_from_root > time:
            frontier.insert(0, root)
        return frontier

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def fetch_tree(self) -> PhyloTree:
        """Reconstruct the full in-memory :class:`PhyloTree`."""
        root = self._link_rows(
            self.db.query_all(sql.TREE_SHAPE, (self._tree_id,))
        )
        return PhyloTree(root, name=self.info.name)

    def fetch_subtree(self, node_id: int) -> PhyloTree:
        """Reconstruct the subtree rooted at ``node_id`` (one range scan)."""
        anchor = self.node(node_id)
        root = self._link_rows(
            self.db.query_all(
                sql.SUBTREE_SHAPE,
                (self._tree_id, anchor.node_id, anchor.pre_order_end),
            )
        )
        return PhyloTree(root, name=None)

    def _link_rows(self, rows: list[Row]) -> Node:
        """The root of the ``Node`` tree of pre-ordered ``nodes`` rows.

        The first row is the root; every later row's parent came before
        it (``parent_id < node_id``), so each node is linked straight
        to its parent: ``Node.add_child``'s cycle check walks to the
        root, which is quadratic in the tree's depth.
        """
        if not rows:
            raise StorageError(f"tree {self.info.name!r} has no nodes")
        first, *rest = rows
        root = Node(first["name"], first["edge_length"])
        nodes = {first["node_id"]: root}
        for row in rest:
            node = nodes[row["node_id"]] = Node(row["name"], row["edge_length"])
            parent = nodes[row["parent_id"]]
            node.parent = parent
            parent.children.append(node)
        return root

    def __repr__(self) -> str:
        return f"StoredTree({self.info.name!r}, nodes={self.info.n_nodes})"
