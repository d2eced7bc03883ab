"""Store maintenance: integrity verification of the layered index.

`verify_store` re-checks, over SQL alone, every invariant the
decomposition and labeling promise.  It is the guard a long-lived
repository needs between loads — precisely the class of tooling a
"gold standard" archive (curated once, queried for years) depends on.

Both checks take a :class:`~repro.storage.store.CrimsonStore` and run
entirely on its **pooled read-only connections**: the catalogue is read
on the calling thread's primary reader and each tree's rows on its
shard's reader, so an integrity sweep never contends with — or blocks —
the writers a concurrent load is using.  `verify_store` also sweeps
every shard for **orphan rows** (tree data whose catalogue row is gone,
the residue a crash between the two commits of a cross-file delete can
leave) and reports them per shard.

Checked invariants, per tree:

1. catalogue counts match the stored rows (nodes, leaves, blocks);
2. exactly one root node (``parent_id IS NULL``) with ``node_id = 0``;
3. every non-root node's parent exists and precedes it in pre-order;
4. clade intervals are consistent (child intervals nested in parents');
5. every node has exactly one canonical inode;
6. local labels are unique within a block and bounded by ``f``;
7. every split block's source inode exists and lies in the parent block;
8. every block in a multi-block layer has a representative one layer up;
9. the top layer has exactly one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.storage import sql
from repro.storage.database import CrimsonDatabase
from repro.storage.tree_repository import (
    TreeInfo,
    catalogue_info,
    catalogue_infos,
)

if TYPE_CHECKING:
    from repro.storage.store import CrimsonStore


@dataclass
class IntegrityReport:
    """Result of a store verification pass."""

    tree_name: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        if self.ok:
            return f"{self.tree_name}: OK"
        listed = "\n  ".join(self.problems)
        return f"{self.tree_name}: {len(self.problems)} problem(s)\n  {listed}"


def verify_store(store: CrimsonStore) -> list[IntegrityReport]:
    """Verify every tree in the store; one report per tree.

    All verification traffic runs on read-only pooled connections —
    catalogue reads on the primary reader, row checks on each tree's
    shard reader — and a per-shard orphan sweep appends one extra
    report for any shard carrying rows of uncatalogued trees.
    """
    catalogue = store.reader_database()
    reports = [
        _verify_tree_rows(store.shard_reader(info.shard), info)
        for info in catalogue_infos(catalogue)
    ]
    reports.extend(_orphan_reports(store, catalogue))
    return reports


def _orphan_reports(store, catalogue: CrimsonDatabase) -> list[IntegrityReport]:
    """One report per shard holding rows of trees the catalogue lost."""
    known = {
        row["tree_id"]
        for row in catalogue.query_all(sql.CATALOGUED_TREE_IDS)
    }
    reports: list[IntegrityReport] = []
    for shard_id in range(store.shards):
        data_db = store.shard_reader(shard_id)
        orphans = sorted(
            {
                row["tree_id"]
                for statement in sql.DATA_TREE_IDS
                for row in data_db.query_all(statement)
            }
            - known
        )
        if orphans:
            reports.append(
                IntegrityReport(
                    tree_name=f"<shard {shard_id}>",
                    problems=[
                        f"orphan rows for uncatalogued tree ids {orphans}"
                    ],
                )
            )
    return reports


def verify_tree(store: CrimsonStore, name: str) -> IntegrityReport:
    """Run all integrity checks on one stored tree, on the pooled
    read-only connections (the tree's shard reader)."""
    info = catalogue_info(store.reader_database(), name)
    return _verify_tree_rows(store.shard_reader(info.shard), info)


def _verify_tree_rows(db: CrimsonDatabase, info: TreeInfo) -> IntegrityReport:
    """Check one tree's rows on the connection that can see them."""
    report = IntegrityReport(tree_name=info.name)
    tree_id = info.tree_id

    def one(statement: str, *params) -> int:
        row = db.query_one(statement, (tree_id, *params))
        assert row is not None
        return row[0]

    # 1. Catalogue counts.
    n_nodes = one(sql.COUNT_NODES)
    if n_nodes != info.n_nodes:
        report.problems.append(
            f"catalogue says {info.n_nodes} nodes, table has {n_nodes}"
        )
    n_leaves = one(sql.COUNT_LEAVES)
    if n_leaves != info.n_leaves:
        report.problems.append(
            f"catalogue says {info.n_leaves} leaves, table has {n_leaves}"
        )
    n_blocks = one(sql.COUNT_BLOCKS)
    if n_blocks != info.n_blocks:
        report.problems.append(
            f"catalogue says {info.n_blocks} blocks, table has {n_blocks}"
        )

    # 2. Root.
    roots = db.query_all(sql.ROOTS, (tree_id,))
    if len(roots) != 1 or roots[0]["node_id"] != 0:
        report.problems.append(
            f"expected exactly one root with node_id 0, found "
            f"{[row['node_id'] for row in roots]}"
        )

    # 3. Parent pointers respect pre-order.
    bad_parents = one(sql.BAD_PARENTS)
    if bad_parents:
        report.problems.append(
            f"{bad_parents} nodes with missing or out-of-order parents"
        )

    # 4. Clade interval nesting.
    bad_intervals = one(sql.BAD_INTERVALS)
    if bad_intervals:
        report.problems.append(f"{bad_intervals} broken clade intervals")

    # 5. Canonical inodes: inode r is node r's, in layer 0.
    missing_canonical = one(sql.MISSING_CANONICAL)
    if missing_canonical:
        report.problems.append(
            f"{missing_canonical} nodes without a canonical inode "
            "(inode r in layer 0 holding node r)"
        )

    # 6. Label bound and per-block uniqueness.
    over_bound = one(sql.OVER_BOUND_LABELS, info.f)
    if over_bound:
        report.problems.append(
            f"{over_bound} inode labels exceed the bound f = {info.f}"
        )
    duplicate_labels = one(sql.DUPLICATE_LABELS)
    if duplicate_labels:
        report.problems.append(
            f"{duplicate_labels} duplicated (block, label) pairs"
        )

    # 7. Source inodes of split blocks.
    bad_sources = one(sql.BAD_SOURCES)
    if bad_sources:
        report.problems.append(f"{bad_sources} blocks with invalid source inodes")

    # 8. Representatives for blocks in multi-block layers.
    layer_rows = db.query_all(sql.BLOCKS_PER_LAYER, (tree_id,))
    for row in layer_rows:
        if row["n"] > 1:
            missing_reps = one(sql.MISSING_REPS, row["layer"])
            if missing_reps:
                report.problems.append(
                    f"layer {row['layer']}: {missing_reps} blocks without "
                    "representatives"
                )

    # 9. Single top block.
    if layer_rows and layer_rows[-1]["n"] != 1:
        report.problems.append(
            f"top layer {layer_rows[-1]['layer']} has {layer_rows[-1]['n']} "
            "blocks (expected 1)"
        )

    return report
