"""Every node row of a stored tree in pre-order: the ``NodeRow``
reference read.

The rows come through the engine's batch fetch
(:meth:`~repro.storage.engine.StoredQueryEngine.node_rows_many`): cold
it costs ``ceil(n / chunk)`` ``IN (...)`` statements and fills the
handle's node-row cache, and it cannot evict the index rows of the
tree's shared :class:`~repro.storage.engine.IndexSkeleton`.  Tests use
it as a whole-tree read to compare narrower paths against (analytics'
``scan_table``), and as an adversarial layer-0 scan.  It is test-only:
nothing under ``src/`` imports it.
"""

from __future__ import annotations

from repro.storage.rows import NodeRow
from repro.storage.tree_repository import StoredTree


def preorder_rows(handle: StoredTree) -> list[NodeRow]:
    """``handle``'s node rows, ordered by pre-order id."""
    n_nodes = handle.info.n_nodes
    found = handle.engine.node_rows_many(range(n_nodes))
    assert len(found) == n_nodes, f"{len(found)} of {n_nodes} node rows"
    return [found[node_id] for node_id in range(n_nodes)]
