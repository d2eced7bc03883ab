"""Why Crimson exists: structure queries on very deep trees.

The paper's motivation (§1): simulation trees average depth > 1000 while
XML documents average depth 4, and plain Dewey labels grow with depth.
This example builds a deliberately deep caterpillar tree and a balanced
control, then contrasts:

* plain Dewey label sizes versus the f-bounded layered labels,
* naive / plain-Dewey / layered LCA strategies on the same queries,
* clade retrieval through pre-order intervals in the relational store.

Run with::

    python examples/deep_tree_queries.py
"""

from __future__ import annotations

import time

from repro.core.dewey import DeweyIndex
from repro.core.hindex import HierarchicalIndex
from repro.core.lca import LcaService
from repro.storage.store import CrimsonStore
from repro.trees.build import balanced, caterpillar

DEPTH = 5000
LABEL_BOUND = 8


def main() -> None:
    print(f"building a caterpillar tree {DEPTH} levels deep ...")
    deep = caterpillar(DEPTH)
    shallow = balanced(12)  # 4096 leaves, depth 12: the 'XML-like' control
    print(
        f"  deep tree:    {deep.size()} nodes, depth {deep.max_depth()}\n"
        f"  control tree: {shallow.size()} nodes, depth {shallow.max_depth()}"
    )

    print("\n-- label storage cost (experiment E3's headline) --")
    for name, tree in (("deep", deep), ("control", shallow)):
        plain = DeweyIndex(tree)
        layered = HierarchicalIndex(tree, LABEL_BOUND)
        print(
            f"  {name:<8} plain Dewey: max {plain.max_label_length():>5} "
            f"components, {plain.total_label_bytes():>10} bytes | "
            f"layered(f={LABEL_BOUND}): max {layered.max_label_length()} "
            f"components, {layered.total_label_bytes():>9} bytes, "
            f"{layered.n_layers} layers"
        )

    print("\n-- LCA strategy comparison on the deep tree --")
    leaves = list(deep.root.leaves())
    pairs = [
        (leaves[i], leaves[-(i + 1)]) for i in range(0, len(leaves) // 2, 50)
    ]
    for strategy in ("naive", "dewey", "layered"):
        service = LcaService(deep, strategy, f=LABEL_BOUND)
        start = time.perf_counter()
        for a, b in pairs:
            service.lca(a, b)
        elapsed = (time.perf_counter() - start) * 1000
        print(f"  {strategy:<8} {len(pairs)} queries in {elapsed:8.2f} ms")

    print("\n-- the same tree, queried relationally --")
    store = CrimsonStore.open()
    handle = store.trees.store_tree(deep, name="deep", f=LABEL_BOUND)
    info = handle.info
    print(
        f"  stored: {info.n_nodes} node rows, {info.n_blocks} blocks, "
        f"{info.n_layers} layers"
    )
    start = time.perf_counter()
    row = handle.lca("t1", f"t{DEPTH}")
    elapsed = (time.perf_counter() - start) * 1000
    print(f"  SQL LCA(t1, t{DEPTH}) -> depth {row.depth} in {elapsed:.2f} ms")

    anchor = handle.node_by_name(f"t{DEPTH // 2}")
    start = time.perf_counter()
    clade_size = len(handle.clade([f"t{DEPTH // 2}", f"t{DEPTH // 2 + 1}"]))
    elapsed = (time.perf_counter() - start) * 1000
    print(
        f"  clade of two mid-tree leaves: {clade_size} nodes via one "
        f"pre-order BETWEEN in {elapsed:.2f} ms"
    )
    store.close()


if __name__ == "__main__":
    main()
