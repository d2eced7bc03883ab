"""Property-based tests over the relational store.

Hypothesis generates arbitrary trees and label bounds; every stored
tree must verify clean, answer SQL LCA identically to the in-memory
naive walk, project identically to the in-memory algorithm, and
round-trip bit-for-bit.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dewey import DeweyIndex
from repro.core.hindex import HierarchicalIndex
from repro.core.lca import LcaService
from repro.core.projection import project_tree
from repro.errors import QueryError
from repro.storage.maintenance import verify_tree
from repro.storage.projection import project_stored
from repro.storage.store import CrimsonStore
from repro.trees.build import caterpillar
from repro.trees.node import Node
from repro.trees.traversal import naive_lca
from repro.trees.tree import PhyloTree

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def named_trees(draw, max_nodes: int = 30):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    root = Node("n0")
    nodes = [root]
    for index in range(1, n):
        parent = rng.choice(nodes)
        child = Node(f"n{index}", rng.uniform(0.0, 2.0))
        parent.add_child(child)
        nodes.append(child)
    return PhyloTree(root, name="prop")


label_bounds = st.integers(min_value=1, max_value=5)

#: The tree strategies plus caterpillars, whose long source chains
#: stretch the level-synchronous walk over many hop rounds.
batch_trees = st.one_of(
    named_trees(max_nodes=60),
    st.integers(min_value=2, max_value=80).map(caterpillar),
)


@SETTINGS
@given(tree=named_trees(), f=label_bounds)
def test_stored_tree_verifies_clean(tree, f):
    with CrimsonStore.open() as store:
        store.trees.store_tree(tree, f=f)
        assert verify_tree(store, "prop").ok


@SETTINGS
@given(tree=named_trees(), f=label_bounds, seed=st.integers(0, 2**31))
def test_sql_lca_equals_naive(tree, f, seed):
    with CrimsonStore.open() as store:
        handle = store.trees.store_tree(tree, f=f)
        nodes = list(tree.preorder())
        rng = random.Random(seed)
        for _ in range(8):
            a = rng.choice(nodes)
            b = rng.choice(nodes)
            assert handle.lca(a.name, b.name).name == naive_lca(a, b).name


@SETTINGS
@given(tree=batch_trees, f=st.sampled_from([2, 3, 8]), data=st.data())
def test_lca_batch_equals_pairwise_lca(tree, f, data):
    """``lca_batch`` answers each pair as the recursive per-pair ``lca``
    does, on a cold handle and again on the warm one."""
    with CrimsonStore.open() as store:
        repo = store.trees
        reference = repo.store_tree(tree, name="prop", f=f)
        rows = reference.preorder_rows()
        names = [row.name for row in rows if row.name is not None]
        item = st.one_of(
            st.integers(0, len(rows) - 1), st.sampled_from(names)
        )
        pairs = data.draw(st.lists(st.tuples(item, item), max_size=30))
        picked = data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
        # Duplicates, self pairs and parent/child (ancestor) pairs in
        # both orders.
        pairs += pairs[:3]
        for row in picked:
            pairs.append((row.node_id, row.node_id))
            if row.parent_id is not None:
                pairs += [(row.parent_id, row.node_id), (row.node_id, row.parent_id)]
        expected = [reference.lca(a, b) for a, b in pairs]
        handle = repo.open("prop")
        assert handle.lca_batch(pairs) == expected
        assert handle.lca_batch(pairs) == expected
        assert handle.lca_batch([]) == []


@SETTINGS
@given(tree=batch_trees, f=st.sampled_from([2, 3, 8]), data=st.data())
def test_set_lca_agrees_across_implementations(tree, f, data):
    """Stored ``lca_many`` and the ``clade`` anchor equal the naive
    fold, ``DeweyIndex`` and ``HierarchicalIndex`` on sets of names and
    ids mixed, with duplicates and interior nodes (the root included);
    an unknown item anywhere in the set raises in all four."""
    nodes = list(tree.preorder())
    in_memory = [
        LcaService(tree, "naive").lca_many,
        DeweyIndex(tree).lca_many,
        HierarchicalIndex(tree, f).lca_many,
    ]
    with CrimsonStore.open() as store:
        handle = store.trees.store_tree(tree, name="prop", f=f)
        ids = data.draw(
            st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=11)
        )
        ids.append(data.draw(st.sampled_from([ids[0], 0])))
        items = [
            node_id
            if nodes[node_id].name is None or data.draw(st.booleans())
            else nodes[node_id].name
            for node_id in ids
        ]
        members = [nodes[node_id] for node_id in ids]
        expected = nodes.index(in_memory[0](members))
        for lca_many in in_memory[1:]:
            assert lca_many(members) is nodes[expected]
        assert handle.lca_many(items).node_id == expected
        clade = handle.clade(items)
        assert clade[0].node_id == expected
        assert [row.node_id for row in clade] == list(
            range(expected, clade[0].pre_order_end + 1)
        )

        at = data.draw(st.integers(0, len(items)))
        unknown = data.draw(st.sampled_from(["alien", len(nodes) + 7]))
        with pytest.raises(QueryError):
            handle.lca_many(items[:at] + [unknown] + items[at:])
        foreign = members[:at] + [Node("alien")] + members[at:]
        for lca_many in in_memory:
            with pytest.raises(QueryError):
                lca_many(foreign)


@SETTINGS
@given(tree=named_trees(), f=label_bounds, seed=st.integers(0, 2**31))
def test_sql_projection_equals_in_memory(tree, f, seed):
    leaves = [leaf.name for leaf in tree.root.leaves()]
    rng = random.Random(seed)
    sample = rng.sample(leaves, rng.randint(1, len(leaves)))
    with CrimsonStore.open() as store:
        handle = store.trees.store_tree(tree, f=f)
        via_sql = project_stored(handle, sample)
        in_memory = project_tree(tree, sample)
        assert via_sql.equals(in_memory, tolerance=1e-9)


@SETTINGS
@given(tree=named_trees(), f=label_bounds)
def test_store_roundtrip(tree, f):
    with CrimsonStore.open() as store:
        handle = store.trees.store_tree(tree, f=f)
        fetched = handle.fetch_tree()
        assert fetched.equals(tree, tolerance=0.0)


@SETTINGS
@given(tree=named_trees(), f=label_bounds, time=st.floats(0.0, 5.0))
def test_sql_frontier_is_minimal_cut(tree, f, time):
    with CrimsonStore.open() as store:
        handle = store.trees.store_tree(tree, f=f)
        frontier = handle.time_frontier(time)
        distances = tree.distances_from_root()
        names = {row.name for row in frontier}
        for node in tree.preorder():
            past = distances[id(node)] > time
            parent_within = (
                node.parent is None or distances[id(node.parent)] <= time
            )
            assert (node.name in names) == (past and parent_within)
