"""Property-based tests (hypothesis) on the core invariants.

These are the system's load-bearing guarantees:

* the layered index agrees with naive LCA on arbitrary trees and bounds,
* labels never exceed ``f``,
* the decomposition partitions the node set,
* projection equals the brute-force induced subtree,
* serialization round-trips,
* NJ is exact on additive matrices, UPGMA on ultrametric ones,
* RF satisfies metric axioms on a common leaf set.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmark.metrics import robinson_foulds
from repro.core.decompose import decompose
from repro.core.dewey import DeweyIndex
from repro.core.hindex import HierarchicalIndex
from repro.core.projection import brute_force_projection, project_tree
from repro.reconstruction.distances import tree_distance_matrix
from repro.reconstruction.nj import neighbor_joining
from repro.reconstruction.upgma import upgma
from repro.simulation.birth_death import coalescent_tree, yule_tree
from repro.trees.newick import parse_newick, write_newick
from repro.trees.node import Node
from repro.trees.traversal import naive_lca, preorder_columns
from repro.trees.tree import PhyloTree

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def attachment_trees(draw, max_nodes: int = 40):
    """Random trees via uniform attachment; every node named & weighted."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    root = Node("n0")
    nodes = [root]
    for index in range(1, n):
        parent = rng.choice(nodes)
        child = Node(f"n{index}", rng.uniform(0.01, 3.0))
        parent.add_child(child)
        nodes.append(child)
    return PhyloTree(root)


label_bounds = st.integers(min_value=1, max_value=6)

COMMON_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# Index invariants
# ----------------------------------------------------------------------


@COMMON_SETTINGS
@given(tree=attachment_trees(), f=label_bounds, seed=st.integers(0, 2**31))
def test_layered_lca_equals_naive(tree, f, seed):
    index = HierarchicalIndex(tree, f)
    nodes = list(tree.preorder())
    rng = random.Random(seed)
    for _ in range(15):
        a = rng.choice(nodes)
        b = rng.choice(nodes)
        assert index.lca(a, b) is naive_lca(a, b)


@COMMON_SETTINGS
@given(tree=attachment_trees(), f=label_bounds)
def test_labels_bounded_by_f(tree, f):
    index = HierarchicalIndex(tree, f)
    assert index.max_label_length() <= f


@COMMON_SETTINGS
@given(tree=attachment_trees(), f=label_bounds)
def test_decomposition_partitions_nodes(tree, f):
    decomposition = decompose(tree, f)
    member_ids = [
        id(node) for block in decomposition.blocks for node, _ in block.members
    ]
    assert len(member_ids) == len(set(member_ids))
    assert set(member_ids) == {id(node) for node in tree.preorder()}


@COMMON_SETTINGS
@given(tree=attachment_trees(), f=label_bounds)
def test_dewey_prefix_of_canonical_positions(tree, f):
    """Within a block, a node's label extends its parent's label whenever
    the parent is in the same block."""
    decomposition = decompose(tree, f)
    for node in tree.preorder():
        if node.parent is None:
            continue
        if decomposition.block_of[id(node)] == decomposition.block_of[id(node.parent)]:
            parent_label = decomposition.label_of[id(node.parent)]
            label = decomposition.label_of[id(node)]
            assert label[: len(parent_label)] == parent_label
            assert len(label) == len(parent_label) + 1


@COMMON_SETTINGS
@given(tree=attachment_trees())
def test_plain_dewey_lca_equals_naive(tree):
    index = DeweyIndex(tree)
    nodes = list(tree.preorder())
    rng = random.Random(17)
    for _ in range(15):
        a = rng.choice(nodes)
        b = rng.choice(nodes)
        assert index.lca(a, b) is naive_lca(a, b)


@COMMON_SETTINGS
@given(tree=attachment_trees())
def test_preorder_interval_is_descendant_test(tree):
    walk = preorder_columns(tree)
    nodes = walk.nodes
    rng = random.Random(23)
    for _ in range(20):
        low = rng.randrange(len(nodes))
        rank = rng.randrange(len(nodes))
        inside = low <= rank <= walk.ends[low]
        a, d = nodes[low], nodes[rank]
        truth = a is d or a.is_ancestor_of(d)
        assert inside == truth


# ----------------------------------------------------------------------
# Projection
# ----------------------------------------------------------------------


@COMMON_SETTINGS
@given(
    tree=attachment_trees(),
    seed=st.integers(0, 2**31),
    f=label_bounds,
)
def test_projection_equals_brute_force(tree, seed, f):
    leaves = [leaf.name for leaf in tree.root.leaves()]
    rng = random.Random(seed)
    k = rng.randint(1, len(leaves))
    sample = rng.sample(leaves, k)
    from repro.core.lca import LcaService

    fast = project_tree(tree, sample, lca_service=LcaService(tree, "layered", f=f))
    slow = brute_force_projection(tree, sample)
    # Edge lengths come from different summation orders; compare with a
    # floating tolerance rather than textually.
    assert fast.equals(slow, tolerance=1e-9)


@COMMON_SETTINGS
@given(tree=attachment_trees(), seed=st.integers(0, 2**31))
def test_projection_idempotent(tree, seed):
    """Projecting a projection over the same leaves is the identity."""
    leaves = [leaf.name for leaf in tree.root.leaves()]
    rng = random.Random(seed)
    sample = rng.sample(leaves, rng.randint(2, len(leaves)) if len(leaves) > 1 else 1)
    once = project_tree(tree, sample)
    twice = project_tree(once, sample)
    assert once.equals(twice, tolerance=1e-9)


# ----------------------------------------------------------------------
# Serialization round-trips
# ----------------------------------------------------------------------


@COMMON_SETTINGS
@given(tree=attachment_trees())
def test_newick_roundtrip(tree):
    again = parse_newick(write_newick(tree))
    assert again.equals(tree)


_taxon_names = st.lists(
    st.text(
        alphabet=st.characters(
            codec="ascii", categories=("L", "N"), include_characters="_' ():,"
        ),
        min_size=1,
        max_size=12,
    ).filter(lambda s: s.strip() == s and s != ""),
    min_size=2,
    max_size=8,
    unique=True,
)


@COMMON_SETTINGS
@given(names=_taxon_names)
def test_newick_label_quoting_roundtrip(names):
    root = Node()
    for name in names:
        root.new_child(name, 1.0)
    tree = PhyloTree(root)
    again = parse_newick(write_newick(tree))
    assert again.leaf_names() == names


# ----------------------------------------------------------------------
# Reconstruction guarantees
# ----------------------------------------------------------------------


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(4, 14), seed=st.integers(0, 2**31))
def test_nj_exact_on_additive_matrices(n, seed):
    truth = yule_tree(n, rng=np.random.default_rng(seed))
    estimate = neighbor_joining(tree_distance_matrix(truth))
    assert robinson_foulds(truth, estimate) == 0


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(4, 14), seed=st.integers(0, 2**31))
def test_upgma_exact_on_ultrametric_matrices(n, seed):
    truth = coalescent_tree(n, rng=np.random.default_rng(seed))
    estimate = upgma(tree_distance_matrix(truth))
    assert robinson_foulds(truth, estimate) == 0


# ----------------------------------------------------------------------
# Metric axioms
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(4, 10), seed=st.integers(0, 2**31))
def test_rf_metric_axioms(n, seed):
    rng = np.random.default_rng(seed)
    from repro.reconstruction.random_tree import random_topology

    names = [f"t{i}" for i in range(n)]
    a = random_topology(names, rng)
    b = random_topology(names, rng)
    c = random_topology(names, rng)
    assert robinson_foulds(a, a.copy()) == 0
    assert robinson_foulds(a, b) == robinson_foulds(b, a)
    assert robinson_foulds(a, c) <= robinson_foulds(a, b) + robinson_foulds(b, c)
