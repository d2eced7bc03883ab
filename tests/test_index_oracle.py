"""The rank-space layered index against the ``Node``-based reference.

:class:`~repro.core.hindex.HierarchicalIndex` builds every layer from
per-rank child lists; ``tests/reference_hindex.py`` keeps the older
construction that decomposed real and synthetic ``Node`` trees.  Every
table the store writes — inode layer, block, label, original node and
represented block; block layer, root, source and representative — must
come out identical once the reference's inode ids are mapped onto
schema version 4's by ``reference_hindex.v4_numbering``, and each
label's dotted text must be the label.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_hindex import ReferenceIndex, v4_numbering
from test_properties import attachment_trees
from test_tree_repository import SHAPES

from repro.core.dewey import label_to_string
from repro.core.hindex import HierarchicalIndex
from repro.trees.build import caterpillar


def tables(index):
    """The production index's tables, original nodes as ranks."""
    assert index.inode_text == list(map(label_to_string, index.inode_label))
    return {
        "n_layers": index.n_layers,
        "inode_layer": index.inode_layer,
        "inode_block": index.inode_block,
        "inode_label": index.inode_label,
        "inode_orig": index.inode_orig,
        "inode_represents": index.inode_represents,
        "block_layer": index.block_layer,
        "block_root_inode": index.block_root_inode,
        "block_source_inode": index.block_source_inode,
        "block_rep_inode": index.block_rep_inode,
    }


def reference_tables(tree, f):
    """The reference's tables in version-4 inode ids, its ``Node``
    references mapped to ranks."""
    reference = ReferenceIndex(tree, f)
    rank = {id(node): position for position, node in enumerate(tree.preorder())}
    order, new_id = v4_numbering(reference)

    def inodes(table):
        return [table[old] for old in order]

    def refs(table):
        return [None if old is None else new_id[old] for old in table]

    return {
        "n_layers": reference.n_layers,
        "inode_layer": inodes(reference.inode_layer),
        "inode_block": inodes(reference.inode_block),
        "inode_label": inodes(reference.inode_label),
        "inode_orig": [
            None if node is None else rank[id(node)]
            for node in inodes(reference.inode_orig)
        ],
        "inode_represents": inodes(reference.inode_represents),
        "block_layer": reference.block_layer,
        "block_root_inode": refs(reference.block_root_inode),
        "block_source_inode": refs(reference.block_source_inode),
        "block_rep_inode": refs(reference.block_rep_inode),
    }


@pytest.mark.parametrize("f", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shapes_match_the_reference(random_tree_factory, shape, f):
    tree = SHAPES[shape](random_tree_factory)
    assert tables(HierarchicalIndex(tree, f)) == reference_tables(tree, f)


def test_deep_caterpillar_matches_the_reference_across_layers():
    tree = caterpillar(200)
    index = HierarchicalIndex(tree, 2)
    assert index.n_layers >= 3
    assert tables(index) == reference_tables(tree, 2)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(tree=attachment_trees(max_nodes=80), f=st.integers(min_value=1, max_value=5))
def test_drawn_trees_match_the_reference(tree, f):
    assert tables(HierarchicalIndex(tree, f)) == reference_tables(tree, f)
