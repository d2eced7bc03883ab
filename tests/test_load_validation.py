"""Every way into the store refuses a broken tree before it writes.

Five faults go through each entry point — ``store.load_tree``,
``load_newick_text``, ``load_nexus_text`` (the fault in the last of
three trees) and a direct ``store.trees.store_tree`` — on one and two
shards.  Each must raise :class:`TreeStructureError` and leave the
store exactly as it was: no catalogue or data rows, a clean
``verify()``, and neither the tree-id allocator nor the shard
placement cursor moved.  The validation is the load's own pre-order
walk, which runs before a shard is picked or a transaction opens.
"""

from __future__ import annotations

import pytest

import repro.storage.loader as loader_module
from repro.errors import TreeStructureError
from repro.storage.store import CrimsonStore
from repro.trees.newick import parse_newick
from repro.trees.nexus import parse_nexus
from repro.trees.tree import validate_tree

NEWICK = "((a:1,b:1):1,(c:1,d:1):1);"
NEXUS = """#NEXUS
BEGIN TREES;
    TREE one = ((a:1,b:1):1,(c:1,d:1):1);
    TREE two = ((a:1,c:1):1,(b:1,d:1):1);
    TREE three = ((a:1,d:1):1,(b:1,c:1):1);
END;
"""


def child_listed_twice(tree):
    inner = tree.root.children[0]
    inner.children.append(inner.children[0])


def parent_points_elsewhere(tree):
    tree.root.children[0].children[0].parent = tree.root.children[1]


def negative_length(tree):
    tree.root.children[1].children[0].length = -1.0


def unnamed_leaf(tree):
    tree.root.children[1].children[1].name = None


def duplicate_leaf_name(tree):
    tree.root.children[1].children[1].name = tree.root.children[0].children[0].name


FAULTS = [
    child_listed_twice,
    parent_points_elsewhere,
    negative_length,
    unnamed_leaf,
    duplicate_leaf_name,
]


def broken(fault):
    tree = parse_newick(NEWICK)
    fault(tree)
    return tree


def via_load_tree(store, fault, monkeypatch):
    store.load_tree(broken(fault), name="bad")


def via_newick_text(store, fault, monkeypatch):
    monkeypatch.setattr(loader_module, "parse_newick", lambda text: broken(fault))
    store.load_newick_text(NEWICK, name="bad")


def via_nexus_text(store, fault, monkeypatch):
    def parse_then_break_the_third(text):
        document = parse_nexus(text)
        fault(document.trees[2][1])
        return document

    monkeypatch.setattr(loader_module, "parse_nexus", parse_then_break_the_third)
    store.load_nexus_text(NEXUS, name="bad")


def via_store_tree(store, fault, monkeypatch):
    store.trees.store_tree(broken(fault), name="bad")


ENTRY_POINTS = [via_load_tree, via_newick_text, via_nexus_text, via_store_tree]


def counters(store):
    row = store.db.query_one("SELECT value FROM meta WHERE key = 'next_tree_id'")
    return (row["value"] if row is not None else None), store._placement_cursor


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda entry: entry.__name__)
@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.__name__)
def test_broken_tree_is_refused_before_any_write(
    tmp_path, monkeypatch, fault, entry, shards
):
    with CrimsonStore.open(tmp_path / "faults.db", shards=shards) as store:
        before = counters(store)
        with pytest.raises(TreeStructureError):
            entry(store, fault, monkeypatch)
        assert store.db.query_one("SELECT COUNT(*) AS n FROM trees")["n"] == 0
        for shard in range(shards):
            data_db = store.shard_database(shard)
            for table in ("nodes", "inodes", "blocks"):
                row = data_db.query_one(f"SELECT COUNT(*) AS n FROM {table}")
                assert row["n"] == 0, (shard, table)
        assert all(report.ok for report in store.verify())
        assert counters(store) == before


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.__name__)
def test_validate_tree_refuses_the_same_faults(fault):
    with pytest.raises(TreeStructureError):
        validate_tree(broken(fault))

