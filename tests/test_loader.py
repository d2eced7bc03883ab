"""Unit tests for the Data Loader."""

from __future__ import annotations

import pytest

from repro.errors import ParseError, StorageError, TreeStructureError
from repro.storage.loader import DataLoader
from repro.trees.tree import PhyloTree

NEXUS_WITH_DATA = """#NEXUS
BEGIN TAXA;
    TAXLABELS a b c d;
END;
BEGIN CHARACTERS;
    FORMAT DATATYPE=DNA;
    MATRIX
        a ACGT
        b ACGA
        c ACCT
        d GCGT
    ;
END;
BEGIN TREES;
    TREE demo = ((a:1,b:1):0.5,(c:1,d:1):0.5);
END;
"""

NEXUS_TREES_ONLY = """#NEXUS
BEGIN TREES;
    TREE first = (a:1,b:1);
    TREE second = ((a:1,b:1):1,c:1);
END;
"""


@pytest.fixture
def loader(store):
    return store.loader


class TestNexusLoading:
    def test_load_with_species_data(self, store, loader):
        handles = loader.load_nexus_text(NEXUS_WITH_DATA)
        assert len(handles) == 1
        assert handles[0].info.name == "demo"
        species = store.species
        assert species.count(handles[0]) == 4
        assert species.sequence_of(handles[0], "c") == "ACCT"

    def test_structure_only_skips_matrix(self, store, loader):
        handles = loader.load_nexus_text(NEXUS_WITH_DATA, structure_only=True)
        assert store.species.count(handles[0]) == 0

    def test_name_override(self, loader):
        handles = loader.load_nexus_text(NEXUS_WITH_DATA, name="gold")
        assert handles[0].info.name == "gold"

    def test_multiple_trees_get_suffixed_names(self, loader):
        handles = loader.load_nexus_text(NEXUS_TREES_ONLY, name="batch")
        assert [h.info.name for h in handles] == ["batch-first", "batch-second"]

    def test_multiple_trees_default_names(self, loader):
        handles = loader.load_nexus_text(NEXUS_TREES_ONLY)
        assert [h.info.name for h in handles] == ["first", "second"]

    def test_no_trees_raises(self, loader):
        with pytest.raises(ParseError):
            loader.load_nexus_text("#NEXUS\nBEGIN TAXA;\nTAXLABELS a;\nEND;\n")

    def test_duplicate_name_raises(self, loader):
        loader.load_nexus_text(NEXUS_WITH_DATA)
        with pytest.raises(StorageError):
            loader.load_nexus_text(NEXUS_WITH_DATA)

    def test_matrix_rows_for_unknown_taxa_skipped(self, store, loader):
        text = NEXUS_WITH_DATA.replace("        d GCGT", "        zz GCGT")
        messages = []
        reporting = DataLoader(store, report=messages.append)
        handles = reporting.load_nexus_text(text)
        assert store.species.count(handles[0]) == 3
        assert any("skipped" in message for message in messages)

    def test_load_nexus_file(self, tmp_path, loader):
        path = tmp_path / "input.nex"
        path.write_text(NEXUS_WITH_DATA)
        handles = loader.load_nexus_file(path)
        assert handles[0].info.name == "input"


class TestMultiTreeAtomicity:
    """A failing multi-tree NEXUS load must leave no partial catalogue."""

    NEXUS_CORRUPT_SECOND = """#NEXUS
BEGIN TREES;
    TREE good = ((a:1,b:1):1,c:1);
    TREE bad = ((,x:1):1,y:1);
END;
"""

    NEXUS_TWO_GOOD = """#NEXUS
BEGIN TREES;
    TREE one = (a:1,b:1);
    TREE two = ((a:1,b:1):1,c:1);
END;
"""

    def _names(self, loader):
        return [info.name for info in loader.trees.list_trees()]

    def test_corrupt_second_tree_rolls_back_first(self, loader):
        """Regression: tree 1 must not survive a failure on tree 2."""
        with pytest.raises(TreeStructureError):
            loader.load_nexus_text(self.NEXUS_CORRUPT_SECOND)
        assert self._names(loader) == []

    def test_key_conflict_on_second_tree_rolls_back_first(self, loader):
        loader.load_newick_text("(p:1,q:1);", name="two")
        with pytest.raises(StorageError):
            loader.load_nexus_text(self.NEXUS_TWO_GOOD)
        assert self._names(loader) == ["two"]

    def test_duplicate_keys_within_document_rejected(self, loader):
        text = self.NEXUS_TWO_GOOD.replace("TREE two", "TREE one", 1)
        with pytest.raises(StorageError, match="two trees under"):
            loader.load_nexus_text(text)
        assert self._names(loader) == []

    def test_storage_failure_mid_load_compensates(self, store, monkeypatch):
        """Even a failure validation cannot foresee rolls back 1..k-1."""
        from repro.storage.tree_repository import TreeRepository

        loader = store.loader
        original = TreeRepository.store_tree
        calls = {"n": 0}

        def failing(self, tree, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise StorageError("disk full (injected)")
            return original(self, tree, *args, **kwargs)

        monkeypatch.setattr(TreeRepository, "store_tree", failing)
        with pytest.raises(StorageError, match="disk full"):
            loader.load_nexus_text(self.NEXUS_TWO_GOOD)
        assert self._names(loader) == []

    def test_sharded_store_rolls_back_across_shards(self, tmp_path):
        from repro.storage.store import CrimsonStore
        from repro.storage.tree_repository import TreeRepository

        with CrimsonStore.open(tmp_path / "s.db", shards=2) as store:
            original = TreeRepository.store_tree
            calls = {"n": 0}

            def failing(self, tree, *args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise StorageError("injected")
                return original(self, tree, *args, **kwargs)

            try:
                TreeRepository.store_tree = failing
                with pytest.raises(StorageError, match="injected"):
                    store.load_nexus_text(self.NEXUS_TWO_GOOD)
            finally:
                TreeRepository.store_tree = original
            assert store.trees.list_trees() == []
            # No shard carries orphan rows of the rolled-back tree.
            assert store.verify() == []

    def test_successful_multi_tree_load_unchanged(self, loader):
        handles = loader.load_nexus_text(self.NEXUS_TWO_GOOD)
        assert self._names(loader) == ["one", "two"]
        assert [h.info.name for h in handles] == ["one", "two"]


class TestNewickLoading:
    def test_load_newick_text(self, loader):
        handle = loader.load_newick_text("((a:1,b:1):1,c:2);", name="nwk")
        assert handle.info.n_leaves == 3

    def test_load_newick_file(self, tmp_path, loader):
        path = tmp_path / "tree.nwk"
        path.write_text("(a:1,b:1);")
        handle = loader.load_newick_file(path)
        assert handle.info.name == "tree"

    def test_unnamed_leaves_rejected(self, loader):
        with pytest.raises(TreeStructureError):
            loader.load_newick_text("((,a:1):1,b:1);", name="bad")


class TestInMemoryLoading:
    def test_load_tree_with_sequences(self, store, loader, fig1):
        sequences = {name: "ACGT" for name in fig1.leaf_names()}
        handle = loader.load_tree(fig1, sequences=sequences)
        assert store.species.count(handle) == 5

    def test_report_callback_receives_status(self, store, fig1):
        messages = []
        loader = DataLoader(store, report=messages.append)
        loader.load_tree(fig1)
        assert any("structure only" in message for message in messages)


class TestNoExtraWalks:
    """A load reports sizes from the catalogue, never by walking the
    tree again before storing it."""

    @pytest.fixture(autouse=True)
    def size_raises(self, monkeypatch):
        def refuse(tree):
            raise AssertionError("PhyloTree.size walked the tree")

        monkeypatch.setattr(PhyloTree, "size", refuse)

    @pytest.mark.parametrize("silent", [True, False])
    def test_newick_load(self, store, silent):
        messages = []
        loader = store.loader if silent else DataLoader(store, messages.append)
        handle = loader.load_newick_text("((a:1,b:1):1,c:2);", name="nwk")
        assert handle.info.n_nodes == 5
        assert silent or "stored 'nwk': 5 nodes, 3 leaves" in messages

    @pytest.mark.parametrize("silent", [True, False])
    def test_nexus_load(self, store, silent):
        messages = []
        loader = store.loader if silent else DataLoader(store, messages.append)
        handles = loader.load_nexus_text(NEXUS_TREES_ONLY, name="batch")
        assert [handle.info.n_nodes for handle in handles] == [3, 5]
        assert silent or any(
            message.startswith("stored 'batch-second': 5 nodes")
            for message in messages
        )


class TestAppendSpecies:
    def test_append_to_existing(self, store, loader):
        loader.load_nexus_text(NEXUS_WITH_DATA, structure_only=True)
        count = loader.append_species_nexus("demo", NEXUS_WITH_DATA)
        assert count == 4
        handle = loader.trees.open("demo")
        assert store.species.count(handle) == 4

    def test_append_without_matrix_raises(self, loader):
        loader.load_nexus_text(NEXUS_WITH_DATA, structure_only=True)
        with pytest.raises(ParseError):
            loader.append_species_nexus("demo", NEXUS_TREES_ONLY)

    def test_append_to_unknown_tree_raises(self, loader):
        with pytest.raises(StorageError):
            loader.append_species_nexus("ghost", NEXUS_WITH_DATA)

    def test_append_conflict_needs_replace(self, loader):
        loader.load_nexus_text(NEXUS_WITH_DATA)
        with pytest.raises(StorageError):
            loader.append_species_nexus("demo", NEXUS_WITH_DATA)
        count = loader.append_species_nexus("demo", NEXUS_WITH_DATA, replace=True)
        assert count == 4
