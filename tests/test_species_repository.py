"""Unit tests for the Species Repository."""

from __future__ import annotations

import pytest

from repro.errors import QueryError, StorageError
from repro.storage.species_repository import SpeciesRepository
from repro.storage.tree_repository import TreeRepository


@pytest.fixture
def setup(db, fig1):
    trees = TreeRepository(db)
    species = SpeciesRepository(db)
    stored = trees.store_tree(fig1, f=2)
    return stored, species


class TestAttach:
    def test_attach_and_fetch(self, setup):
        stored, species = setup
        count = species.attach_sequences(stored, {"Lla": "ACGT", "Spy": "AGGT"})
        assert count == 2
        assert species.sequence_of(stored, "Lla") == "ACGT"

    def test_attach_unknown_taxon_raises(self, setup):
        stored, species = setup
        with pytest.raises(QueryError):
            species.attach_sequences(stored, {"ghost": "ACGT"})

    def test_conflict_without_replace(self, setup):
        stored, species = setup
        species.attach_sequences(stored, {"Lla": "ACGT"})
        with pytest.raises(StorageError):
            species.attach_sequences(stored, {"Lla": "TTTT"})

    def test_replace_overwrites(self, setup):
        stored, species = setup
        species.attach_sequences(stored, {"Lla": "ACGT"})
        species.attach_sequences(stored, {"Lla": "TTTT"}, replace=True)
        assert species.sequence_of(stored, "Lla") == "TTTT"

    def test_char_type_recorded(self, setup, db):
        stored, species = setup
        species.attach_sequences(stored, {"Lla": "MKV"}, char_type="PROTEIN")
        row = db.query_one("SELECT char_type FROM species")
        assert row["char_type"] == "PROTEIN"

    def test_interior_nodes_can_carry_data(self, setup):
        # The gold standard may record ancestral sequences too.
        stored, species = setup
        species.attach_sequences(stored, {"x": "ACGT"})
        assert species.sequence_of(stored, "x") == "ACGT"


class TestFetch:
    def test_missing_data_raises(self, setup):
        stored, species = setup
        with pytest.raises(QueryError):
            species.sequence_of(stored, "Lla")

    def test_unknown_taxon_raises(self, setup):
        stored, species = setup
        with pytest.raises(QueryError):
            species.sequence_of(stored, "ghost")

    def test_sequences_for(self, setup):
        stored, species = setup
        species.attach_sequences(stored, {"Lla": "AC", "Spy": "AG", "Bha": "TT"})
        fetched = species.sequences_for(stored, ["Lla", "Bha"])
        assert fetched == {"Lla": "AC", "Bha": "TT"}

    def test_sequences_for_partial_missing_raises(self, setup):
        stored, species = setup
        species.attach_sequences(stored, {"Lla": "AC"})
        with pytest.raises(QueryError):
            species.sequences_for(stored, ["Lla", "Spy"])


class TestSetBasedReads:
    """Sample fetches and attaches resolve names and rows in batches."""

    @pytest.fixture
    def wide(self, db):
        from repro.trees.build import caterpillar

        stored = TreeRepository(db).store_tree(caterpillar(900), name="wide")
        species = SpeciesRepository(db)
        names = [f"t{i}" for i in range(1, 901)]
        species.attach_sequences(stored, {name: name[::-1] for name in names})
        return stored, species, names

    def test_sample_fetch_is_two_statements(self, db, wide):
        stored, species, names = wide
        stored.clear_cache()
        sample = names[::3]  # 300 taxa: one IN (...) chunk each way
        with db.count_statements() as counter:
            fetched = species.sequences_for(stored, sample)
        assert counter.count == 2
        assert fetched == {name: name[::-1] for name in sample}
        assert list(fetched) == sample

    def test_large_sample_reads_in_chunks(self, db, wide):
        stored, species, names = wide
        stored.clear_cache()
        with db.count_statements() as counter:
            fetched = species.sequences_for(stored, names + names[:5])
        assert counter.count == 2 * 3  # 900 keys: three 400-key chunks
        assert len(fetched) == 900

    def test_missing_taxon_and_missing_data_are_named(self, db, wide):
        stored, species, names = wide
        with pytest.raises(QueryError, match="no node named 'ghost'"):
            species.sequences_for(stored, ["t1", "ghost"])
        with pytest.raises(QueryError, match="no node named 'ghost'"):
            species.attach_sequences(stored, {"t2": "A", "ghost": "C"})
        bare = TreeRepository(db).store_tree(stored.fetch_tree(), name="bare")
        with pytest.raises(QueryError, match="no species data for 't7'"):
            species.sequences_for(bare, ["t7", "t8"])


class TestCountAndDelete:
    def test_count(self, setup):
        stored, species = setup
        assert species.count(stored) == 0
        species.attach_sequences(stored, {"Lla": "AC", "Spy": "AG"})
        assert species.count(stored) == 2

    def test_delete_for_tree(self, setup):
        stored, species = setup
        species.attach_sequences(stored, {"Lla": "AC"})
        assert species.delete_for_tree(stored) == 1
        assert species.count(stored) == 0

    def test_separation_between_trees(self, db, fig1):
        """Species rows are keyed per tree: same taxon names in two trees
        do not collide."""
        from repro.trees.build import sample_tree

        trees = TreeRepository(db)
        species = SpeciesRepository(db)
        first = trees.store_tree(fig1, name="first")
        second = trees.store_tree(sample_tree(), name="second")
        species.attach_sequences(first, {"Lla": "AAAA"})
        species.attach_sequences(second, {"Lla": "CCCC"})
        assert species.sequence_of(first, "Lla") == "AAAA"
        assert species.sequence_of(second, "Lla") == "CCCC"
