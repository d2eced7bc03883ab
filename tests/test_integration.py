"""Cross-module integration tests: the full Crimson workflows.

Each test walks one of the paper's demonstration scenarios end to end:
generate or parse a gold standard, load it through the Data Loader,
query it through the repositories, benchmark algorithms against it, and
round-trip results through the serializers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmark.manager import ALL_ALGORITHMS, BenchmarkManager
from repro.benchmark.metrics import normalized_rf, robinson_foulds
from repro.benchmark.consensus import majority_consensus_tree
from repro.core.lca import LcaService
from repro.core.pattern import match_pattern
from repro.core.projection import project_tree
from repro.simulation.birth_death import birth_death_tree, yule_tree
from repro.simulation.models import hky85, jc69
from repro.simulation.rates import SiteRates
from repro.simulation.seqgen import evolve_sequences
from repro.trees.newick import parse_newick, write_newick
from repro.trees.nexus import NexusDocument, parse_nexus, write_nexus


class TestGoldStandardLifecycle:
    """simulate → load → query → project → verify, all through the store."""

    def test_full_lifecycle(self, store):
        rng = np.random.default_rng(100)
        gold = birth_death_tree(80, 1.0, 0.25, rng=rng)
        rates = SiteRates(300, rng, alpha=0.8)
        sequences = evolve_sequences(
            gold, hky85(2.5), 300, rng=rng, site_rates=rates, scale=0.2
        )
        loader = store.loader
        handle = loader.load_tree(gold, name="gold", sequences=sequences)

        # Catalogue facts reflect the generated tree.
        assert handle.info.n_leaves == 80
        assert handle.info.n_nodes == gold.size()

        # SQL LCA agrees with the in-memory layered index on samples.
        index = LcaService(gold, "layered")
        leaves = gold.leaves()
        for a, b in zip(leaves[::7], leaves[1::7]):
            memory_lca = index.lca(a, b)
            sql_lca = handle.lca(a.name, b.name)
            assert sql_lca.dist_from_root == pytest.approx(
                gold.distances_from_root()[id(memory_lca)]
            )

        # Projection from the fetched tree equals projection in memory.
        sample = [leaf.name for leaf in leaves[:12]]
        from_store = project_tree(handle.fetch_tree(), sample)
        in_memory = project_tree(gold, sample)
        assert from_store.equals(in_memory, tolerance=1e-9)

        # Species data round-trips.
        species = store.species
        fetched = species.sequences_for(handle, sample)
        assert fetched == {name: sequences[name] for name in sample}


class TestNexusPipeline:
    """NEXUS in → repository → NEXUS out."""

    def test_document_roundtrip_through_store(self, store, rng):
        gold = yule_tree(25, rng=rng)
        sequences = evolve_sequences(gold, jc69(), 120, rng=rng, scale=0.3)
        document = NexusDocument(
            taxa=gold.leaf_names(), trees=[("gold", gold)]
        )
        from repro.trees.nexus import CharacterMatrix

        document.characters = CharacterMatrix(rows=dict(sequences))
        text = write_nexus(document)

        loader = store.loader
        handles = loader.load_nexus_text(text)
        fetched = handles[0].fetch_tree()
        assert fetched.equals(gold, tolerance=1e-9)

        exported = write_nexus(
            NexusDocument(taxa=fetched.leaf_names(), trees=[("gold", fetched)])
        )
        assert parse_nexus(exported).trees[0][1].equals(gold, tolerance=1e-9)


class TestBenchmarkScenario:
    """The demo scenario: who reconstructs the gold standard best?"""

    def test_nj_beats_random_on_stored_gold(self, store):
        rng = np.random.default_rng(7)
        gold = yule_tree(100, rng=rng)
        sequences = evolve_sequences(gold, jc69(), 600, rng=rng, scale=0.25)
        store.loader.load_tree(gold, name="gold", sequences=sequences)

        manager = BenchmarkManager(
            store,
            algorithms={
                "nj-jc69": ALL_ALGORITHMS["nj-jc69"],
                "upgma-jc69": ALL_ALGORITHMS["upgma-jc69"],
                "random": ALL_ALGORITHMS["random"],
            },
        )
        rows = manager.run_sweep("gold", [12, 24], n_trials=3, rng=rng)
        by_key = {(row.algorithm, row.sample_size): row for row in rows}
        for k in (12, 24):
            assert (
                by_key[("nj-jc69", k)].mean_normalized_rf
                < by_key[("random", k)].mean_normalized_rf
            )

    def test_time_sampling_pipeline(self, store):
        rng = np.random.default_rng(8)
        gold = yule_tree(60, rng=rng)
        sequences = evolve_sequences(gold, jc69(), 200, rng=rng, scale=0.2)
        store.loader.load_tree(gold, name="gold", sequences=sequences)
        horizon = max(gold.distances_from_root().values())
        manager = BenchmarkManager(store)
        trial = manager.run_trial(
            "gold", k=10, method="time", time=horizon * 0.4, rng=rng
        )
        assert len(trial.sample) == 10
        assert set(trial.projection.leaf_names()) == set(trial.sample)

    def test_consensus_over_replicates(self, store):
        """Aggregate NJ estimates across replicate samples of the same
        taxa; the consensus should be at least as close to the truth as a
        random tree."""
        rng = np.random.default_rng(9)
        gold = yule_tree(30, rng=rng)
        taxa = sorted(gold.leaf_names())[:10]
        projection = project_tree(gold, taxa)
        estimates = []
        for _ in range(5):
            sequences = evolve_sequences(gold, jc69(), 250, rng=rng, scale=0.25)
            sample = {name: sequences[name] for name in taxa}
            estimates.append(ALL_ALGORITHMS["nj-jc69"](sample))
        consensus = majority_consensus_tree(estimates)
        from repro.reconstruction.random_tree import random_topology

        noise = random_topology(taxa, rng)
        assert normalized_rf(projection, consensus) <= normalized_rf(
            projection, noise
        ) + 1e-9


class TestPatternWorkflow:
    def test_pattern_match_against_stored_tree(self, store, rng):
        gold = yule_tree(40, rng=rng)
        loader = store.loader
        handle = loader.load_tree(gold, name="gold")
        fetched = handle.fetch_tree()

        # A pattern cut from the truth always matches.
        taxa = [leaf.name for leaf in gold.leaves()[:6]]
        pattern = project_tree(gold, taxa)
        assert match_pattern(fetched, pattern, compare_lengths=True).matched

        # A shuffled pattern matches only as topology, if at all.
        shuffled = parse_newick(write_newick(pattern))
        first, second = shuffled.root.children[:2]
        shuffled.root.children[0], shuffled.root.children[1] = second, first
        result = match_pattern(fetched, shuffled)
        assert result.matched == (
            shuffled.topology_key() == pattern.topology_key()
            and shuffled.equals(pattern, compare_lengths=False)
        )


class TestDeepTreeStorage:
    """Challenge 1: huge trees, small query footprints."""

    def test_deep_chain_store_and_query(self, store):
        from repro.trees.build import caterpillar

        tree = caterpillar(2000)
        repo = store.trees
        handle = repo.store_tree(tree, name="deep", f=8)
        assert handle.info.max_depth == 1999
        assert handle.info.n_layers >= 3
        # Point queries resolve without materializing the tree.
        assert handle.lca("t1999", "t2000").depth == 1998
        assert handle.node_by_name("t1000").is_leaf

    def test_many_trees_coexist(self, store, rng):
        repo = store.trees
        for index in range(8):
            repo.store_tree(yule_tree(20, rng=rng), name=f"gold-{index}")
        assert len(repo.list_trees()) == 8
        repo.delete_tree("gold-3")
        assert len(repo.list_trees()) == 7
        assert repo.open("gold-5").info.n_leaves == 20
