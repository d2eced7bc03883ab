"""Tests for the extension features beyond the paper's core demo.

Covers Fitch ancestral-state reconstruction, LCA-based path distances,
multi-tree Newick parsing, strict consensus, and the CLI history
re-run command.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmark.consensus import strict_consensus
from repro.benchmark.metrics import clusters
from repro.core.lca import LcaService
from repro.errors import ParseError, QueryError, ReconstructionError
from repro.reconstruction.parsimony import fitch_ancestral_states, fitch_score
from repro.simulation.birth_death import yule_tree
from repro.simulation.models import jc69
from repro.simulation.seqgen import evolve_sequences
from repro.trees.newick import parse_newick, parse_newick_many


class TestFitchAncestralStates:
    def test_unanimous_column(self):
        tree = parse_newick("((a,b)u,(c,d)v)r;")
        sequences = {name: "A" for name in "abcd"}
        states = fitch_ancestral_states(tree, sequences)
        assert states["u"] == states["v"] == states["r"] == "A"

    def test_fitch_textbook_column(self):
        tree = parse_newick("((a,b)u,(c,d)v)r;")
        sequences = {"a": "A", "b": "C", "c": "C", "d": "C"}
        states = fitch_ancestral_states(tree, sequences)
        # The single most-parsimonious root state is C (1 change).
        assert states["v"] == "C"
        assert states["r"] == "C"

    def test_assignment_achieves_fitch_score(self, rng):
        """The reconstructed interior states must realize exactly the
        Fitch minimum: summing observed changes along edges equals
        fitch_score."""
        truth = yule_tree(10, rng=rng)
        # Name the interiors so all assignments are returned.
        for index, node in enumerate(truth.preorder()):
            if node.name is None:
                node.name = f"int{index}"
        truth.invalidate_caches()
        sequences = evolve_sequences(truth, jc69(), 200, rng=rng, scale=0.4)
        states = fitch_ancestral_states(truth, sequences)
        changes = 0
        for node in truth.preorder():
            if node.parent is None:
                continue
            parent_seq = states[node.parent.name]
            child_seq = states[node.name]
            changes += sum(1 for x, y in zip(parent_seq, child_seq) if x != y)
        assert changes == fitch_score(truth, sequences)

    def test_leaves_pass_through(self):
        tree = parse_newick("((a,b)u,c)r;")
        sequences = {"a": "AC", "b": "AG", "c": "AT"}
        states = fitch_ancestral_states(tree, sequences)
        assert states["a"] == "AC"

    def test_misaligned_raises(self):
        tree = parse_newick("((a,b)u,c)r;")
        with pytest.raises(ReconstructionError):
            fitch_ancestral_states(tree, {"a": "AC", "b": "A", "c": "AT"})

    def test_anonymous_interiors_skipped(self):
        tree = parse_newick("((a,b),c)r;")
        states = fitch_ancestral_states(tree, {"a": "A", "b": "A", "c": "C"})
        assert set(states) == {"a", "b", "c", "r"}


class TestPathDistance:
    @pytest.mark.parametrize("strategy", ["naive", "dewey", "layered"])
    def test_fig1_distances(self, fig1, strategy):
        service = LcaService(fig1, strategy)
        lla, spy = fig1.find("Lla"), fig1.find("Spy")
        assert service.path_distance(lla, spy) == pytest.approx(2.0)
        assert service.path_distance(lla, fig1.find("Bsu")) == pytest.approx(
            2.25 + 1.25
        )

    def test_distance_to_self_is_zero(self, fig1):
        service = LcaService(fig1)
        assert service.path_distance(fig1.find("Syn"), fig1.find("Syn")) == 0.0

    def test_distance_to_ancestor(self, fig1):
        service = LcaService(fig1)
        assert service.path_distance(
            fig1.find("A"), fig1.find("Lla")
        ) == pytest.approx(0.5 + 1.0)

    def test_symmetry(self, fig1):
        service = LcaService(fig1)
        nodes = list(fig1.preorder())
        for a in nodes:
            for b in nodes:
                assert service.path_distance(a, b) == pytest.approx(
                    service.path_distance(b, a)
                )


class TestParseNewickMany:
    def test_two_trees(self):
        trees = parse_newick_many("(a:1,b:1);\n((a:1,b:1):1,c:1);\n")
        assert len(trees) == 2
        assert trees[1].n_leaves() == 3

    def test_single_tree(self):
        trees = parse_newick_many("(a,b);")
        assert len(trees) == 1

    def test_comments_between_trees(self):
        trees = parse_newick_many("[first] (a,b); [second] (c,d);")
        assert len(trees) == 2

    def test_quoted_semicolon_not_a_separator(self):
        trees = parse_newick_many("('se;mi':1,b:1);(c,d);")
        assert len(trees) == 2
        assert "se;mi" in trees[0]

    def test_empty_input_raises(self):
        with pytest.raises(ParseError):
            parse_newick_many("   ")

    def test_unterminated_raises(self):
        with pytest.raises(ParseError):
            parse_newick_many("(a,b); (c,d)")


class TestStrictConsensus:
    def test_keeps_only_unanimous_clusters(self):
        first = parse_newick("(((a,b),c),(d,e));")
        second = parse_newick("(((a,b),d),(c,e));")
        consensus = strict_consensus([first, second])
        kept = clusters(consensus)
        assert frozenset({"a", "b"}) in kept
        assert frozenset({"a", "b", "c"}) not in kept

    def test_two_tree_profile_not_majority(self):
        """With two trees, a cluster in both must survive — the 0.5
        threshold of majority rule would drop nothing here, but a tied
        1-of-2 cluster must be dropped."""
        first = parse_newick("((a,b),(c,d));")
        second = parse_newick("((a,c),(b,d));")
        consensus = strict_consensus([first, second])
        assert clusters(consensus) == set()

    def test_identical_profile_is_identity(self):
        tree = parse_newick("(((a,b),c),d);")
        consensus = strict_consensus([tree, tree.copy()])
        assert clusters(consensus) == clusters(tree)

    def test_empty_raises(self):
        with pytest.raises(QueryError):
            strict_consensus([])

    def test_mismatched_leafsets_raise(self):
        with pytest.raises(QueryError):
            strict_consensus([parse_newick("(a,b);"), parse_newick("(a,c);")])


class TestCliRerun:
    NEXUS = (
        "#NEXUS\nBEGIN TREES;\n"
        "  TREE demo = ((a:1,b:1):0.5,(c:1,d:1):0.5);\nEND;\n"
    )

    @pytest.fixture
    def dbpath(self, tmp_path):
        from repro.cli.main import main

        nexus = tmp_path / "demo.nex"
        nexus.write_text(self.NEXUS)
        path = str(tmp_path / "cli.db")
        assert main(["--db", path, "load", str(nexus)]) == 0
        return path

    def test_rerun_lca(self, dbpath, capsys):
        from repro.cli.main import main

        assert main(["--db", dbpath, "lca", "demo", "a", "b"]) == 0
        capsys.readouterr()
        assert main(["--db", dbpath, "rerun", "1"]) == 0
        output = capsys.readouterr().out
        assert "re-running #1" in output
        assert "LCA:" in output

    def test_rerun_frontier(self, dbpath, capsys):
        from repro.cli.main import main

        main(["--db", dbpath, "frontier", "demo", "--time", "0.7"])
        capsys.readouterr()
        assert main(["--db", dbpath, "rerun", "1"]) == 0
        assert "dist=" in capsys.readouterr().out

    def test_rerun_unknown_id(self, dbpath, capsys):
        from repro.cli.main import main

        assert main(["--db", dbpath, "rerun", "99"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_rerun_unreplayable_operation(self, dbpath, capsys):
        from repro.cli.main import main
        from repro.storage.store import CrimsonStore

        with CrimsonStore.open(dbpath) as store:
            store.history.record("benchmark-trial", {}, tree_name="demo")
        assert main(["--db", dbpath, "rerun", "1"]) == 1
        assert "cannot be re-run" in capsys.readouterr().err
