"""Unit tests for tree pattern matching."""

from __future__ import annotations

import pytest

from repro.core.pattern import compare_projection, match_pattern
from repro.core.projection import project_tree
from repro.errors import QueryError
from repro.trees.newick import parse_newick


class TestExactMatch:
    def test_structure_only_match(self, fig1):
        pattern = parse_newick("(Syn,(Lla,Bha));")
        result = match_pattern(fig1, pattern)
        assert result.matched

    def test_lengths_checked_when_requested(self, fig1):
        wrong = parse_newick("(Syn:9.9,(Lla:1.5,Bha:1.5):0.75);")
        assert not match_pattern(fig1, wrong, compare_lengths=True).matched
        assert match_pattern(fig1, wrong, compare_lengths=False).matched

    def test_full_tree_as_pattern(self, fig1):
        result = match_pattern(fig1, fig1.copy(), compare_lengths=True)
        assert result.matched

    def test_two_leaf_pattern(self, fig1):
        pattern = parse_newick("(Lla:1,Spy:1);")
        result = match_pattern(fig1, pattern, compare_lengths=True)
        assert result.matched
        assert result.projection.root.name == "x"

    def test_wrong_topology_fails(self, fig1):
        pattern = parse_newick("((Syn,Lla),Bha);")
        result = match_pattern(fig1, pattern)
        assert not result.matched
        assert result.similarity < 1.0

    def test_unordered_match(self, fig1):
        pattern = parse_newick("((Bha,Lla),Syn);")
        assert not match_pattern(fig1, pattern).matched
        assert match_pattern(fig1, pattern, ordered=False).matched


class TestApproximateSimilarity:
    def test_similarity_in_unit_interval(self, fig1):
        pattern = parse_newick("((Syn,Lla),Bha);")
        result = match_pattern(fig1, pattern)
        assert 0.0 <= result.similarity <= 1.0

    def test_match_has_similarity_one(self, fig1):
        pattern = parse_newick("(Syn,(Lla,Bha));")
        assert match_pattern(fig1, pattern).similarity == 1.0

    def test_partial_overlap_scores_between(self):
        target = parse_newick("(((a,b),(c,d)),(e,f));")
        pattern = parse_newick("(((a,b),(c,e)),(d,f));")
        result = match_pattern(target, pattern)
        assert not result.matched
        assert 0.0 < result.similarity < 1.0


class TestErrors:
    def test_missing_taxa_raise(self, fig1):
        pattern = parse_newick("(Lla,ghost);")
        with pytest.raises(QueryError):
            match_pattern(fig1, pattern)

    def test_projection_is_returned(self, fig1):
        pattern = parse_newick("(Syn,(Lla,Bha));")
        result = match_pattern(fig1, pattern)
        assert set(result.projection.leaf_names()) == {"Syn", "Lla", "Bha"}


class TestCompareProjection:
    """The comparison step alone, on a projection made elsewhere."""

    @pytest.mark.parametrize(
        "text", ["(Syn,(Lla,Bha));", "((Bha,Lla),Syn);", "((Syn,Lla),Bha);"]
    )
    @pytest.mark.parametrize("ordered", [True, False])
    def test_answers_as_match_pattern(self, fig1, text, ordered):
        pattern = parse_newick(text)
        projection = project_tree(fig1, pattern.leaf_names())
        compared = compare_projection(projection, pattern, ordered=ordered)
        expected = match_pattern(fig1, pattern, ordered=ordered)
        assert compared.matched == expected.matched
        assert compared.similarity == expected.similarity
        assert compared.projection is projection

    def test_interior_names_never_block_and_lengths_use_tolerance(self):
        projection = parse_newick("(a:1,(b:1,c:1)x:0.5)r;")
        pattern = parse_newick("(a:1,(b:1,c:1.0000001):0.5);")
        assert compare_projection(projection, pattern, compare_lengths=True).matched
        assert not compare_projection(
            projection, pattern, compare_lengths=True, tolerance=1e-9
        ).matched
        assert compare_projection(
            projection, pattern, compare_lengths=False, tolerance=1e-9
        ).matched
