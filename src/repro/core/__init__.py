"""The paper's primary contribution: labeling, indexing, and structure queries.

* :mod:`repro.core.dewey` — plain Dewey labels (baseline scheme),
* :mod:`repro.core.decompose` — bounded-depth block decomposition,
* :mod:`repro.core.hindex` — the layered hierarchical index,
* :mod:`repro.core.lca` — unified LCA strategies,
* :mod:`repro.core.projection` — tree projection over leaf samples,
* :mod:`repro.core.clade` — minimal spanning clade,
* :mod:`repro.core.pattern` — exact/approximate tree pattern match.
"""

from repro.core.dewey import (
    DeweyIndex,
    DeweyLabel,
    common_prefix,
    is_prefix,
    label_from_string,
    label_to_string,
)
from repro.core.decompose import (
    Block,
    Decomposition,
    block_depths,
    block_parent_tree,
    decompose,
)
from repro.core.hindex import HierarchicalIndex
from repro.core.lca import DEFAULT_LABEL_BOUND, LcaService
from repro.core.projection import brute_force_projection, project_tree
from repro.core.clade import clade_leaves, is_monophyletic, minimal_spanning_clade
from repro.core.pattern import MatchResult, match_pattern

__all__ = [
    "DeweyIndex",
    "DeweyLabel",
    "common_prefix",
    "is_prefix",
    "label_from_string",
    "label_to_string",
    "Block",
    "Decomposition",
    "block_depths",
    "block_parent_tree",
    "decompose",
    "HierarchicalIndex",
    "DEFAULT_LABEL_BOUND",
    "LcaService",
    "brute_force_projection",
    "project_tree",
    "clade_leaves",
    "is_monophyletic",
    "minimal_spanning_clade",
    "MatchResult",
    "match_pattern",
]
