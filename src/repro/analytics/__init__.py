"""Stored-tree analytics: cross-tree computation without materialization.

The layered/Dewey storage exists so whole *collections* of phylogenies
can be queried in place; this package opens the compare-many-trees
workload on top of it.  Everything here reads each stored tree with
one narrow range scan, memoised by the handle's engine when the tree
fits its cache — no input tree is ever rebuilt as a
:class:`~repro.trees.tree.PhyloTree` (only a consensus *result* is
returned as one):

* :mod:`repro.analytics.bipartitions` — rooted clusters and unrooted
  splits of one stored tree, from its clade intervals,
* :mod:`repro.analytics.compare` — Robinson–Foulds distance and
  shared-cluster counts for pairs, plus the all-pairs RF matrix,
* :mod:`repro.analytics.consensus` — streaming majority-rule / strict
  consensus across N stored trees with per-cluster support.

Callers normally reach these through the session surface —
:meth:`CrimsonSession.compare`, :meth:`~CrimsonSession.distance_matrix`
and :meth:`~CrimsonSession.consensus` (local or remote, ``crimson
compare`` / ``crimson consensus`` on the CLI) — which wraps them in
typed :class:`~repro.storage.api.AnalyticsRequest` /
:class:`~repro.storage.api.AnalyticsResult` values.  All results are
value-identical to the in-memory references in
:mod:`repro.benchmark.metrics` / :mod:`repro.benchmark.consensus`,
enforced by the differential suite in ``tests/test_analytics.py``.
"""

from repro.analytics.bipartitions import (
    TreeScan,
    scan_tree,
    stored_bipartitions,
    stored_clusters,
    stored_leaf_names,
)
from repro.analytics.compare import StoredComparison, compare_stored, rf_matrix
from repro.analytics.consensus import stored_consensus

__all__ = [
    "StoredComparison",
    "TreeScan",
    "compare_stored",
    "rf_matrix",
    "scan_tree",
    "stored_bipartitions",
    "stored_clusters",
    "stored_consensus",
    "stored_leaf_names",
]
