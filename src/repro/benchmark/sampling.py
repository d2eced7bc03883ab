"""Species sampling strategies (paper §2.2 and §3, "Tree Projection").

Crimson supports three ways of selecting species:

* **random sampling** — uniform over the leaves,
* **random sampling with respect to time** — find the frontier of nodes
  whose weighted root distance first exceeds ``t`` and draw ``k/m``
  leaves from each of the ``m`` frontier subtrees, so the sample is
  stratified across the lineages alive at time ``t``,
* **user input** — an explicit taxon list (validated).

Each strategy exists in two forms: over an in-memory
:class:`~repro.trees.tree.PhyloTree`, and over a
:class:`~repro.storage.tree_repository.StoredTree`.  There a small
random sample reads a few rows by primary key, drawn at random
pre-order ids, instead of the whole leaf table; a large one scans the
leaves once.  The time frontier is one SQL join and the per-subtree
draws are clade-interval range scans.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import QueryError, StorageError
from repro.storage.tree_repository import NodeRow, StoredTree
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


def random_sample(
    tree: PhyloTree, k: int, rng: np.random.Generator | None = None
) -> list[str]:
    """Uniform sample of ``k`` distinct leaf names.

    Raises
    ------
    QueryError
        If ``k`` is not in ``[1, n_leaves]``.
    """
    names = [leaf.name for leaf in tree.root.leaves() if leaf.name is not None]
    _check_k(k, len(names))
    rng = rng or np.random.default_rng()
    chosen = rng.choice(len(names), size=k, replace=False)
    return [names[int(index)] for index in chosen]


def time_frontier(tree: PhyloTree, time: float) -> list[Node]:
    """Nodes whose root distance exceeds ``time`` but whose parent's does
    not — the minimal cut the paper samples across.

    On the Figure-1 tree with ``time = 1`` this is ``{Bha, x, Syn, Bsu}``
    (in pre-order: Syn, x, Bha, Bsu).
    """
    distances = tree.distances_from_root()
    frontier: list[Node] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if distances[id(node)] > time:
            frontier.append(node)  # do not descend: children also exceed
        else:
            stack.extend(reversed(node.children))
    return frontier


def sample_with_time(
    tree: PhyloTree,
    time: float,
    k: int,
    rng: np.random.Generator | None = None,
) -> list[str]:
    """Stratified sample of ``k`` leaves with respect to evolutionary time.

    The paper's strategy: every frontier subtree contributes ``k/m``
    leaves.  When ``k`` is not divisible by ``m`` the remainder is spread
    over randomly chosen frontier subtrees; when a subtree has fewer
    leaves than its quota, the shortfall is redistributed to subtrees
    with spare leaves.

    Raises
    ------
    QueryError
        If the frontier is empty (``time`` at or beyond the tree's whole
        span) or the frontier subtrees hold fewer than ``k`` leaves.
    """
    rng = rng or np.random.default_rng()
    frontier = time_frontier(tree, time)
    if not frontier:
        raise QueryError(
            f"no lineage extends past time {time}; frontier is empty"
        )
    groups: list[list[str]] = []
    for node in frontier:
        groups.append([leaf.name for leaf in node.leaves() if leaf.name is not None])
    return _stratified_draw(groups, k, rng)


def validate_user_sample(tree: PhyloTree, names: Sequence[str]) -> list[str]:
    """Validate an explicit taxon list against the tree's leaves.

    Returns the de-duplicated list in the given order.

    Raises
    ------
    QueryError
        On an empty list, unknown names, or interior-node names
        (mirroring the GUI's popup validation, §3).
    """
    unique = list(dict.fromkeys(names))
    if not unique:
        raise QueryError("user sample is empty")
    for name in unique:
        node = tree.find(name)
        if node.children:
            raise QueryError(f"{name!r} is an interior node, not a species")
    return unique


# ----------------------------------------------------------------------
# StoredTree (SQL-backed) variants
# ----------------------------------------------------------------------


def random_sample_stored(
    stored: StoredTree, k: int, rng: np.random.Generator | None = None
) -> list[str]:
    """Uniform sample of ``k`` distinct leaf names from a stored tree.

    ``node_id`` is the pre-order rank, so the ids ``0 .. n_nodes - 1``
    are all present.  A small sample draws
    ``d = ceil(1.5 · k · n_nodes / n_leaves) + 8`` distinct ids at
    random, fetches them in one ``IN (...)`` by primary key
    (:meth:`~repro.storage.tree_repository.StoredTree.nodes_by_id`) and
    keeps the first ``k`` leaves in draw order.  The drawn ids are a
    uniform random prefix of a permutation of the nodes, within which
    the leaves are exchangeable, so the result is a uniform ``k``-subset
    of the leaves in uniform order.  A batch with fewer than ``k``
    leaves is redrawn at twice the size; whether a batch falls short
    depends only on its leaf count, so the restart keeps the draw
    exact.  The fetched rows stay in the handle's caches, and a
    following ``project_stored`` or ``sequences_for`` on the same
    handle resolves the sampled names without SQL.

    When ``16 · d`` exceeds ``n_nodes`` (a large ``k``, or a tree whose
    leaves are rare, as with unary chains) one scan of the leaf table
    costs less than the point reads; the sample then indexes a uniform
    choice into :meth:`~repro.storage.tree_repository.StoredTree.leaf_names`.
    For a given ``rng`` state the two paths pick different leaves, from
    the same uniform distribution.

    Raises
    ------
    QueryError
        If ``k`` is not in ``[1, n_leaves]``.
    StorageError
        If the tree was deleted out from under ``stored``.
    """
    n_nodes, n_leaves = stored.info.n_nodes, stored.info.n_leaves
    _check_k(k, n_leaves)
    rng = rng or np.random.default_rng()
    draw = math.ceil(1.5 * k * n_nodes / n_leaves) + 8
    if draw * 16 > n_nodes:
        names = stored.leaf_names()
        chosen = rng.choice(len(names), size=k, replace=False)
        return [names[int(index)] for index in chosen]
    while True:
        ids = rng.choice(n_nodes, size=draw, replace=False).tolist()
        leaves = [row.name for row in stored.nodes_by_id(ids) if row.is_leaf]
        if len(leaves) >= k:
            return leaves[:k]
        if draw == n_nodes:
            raise StorageError(
                f"tree {stored.info.name!r} holds {len(leaves)} leaves, "
                f"its catalogue row says {n_leaves}"
            )
        draw = min(2 * draw, n_nodes)


def sample_with_time_stored(
    stored: StoredTree,
    time: float,
    k: int,
    rng: np.random.Generator | None = None,
) -> list[str]:
    """Time-stratified sample over a stored tree.

    The frontier is one join over the tree's rows, each parent found by
    primary key
    (:meth:`~repro.storage.tree_repository.StoredTree.time_frontier`);
    each frontier subtree's leaves come from a clade-interval range scan.
    """
    rng = rng or np.random.default_rng()
    frontier: list[NodeRow] = stored.time_frontier(time)
    if not frontier:
        raise QueryError(
            f"no lineage extends past time {time}; frontier is empty"
        )
    groups = [
        [row.name for row in stored.leaves_in_subtree(node.node_id) if row.name]
        for node in frontier
    ]
    return _stratified_draw(groups, k, rng)


# ----------------------------------------------------------------------
# Shared stratified-quota logic
# ----------------------------------------------------------------------


def _check_k(k: int, available: int) -> None:
    if k < 1:
        raise QueryError(f"sample size must be at least 1, got {k}")
    if k > available:
        raise QueryError(
            f"cannot sample {k} species from {available} available leaves"
        )


def _stratified_draw(
    groups: list[list[str]], k: int, rng: np.random.Generator
) -> list[str]:
    total = sum(len(group) for group in groups)
    _check_k(k, total)

    m = len(groups)
    quotas = [k // m] * m
    for index in rng.permutation(m)[: k % m]:
        quotas[int(index)] += 1

    # Redistribute shortfalls from small groups to groups with spares.
    for _ in range(m):
        shortfall = 0
        for index, group in enumerate(groups):
            if quotas[index] > len(group):
                shortfall += quotas[index] - len(group)
                quotas[index] = len(group)
        if shortfall == 0:
            break
        spare_indices = [
            index for index, group in enumerate(groups) if quotas[index] < len(group)
        ]
        order = rng.permutation(len(spare_indices))
        for position in order:
            if shortfall == 0:
                break
            index = spare_indices[int(position)]
            available = len(groups[index]) - quotas[index]
            take = min(available, shortfall)
            quotas[index] += take
            shortfall -= take

    sample: list[str] = []
    for quota, group in zip(quotas, groups):
        if quota == 0:
            continue
        chosen = rng.choice(len(group), size=quota, replace=False)
        sample.extend(group[int(index)] for index in chosen)
    return sample
