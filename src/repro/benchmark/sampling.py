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
:class:`~repro.storage.tree_repository.StoredTree`.  A stored sample
draws pre-order leaf ids from the tree's store-wide leaf-id table
(:meth:`~repro.storage.tree_repository.StoredTree.leaf_ids`, one read
per tree and store) and then fetches only the ``k`` rows it keeps.
Leaves are numbered in the same pre-order in memory and in the store,
so for the same ``rng`` state each stored sampler returns exactly what
its in-memory twin does.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence, TypeVar

import numpy as np

from repro.errors import QueryError
from repro.storage.tree_repository import StoredTree
from repro.trees.node import Node
from repro.trees.tree import PhyloTree

T = TypeVar("T")


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

    :func:`random_sample`'s draw, over the tree's leaf-id table; the
    ``k`` drawn rows then arrive in one ``IN (...)`` fetch
    (:meth:`~repro.storage.tree_repository.StoredTree.nodes_by_id`) and
    stay in the handle's caches, so a following ``project_stored`` or
    ``sequences_for`` on the handle resolves the names without SQL.

    Raises
    ------
    QueryError
        If ``k`` is not in ``[1, n_leaves]``.
    StorageError
        If the tree was deleted out from under ``stored``.
    """
    _check_k(k, stored.info.n_leaves)
    rng = rng or np.random.default_rng()
    ids = stored.leaf_ids()
    chosen = rng.choice(len(ids), size=k, replace=False)
    return [row.name for row in stored.nodes_by_id([ids[i] for i in chosen.tolist()])]


def sample_with_time_stored(
    stored: StoredTree,
    time: float,
    k: int,
    rng: np.random.Generator | None = None,
) -> list[str]:
    """Time-stratified sample over a stored tree: :func:`sample_with_time`'s
    draw.

    The frontier is one join over the tree's rows, each parent found by
    primary key, run once per time
    (:meth:`~repro.storage.tree_repository.StoredTree.frontier_spans`);
    each frontier subtree's leaves are the slice of the leaf-id table
    inside its clade interval, and only the ``k`` drawn rows are read.
    """
    rng = rng or np.random.default_rng()
    spans = stored.frontier_spans(time)
    if not spans:
        raise QueryError(
            f"no lineage extends past time {time}; frontier is empty"
        )
    ids = stored.leaf_ids()
    groups = [
        ids[bisect_left(ids, spans[i]) : bisect_right(ids, spans[i + 1])]
        for i in range(0, len(spans), 2)
    ]
    return [row.name for row in stored.nodes_by_id(_stratified_draw(groups, k, rng))]


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
    groups: Sequence[Sequence[T]], k: int, rng: np.random.Generator
) -> list[T]:
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

    sample: list[T] = []
    for quota, group in zip(quotas, groups):
        if quota == 0:
            continue
        chosen = rng.choice(len(group), size=quota, replace=False)
        sample.extend(group[int(index)] for index in chosen)
    return sample
