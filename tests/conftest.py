"""Shared fixtures: the paper's example tree, random trees, stores."""

from __future__ import annotations

import contextlib
import random

import numpy as np
import pytest

from repro.storage.database import CrimsonDatabase
from repro.storage.store import CrimsonStore
from repro.trees.build import sample_tree
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


@pytest.fixture
def fig1():
    """The Crimson paper's Figure-1 tree."""
    return sample_tree()


@pytest.fixture
def db():
    """An in-memory Crimson database, closed after the test."""
    database = CrimsonDatabase()
    yield database
    database.close()


@pytest.fixture
def store():
    """An in-memory Crimson store, closed after the test."""
    with CrimsonStore.open() as crimson:
        yield crimson


@pytest.fixture
def store_with_cache():
    """Opens in-memory stores of a given ``cache_size``, closed after
    the test."""
    with contextlib.ExitStack() as stack:
        yield lambda size: stack.enter_context(
            CrimsonStore.open(cache_size=size)
        )


@pytest.fixture
def sanitized(monkeypatch):
    """Turn on the runtime connection sanitizer for this test.

    Databases opened while the fixture is active wrap their sqlite
    connections in thread-affinity + statement-counting proxies (see
    :mod:`repro.storage.sanitize`), so the test can assert — via
    ``statement_budget`` — that warm paths stay off the database and
    that pooled readers are only used by threads that checked them out.
    """
    monkeypatch.setenv("CRIMSON_SANITIZE", "1")


def make_random_tree(
    n_nodes: int, seed: int, max_children: int = 4, name_prefix: str = "L"
) -> PhyloTree:
    """Deterministic random tree with every node named (uniform attachment).

    Shared by unit tests that need arbitrary shapes without hypothesis.
    """
    rng = random.Random(seed)
    root = Node(f"{name_prefix}0")
    nodes = [root]
    for index in range(1, n_nodes):
        eligible = [n for n in nodes if len(n.children) < max_children]
        parent = rng.choice(eligible or nodes)
        child = Node(f"{name_prefix}{index}", rng.random() * 2.0)
        parent.add_child(child)
        nodes.append(child)
    return PhyloTree(root)


@pytest.fixture
def random_tree_factory():
    return make_random_tree


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
