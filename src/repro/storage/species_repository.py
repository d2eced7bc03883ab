"""The Species Repository: sequence data keyed by (tree, node).

Species data — gene sequences representing phenotypic characteristics —
is stored apart from tree structure so structure-based queries never
touch sequence payloads (paper §2.1).  Rows are keyed by the node's
pre-order id inside its tree; convenience methods accept taxon names.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import QueryError, StorageError
from repro.storage.database import unwrap_database
from repro.storage.engine import chunked
from repro.storage.tree_repository import StoredTree

_BATCH = 5000


class SpeciesRepository:
    """Stores and serves per-species character data.

    Reach it as ``store.species``; constructing one from a raw
    :class:`~repro.storage.database.CrimsonDatabase` is deprecated.
    """

    def __init__(self, owner) -> None:
        self.db = unwrap_database(owner, "SpeciesRepository")

    def attach_sequences(
        self,
        stored: StoredTree,
        sequences: Mapping[str, str],
        char_type: str = "DNA",
        replace: bool = False,
    ) -> int:
        """Attach sequences to named nodes of a stored tree.

        This is the paper's "append species data to an existing
        phylogenetic tree" loading mode.

        Parameters
        ----------
        stored:
            Handle of the tree the data belongs to.
        sequences:
            Taxon name → character string.
        char_type:
            NEXUS datatype tag (``DNA``, ``RNA``, ``PROTEIN``, ...).
        replace:
            Overwrite existing rows instead of failing on conflicts.

        Returns
        -------
        int
            Number of rows written.

        Raises
        ------
        QueryError
            If a taxon name does not exist in the tree.
        StorageError
            If data already exists for a node and ``replace`` is False.
        """
        tree_id = stored.info.tree_id
        nodes = stored.nodes_by_name(list(sequences))
        rows = [
            (tree_id, node.node_id, sequence, char_type)
            for node, sequence in zip(nodes, sequences.values())
        ]

        if not replace:
            existing = self.db.query_all(
                "SELECT node_id FROM species WHERE tree_id = ?", (tree_id,)
            )
            taken = {row["node_id"] for row in existing}
            clashes = [row for row in rows if row[1] in taken]
            if clashes:
                raise StorageError(
                    f"{len(clashes)} nodes already have species data; "
                    "pass replace=True to overwrite"
                )

        statement = (
            "INSERT OR REPLACE INTO species (tree_id, node_id, sequence, char_type) "
            "VALUES (?, ?, ?, ?)"
        )
        with self.db.transaction() as connection:
            for start in range(0, len(rows), _BATCH):
                connection.executemany(statement, rows[start : start + _BATCH])
        return len(rows)

    def sequence_of(self, stored: StoredTree, name: str) -> str:
        """Sequence attached to the named node.

        Raises
        ------
        QueryError
            If the node exists but has no species data (or does not exist).
        """
        return self.sequences_for(stored, [name])[name]

    def sequences_for(
        self, stored: StoredTree, names: Iterable[str]
    ) -> dict[str, str]:
        """Sequences for many taxa (the Benchmark Manager's sample fetch).

        Names resolve in one batched lookup and sequences arrive in
        chunked ``IN (...)`` reads on the species primary key, so a
        sample of up to 400 taxa costs at most two statements, not one
        per taxon.

        Raises
        ------
        QueryError
            If any requested taxon is absent or lacks species data.
        """
        wanted = list(dict.fromkeys(names))
        node_ids = [node.node_id for node in stored.nodes_by_name(wanted)]
        by_node: dict[int, str] = {}
        for chunk in chunked(node_ids):
            placeholders = ",".join("?" for _ in chunk)
            for row in self.db.query_all(
                f"SELECT node_id, sequence FROM species WHERE tree_id = ? "
                f"AND node_id IN ({placeholders})",
                (stored.info.tree_id, *chunk),
            ):
                by_node[row["node_id"]] = row["sequence"]
        result: dict[str, str] = {}
        for name, node_id in zip(wanted, node_ids):
            if node_id not in by_node:
                raise QueryError(f"no species data for {name!r}")
            result[name] = by_node[node_id]
        return result

    def count(self, stored: StoredTree) -> int:
        """Number of species rows attached to a tree."""
        row = self.db.query_one(
            "SELECT COUNT(*) AS n FROM species WHERE tree_id = ?",
            (stored.info.tree_id,),
        )
        assert row is not None
        return row["n"]

    def delete_for_tree(self, stored: StoredTree) -> int:
        """Drop all species rows of a tree; returns the number removed."""
        before = self.count(stored)
        with self.db.transaction() as connection:
            connection.execute(
                "DELETE FROM species WHERE tree_id = ?", (stored.info.tree_id,)
            )
        return before
