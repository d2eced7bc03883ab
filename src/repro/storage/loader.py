"""The Data Loader: files in, repositories filled (paper §3, "Loading Data").

Supports the paper's three loading modes:

* load a phylogenetic tree **with species data** (NEXUS with TREES and
  CHARACTERS/DATA blocks),
* load a tree **structure only** (NEXUS TREES block or a bare Newick
  file),
* **append species data** to an already-stored tree (NEXUS CHARACTERS
  block or a mapping).

Loading status and errors are surfaced through a caller-suppliable
``report`` callback, mirroring the dynamically generated messages of the
Crimson GUI.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.lca import DEFAULT_LABEL_BOUND
from repro.errors import ParseError, StorageError
from repro.storage import sql
from repro.storage.tree_repository import StoredTree
from repro.trees.nexus import parse_nexus
from repro.trees.newick import parse_newick
from repro.trees.tree import PhyloTree, validate_tree

if TYPE_CHECKING:
    from repro.storage.store import CrimsonStore

Reporter = Callable[[str], None]


def _silent(_message: str) -> None:
    return None


def _read_text(path: str | Path) -> str:
    """Read an input file, folding I/O failures into the error hierarchy.

    Raises
    ------
    StorageError
        If the file cannot be read.
    """
    try:
        return Path(path).read_text()
    except OSError as error:
        raise StorageError(f"cannot read {str(path)!r}: {error}") from error


class DataLoader:
    """Loads NEXUS/Newick content into the Tree and Species Repositories.

    Reach it through the store's ``load_*`` methods.  It writes through
    the store's own ``trees`` and ``species`` namespaces.
    """

    def __init__(self, store: CrimsonStore, report: Reporter = _silent) -> None:
        self.db = store.db
        self.trees = store.trees
        self.species = store.species
        self.report = report

    # ------------------------------------------------------------------
    # Whole-file loading
    # ------------------------------------------------------------------

    def load_nexus_text(
        self,
        text: str,
        name: str | None = None,
        f: int = DEFAULT_LABEL_BOUND,
        structure_only: bool = False,
    ) -> list[StoredTree]:
        """Load every tree in a NEXUS document; return their handles.

        When the document carries a character matrix and
        ``structure_only`` is not set, sequences are attached to every
        loaded tree whose leaves they name.

        Parameters
        ----------
        text:
            NEXUS document text.
        name:
            Repository key override.  With one tree in the document the
            tree is stored under ``name``; with several, under
            ``name-<tree label>``.
        f:
            Label bound for the hierarchical index.
        structure_only:
            Skip species data even when present.

        Atomicity
        ---------
        A multi-tree document loads all-or-nothing: every tree is
        validated (structure and key conflicts) before the first one is
        stored, and if storing tree *k* still fails, trees *1..k-1* —
        their catalogue rows, shard rows, and species data — are rolled
        back before the error propagates.  A failed load never leaves a
        half-committed catalogue behind.

        Raises
        ------
        ParseError
            On malformed NEXUS content.
        StorageError
            On repository key conflicts.
        """
        document = parse_nexus(text)
        if not document.trees:
            raise ParseError("NEXUS document contains no TREES block")
        multiple = len(document.trees) > 1
        planned = [
            (self._key_for(name, tree_label, multiple), tree)
            for tree_label, tree in document.trees
        ]

        # Validate the whole document before storing anything, so the
        # common failure modes (bad structure on tree k, a key clash
        # with a stored tree or within the document) abort with the
        # catalogue untouched.
        seen: set[str] = set()
        for key, tree in planned:
            if key in seen:
                raise StorageError(
                    f"NEXUS document stores two trees under the key {key!r}"
                )
            seen.add(key)
            validate_tree(tree, require_leaf_names=True)
            if self.db.query_one(sql.TREE_NAME_TAKEN, (key,)):
                raise StorageError(f"a tree named {key!r} is already stored")

        handles: list[StoredTree] = []
        stored_keys: list[str] = []
        try:
            for key, tree in planned:
                self.report(f"loading tree {key!r}...")
                handle = self.trees.store_tree(tree, name=key, f=f)
                stored_keys.append(key)
                self.report(
                    f"stored {key!r}: {handle.info.n_nodes} nodes, "
                    f"{handle.info.n_leaves} leaves, depth {handle.info.max_depth}, "
                    f"{handle.info.n_blocks} index blocks over "
                    f"{handle.info.n_layers} layers"
                )
                handles.append(handle)
                if document.characters is not None and not structure_only:
                    attached = self._attach_matching(handle, document.characters.rows,
                                                     document.characters.datatype)
                    self.report(f"attached species data for {attached} taxa to {key!r}")
        except BaseException:
            # Roll back the trees this document already committed (the
            # compensation path for failures validation cannot foresee,
            # e.g. disk errors mid-load).
            for key in reversed(stored_keys):
                try:
                    self.trees.delete_tree(key)
                except StorageError:
                    pass  # leave whatever cannot be removed for verify
            if stored_keys:
                self.report(
                    f"load failed; rolled back {len(stored_keys)} "
                    "already-stored tree(s)"
                )
            raise
        return handles

    def load_nexus_file(
        self,
        path: str | Path,
        name: str | None = None,
        f: int = DEFAULT_LABEL_BOUND,
        structure_only: bool = False,
    ) -> list[StoredTree]:
        """Load a NEXUS file (see :meth:`load_nexus_text`)."""
        content = _read_text(path)
        return self.load_nexus_text(
            content, name=name or Path(path).stem, f=f, structure_only=structure_only
        )

    def load_newick_text(
        self,
        text: str,
        name: str,
        f: int = DEFAULT_LABEL_BOUND,
    ) -> StoredTree:
        """Load a bare Newick string as a structure-only tree."""
        tree = parse_newick(text)
        self.report(f"loading tree {name!r}...")
        handle = self.trees.store_tree(tree, name=name, f=f)
        self.report(
            f"stored {name!r}: {handle.info.n_nodes} nodes, "
            f"{handle.info.n_leaves} leaves"
        )
        return handle

    def load_newick_file(
        self, path: str | Path, name: str | None = None, f: int = DEFAULT_LABEL_BOUND
    ) -> StoredTree:
        """Load a Newick file as a structure-only tree."""
        content = _read_text(path)
        return self.load_newick_text(content, name or Path(path).stem, f=f)

    def load_tree(
        self,
        tree: PhyloTree,
        name: str | None = None,
        f: int = DEFAULT_LABEL_BOUND,
        sequences: Mapping[str, str] | None = None,
        char_type: str = "DNA",
    ) -> StoredTree:
        """Load an in-memory tree, optionally with species data.

        This is the programmatic path the simulation pipeline uses to
        register freshly generated gold standards.
        """
        handle = self.trees.store_tree(tree, name=name, f=f)
        if sequences:
            self.species.attach_sequences(handle, sequences, char_type=char_type)
            self.report(
                f"stored {handle.info.name!r} with species data for "
                f"{len(sequences)} taxa"
            )
        else:
            self.report(f"stored {handle.info.name!r} (structure only)")
        return handle

    # ------------------------------------------------------------------
    # Appending species data
    # ------------------------------------------------------------------

    def append_species_nexus(
        self, tree_name: str, text: str, replace: bool = False
    ) -> int:
        """Append a NEXUS CHARACTERS/DATA matrix to an existing tree.

        Returns the number of taxa attached.

        Raises
        ------
        ParseError
            If the document has no character matrix.
        StorageError
            If the tree is unknown (or rows clash and ``replace`` unset).
        """
        document = parse_nexus(text)
        if document.characters is None or not document.characters.rows:
            raise ParseError("NEXUS document has no character matrix to append")
        handle = self.trees.open(tree_name)
        count = self.species.attach_sequences(
            handle,
            document.characters.rows,
            char_type=document.characters.datatype,
            replace=replace,
        )
        self.report(f"appended species data for {count} taxa to {tree_name!r}")
        return count

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _attach_matching(
        self, handle: StoredTree, rows: Mapping[str, str], datatype: str
    ) -> int:
        """Attach the matrix rows whose names exist in the tree."""
        known = set(handle.leaf_names())
        subset = {name: seq for name, seq in rows.items() if name in known}
        skipped = len(rows) - len(subset)
        if skipped:
            self.report(
                f"warning: {skipped} matrix rows name taxa absent from "
                f"{handle.info.name!r} and were skipped"
            )
        if subset:
            self.species.attach_sequences(handle, subset, char_type=datatype)
        return len(subset)

    @staticmethod
    def _key_for(name: str | None, tree_label: str, multiple: bool) -> str:
        if name is None:
            return tree_label
        if multiple:
            return f"{name}-{tree_label}"
        return name
