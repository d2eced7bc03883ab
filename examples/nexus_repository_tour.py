"""Repository tour: NEXUS loading, species data, history, visualization.

Walks the paper's §3 demonstration script: load a NEXUS file with
species data, append more data to an existing tree, run and recall
queries through the Query Repository, and export results in every
supported visualization format (ASCII dendrogram, phylogram, NEXUS,
Walrus-style JSON).

Run with::

    python examples/nexus_repository_tour.py
"""

from __future__ import annotations

from repro.cli.render import render_ascii, render_phylogram
from repro.cli.walrus import to_walrus_json
from repro.storage.store import CrimsonStore
from repro.trees.nexus import NexusDocument, write_nexus

PRIMATES_NEXUS = """#NEXUS
BEGIN TAXA;
    DIMENSIONS NTAX=5;
    TAXLABELS Homo Pan Gorilla Pongo Hylobates;
END;
BEGIN CHARACTERS;
    DIMENSIONS NTAX=5 NCHAR=20;
    FORMAT DATATYPE=DNA MISSING=? GAP=-;
    MATRIX
        Homo      AAGCTTCACCGGCGCAGTCA
        Pan       AAGCTTCACCGGCGCAATTA
        Gorilla   AAGCTTCACCGGCGCAGTTG
        Pongo     AAGCTTCACCGGCGCAACCA
        Hylobates AAGCTTTACAGGTGCAACCG
    ;
END;
BEGIN TREES;
    TREE primates = ((((Homo:0.21,Pan:0.21):0.28,Gorilla:0.31):0.44,
                      Pongo:0.69):0.47,Hylobates:1.00);
END;
"""


def main() -> None:
    store = CrimsonStore.open(
        report=lambda message: print(f"  [loader] {message}")
    )

    print("-- loading a NEXUS document with tree + character matrix --")
    (handle,) = store.load_nexus_text(PRIMATES_NEXUS)

    species = store.species
    print(f"\n  species rows: {species.count(handle)}")
    print(f"  Homo sequence: {species.sequence_of(handle, 'Homo')}")

    print("\n-- recording queries in the Query Repository --")
    history = store.history
    history.register_operation(
        "lca", lambda a, b: handle.lca(a, b).name or "(anonymous interior)"
    )
    history.register_operation(
        "frontier", lambda time: [r.name for r in handle.time_frontier(time)]
    )
    print("  lca(Homo, Gorilla) =", history.run_recorded(
        "lca", {"a": "Homo", "b": "Gorilla"}, tree_name="primates"))
    print("  frontier(0.5)      =", history.run_recorded(
        "frontier", {"time": 0.5}, tree_name="primates"))

    print("\n  recorded history (newest first):")
    for entry in history.recent():
        print(
            f"    #{entry.query_id} {entry.operation} {entry.params} "
            f"({entry.duration_ms:.2f} ms)"
        )

    print("\n  re-running query #1 from history:")
    print("  ->", history.rerun(1))

    print("\n-- visualizing the stored tree --")
    tree = handle.fetch_tree()
    print("\nASCII dendrogram:")
    print(render_ascii(tree))
    print("\ndistance-scaled phylogram:")
    print(render_phylogram(tree, width=40))
    print("\nNEXUS export:")
    print(write_nexus(NexusDocument(taxa=tree.leaf_names(),
                                    trees=[("primates", tree)])))
    walrus = to_walrus_json(tree, indent=None)
    print(f"Walrus-style JSON export: {len(walrus)} bytes "
          f"({tree.size()} nodes, {tree.size() - 1} links)")
    store.close()


if __name__ == "__main__":
    main()
