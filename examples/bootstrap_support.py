"""Bootstrap calibration against the gold standard.

A capability the gold-standard methodology uniquely enables: because the
*true* projected tree is known, bootstrap support values can be checked
for calibration — do well-supported clades tend to be true?  This
example samples species from a stored gold standard, runs a Felsenstein
bootstrap on the sample's sequences under Neighbor-Joining, and reports
support on true versus false clades.

Run with::

    python examples/bootstrap_support.py
"""

from __future__ import annotations

import numpy as np

from repro.benchmark.bootstrap import bootstrap_support, support_versus_truth
from repro.benchmark.manager import ALL_ALGORITHMS
from repro.benchmark.metrics import clusters, normalized_rf
from repro.benchmark.sampling import random_sample_stored
from repro.cli.render import render_ascii
from repro.simulation.birth_death import birth_death_tree
from repro.simulation.models import tn93
from repro.simulation.rates import SiteRates
from repro.simulation.seqgen import evolve_sequences
from repro.storage.projection import project_stored
from repro.storage.store import CrimsonStore

N_SPECIES = 200
SEQ_LENGTH = 600
SAMPLE_SIZE = 12
REPLICATES = 100


def main() -> None:
    rng = np.random.default_rng(85)

    print(f"building a {N_SPECIES}-species gold standard (TN93 + Γ rates) ...")
    gold = birth_death_tree(N_SPECIES, 1.0, 0.25, rng=rng)
    rates = SiteRates(SEQ_LENGTH, rng, alpha=0.6)
    sequences = evolve_sequences(
        gold, tn93(2.0, 4.0), SEQ_LENGTH, rng=rng, site_rates=rates, scale=0.2
    )
    store = CrimsonStore.open()
    handle = store.load_tree(gold, name="gold", sequences=sequences)

    print(f"sampling {SAMPLE_SIZE} species and projecting the true subtree ...")
    sample = random_sample_stored(handle, SAMPLE_SIZE, rng)
    truth = project_stored(handle, sample)
    print(render_ascii(truth, show_lengths=False))

    print(f"\nrunning a {REPLICATES}-replicate NJ bootstrap ...")
    species = store.species
    sample_sequences = species.sequences_for(handle, sample)
    result = bootstrap_support(
        sample_sequences,
        ALL_ALGORITHMS["nj-jc69"],
        n_replicates=REPLICATES,
        rng=rng,
    )

    print("\nmajority-rule consensus of the replicates:")
    print(render_ascii(result.consensus, show_lengths=False))
    print(f"consensus vs truth: nRF = {normalized_rf(truth, result.consensus):.3f}")

    true_clusters = clusters(truth)
    print("\nclade support (● = clade is true in the gold standard):")
    for cluster, support in sorted(
        result.support.items(), key=lambda item: -item[1]
    ):
        marker = "●" if cluster in true_clusters else "○"
        print(f"  {marker} {support * 100:5.1f}%  {{{', '.join(sorted(cluster))}}}")

    summary = support_versus_truth(result, truth)
    print(
        f"\ncalibration: mean support on true clades "
        f"{summary['mean_support_true'] * 100:.1f}%, on false clades "
        f"{summary['mean_support_false'] * 100:.1f}%; "
        f"true-clade recall {summary['true_cluster_recall'] * 100:.1f}%"
    )
    store.close()


if __name__ == "__main__":
    main()
