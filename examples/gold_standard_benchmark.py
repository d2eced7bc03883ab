"""The CIPRes workflow: build a gold standard and benchmark algorithms.

This is the paper's headline scenario (abstract, §2.2).  A birth–death
"gold standard" tree is generated, sequences are evolved along it under
HKY85 with gamma rate heterogeneity, everything is loaded into a Crimson
store, and the Benchmark Manager evaluates four reconstruction methods
across increasing sample sizes — printing the accuracy table the paper's
users would read.

Run with::

    python examples/gold_standard_benchmark.py
"""

from __future__ import annotations

import numpy as np

from repro.benchmark.manager import (
    ALL_ALGORITHMS,
    BenchmarkManager,
    format_sweep_table,
)
from repro.simulation.birth_death import birth_death_tree
from repro.simulation.models import hky85
from repro.simulation.rates import SiteRates
from repro.simulation.seqgen import evolve_sequences
from repro.storage.store import CrimsonStore

N_SPECIES = 300
SEQ_LENGTH = 500
SAMPLE_SIZES = (8, 16, 32, 64)
TRIALS = 3


def main() -> None:
    rng = np.random.default_rng(2006)

    print(f"simulating a {N_SPECIES}-species birth-death gold standard ...")
    gold = birth_death_tree(N_SPECIES, birth_rate=1.0, death_rate=0.3, rng=rng)
    print(
        f"  {gold.size()} nodes, max depth {gold.max_depth()}, "
        f"avg leaf depth {gold.avg_leaf_depth():.1f}"
    )

    print(f"evolving {SEQ_LENGTH}-site sequences under HKY85+Gamma ...")
    rates = SiteRates(SEQ_LENGTH, rng, alpha=0.7, proportion_invariant=0.1)
    sequences = evolve_sequences(
        gold, hky85(kappa=2.5), SEQ_LENGTH, rng=rng, site_rates=rates, scale=0.15
    )

    store = CrimsonStore.open(report=lambda msg: print(f"  {msg}"))
    store.load_tree(gold, name="gold", sequences=sequences)

    algorithms = {
        name: ALL_ALGORITHMS[name]
        for name in ("nj-jc69", "nj-k2p", "upgma-jc69", "random")
    }
    manager = BenchmarkManager(store, algorithms=algorithms)

    print(
        f"\nbenchmarking {sorted(algorithms)} on random samples "
        f"of {list(SAMPLE_SIZES)} species, {TRIALS} trials each:\n"
    )
    rows = manager.run_sweep("gold", SAMPLE_SIZES, n_trials=TRIALS, rng=rng)
    print(format_sweep_table(rows))

    print("\nreading the table: lower nRF is better; 'random' is the")
    print("no-signal floor; distance methods should sit well below it and")
    print("drift upward as samples grow (more splits to get right).")

    print("\nmost recent benchmark history entries:")
    for entry in manager.history.recent(limit=3):
        print(f"  #{entry.query_id} {entry.operation} {entry.result_summary}")

    store.close()


if __name__ == "__main__":
    main()
