"""The Benchmark Manager: sample → project → reconstruct → compare.

This is the paper's headline use case (abstract, §2.2): evaluate a
phylogenetic tree reconstruction algorithm against the gold-standard
simulation tree.  Because reconstruction is NP-hard and does not scale to
the simulation tree, the manager samples a tractable species subset,
projects the gold-standard subtree over the sample, hands the sample's
sequences to the algorithm under test, and scores the algorithm's output
against the projection.

Two deployment modes share the same pipeline:

* **repository mode** — the gold standard lives in the Crimson store;
  sampling and projection run over SQL, sequences come from the Species
  Repository, and every evaluation is recorded in the Query Repository;
* **in-memory mode** — a :class:`~repro.trees.tree.PhyloTree` plus a
  sequence dict, for quick experiments and the test suite.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.benchmark.metrics import SplitComparison, compare_splits
from repro.benchmark.sampling import (
    random_sample,
    random_sample_stored,
    sample_with_time,
    sample_with_time_stored,
    validate_user_sample,
)
from repro.core.lca import LcaService
from repro.core.projection import project_tree
from repro.errors import QueryError
from repro.reconstruction.distances import distance_matrix
from repro.reconstruction.nj import neighbor_joining
from repro.reconstruction.random_tree import random_topology
from repro.reconstruction.upgma import upgma
from repro.reconstruction.parsimony import parsimony_greedy
from repro.storage.database import (
    DatabaseFacade,
    reuse_namespace,
    unwrap_database,
)
from repro.storage.projection import project_stored
from repro.storage.query_repository import QueryRepository
from repro.storage.species_repository import SpeciesRepository
from repro.storage.tree_repository import StoredTree, TreeRepository
from repro.trees.tree import PhyloTree

Algorithm = Callable[[Mapping[str, str]], PhyloTree]


def _nj_jc69(sequences: Mapping[str, str]) -> PhyloTree:
    return neighbor_joining(distance_matrix(sequences, "jc69"))


def _nj_k2p(sequences: Mapping[str, str]) -> PhyloTree:
    return neighbor_joining(distance_matrix(sequences, "k2p"))


def _upgma_jc69(sequences: Mapping[str, str]) -> PhyloTree:
    return upgma(distance_matrix(sequences, "jc69"))


def _parsimony(sequences: Mapping[str, str]) -> PhyloTree:
    return parsimony_greedy(sequences, nni_rounds=1)


def _random(sequences: Mapping[str, str]) -> PhyloTree:
    return random_topology(list(sequences))


DEFAULT_ALGORITHMS: dict[str, Algorithm] = {
    "nj-jc69": _nj_jc69,
    "nj-k2p": _nj_k2p,
    "upgma-jc69": _upgma_jc69,
    "random": _random,
}
"""Algorithms evaluated when none are specified.

``parsimony`` is registered separately (:data:`ALL_ALGORITHMS`) because
its greedy search is quadratic in the sample size and dominates runtime
for larger samples.
"""

ALL_ALGORITHMS: dict[str, Algorithm] = {
    **DEFAULT_ALGORITHMS,
    "parsimony": _parsimony,
}


@dataclass(frozen=True)
class AlgorithmResult:
    """Evaluation of one algorithm on one sampled instance."""

    algorithm: str
    comparison: SplitComparison
    runtime_s: float
    estimate: PhyloTree

    @property
    def normalized_rf(self) -> float:
        return self.comparison.normalized_rf


@dataclass(frozen=True)
class TrialResult:
    """One sample → projection → evaluation round."""

    sample: list[str]
    projection: PhyloTree
    results: dict[str, AlgorithmResult]

    def ranking(self) -> list[str]:
        """Algorithm names ordered best-first by normalized RF."""
        return sorted(
            self.results, key=lambda name: self.results[name].normalized_rf
        )


@dataclass
class SweepRow:
    """Aggregated accuracy of one algorithm at one sample size."""

    algorithm: str
    sample_size: int
    n_trials: int
    mean_normalized_rf: float
    std_normalized_rf: float
    mean_rf: float
    mean_false_negative_rate: float
    mean_runtime_s: float


def evaluate_sample(
    projection: PhyloTree,
    sequences: Mapping[str, str],
    algorithms: Mapping[str, Algorithm],
) -> dict[str, AlgorithmResult]:
    """Run each algorithm on the sample's sequences and score it against
    the gold-standard projection."""
    results: dict[str, AlgorithmResult] = {}
    for name, algorithm in algorithms.items():
        start = _time.perf_counter()
        estimate = algorithm(sequences)
        elapsed = _time.perf_counter() - start
        comparison = compare_splits(projection, estimate)
        results[name] = AlgorithmResult(
            algorithm=name,
            comparison=comparison,
            runtime_s=elapsed,
            estimate=estimate,
        )
    return results


class BenchmarkManager:
    """Evaluates reconstruction algorithms against a stored gold standard.

    ``owner`` is a :class:`~repro.storage.store.CrimsonStore` (whose
    repository namespaces are reused) or a raw
    :class:`~repro.storage.database.CrimsonDatabase`.
    """

    def __init__(
        self,
        owner,
        algorithms: Mapping[str, Algorithm] | None = None,
        record_history: bool = True,
    ) -> None:
        self.db = unwrap_database(owner, "BenchmarkManager", warn=False)
        facade = DatabaseFacade(self.db)
        self.trees = reuse_namespace(owner, "trees", TreeRepository, facade)
        self.species = reuse_namespace(
            owner, "species", SpeciesRepository, facade
        )
        self.history = reuse_namespace(
            owner, "history", QueryRepository, facade
        )
        self.algorithms = dict(algorithms or DEFAULT_ALGORITHMS)
        self.record_history = record_history

    def _sample(
        self,
        stored: StoredTree,
        k: int | None,
        method: str,
        time: float | None,
        taxa: Sequence[str] | None,
        rng: np.random.Generator,
    ) -> list[str]:
        if method == "user":
            if taxa is None:
                raise QueryError("user sampling needs an explicit taxon list")
            # The batched lookup leaves the rows cached for the
            # trial's projection.
            rows = stored.engine.node_rows_by_names(taxa)
            unknown = [
                name for name in taxa
                if name not in rows or not rows[name].is_leaf
            ]
            if unknown:
                raise QueryError(f"unknown taxa in user sample: {unknown}")
            return list(dict.fromkeys(taxa))
        if k is None:
            raise QueryError(f"{method!r} sampling needs a sample size k")
        if method == "random":
            return random_sample_stored(stored, k, rng)
        if method == "time":
            if time is None:
                raise QueryError("time sampling needs a time threshold")
            return sample_with_time_stored(stored, time, k, rng)
        raise QueryError(
            f"unknown sampling method {method!r}; "
            "choose 'random', 'time', or 'user'"
        )

    def run_trial(
        self,
        tree_name: str,
        k: int | None = None,
        method: str = "random",
        time: float | None = None,
        taxa: Sequence[str] | None = None,
        rng: np.random.Generator | None = None,
    ) -> TrialResult:
        """One full benchmark round against a stored gold standard.

        Parameters
        ----------
        tree_name:
            Repository key of the gold-standard tree (must have species
            data for the sampled taxa).
        k:
            Sample size (``random``/``time`` methods).
        method:
            ``"random"``, ``"time"``, or ``"user"``.
        time:
            Evolutionary-time threshold for ``"time"`` sampling.
        taxa:
            Explicit species list for ``"user"`` sampling.
        rng:
            Randomness source.

        Raises
        ------
        QueryError
            On invalid sampling parameters or missing species data.
        StorageError
            If the tree is not in the repository.
        """
        rng = rng or np.random.default_rng()
        stored = self.trees.open(tree_name)
        started = _time.perf_counter()

        sample = self._sample(stored, k, method, time, taxa, rng)
        # Sampling and projection run through SQL: only the sampled
        # rows and their LCAs are fetched, never the whole gold standard
        # (challenge 1).  A small random sample and a user sample leave
        # their rows cached on the handle, so the projection and the
        # sequence fetch resolve the sampled names without SQL.
        projection = project_stored(stored, sample)
        sequences = self.species.sequences_for(stored, sample)
        results = evaluate_sample(projection, sequences, self.algorithms)

        if self.record_history:
            elapsed_ms = (_time.perf_counter() - started) * 1000.0
            best = min(results.values(), key=lambda r: r.normalized_rf)
            self.history.record(
                "benchmark-trial",
                {
                    "tree": tree_name,
                    "method": method,
                    "k": k,
                    "time": time,
                    "algorithms": sorted(self.algorithms),
                },
                tree_name=tree_name,
                duration_ms=elapsed_ms,
                result_summary=(
                    f"best={best.algorithm} nRF={best.normalized_rf:.3f}"
                ),
            )
        return TrialResult(sample=sample, projection=projection, results=results)

    def run_sweep(
        self,
        tree_name: str,
        sample_sizes: Sequence[int],
        n_trials: int = 3,
        method: str = "random",
        time: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> list[SweepRow]:
        """Accuracy-versus-sample-size sweep (the E7 experiment table).

        Returns one row per ``(algorithm, sample size)`` pair aggregating
        ``n_trials`` independent samples.
        """
        rng = rng or np.random.default_rng()
        rows: list[SweepRow] = []
        for k in sample_sizes:
            per_algorithm: dict[str, list[AlgorithmResult]] = {
                name: [] for name in self.algorithms
            }
            for _ in range(n_trials):
                trial = self.run_trial(
                    tree_name, k=k, method=method, time=time, rng=rng
                )
                for name, result in trial.results.items():
                    per_algorithm[name].append(result)
            for name, results in per_algorithm.items():
                nrf_values = np.array([r.normalized_rf for r in results])
                rows.append(
                    SweepRow(
                        algorithm=name,
                        sample_size=k,
                        n_trials=n_trials,
                        mean_normalized_rf=float(nrf_values.mean()),
                        std_normalized_rf=float(nrf_values.std()),
                        mean_rf=float(
                            np.mean([r.comparison.rf_distance for r in results])
                        ),
                        mean_false_negative_rate=float(
                            np.mean(
                                [r.comparison.false_negative_rate for r in results]
                            )
                        ),
                        mean_runtime_s=float(
                            np.mean([r.runtime_s for r in results])
                        ),
                    )
                )
        return rows


def run_in_memory_trial(
    gold: PhyloTree,
    sequences: Mapping[str, str],
    k: int,
    method: str = "random",
    time: float | None = None,
    algorithms: Mapping[str, Algorithm] | None = None,
    rng: np.random.Generator | None = None,
    lca_service: LcaService | None = None,
) -> TrialResult:
    """Repository-free benchmark round over an in-memory gold standard.

    Raises
    ------
    QueryError
        On invalid sampling parameters or taxa without sequences.
    """
    rng = rng or np.random.default_rng()
    if method == "random":
        sample = random_sample(gold, k, rng)
    elif method == "time":
        if time is None:
            raise QueryError("time sampling needs a time threshold")
        sample = sample_with_time(gold, time, k, rng)
    else:
        raise QueryError(f"unknown in-memory sampling method {method!r}")
    sample = validate_user_sample(gold, sample)
    projection = project_tree(gold, sample, lca_service=lca_service)
    missing = [name for name in sample if name not in sequences]
    if missing:
        raise QueryError(f"no sequences for sampled taxa: {missing}")
    chosen = {name: sequences[name] for name in sample}
    results = evaluate_sample(projection, chosen, algorithms or DEFAULT_ALGORITHMS)
    return TrialResult(sample=sample, projection=projection, results=results)


def format_sweep_table(rows: Sequence[SweepRow]) -> str:
    """Fixed-width text table of a sweep (what the bench prints)."""
    header = (
        f"{'algorithm':<12} {'k':>5} {'trials':>6} {'nRF':>7} "
        f"{'±':>6} {'RF':>7} {'FN rate':>8} {'time(s)':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.algorithm:<12} {row.sample_size:>5} {row.n_trials:>6} "
            f"{row.mean_normalized_rf:>7.3f} {row.std_normalized_rf:>6.3f} "
            f"{row.mean_rf:>7.1f} {row.mean_false_negative_rate:>8.3f} "
            f"{row.mean_runtime_s:>8.4f}"
        )
    return "\n".join(lines)
