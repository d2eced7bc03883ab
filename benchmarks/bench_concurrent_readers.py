"""Concurrent-reader benchmark: pooled read-only WAL connections.

The session-API claim: ``CrimsonStore.open(path, readers=N)`` serves LCA
traffic from many threads without serializing on — or ever touching —
the writer connection.  This bench drives warm and cold LCA workloads at
1/2/4/8 threads through the reader pool, counts errors (``database is
locked`` must never appear), verifies every thread's answers against the
single-threaded ground truth, and proves the writer stayed idle by
reading its statement counter around each phase.  A final phase runs
cold readers *while the writer loads new trees*, the WAL property the
ROADMAP's concurrent-readers item asked for.  Figures are emitted as
JSON (committed as ``BENCH_concurrent_readers.json``)::

    PYTHONPATH=src python benchmarks/bench_concurrent_readers.py [out.json] [--smoke]

``--smoke`` shrinks the tree, workload, and thread ladder to a
seconds-long CI guard (the acceptance shape — zero lock errors, idle
writer — holds at any size).  Run as a pytest bench it asserts the acceptance properties: zero lock
errors, zero result mismatches, zero writer statements during pooled
query phases, and a statement-free warm path.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.storage.api import QueryRequest
from repro.storage.store import CrimsonStore
from repro.storage.tree_repository import StoredTree
from repro.trees.build import caterpillar

from _latency import latency_summary

DEPTH = 600
N_PAIRS = 100
REPS = 3
F = 8
THREAD_COUNTS = (1, 2, 4, 8)
POOL_SIZE = 8

SMOKE = {"depth": 150, "n_pairs": 25, "thread_counts": (1, 4)}


def _pairs(n_leaves: int, n_pairs: int) -> list[tuple[str, str]]:
    return [(f"t{i + 1}", f"t{n_leaves - i}") for i in range(n_pairs)]


class _Phase:
    """One measured phase: N threads, REPS workload runs per thread."""

    def __init__(self, store: CrimsonStore, pairs, expected, warm: bool):
        self.store = store
        self.pairs = pairs
        self.expected = expected
        self.warm = warm
        self.errors: list[str] = []
        self.mismatches = 0
        self.latencies_s: list[float] = []
        self._lock = threading.Lock()

    def _one_workload(self) -> None:
        if self.warm:
            # The per-thread cached handle keeps its row caches.
            handle = self.store.open_tree("deep")
        else:
            # A fresh handle per run with an empty skeleton of its own
            # (not the store's shared one, which the other runs and
            # threads fill): every query hits SQL again.
            shared = self.store.open_tree("deep")
            handle = StoredTree(shared.db, shared.info, cache_size=4096)
        got = [row.node_id for row in handle.lca_batch(self.pairs)]
        if got != self.expected:
            with self._lock:
                self.mismatches += 1

    def _thread_main(
        self, ready: threading.Barrier, go: threading.Barrier
    ) -> None:
        try:
            if self.warm:  # pre-warm this thread's caches, untimed
                self._one_workload()
            ready.wait()
            go.wait()
            timings = []
            for _ in range(REPS):
                start = time.perf_counter()
                self._one_workload()
                timings.append(time.perf_counter() - start)
            with self._lock:
                self.latencies_s.extend(timings)
        except Exception as error:  # noqa: BLE001 - recorded for the report
            with self._lock:
                self.errors.append(repr(error))

    def start_threads(
        self, n_threads: int
    ) -> tuple[list[threading.Thread], threading.Barrier, threading.Barrier]:
        ready = threading.Barrier(n_threads + 1)
        go = threading.Barrier(n_threads + 1)
        threads = [
            threading.Thread(target=self._thread_main, args=(ready, go))
            for _ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        return threads, ready, go

    def run(self, n_threads: int) -> dict:
        threads, ready, go = self.start_threads(n_threads)
        # All pre-warm traffic lands before the counters are sampled.
        ready.wait()
        writer_before = self.store.db.statements_executed
        pool_before = self.store.pool.statements_executed()
        go.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start
        queries = n_threads * REPS * len(self.pairs)
        return {
            "threads": n_threads,
            "wall_ms": round(wall_s * 1e3, 3),
            "queries": queries,
            "queries_per_sec": round(queries / wall_s, 1),
            "reader_statements": self.store.pool.statements_executed()
            - pool_before,
            "writer_statements": self.store.db.statements_executed
            - writer_before,
            "errors": list(self.errors),
            "locked_errors": sum("locked" in e for e in self.errors),
            "result_mismatches": self.mismatches,
            # One sample per lca_batch workload run (len(pairs) queries).
            "batch_latency_ms": latency_summary(self.latencies_s),
        }


def _loading_phase(store: CrimsonStore, pairs, expected) -> dict:
    """Cold readers at 4 threads while the writer loads new trees."""
    phase = _Phase(store, pairs, expected, warm=False)
    threads, ready, go = phase.start_threads(4)
    ready.wait()
    go.wait()
    start = time.perf_counter()
    loads = 0
    while True:
        store.load_tree(caterpillar(150), name=f"concurrent-load-{loads}", f=F)
        loads += 1
        if not any(thread.is_alive() for thread in threads):
            break
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    queries = 4 * REPS * len(pairs)
    return {
        "threads": 4,
        "wall_ms": round(wall_s * 1e3, 3),
        "queries_per_sec": round(queries / wall_s, 1),
        "trees_loaded_concurrently": loads,
        "errors": list(phase.errors),
        "locked_errors": sum("locked" in e for e in phase.errors),
        "result_mismatches": phase.mismatches,
        "batch_latency_ms": latency_summary(phase.latencies_s),
    }


def run_experiment(
    depth: int = DEPTH,
    n_pairs: int = N_PAIRS,
    thread_counts: tuple[int, ...] = THREAD_COUNTS,
) -> dict:
    with tempfile.TemporaryDirectory() as tmpdir:
        path = str(Path(tmpdir) / "bench.db")
        with CrimsonStore.open(path, readers=POOL_SIZE) as store:
            store.load_tree(caterpillar(depth), name="deep", f=F)
            pairs = _pairs(depth, n_pairs)
            # Single-threaded ground truth over the typed query surface.
            expected = [
                row.node_id
                for row in store.query(
                    QueryRequest.lca_batch("deep", pairs)
                ).nodes
            ]

            warm = {
                f"{n}_threads": _Phase(store, pairs, expected, warm=True).run(n)
                for n in thread_counts
            }
            cold = {
                f"{n}_threads": _Phase(store, pairs, expected, warm=False).run(n)
                for n in thread_counts
            }
            while_loading = _loading_phase(store, pairs, expected)

            return {
                "experiment": "concurrent-readers",
                "tree": {"shape": "caterpillar", "depth": depth, "f": F},
                "workload": {
                    "n_pairs": n_pairs,
                    "reps_per_thread": REPS,
                    "pool_size": POOL_SIZE,
                },
                "warm": warm,
                "cold": cold,
                "cold_while_loading": while_loading,
                "pool_readers_opened": store.pool.open_readers,
            }


def _totals(results: dict) -> tuple[int, int, int]:
    phases = [
        *results["warm"].values(),
        *results["cold"].values(),
        results["cold_while_loading"],
    ]
    locked = sum(phase["locked_errors"] for phase in phases)
    errors = sum(len(phase["errors"]) for phase in phases)
    mismatches = sum(phase["result_mismatches"] for phase in phases)
    return locked, errors, mismatches


def test_concurrent_readers(benchmark, report):
    results = run_experiment()
    locked, errors, mismatches = _totals(results)

    # A small timed kernel for pytest-benchmark: one warm 4-thread burst.
    with tempfile.TemporaryDirectory() as tmpdir:
        path = str(Path(tmpdir) / "kernel.db")
        with CrimsonStore.open(path, readers=4) as store:
            store.load_tree(caterpillar(200), name="deep", f=F)
            pairs = _pairs(200, 50)
            expected = [
                row.node_id for row in store.open_tree("deep").lca_batch(pairs)
            ]

            def burst():
                phase = _Phase(store, pairs, expected, warm=True)
                phase.run(4)

            benchmark(burst)

    report("")
    report(
        f"E5 — concurrent readers over WAL (caterpillar depth {DEPTH}, "
        f"{N_PAIRS} pairs x {REPS} reps, pool of {POOL_SIZE})"
    )
    report(f"  {'mode':<20} {'threads':>7} {'qps':>10} {'writer stmts':>13}")
    for mode in ("warm", "cold"):
        for key, phase in results[mode].items():
            report(
                f"  {mode:<20} {phase['threads']:>7} "
                f"{phase['queries_per_sec']:>10.0f} "
                f"{phase['writer_statements']:>13}"
            )
    loading = results["cold_while_loading"]
    report(
        f"  {'cold+loading':<20} {loading['threads']:>7} "
        f"{loading['queries_per_sec']:>10.0f} "
        f"{loading['trees_loaded_concurrently']:>10} loads"
    )
    report(
        "  shape: all query traffic runs on pooled read-only "
        "connections; the writer executes zero statements during query "
        "phases and keeps loading under concurrent reads"
    )

    # Acceptance: no lock errors, no wrong answers, the writer idle
    # during pooled phases, and a statement-free warm path.
    assert locked == 0
    assert errors == 0
    assert mismatches == 0
    for phase in results["warm"].values():
        assert phase["writer_statements"] == 0
        assert phase["reader_statements"] == 0
    for phase in results["cold"].values():
        assert phase["writer_statements"] == 0
        assert phase["reader_statements"] > 0


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    positional = [arg for arg in argv[1:] if not arg.startswith("--")]
    out_path = positional[0] if positional else "BENCH_concurrent_readers.json"
    results = run_experiment(**SMOKE) if smoke else run_experiment()
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    locked, errors, mismatches = _totals(results)
    print(f"wrote {out_path}")
    print(
        f"locked errors: {locked}, other errors: {errors}, "
        f"mismatches: {mismatches}"
    )
    for mode in ("warm", "cold"):
        row = ", ".join(
            f"{phase['threads']}T={phase['queries_per_sec']:.0f}"
            for phase in results[mode].values()
        )
        print(f"{mode} qps: {row}")
    return 0 if locked == errors == mismatches == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
