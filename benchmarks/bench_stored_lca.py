"""Stored-LCA engine benchmark: cold vs warm cache, single vs batch.

The tentpole claim of the stored-query engine: caching the immutable
block/inode/node rows collapses the ``O(f · log_f d)`` point queries of
every stored LCA into amortized O(1) warm-path dictionary hits, and the
batch API walks whole workloads up the index in lock step, one round of
``IN (...)`` queries per layer and source-chain hop.  This bench measures both, counting actual SQL statements via
the database's counting cursor (``CrimsonDatabase.count_statements``),
and emits the figures as JSON (committed as ``BENCH_stored_lca.json``)::

    PYTHONPATH=src python benchmarks/bench_stored_lca.py [out.json] [--smoke]

``--smoke`` shrinks the tree and workload to a seconds-long CI guard
(the acceptance shape — zero warm statements, batch < single — holds at
any size).  Run as a pytest bench (``pytest benchmarks/bench_stored_lca.py``) it
additionally asserts the acceptance properties: a warm repeat executes
zero statements, and the batch path issues measurably fewer statements
than the same pairs queried one by one.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from repro.obs import SlowQueryLog, TimeSeriesSampler
from repro.storage.api import QueryRequest
from repro.storage.store import CrimsonStore
from repro.trees.build import caterpillar

from _latency import latency_summary, percentile

DEPTH = 800
N_PAIRS = 100
F = 8
TRACING_ROUNDS = 21

SMOKE = {"depth": 150, "n_pairs": 25}


def _pairs(n_leaves: int, n_pairs: int) -> list[tuple[str, str]]:
    return [
        (f"t{i + 1}", f"t{n_leaves - i}") for i in range(n_pairs)
    ]


def run_experiment(
    depth: int = DEPTH,
    n_pairs: int = N_PAIRS,
    f: int = F,
    cache_size: int = 4096,
) -> dict:
    """Measure statements and wall time for the four access patterns."""
    store = CrimsonStore.open(cache_size=cache_size)
    db = store.db
    repo = store.trees
    repo.store_tree(caterpillar(depth), name="deep", f=f)
    pairs = _pairs(depth, n_pairs)

    def measured(handle, fn):
        with db.count_statements() as counter:
            start = time.perf_counter()
            fn(handle)
            elapsed_ms = (time.perf_counter() - start) * 1e3
        return counter.count, elapsed_ms

    def singles(latencies_s):
        def run(handle):
            for a, b in pairs:
                start = time.perf_counter()
                handle.lca(a, b)
                latencies_s.append(time.perf_counter() - start)

        return run

    # Cold singles: fresh handle, empty caches.
    cold_handle = repo.open("deep")
    cold_latencies: list[float] = []
    cold_statements, cold_ms = measured(cold_handle, singles(cold_latencies))

    # Warm singles: the same handle repeats the same workload.
    warm_latencies: list[float] = []
    warm_statements, warm_ms = measured(cold_handle, singles(warm_latencies))

    # Cold batch: fresh handle, one lca_batch call.  Every handle of
    # the tree shares its index skeleton, which the singles filled:
    # clear it so the batch starts as cold as the singles did.
    batch_handle = repo.open("deep")
    batch_handle.clear_cache()
    batch_statements, batch_ms = measured(
        batch_handle, lambda handle: handle.lca_batch(pairs)
    )

    # Warm batch: repeat on the warmed handle.
    warm_batch_statements, warm_batch_ms = measured(
        batch_handle, lambda handle: handle.lca_batch(pairs)
    )

    # Fresh handle, resident skeleton: a new handle's singles, with its
    # row caches empty but the skeleton the batch filled — the state
    # every trial of BenchmarkManager.run_trial starts from.
    fresh_latencies: list[float] = []
    fresh_statements, fresh_ms = measured(
        repo.open("deep"), singles(fresh_latencies)
    )

    # Warm traced: the same warm workload through the store's query
    # facade, with tracing quiet and with every tracing and history
    # feature on at once — a threshold-0 slow log retaining a span per
    # query and the 1 Hz history sampler running.  Each of
    # TRACING_ROUNDS rounds runs one untraced and one traced pass
    # (alternating which goes first) and yields the ratio of their
    # p50s, so machine drift lands inside a pair rather than between
    # the sides; the tentpole claim is that the median ratio stays
    # within a few percent of 1, at zero SQL.
    def timed_queries(latencies_s):
        for a, b in pairs:
            request = QueryRequest.lca("deep", a, b)
            start = time.perf_counter()
            store.query(request)
            latencies_s.append(time.perf_counter() - start)

    quiet_log, traced_log = store.slow_log, SlowQueryLog(threshold_ms=0.0)
    sampler = TimeSeriesSampler(store.timeseries)
    sampler.start()
    base_latencies: list[float] = []
    traced_latencies: list[float] = []
    p50_ratios: list[float] = []
    timed_queries([])  # warm the facade path
    traced_statements = 0
    for round_index in range(TRACING_ROUNDS):
        base: list[float] = []
        traced: list[float] = []
        sides = [(quiet_log, base), (traced_log, traced)]
        if round_index % 2:
            sides.reverse()
        for log, latencies in sides:
            store.slow_log = log
            with db.count_statements() as counter:
                timed_queries(latencies)
            if log is traced_log:
                traced_statements += counter.count
        p50_ratios.append(percentile(traced, 0.5) / percentile(base, 0.5))
        base_latencies += base
        traced_latencies += traced
    sampler.stop()
    store.slow_log = quiet_log
    tracing_p50_ratio = round(statistics.median(p50_ratios), 4)

    stats = {
        name: value.as_dict()
        for name, value in cold_handle.cache_stats().items()
    }
    store.close()
    return {
        "experiment": "stored-lca-engine",
        "tree": {"shape": "caterpillar", "depth": depth, "f": f},
        "workload": {"n_pairs": n_pairs, "cache_size": cache_size},
        "sql_statements": {
            "cold_single": cold_statements,
            "warm_single": warm_statements,
            "cold_batch": batch_statements,
            "warm_batch": warm_batch_statements,
            "fresh_handle_resident_skeleton": fresh_statements,
            "warm_traced": traced_statements,
        },
        "per_query_statements": {
            "cold_single": round(cold_statements / n_pairs, 3),
            "cold_batch": round(batch_statements / n_pairs, 3),
            "fresh_handle_resident_skeleton": round(
                fresh_statements / n_pairs, 3
            ),
        },
        "wall_ms": {
            "cold_single": round(cold_ms, 3),
            "warm_single": round(warm_ms, 3),
            "cold_batch": round(batch_ms, 3),
            "warm_batch": round(warm_batch_ms, 3),
            "fresh_handle_resident_skeleton": round(fresh_ms, 3),
        },
        "latency_ms": {
            "cold_single": latency_summary(cold_latencies),
            "warm_single": latency_summary(warm_latencies),
            "fresh_handle_resident_skeleton": latency_summary(
                fresh_latencies
            ),
            "warm_query": latency_summary(base_latencies),
            "warm_traced": latency_summary(traced_latencies),
        },
        "tracing_p50_ratio": tracing_p50_ratio,
        "tracing_overhead_pct": round(100.0 * (tracing_p50_ratio - 1.0), 2),
        "cache_stats_single_handle": stats,
    }


def test_stored_lca_engine(benchmark, report):
    results = run_experiment()
    statements = results["sql_statements"]

    handle_store = CrimsonStore.open()
    handle = handle_store.trees.store_tree(caterpillar(DEPTH), name="deep", f=F)
    pairs = _pairs(DEPTH, N_PAIRS)
    handle.lca_batch(pairs)  # warm

    def warm_batch():
        handle.lca_batch(pairs)

    benchmark(warm_batch)
    handle_store.close()

    report("")
    report("E4+ — stored LCA through the query engine "
           f"(caterpillar depth {DEPTH}, {N_PAIRS} pairs, f={F})")
    report(f"  {'path':<30} {'SQL statements':>16} {'wall ms':>10}")
    for key in (
        "cold_single",
        "warm_single",
        "cold_batch",
        "warm_batch",
        "fresh_handle_resident_skeleton",
    ):
        report(
            f"  {key:<30} {statements[key]:>16} "
            f"{results['wall_ms'][key]:>10.2f}"
        )
    report(
        "  shape: warm repeats run entirely from the row cache (0 "
        "statements); the batch path pays one round of IN (...) "
        "queries per index layer and source-chain hop"
    )
    latency = results["latency_ms"]
    report(
        f"  tracing: warm query p50 {latency['warm_query']['p50_ms']} ms "
        f"untraced vs {latency['warm_traced']['p50_ms']} ms with "
        f"threshold-0 slow log + history sampler; median paired p50 "
        f"ratio over {TRACING_ROUNDS} rounds {results['tracing_p50_ratio']} "
        f"({results['tracing_overhead_pct']:+.1f}%)"
    )

    # Acceptance: warm repeats never touch SQL; batching measurably
    # beats per-pair singles on the cold path.
    assert statements["warm_single"] == 0
    assert statements["warm_batch"] == 0
    assert statements["cold_batch"] < statements["cold_single"]
    # A fresh handle climbs the shared skeleton without SQL: only its
    # arguments, canonical inodes, label lookups and results are cold.
    assert statements["fresh_handle_resident_skeleton"] < statements["cold_single"]
    # Tracing + history sampling ride the warm path for free: still
    # zero SQL, and the median paired p50 ratio stays within 5% of the
    # untraced facade.
    assert statements["warm_traced"] == 0
    assert results["tracing_p50_ratio"] <= 1.05


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    positional = [arg for arg in argv[1:] if not arg.startswith("--")]
    out_path = positional[0] if positional else "BENCH_stored_lca.json"
    results = run_experiment(**SMOKE) if smoke else run_experiment()
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    statements = results["sql_statements"]
    print(f"wrote {out_path}")
    print(
        f"cold single: {statements['cold_single']} statements, "
        f"cold batch: {statements['cold_batch']}, "
        f"warm (either): {statements['warm_single']}, "
        f"fresh handle on a resident skeleton: "
        f"{statements['fresh_handle_resident_skeleton']}"
    )
    print(
        f"warm traced: {statements['warm_traced']} statements, "
        f"{results['tracing_overhead_pct']:+.1f}% p50 vs untraced"
    )
    # The acceptance shape guards CI's smoke run too.
    ok = (
        statements["warm_single"] == 0
        and statements["warm_batch"] == 0
        and statements["warm_traced"] == 0
        and statements["cold_batch"] < statements["cold_single"]
        and statements["fresh_handle_resident_skeleton"]
        < statements["cold_single"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
