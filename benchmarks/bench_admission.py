"""Admission-control benchmark: hostile traffic vs well-behaved clients.

The admission claim: with ``crimson serve`` limits configured, an
abusive client hammering expensive requests is **throttled with typed
ResourceErrors** — per-request budget refusals for oversized work,
token-bucket refusals for floods — while well-behaved clients on the
same server keep their latency (p95 within 2x the unloaded baseline)
and nobody's connection is torn down.  Refusal is an answer, not a
hangup.

Two phases over one store:

1. **Unloaded baseline** — polite client processes alone run a paced
   warm LCA/clade workload against a limited server; their per-request
   p95 is the reference.
2. **Hostile** — the same polite workload plus one abuser process
   flooding, unpaced, with (a) a ``match`` on a bulk tree whose
   estimate exceeds the per-request budget (cost refusals — it is
   priced as a cold projection of its leaves, and a refused request
   never runs, so nothing warms the bulk tree and the refusal is
   deterministic) and (b) mid-size ``clade`` requests whose worst-case
   estimate drains the abuser's own token bucket (quota refusals).

Figures are emitted as JSON (committed as ``BENCH_admission.json``)::

    PYTHONPATH=src python benchmarks/bench_admission.py [out.json] [--smoke]

``--smoke`` shrinks the workload to a seconds-long CI guard.  Run as a
pytest bench it asserts the acceptance properties: the abuser is
refused on both the cost and quota axes, every refusal is a typed
:class:`ResourceError`, polite clients see zero errors, and their
hostile-phase p95 stays within 2x the unloaded baseline.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile
import time
from pathlib import Path

from repro.admission import AdmissionController, AdmissionLimits
from repro.errors import ResourceError
from repro.server import CrimsonServer, RemoteSession
from repro.storage.api import QueryRequest
from repro.storage.store import CrimsonStore
from repro.trees.build import caterpillar

from _latency import merge_latencies, percentile

GOLD_DEPTH = 200    # the polite clients' tree
MID_DEPTH = 500     # abuser flood fodder: admitted, but drains its quota
BULK_DEPTH = 6000   # abuser's oversized target: estimate > max_cost
POLITE_CLIENTS = 3
ROUNDS = 40         # paced polite requests per client per phase
FLOOD = 300         # unpaced abuser requests in the hostile phase
PACE_S = 0.05       # polite inter-request gap
# Label bound of all three trees.  With f = 256 the polite tree is one
# index block and the mid tree two, so a cold polite LCA is priced at
# ~6 and a cold flood-fodder clade at ~21.  (With f = 8 the depth-200
# caterpillar splits into 29 blocks, and a cold LCA from its root to
# its deepest leaf really runs ~60 statements: no budget could admit it
# and still refuse the bulk ``match``.)
F = 256

# A ``match`` is priced as a ``project`` over its pattern's leaves.  On
# the 6,000-deep bulk caterpillar a cold projection of two leaves costs
# ~53 (53 statements: its skeleton climb is priced through all 25 index
# blocks), and no admitted request touches the bulk tree, so it stays
# cold: a budget of 25 refuses every bulk ``match`` while admitting
# every polite request.
# The flood fodder is a ``clade`` on the mid tree: its estimate keeps a
# whole-tree worst-case floor (~19 warm, never discounted below the
# n-row bound) but the actual spanning clade of two adjacent leaves
# executes in milliseconds — so an unpaced flood spends estimate units
# far faster than the bucket refills and hits the quota.
MAX_COST = 25.0
QUOTA_RATE = 400.0   # tokens/s: >> polite spend (~13/0.05s worst case)
QUOTA_BURST = 40.0   # ~2 fodder requests up front, then the flood throttles
MAX_CONCURRENT = 4   # one slot per connection in this bench

SMOKE = {"rounds": 12, "flood": 80}

GOLD, MID, BULK = "gold", "mid", "bulk"


def polite_requests(depth: int) -> list[QueryRequest]:
    """The paced per-round mix of a well-behaved client."""
    return [
        QueryRequest.lca(GOLD, "t1", f"t{depth}"),
        QueryRequest.lca(GOLD, "t3", f"t{depth // 2}"),
        QueryRequest.clade(GOLD, "t1", "t2", "t3"),
    ]


def _polite_process(address, depth, rounds, index, barrier, queue) -> None:
    """One well-behaved client: paced requests, per-request latencies."""
    outcome = {
        "client": index,
        "queries": 0,
        "latencies_s": [],
        "latencies_by_op": {},
        "errors": [],
    }
    host, port = address
    try:
        with RemoteSession(host, port) as session:
            requests = polite_requests(depth)
            for request in requests:  # warm caches and quota bookkeeping
                session.query(request)
            barrier.wait(timeout=120)
            for _ in range(rounds):
                for request in requests:
                    start = time.perf_counter()
                    session.query(request)
                    elapsed = time.perf_counter() - start
                    outcome["latencies_s"].append(elapsed)
                    outcome["latencies_by_op"].setdefault(
                        request.operation, []
                    ).append(elapsed)
                    outcome["queries"] += 1
                    time.sleep(PACE_S)
    except Exception as error:  # noqa: BLE001 - recorded for the report
        outcome["errors"].append(repr(error))
        try:
            barrier.abort()
        except Exception:  # noqa: BLE001 - barrier may be gone already
            pass
    queue.put(outcome)


def _abuser_process(address, flood, barrier, queue) -> None:
    """The hostile client: unpaced floods of expensive requests."""
    outcome = {
        "attempted": 0,
        "admitted": 0,
        "refused": {},
        "untyped_errors": [],
    }
    oversized = QueryRequest.match(BULK, "(t1,t2);")
    flood_fodder = QueryRequest.clade(MID, "t1", "t2")
    host, port = address
    try:
        with RemoteSession(host, port) as session:
            barrier.wait(timeout=120)
            for attempt in range(flood):
                request = oversized if attempt % 3 == 0 else flood_fodder
                outcome["attempted"] += 1
                try:
                    session.query(request)
                    outcome["admitted"] += 1
                except ResourceError as refusal:
                    resource = refusal.resource or "unknown"
                    outcome["refused"][resource] = (
                        outcome["refused"].get(resource, 0) + 1
                    )
                    # Typed refusals carry the estimate that was judged.
                    if refusal.estimate is None and resource == "cost":
                        outcome["untyped_errors"].append(
                            "cost refusal without an estimate"
                        )
    except Exception as error:  # noqa: BLE001 - a teardown is a failure
        outcome["untyped_errors"].append(repr(error))
        try:
            barrier.abort()
        except Exception:  # noqa: BLE001 - barrier may be gone already
            pass
    queue.put(outcome)


def _run_phase(store, rounds: int, flood: int) -> dict:
    """One phase: a freshly limited server, polite clients, maybe abuse."""
    limits = AdmissionLimits(
        max_cost=MAX_COST,
        quota_rate=QUOTA_RATE,
        quota_burst=QUOTA_BURST,
        max_concurrent=MAX_CONCURRENT,
    )
    store.admission = AdmissionController(limits)
    with CrimsonServer(store, port=0) as server:
        address = server.address
        ctx = multiprocessing.get_context("spawn")
        participants = POLITE_CLIENTS + (1 if flood else 0)
        barrier = ctx.Barrier(participants + 1)
        polite_queue = ctx.Queue()
        abuse_queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_polite_process,
                args=(
                    address, GOLD_DEPTH, rounds, index, barrier, polite_queue
                ),
            )
            for index in range(POLITE_CLIENTS)
        ]
        if flood:
            workers.append(
                ctx.Process(
                    target=_abuser_process,
                    args=(address, flood, barrier, abuse_queue),
                )
            )
        for worker in workers:
            worker.start()
        try:
            barrier.wait(timeout=120)
            broken = False
        except Exception:  # noqa: BLE001 - a worker aborted it
            broken = True
        outcomes = [polite_queue.get(timeout=300) for _ in range(POLITE_CLIENTS)]
        abuse = abuse_queue.get(timeout=300) if flood else None
        for worker in workers:
            worker.join(timeout=30)
        snapshot = store.admission.snapshot()

    outcomes.sort(key=lambda o: o["client"])
    latencies = [s for o in outcomes for s in o["latencies_s"]]
    errors = [e for o in outcomes for e in o["errors"]]
    if broken:
        errors.append("start barrier broken")
    phase = {
        "polite": {
            "clients": POLITE_CLIENTS,
            "queries": sum(o["queries"] for o in outcomes),
            "p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
            "p95_ms": round(percentile(latencies, 0.95) * 1e3, 3),
            "p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
            "latency_ms_by_operation": merge_latencies(
                [o["latencies_by_op"] for o in outcomes]
            ),
            "errors": errors,
        },
        "admission": snapshot,
    }
    if abuse is not None:
        phase["abuser"] = abuse
    return phase


def run_experiment(rounds: int = ROUNDS, flood: int = FLOOD) -> dict:
    with tempfile.TemporaryDirectory() as tmpdir:
        path = str(Path(tmpdir) / "bench.db")
        with CrimsonStore.open(path, readers=MAX_CONCURRENT) as store:
            store.load_tree(caterpillar(GOLD_DEPTH), name=GOLD, f=F)
            store.load_tree(caterpillar(MID_DEPTH), name=MID, f=F)
            store.load_tree(caterpillar(BULK_DEPTH), name=BULK, f=F)

            # The limits in one place, with the estimates they act on.
            oversized_cost = store.estimate(
                QueryRequest.match(BULK, "(t1,t2);")
            ).cost
            fodder_cost = store.estimate(
                QueryRequest.clade(MID, "t1", "t2")
            ).cost

            baseline = _run_phase(store, rounds, flood=0)
            hostile = _run_phase(store, rounds, flood=flood)

        baseline_p95 = baseline["polite"]["p95_ms"]
        # Sub-millisecond baselines are scheduler noise; the latency
        # bound is judged against at least a 1 ms floor.
        p95_limit_ms = 2.0 * max(baseline_p95, 1.0)
        abuse = hostile["abuser"]
        return {
            "experiment": "admission-control",
            "trees": {
                GOLD: {"depth": GOLD_DEPTH},
                MID: {"depth": MID_DEPTH},
                BULK: {"depth": BULK_DEPTH},
            },
            "limits": {
                "max_cost": MAX_COST,
                "quota_rate": QUOTA_RATE,
                "quota_burst": QUOTA_BURST,
                "max_concurrent": MAX_CONCURRENT,
                "oversized_estimate": round(oversized_cost, 2),
                "flood_fodder_estimate": round(fodder_cost, 2),
            },
            "workload": {
                "polite_clients": POLITE_CLIENTS,
                "rounds": rounds,
                "pace_s": PACE_S,
                "flood": flood,
            },
            "baseline": baseline,
            "hostile": hostile,
            "acceptance": {
                "p95_limit_ms": round(p95_limit_ms, 3),
                "p95_within_limit": hostile["polite"]["p95_ms"]
                <= p95_limit_ms,
                "abuser_cost_refusals": abuse["refused"].get("cost", 0),
                "abuser_quota_refusals": abuse["refused"].get("quota", 0),
                "abuser_untyped_errors": abuse["untyped_errors"],
                "polite_errors": baseline["polite"]["errors"]
                + hostile["polite"]["errors"],
            },
        }


def test_admission_control(benchmark, report):
    results = run_experiment(**SMOKE)
    acceptance = results["acceptance"]
    baseline = results["baseline"]["polite"]
    hostile = results["hostile"]["polite"]
    abuse = results["hostile"]["abuser"]

    def kernel():
        run_experiment(rounds=4, flood=20)

    benchmark.pedantic(kernel, rounds=1, iterations=1)

    report("")
    report(
        "E8 — admission control "
        f"({results['workload']['polite_clients']} polite clients, "
        f"{SMOKE['flood']}-request abuser, budget "
        f"{results['limits']['max_cost']}, quota "
        f"{results['limits']['quota_rate']}/s)"
    )
    report(f"  {'phase':<12} {'queries':>8} {'p50 ms':>8} {'p95 ms':>8}")
    report(
        f"  {'unloaded':<12} {baseline['queries']:>8} "
        f"{baseline['p50_ms']:>8.2f} {baseline['p95_ms']:>8.2f}"
    )
    report(
        f"  {'hostile':<12} {hostile['queries']:>8} "
        f"{hostile['p50_ms']:>8.2f} {hostile['p95_ms']:>8.2f}"
    )
    report(
        f"  abuser: {abuse['attempted']} attempts, "
        f"{abuse['admitted']} admitted, refused {abuse['refused']}"
    )
    report(
        "  shape: refusals are typed ResourceErrors on a surviving "
        "connection; polite latency holds under flood"
    )

    # Acceptance: the abuser is throttled on both axes with typed
    # errors, nobody's connection is torn down, and polite p95 holds.
    assert acceptance["abuser_cost_refusals"] > 0
    assert acceptance["abuser_quota_refusals"] > 0
    assert acceptance["abuser_untyped_errors"] == []
    assert acceptance["polite_errors"] == []
    for side in (baseline, hostile):
        by_op = side["latency_ms_by_operation"]
        assert set(by_op) == {"lca", "clade"}
        for figures in by_op.values():
            assert figures["count"] > 0
            assert figures["p50_ms"] <= figures["p95_ms"] <= figures["p99_ms"]
    assert acceptance["p95_within_limit"], (
        f"hostile p95 {hostile['p95_ms']}ms exceeds "
        f"{acceptance['p95_limit_ms']}ms"
    )


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    positional = [arg for arg in argv[1:] if not arg.startswith("--")]
    out_path = positional[0] if positional else "BENCH_admission.json"
    results = run_experiment(**SMOKE) if smoke else run_experiment()
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    acceptance = results["acceptance"]
    abuse = results["hostile"]["abuser"]
    print(f"wrote {out_path}")
    print(
        f"baseline p95 {results['baseline']['polite']['p95_ms']}ms, "
        f"hostile p95 {results['hostile']['polite']['p95_ms']}ms "
        f"(limit {acceptance['p95_limit_ms']}ms); abuser "
        f"{abuse['attempted']} attempts, {abuse['admitted']} admitted, "
        f"refused {abuse['refused']}"
    )
    ok = (
        acceptance["abuser_cost_refusals"] > 0
        and acceptance["abuser_quota_refusals"] > 0
        and not acceptance["abuser_untyped_errors"]
        and not acceptance["polite_errors"]
        and acceptance["p95_within_limit"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
