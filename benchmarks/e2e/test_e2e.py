"""Tests of the end-to-end benchmark: helpers, the pairs rule, and a
seconds-long smoke run of all four workloads (untraced and traced)."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import measure
import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(values, 0.5) == 3.0
    assert measure.percentile(values, 0.2) == 1.0
    assert measure.percentile(values, 0.21) == 2.0
    assert measure.percentile(values, 1.0) == 5.0
    assert measure.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


@pytest.mark.parametrize(
    ("count", "fraction"),
    [(20, 0.5), (100, 0.9), (199, 0.9), (200, 0.95), (1000, 0.99),
     (10_000, 0.999), (5, 0.5)],
)
def test_tail_keeps_ten_samples_beyond_it(count, fraction):
    assert measure.tail_fraction(count) == fraction


def test_latency_summary_reports_the_supported_tail():
    summary = measure.latency_summary([i / 1000 for i in range(1, 1001)])
    assert summary["count"] == 1000
    assert summary["p50_ms"] == pytest.approx(500.0)
    assert summary["tail"] == "p99"
    assert summary["tail_ms"] == pytest.approx(990.0)


def test_quartile_spread_is_the_quartile_distance_over_the_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert measure.quartile_spread(values) == pytest.approx((q3 - q1) / median)
    assert measure.quartile_spread([4.0]) == 0.0


def test_quartiles_of_two_values_stay_between_them():
    q1, median, q3 = measure.quartiles([1.0, 5.0])
    assert 1.0 <= q1 <= median <= q3 <= 5.0
    assert measure.quartile_spread([1.0, 5.0]) == pytest.approx(2.0 / 3.0)


def test_speed_factor_uses_only_the_samples_it_is_given():
    reference = measure.SpeedProbe.REFERENCE_S
    probe = measure.SpeedProbe()
    try:
        probe.samples = [2 * reference, 6 * reference, reference, reference]
        assert probe.factor(2) == pytest.approx(1.0)
        assert probe.factor() == pytest.approx(0.4)
    finally:
        probe.close()


# ----------------------------------------------------------------------
# The pairs rule (compare.py) on synthetic run sets
# ----------------------------------------------------------------------

def test_same_numbers_are_ok():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.judge(base, list(base), "lower", 0.1)[0] == "ok"


def test_worse_than_the_bound_regresses():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    change = [v * 1.2 for v in base]
    assert compare.judge(base, change, "lower", 0.1)[0] == "regressed"
    assert compare.judge(base, change, "higher", 0.1)[0] == "ok"


def test_a_gain_needs_ten_pairs_nine_wins_and_a_gap_past_the_spread():
    base = [100.0 + (i % 3) for i in range(10)]
    faster = [v * 0.9 for v in base]
    assert compare.judge(base, faster, "lower", 0.1)[0] == "improved"
    assert compare.judge(base[:9], faster[:9], "lower", 0.1)[0] == "ok"
    two_losses = faster[:8] + [200.0, 200.0]
    assert compare.judge(base, two_losses, "lower", 0.1)[0] == "ok"
    within_spread = [v - 1.0 for v in base]
    assert compare.judge(base, within_spread, "lower", 0.1)[0] == "ok"


def test_spread_wider_than_the_bound_is_unresolved():
    base = [80.0, 120.0, 100.0, 70.0, 130.0]
    change = [v * 1.05 for v in base]
    assert compare.judge(base, change, "lower", 0.1)[0] == "unresolved"
    clearly_better = [10.0] * 5
    assert compare.judge(base, clearly_better, "lower", 0.1)[0] == "ok"


def _runs(scale, seconds=20, lca_scale=1.0):
    return [
        {"workload": workload, "trace": 0, "seconds": seconds,
         "metrics": {
             metric["name"]: {"value": scale * (1 + 0.001 * i)}
             for metric in BENCHMARK["end_to_end"]
         },
         "operations": {
             operation: {"p50_ms": (lca_scale if operation == "lca" else 1.0)
                         * (1 + 0.001 * i)}
             for operation in measure.OPERATION_BOUNDS[workload]
         }}
        for workload in ("warm-small", "profile")
        for i in range(5)
    ]


def test_compare_makes_one_row_per_metric_operation_and_workload():
    rows = compare.compare(_runs(1.0), _runs(1.0), BENCHMARK["end_to_end"])
    expected = sum(
        len(BENCHMARK["end_to_end"]) + len(measure.OPERATION_BOUNDS[workload])
        for workload in ("warm-small", "profile")
    )
    assert len(rows) == expected
    assert {row.verdict for row in rows} == {"ok"}


def test_compare_gates_each_operations_p50():
    rows = compare.compare(
        _runs(1.0), _runs(1.0, lca_scale=1.5), BENCHMARK["end_to_end"]
    )
    verdicts = {(row.workload, row.metric): row.verdict for row in rows}
    assert verdicts[("warm-small", "lca.p50_ms")] == "regressed"
    assert verdicts[("warm-small", "p50_ms")] == "ok"


def test_compare_refuses_runs_of_different_lengths(tmp_path):
    base, change = tmp_path / "base.json", tmp_path / "change.json"
    base.write_text(json.dumps({"runs": _runs(1.0, seconds=20)}))
    change.write_text(json.dumps({"runs": _runs(1.0, seconds=10)}))
    assert compare.main(["--base", str(base), "--change", str(change)]) == 2
    change.write_text(json.dumps({"runs": _runs(1.0, seconds=20)}))
    assert compare.main(["--base", str(base), "--change", str(change)]) == 0


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------

def test_benchmark_json_names_what_the_code_reports():
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
    } == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        measure.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


# ----------------------------------------------------------------------
# Smoke: every workload end to end, in seconds
# ----------------------------------------------------------------------

def _smoke(tmp_path: Path, trace: int) -> list[dict]:
    out = tmp_path / f"runs-{trace}.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3",
         "--trace", str(trace), "--work-dir", str(tmp_path / "work"),
         "--out", str(out)],
        capture_output=True, text=True, timeout=150,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    return json.loads(out.read_text())["runs"]


def test_smoke_untraced_reports_every_end_to_end_metric(tmp_path):
    records = _smoke(tmp_path, 0)
    assert [r["workload"] for r in records] == list(run.WORKLOADS)
    for record in records:
        assert record["failed"] == 0, record["errors"]
        assert set(record["metrics"]) == set(measure.END_TO_END)
        assert all(m["value"] > 0 for m in record["metrics"].values())


def test_smoke_traced_reports_every_layer_and_joins_remote_spans(tmp_path):
    records = {r["workload"]: r for r in _smoke(tmp_path, 1)}
    assert list(records) == list(run.WORKLOADS)
    for record in records.values():
        assert record["failed"] == 0, record["errors"]
        assert set(record["metrics"]) == set(measure.PER_LAYER)
        assert not record["gate_errors"]
        assert Path(record["spans"]).exists()

    def value(workload, name):
        return records[workload]["metrics"][name]["value"]

    assert value("remote", "trace.remote_joined_pct") == 100.0
    assert value("remote", "transport.wait_ms_per_op") > 0
    assert value("remote", "wire.bytes_per_op") > 0
    assert value("warm-small", "database.lca.statements_per_op") == 0
    assert value("warm-small", "engine.cache_hit_rate") == 1.0
    assert value("sample-large", "database.sample.statements_per_op") > 0
    assert value("sample-large", "database.sequences.statements_per_op") > 0
    assert value("sample-large", "engine.misses_per_op") > 0
    assert value("sample-large", "species.attach_ms_per_load") > 0
    assert value("profile", "loader.self_ms_per_load") > 0
    assert value("profile", "analytics.scan_ms_per_op") > 0
