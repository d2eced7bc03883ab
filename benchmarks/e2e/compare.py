"""Compare two sets of benchmark runs metric by metric.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py --base parent.json --change change.json
    python3 benchmarks/e2e/compare.py \\
        --base benchmarks/e2e/baseline-seed1.json#A \\
        --change benchmarks/e2e/baseline-seed1.json#B

Each file is what ``run.py --out`` writes (``{"runs": [...]}``); a
``#KEY`` suffix picks the run set stored under that key.  Only untraced
runs count, and all of them must have the same timed window
(``seconds``).  Runs of one workload pair up in the order they were
made, so run the two commits alternately.  One row is printed per
(metric, workload): every end-to-end metric of ``BENCHMARK.json`` with
its bound from there, and each operation's p50 (``<operation>.p50_ms``)
with its bound from ``measure.OPERATION_BOUNDS``.  Each row gets one
verdict:

``improved``
    At least ten pairs, the change wins at least nine tenths of them
    (ties count for neither side), and the medians differ by more than
    the distance between the base runs' quartiles.
``ok``
    The change's median is no worse than the base median by more than
    the row's bound.
``regressed``
    It is worse by more than the bound.
``unresolved``
    The base runs spread wider than the bound, so neither can be told,
    unless every change run beats every base run (then ``ok``).

Exits 1 when any row is ``regressed`` or ``unresolved``, and 2 when
the runs cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import measure

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    base_median: float
    base_spread: float
    change_median: float
    change_spread: float
    gain: float
    bound: float
    pairs: int
    wins: int
    verdict: str


def load_runs(spec: str) -> list[dict]:
    """Untraced run records from ``PATH`` or ``PATH#KEY``."""
    path, _, key = spec.partition("#")
    data = json.loads(Path(path).read_text())
    if key:
        data = data[key]
    return [run for run in data["runs"] if not run.get("trace")]


def judge(
    base: list[float], change: list[float], better: str, bound: float
) -> tuple[str, float, int, int]:
    """``(verdict, gain, pairs, wins)``; ``gain`` is the change median's
    improvement over the base median as a share of the base median."""
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    gain = sign * (change_median - base_median) / abs(base_median)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if measure.quartile_spread(base) > bound:
        all_better = all(sign * (c - b) > 0 for b in base for c in change)
        return ("ok" if all_better else "unresolved"), gain, len(pairs), wins
    if gain < -bound:
        return "regressed", gain, len(pairs), wins
    q1, _, q3 = measure.quartiles(base)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (change_median - base_median) > q3 - q1
    ):
        return "improved", gain, len(pairs), wins
    return "ok", gain, len(pairs), wins


def gauges(workload: str, end_to_end: list[dict]):
    """``(name, better, bound, value of a run)`` for every gated number
    of one workload: the end-to-end metrics, then the operations' p50s."""
    for metric in end_to_end:
        name = metric["name"]
        yield name, metric["better"], metric["bound"], (
            lambda run, name=name: run["metrics"].get(name, {}).get("value")
        )
    for operation, bound in measure.OPERATION_BOUNDS.get(workload, {}).items():
        yield f"{operation}.p50_ms", "lower", bound, (
            lambda run, operation=operation:
                run.get("operations", {}).get(operation, {}).get("p50_ms")
        )


def compare(
    base_runs: list[dict], change_runs: list[dict], end_to_end: list[dict]
) -> list[Row]:
    rows = []
    workloads = sorted({run["workload"] for run in base_runs})
    for workload in workloads:
        for name, better, bound, value_of in gauges(workload, end_to_end):

            def values(runs: list[dict]) -> list[float]:
                found = (
                    value_of(run) for run in runs if run["workload"] == workload
                )
                return [value for value in found if value is not None]

            base, change = values(base_runs), values(change_runs)
            if len(base) < 2 or not change:
                continue
            verdict, gain, pairs, wins = judge(base, change, better, bound)
            rows.append(Row(
                workload, name,
                statistics.median(base), measure.quartile_spread(base),
                statistics.median(change), measure.quartile_spread(change),
                gain, bound, pairs, wins, verdict,
            ))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of end-to-end benchmark runs."
    )
    parser.add_argument("--base", nargs="+", required=True, metavar="RUNS")
    parser.add_argument("--change", nargs="+", required=True, metavar="RUNS")
    parser.add_argument(
        "--benchmark", type=Path, default=BENCHMARK,
        help="where the metric bounds come from (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    end_to_end = json.loads(args.benchmark.read_text())["end_to_end"]
    base = [run for spec in args.base for run in load_runs(spec)]
    change = [run for spec in args.change for run in load_runs(spec)]
    windows = {run["seconds"] for run in base + change}
    if len(windows) > 1:
        print(f"error: runs of different lengths ({sorted(windows)} s) "
              "cannot be paired", file=sys.stderr)
        return 2
    rows = compare(base, change, end_to_end)
    if not rows:
        print("error: no workload has two base runs and a change run",
              file=sys.stderr)
        return 2
    print(
        f"{'workload':<13} {'metric':<19} {'base med':>11} {'spread':>7} "
        f"{'change med':>11} {'spread':>7} {'gain':>7} {'bound':>6} "
        f"{'wins':>7}  verdict"
    )
    for row in rows:
        print(
            f"{row.workload:<13} {row.metric:<19} {row.base_median:>11.5g} "
            f"{row.base_spread:>7.1%} {row.change_median:>11.5g} "
            f"{row.change_spread:>7.1%} {row.gain:>+7.1%} {row.bound:>6.0%} "
            f"{row.wins:>3}/{row.pairs:<3}  {row.verdict}"
        )
    failing = [row for row in rows if row.verdict in ("regressed", "unresolved")]
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
