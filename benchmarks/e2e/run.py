"""Run the end-to-end benchmark and print every metric by name.

From the repository root::

    python3 benchmarks/e2e/run.py --workload warm-small --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --workloads warm-small remote --out runs.json
    python3 benchmarks/e2e/run.py --seed 1 --trace      # all four, traced

Each workload runs in a fresh process (``workload.py``) against the
package under ``src/``; nothing is installed.  The runner prints each
metric with its unit and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
for an untraced run, per-layer metrics for a traced one (names with a
``<workload>.`` prefix when several workloads ran).  It exits 1 when an
answer was wrong or a traced run failed its own checks, and 2 when the
benchmark cannot run at all.  Spans of a traced run are left in
``<work-dir>/spans-<workload>.jsonl``; ``--out`` appends the full run
records to a JSON file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORKLOADS = ("warm-small", "sample-large", "remote", "profile")
DEFAULT_SECONDS = 20
SMOKE_SECONDS = 0.5
#: One workload process may run this long before it is killed.
TIMEOUT_S = 170


def run_workload(
    workload: str, args: argparse.Namespace, work: Path
) -> dict | None:
    """One workload in a fresh process; its result record, or ``None``."""
    scratch = work / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    result_path = scratch / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Keep SQLite's and Python's temporary files inside the scratch dir.
    env["TMPDIR"] = env["SQLITE_TMPDIR"] = str(scratch)
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(scratch),
        "--result", str(result_path),
    ] + (["--smoke"] if args.smoke else [])
    try:
        # The child's stdout goes to stderr: this stdout carries only
        # the report and the final JSON line.
        child = subprocess.Popen(command, env=env, stdout=sys.stderr)
        try:
            code = child.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # SIGTERM lets the workload stop its server before it exits.
            child.terminate()
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            print(f"error: workload {workload} ran past {TIMEOUT_S}s",
                  file=sys.stderr)
            return None
        if code != 0 or not result_path.exists():
            print(f"error: workload {workload} exited with code {code}",
                  file=sys.stderr)
            return None
        record = json.loads(result_path.read_text())
        if record.get("spans"):
            kept = work / f"spans-{workload}.jsonl"
            shutil.move(record["spans"], kept)
            record["spans"] = str(kept)
        return record
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(record: dict) -> None:
    """Print one run's metrics, then its per-operation latencies."""
    state = "correct" if record["correct"] else "WRONG ANSWERS"
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{record['attempted']} requests, {record['failed']} failed, {state}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    for operation, summary in record["operations"].items():
        print(
            f"  {operation + '.p50_ms':<38} {summary['p50_ms']:>14.6g} ms, "
            f"{summary['tail']} {summary['tail_ms']:.4g} ms, "
            f"n={summary['count']}"
        )
    for message in record.get("errors", []) + record.get("gate_errors", []):
        print(f"  ! {message}")


def summary_line(records: list[dict]) -> dict:
    """The final JSON line: one run's metrics, or all runs' prefixed."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{record['workload']}.{name}": metric
            for record in records
            for name, metric in record["metrics"].items()
        }
    return {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


def append_runs(path: Path, records: list[dict]) -> None:
    existing = json.loads(path.read_text()) if path.exists() else {"runs": []}
    existing["runs"].extend(records)
    path.write_text(json.dumps(existing, indent=1) + "\n")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the Crimson end-to-end benchmark."
    )
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        action="extend", choices=WORKLOADS, metavar="NAME",
        help=f"workloads to run (default: all of {', '.join(WORKLOADS)})",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"timed window per workload (default {DEFAULT_SECONDS}, the "
        f"run_seconds of BENCHMARK.json; {SMOKE_SECONDS} with --smoke); "
        "compare.py refuses to pair runs of different lengths",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and one set-up: a seconds-long check of the suite",
    )
    parser.add_argument("--out", type=Path, help="append run records here")
    parser.add_argument(
        "--work-dir", type=Path, default=HERE / ".work",
        help="scratch space for stores and spans (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no package to measure under {SRC}", file=sys.stderr)
        return 2
    work = args.work_dir.resolve()
    records = []
    for workload in args.workloads or WORKLOADS:
        record = run_workload(workload, args, work)
        if record is None:
            return 1
        report(record)
        records.append(record)
    if args.out is not None:
        append_runs(args.out, records)
    print(json.dumps(summary_line(records)))
    trusted = all(not record.get("gate_errors") for record in records)
    return 0 if trusted and all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
