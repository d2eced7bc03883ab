"""The ``crimson`` command-line interface (GUI manager substitute).

The original Crimson pairs a Java GUI with a "python scripting based
command-line interface [that] provides users the ability to create their
own scripts to automate various tasks" (paper §2.3).  This module is that
interface: every demonstrated GUI capability — loading data, projecting
trees, sampling, benchmarking, viewing results, recalling query history —
is a subcommand against a Crimson database file.

Examples
--------
::

    crimson --db crimson.db simulate --model yule --leaves 500 --name gold \\
        --seq-length 400
    crimson --db crimson.db list
    crimson --db crimson.db --readers 4 lca gold Lla Syn
    crimson --db crimson.db sample gold --method time --time 1.0 -k 8
    crimson --db crimson.db project gold --taxa Bha Lla Syn --format ascii
    crimson --db crimson.db benchmark gold -k 16 --trials 3
    crimson --db crimson.db compare gold estimate
    crimson --db crimson.db consensus rep1 rep2 rep3 --support
    crimson --db crimson.db history
    crimson --db crimson.db --readers 4 serve --port 2006
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import numpy as np

from repro.benchmark.manager import (
    ALL_ALGORITHMS,
    BenchmarkManager,
    format_sweep_table,
)
from repro.benchmark.sampling import (
    random_sample_stored,
    sample_with_time_stored,
)
from repro.cli.render import render_ascii, render_phylogram
from repro.cli.walrus import to_walrus_json
from repro.errors import CrimsonError
from repro.simulation.birth_death import (
    birth_death_tree,
    coalescent_tree,
    yule_tree,
)
from repro.simulation.models import hky85, jc69, k80
from repro.simulation.seqgen import evolve_sequences
from repro.server.client import RemoteSession
from repro.storage.api import (
    ANALYTICS_OPERATIONS,
    OPERATIONS,
    STATS_SECTIONS,
    AnalyticsRequest,
    QueryRequest,
    StatsRequest,
)
from repro.storage.store import CrimsonStore
from repro.trees.newick import write_newick
from repro.trees.nexus import NexusDocument, write_nexus


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


def _port_number(text: str, allow_zero: bool = False) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not (1 <= value <= 65535 or (allow_zero and value == 0)):
        hint = " (or 0 for a free one)" if allow_zero else ""
        raise argparse.ArgumentTypeError(
            f"must be a port between 1 and 65535{hint}"
        )
    return value


def _listen_port(text: str) -> int:
    """A port to listen on; 0 lets the OS pick a free one."""
    return _port_number(text, allow_zero=True)


def build_parser() -> argparse.ArgumentParser:
    """Construct the full argument parser (exposed for the test suite)."""
    parser = argparse.ArgumentParser(
        prog="crimson",
        description="Crimson: data management for phylogenetic tree "
        "reconstruction benchmarking (VLDB 2006 reproduction).",
    )
    parser.add_argument(
        "--db",
        default="crimson.db",
        help="path of the Crimson database file (default: crimson.db)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="random seed for sampling"
    )
    parser.add_argument(
        "--cache-size",
        type=_positive_int,
        default=None,
        help="row-cache entries per cache for stored-tree query handles "
        "(default: engine default; see repro.storage.engine)",
    )
    parser.add_argument(
        "--readers",
        type=_nonnegative_int,
        default=0,
        help="size of the read-only connection pool behind query "
        "commands, per shard (default: 0 — reads share the writer "
        "connection; in-memory databases cannot pool); `serve` "
        "answers every connection on one thread, so it reads on one "
        "pooled reader",
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="number of database files tree data spreads over; shard 0 "
        "is the --db file, higher shards live beside it as "
        "<stem>.shardN<suffix> (default: whatever layout the store was "
        "created with; growing is allowed, shrinking is refused)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    load = commands.add_parser("load", help="load a NEXUS or Newick file")
    load.add_argument("path", help="input file")
    load.add_argument("--name", help="repository name (default: file stem)")
    load.add_argument(
        "--format", choices=("nexus", "newick"), default="nexus"
    )
    load.add_argument(
        "--structure-only",
        action="store_true",
        help="skip species data even if the file has a character matrix",
    )
    load.add_argument(
        "-f", "--label-bound", type=int, default=8, help="index label bound"
    )

    append = commands.add_parser(
        "append-species", help="append a NEXUS character matrix to a tree"
    )
    append.add_argument("tree")
    append.add_argument("path")
    append.add_argument("--replace", action="store_true")

    commands.add_parser("list", help="list stored trees")

    info = commands.add_parser("info", help="catalogue entry of one tree")
    info.add_argument("tree")

    delete = commands.add_parser("delete", help="remove a stored tree")
    delete.add_argument("tree")

    view = commands.add_parser("view", help="render a stored tree")
    view.add_argument("tree")
    view.add_argument(
        "--format",
        choices=("ascii", "phylogram", "newick", "nexus", "walrus"),
        default="ascii",
    )
    view.add_argument("--max-nodes", type=int, default=200)

    export = commands.add_parser("export", help="write a stored tree to a file")
    export.add_argument("tree")
    export.add_argument("path")
    export.add_argument(
        "--format", choices=("newick", "nexus", "walrus"), default="newick"
    )

    lca = commands.add_parser("lca", help="least common ancestor of species")
    lca.add_argument("tree")
    lca.add_argument("taxa", nargs="+", help="two or more species names")

    lca_batch = commands.add_parser(
        "lca-batch",
        help="batched LCA over many species pairs (one engine round trip)",
    )
    lca_batch.add_argument("tree")
    lca_batch.add_argument(
        "pairs", nargs="+", help="species pairs in the form NAME1,NAME2"
    )
    lca_batch.add_argument(
        "--stats",
        action="store_true",
        help="also print the query engine's row-cache statistics",
    )

    clade = commands.add_parser(
        "clade", help="minimal spanning clade of a species set"
    )
    clade.add_argument("tree")
    clade.add_argument("taxa", nargs="+")
    clade.add_argument("--leaves-only", action="store_true")

    frontier = commands.add_parser(
        "frontier", help="nodes at an evolutionary-time frontier"
    )
    frontier.add_argument("tree")
    frontier.add_argument("--time", type=float, required=True)

    sample = commands.add_parser("sample", help="sample species names")
    sample.add_argument("tree")
    sample.add_argument("-k", type=int, required=True)
    sample.add_argument("--method", choices=("random", "time"), default="random")
    sample.add_argument("--time", type=float)

    project = commands.add_parser(
        "project", help="project the tree over a species sample"
    )
    project.add_argument("tree")
    group = project.add_mutually_exclusive_group(required=True)
    group.add_argument("--taxa", nargs="+", help="explicit species list")
    group.add_argument("-k", type=int, help="random sample size")
    project.add_argument("--method", choices=("random", "time"), default="random")
    project.add_argument("--time", type=float)
    project.add_argument(
        "--format",
        choices=("ascii", "newick", "nexus", "walrus"),
        default="newick",
    )

    match = commands.add_parser(
        "match", help="match a Newick pattern against a stored tree"
    )
    match.add_argument("tree")
    match.add_argument("pattern", help="pattern tree in Newick notation")
    match.add_argument("--unordered", action="store_true")

    compare = commands.add_parser(
        "compare",
        help="Robinson–Foulds comparison of stored trees (two trees: "
        "pairwise figures; more: the all-pairs distance matrix)",
    )
    compare.add_argument(
        "trees", nargs="+", help="two or more stored tree names"
    )

    consensus = commands.add_parser(
        "consensus",
        help="majority-rule (or strict) consensus across stored trees",
    )
    consensus.add_argument("trees", nargs="+", help="stored tree names")
    consensus.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="keep clusters in strictly more than this fraction of the "
        "trees (default: 0.5, the classical majority rule)",
    )
    consensus.add_argument(
        "--strict",
        action="store_true",
        help="keep only clusters present in every tree",
    )
    consensus.add_argument(
        "--support",
        action="store_true",
        help="also print per-cluster support fractions",
    )
    consensus.add_argument(
        "--format",
        choices=("ascii", "newick", "nexus", "walrus"),
        default="newick",
    )

    benchmark = commands.add_parser(
        "benchmark", help="evaluate reconstruction algorithms"
    )
    benchmark.add_argument("tree")
    benchmark.add_argument("-k", type=int, nargs="+", required=True)
    benchmark.add_argument("--trials", type=int, default=3)
    benchmark.add_argument("--method", choices=("random", "time"), default="random")
    benchmark.add_argument("--time", type=float)
    benchmark.add_argument(
        "--algorithms",
        nargs="+",
        choices=sorted(ALL_ALGORITHMS),
        default=None,
    )

    serve = commands.add_parser(
        "serve",
        help="serve queries over TCP (JSON lines; see repro.server)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="listen address (default: 127.0.0.1; 0.0.0.0 for all)",
    )
    serve.add_argument(
        "--port",
        type=_listen_port,
        default=2006,
        help="listen port (default: 2006; 0 picks a free port, which "
        "the banner prints)",
    )
    serve.add_argument(
        "--max-cost",
        type=float,
        default=None,
        help="refuse any single request whose pre-flight estimate "
        "exceeds this cost (default: no per-request budget)",
    )
    serve.add_argument(
        "--quota",
        type=float,
        default=None,
        help="per-connection sustained budget, in estimated cost units "
        "per second (token bucket; default: no quota)",
    )
    serve.add_argument(
        "--quota-burst",
        type=float,
        default=None,
        help="per-connection burst bucket capacity (default: 2x --quota)",
    )
    serve.add_argument(
        "--max-concurrent",
        type=_positive_int,
        default=None,
        help="cap on concurrently executing requests; excess arrivals "
        "wait briefly, then are refused (default: unbounded).  The "
        "server answers one request at a time on its loop thread, so "
        "the cap never binds for a served store",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds to wait for in-flight requests to finish on "
        "SIGINT/SIGTERM before closing (default: 5)",
    )
    serve.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="append one JSON line per handled request (verb, session "
        "key, phase timings, outcome) to this file",
    )

    estimate = commands.add_parser(
        "estimate",
        help="pre-flight cost estimate of a query or analytics request, "
        "without running it (local store, or a server with --host)",
    )
    estimate.add_argument(
        "operation",
        choices=OPERATIONS + ANALYTICS_OPERATIONS,
        help="the operation to estimate",
    )
    estimate.add_argument(
        "trees",
        nargs="+",
        help="stored tree name(s); query operations take exactly one",
    )
    estimate.add_argument(
        "--taxa", nargs="+", help="species names (lca, clade, project)"
    )
    estimate.add_argument(
        "--pairs",
        nargs="+",
        help="species pairs in the form NAME1,NAME2 (lca_batch)",
    )
    estimate.add_argument(
        "--pattern", help="pattern tree in Newick notation (match)"
    )
    estimate.add_argument("--unordered", action="store_true")
    estimate.add_argument(
        "--threshold", type=float, default=0.5, help="consensus threshold"
    )
    estimate.add_argument(
        "--strict", action="store_true", help="strict consensus"
    )
    estimate.add_argument(
        "--host",
        default=None,
        help="estimate against a running crimson server instead of the "
        "local store",
    )
    estimate.add_argument(
        "--port",
        type=_port_number,
        default=2006,
        help="server port for --host (default: 2006)",
    )
    estimate.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the full estimate as JSON",
    )

    ping = commands.add_parser(
        "ping",
        help="round-trip a session ping (local store, or a server "
        "with --host)",
    )
    ping.add_argument(
        "--host",
        default=None,
        help="ping a running crimson server instead of the local store",
    )
    ping.add_argument(
        "--port",
        type=_port_number,
        default=2006,
        help="server port for --host (default: 2006)",
    )

    stats = commands.add_parser(
        "stats",
        help="live observability snapshot: metrics, latency histograms, "
        "cache residency, pool depth, admission counters, slow queries "
        "(local store, or a server with --host)",
    )
    stats.add_argument(
        "--format",
        choices=("table", "json", "prom"),
        default="table",
        help="output format (prom: Prometheus text exposition)",
    )
    stats.add_argument(
        "--sections",
        nargs="+",
        choices=STATS_SECTIONS,
        default=None,
        help="limit the snapshot to these sections (default: all)",
    )
    stats.add_argument(
        "--host",
        default=None,
        help="snapshot a running crimson server instead of the local "
        "store",
    )
    stats.add_argument(
        "--port",
        type=_port_number,
        default=2006,
        help="server port for --host (default: 2006)",
    )

    health = commands.add_parser(
        "health",
        help="threshold-evaluated service health: ok/degraded/unhealthy "
        "(draining while a server shuts down); exit 0 only on ok "
        "(local store, or a server with --host)",
    )
    health.add_argument(
        "--host",
        default=None,
        help="check a running crimson server instead of the local store",
    )
    health.add_argument(
        "--port",
        type=_port_number,
        default=2006,
        help="server port for --host (default: 2006)",
    )
    health.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the full report as JSON",
    )

    top = commands.add_parser(
        "top",
        help="refreshing terminal dashboard over polled stats: qps/p99 "
        "sparklines per verb, cache hit rates, slow queries with trace "
        "ids (local store, or a server with --host)",
    )
    top.add_argument(
        "--host",
        default=None,
        help="watch a running crimson server instead of the local store",
    )
    top.add_argument(
        "--port",
        type=_port_number,
        default=2006,
        help="server port for --host (default: 2006)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default: 2)",
    )
    top.add_argument(
        "--iterations",
        type=_nonnegative_int,
        default=0,
        help="stop after this many frames (default: 0 — run until "
        "interrupted)",
    )

    lint = commands.add_parser(
        "lint",
        help="run crimson-lint, the package's own invariant checker",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="package directory to lint (default: the installed repro "
        "package)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (github: Actions ::error annotations)",
    )
    lint.add_argument(
        "--sql-census",
        default=None,
        metavar="PATH",
        help="also write the SQL catalogue's statements as JSON",
    )
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule ids and descriptions, then exit",
    )

    history = commands.add_parser("history", help="show recent queries")
    history.add_argument("--limit", type=int, default=20)
    history.add_argument("--tree")

    rerun = commands.add_parser(
        "rerun", help="recall a recorded query by id and run it again"
    )
    rerun.add_argument("query_id", type=int)

    verify = commands.add_parser(
        "verify", help="check the integrity of the stored trees and indexes"
    )
    verify.add_argument("tree", nargs="?", help="verify one tree only")

    bootstrap = commands.add_parser(
        "bootstrap", help="bootstrap clade support for a species sample"
    )
    bootstrap.add_argument("tree")
    bootstrap.add_argument("-k", type=int, required=True, help="sample size")
    bootstrap.add_argument("--replicates", type=int, default=100)
    bootstrap.add_argument(
        "--algorithm", choices=sorted(ALL_ALGORITHMS), default="nj-jc69"
    )

    simulate = commands.add_parser(
        "simulate", help="generate and store a gold-standard tree"
    )
    simulate.add_argument("--name", required=True)
    simulate.add_argument(
        "--model", choices=("yule", "birth-death", "coalescent"), default="yule"
    )
    simulate.add_argument("--leaves", type=int, default=100)
    simulate.add_argument("--birth", type=float, default=1.0)
    simulate.add_argument("--death", type=float, default=0.3)
    simulate.add_argument("--seq-length", type=int, default=0,
                          help="also evolve sequences of this length")
    simulate.add_argument(
        "--subst-model", choices=("jc69", "k80", "hky85"), default="jc69"
    )
    simulate.add_argument("--scale", type=float, default=0.1,
                          help="branch-length multiplier for sequence evolution")
    simulate.add_argument("-f", "--label-bound", type=int, default=8)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes are uniform across subcommands: ``0`` on success, ``1``
    on any :class:`CrimsonError` or I/O failure (message on stderr, no
    traceback), ``2`` on argument errors (argparse), ``130`` on
    interrupt.  ``match`` and ``verify`` additionally exit ``1`` when
    the answer itself is negative.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    # lint and the remote (--host) verbs never touch the database file:
    # handle them before the store opens (and possibly creates) it.
    if args.command == "lint":
        return _run_lint(args)
    if args.command in SESSION_COMMANDS and args.host is not None:
        try:
            with RemoteSession(args.host, args.port) as session:
                return _session_command(
                    args, session, f"{args.host}:{args.port}"
                )
        except (CrimsonError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            print()
            return 130
    try:
        with CrimsonStore.open(
            args.db,
            readers=args.readers,
            shards=args.shards,
            cache_size=getattr(args, "cache_size", None),
            report=print,
        ) as store:
            return _dispatch(args, store, rng)
    except (CrimsonError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _run_lint(args: argparse.Namespace) -> int:
    """Forward the ``lint`` subcommand to :func:`repro.lint.main`."""
    from repro import lint as linter

    forward: list[str] = ["--format", args.format]
    if args.root is not None:
        forward += ["--root", args.root]
    if args.sql_census is not None:
        forward += ["--sql-census", args.sql_census]
    if args.rules is not None:
        forward += ["--rules", args.rules]
    if args.list_rules:
        forward.append("--list-rules")
    return linter.main(forward)


def _dispatch(args: argparse.Namespace, store: CrimsonStore, rng) -> int:
    trees = store.trees
    species = store.species
    history = store.history

    if args.command == "load":
        if args.format == "nexus":
            store.load_nexus_file(
                args.path,
                name=args.name,
                f=args.label_bound,
                structure_only=args.structure_only,
            )
        else:
            store.load_newick_file(args.path, name=args.name, f=args.label_bound)
        return 0

    if args.command == "append-species":
        store.append_species_nexus(
            args.tree, Path(args.path).read_text(), replace=args.replace
        )
        return 0

    if args.command == "list":
        entries = trees.list_trees()
        if not entries:
            print("(no trees stored)")
            return 0
        for info in entries:
            print(
                f"{info.name:<24} {info.n_nodes:>9} nodes "
                f"{info.n_leaves:>9} leaves  depth {info.max_depth:<6} "
                f"f={info.f} layers={info.n_layers}"
            )
        return 0

    if args.command == "info":
        info = trees.info(args.tree)
        stored = store.open_tree(args.tree)
        print(f"name:        {info.name}")
        print(f"created:     {info.created_at}")
        print(f"nodes:       {info.n_nodes}")
        print(f"leaves:      {info.n_leaves}")
        print(f"max depth:   {info.max_depth}")
        print(f"label bound: {info.f}")
        print(f"layers:      {info.n_layers}")
        print(f"blocks:      {info.n_blocks}")
        print(f"shard:       {info.shard}")
        print(f"species rows:{species.count(stored):>8}")
        if info.description:
            print(f"description: {info.description}")
        return 0

    if args.command == "delete":
        trees.delete_tree(args.tree)
        print(f"deleted {args.tree!r}")
        return 0

    if args.command == "view":
        tree = store.open_tree(args.tree).fetch_tree()
        print(_render(tree, args.format, max_nodes=args.max_nodes))
        return 0

    if args.command == "export":
        tree = store.open_tree(args.tree).fetch_tree()
        Path(args.path).write_text(_render(tree, args.format) + "\n")
        print(f"wrote {args.path}")
        return 0

    if args.command == "lca":
        result = store.query(
            QueryRequest.lca(args.tree, *args.taxa), record=True
        )
        row = result.node
        print(f"LCA: node {row.node_id} name={row.name!r} depth={row.depth} "
              f"dist={row.dist_from_root:g}")
        return 0

    if args.command == "lca-batch":
        pairs = _parse_pairs(args.pairs)
        result = store.query(
            QueryRequest.lca_batch(args.tree, pairs), record=True
        )
        for (a, b), row in zip(pairs, result.nodes):
            print(
                f"LCA({a}, {b}): node {row.node_id} name={row.name!r} "
                f"depth={row.depth} dist={row.dist_from_root:g}"
            )
        if args.stats:
            for name, stats in store.open_tree(args.tree).cache_stats().items():
                print(
                    f"cache {name:<10} hits={stats.hits:<6} "
                    f"misses={stats.misses:<6} evictions={stats.evictions:<4} "
                    f"size={stats.size}/{stats.maxsize}"
                )
        return 0

    if args.command == "clade":
        result = store.query(QueryRequest.clade(args.tree, *args.taxa))
        rows = list(result.nodes)
        if args.leaves_only:
            rows = [row for row in rows if row.is_leaf]
        # Recorded by hand so the history reflects the filtered count
        # the user actually saw.
        history.record(
            "clade",
            {"taxa": list(args.taxa)},
            tree_name=args.tree,
            duration_ms=result.duration_ms,
            result_summary=f"{len(rows)} nodes",
        )
        for row in rows:
            kind = "leaf" if row.is_leaf else "node"
            print(f"{kind} {row.node_id:>8} {row.name or ''}")
        return 0

    if args.command == "frontier":
        stored = store.open_tree(args.tree)
        rows = stored.time_frontier(args.time)
        history.record(
            "frontier", {"time": args.time}, tree_name=args.tree,
            result_summary=f"{len(rows)} nodes",
        )
        for row in rows:
            print(f"node {row.node_id:>8} {row.name or '*':<16} "
                  f"dist={row.dist_from_root:g}")
        return 0

    if args.command == "sample":
        stored = store.open_tree(args.tree)
        names = _draw_sample(stored, args, rng)
        history.record(
            "sample",
            {"k": args.k, "method": args.method, "time": args.time},
            tree_name=args.tree,
            result_summary=f"{len(names)} species",
        )
        for name in names:
            print(name)
        return 0

    if args.command == "project":
        if args.taxa:
            names = list(args.taxa)
        else:
            names = _draw_sample(store.open_tree(args.tree), args, rng)
        result = store.query(
            QueryRequest.project(args.tree, *names), record=True
        )
        print(_render(result.projection, args.format))
        return 0

    if args.command == "match":
        result = store.query(
            QueryRequest.match(
                args.tree, args.pattern, ordered=not args.unordered
            ),
            record=True,
        )
        print(f"matched:    {result.matched}")
        print(f"similarity: {result.similarity:.3f}")
        print(f"projection: {write_newick(result.projection)}")
        return int(not result.matched)

    if args.command == "compare":
        if len(args.trees) == 2:
            result = store.analyze(
                AnalyticsRequest.compare(*args.trees), record=True
            )
            comparison = result.comparison
            assert comparison is not None
            print(f"RF distance:     {comparison.rf_distance}")
            print(f"normalized RF:   {comparison.normalized_rf:.4f}")
            print(
                f"splits:          {comparison.n_splits_reference} vs "
                f"{comparison.n_splits_estimate}"
            )
            print(
                f"false +/-:       {comparison.false_positives} / "
                f"{comparison.false_negatives}"
            )
            print(f"shared clusters: {result.shared_clusters}")
            return 0
        result = store.analyze(
            AnalyticsRequest.distance_matrix(*args.trees), record=True
        )
        assert result.matrix is not None
        print(_format_matrix(list(args.trees), result.matrix))
        return 0

    if args.command == "consensus":
        result = store.analyze(
            AnalyticsRequest.consensus(
                *args.trees, threshold=args.threshold, strict=args.strict
            ),
            record=True,
        )
        assert result.consensus is not None
        print(_render(result.consensus, args.format))
        if args.support:
            for cluster, fraction in result.support_table():
                print(f"{fraction * 100:5.1f}%  {{{', '.join(cluster)}}}")
        return 0

    if args.command == "benchmark":
        selected = (
            {name: ALL_ALGORITHMS[name] for name in args.algorithms}
            if args.algorithms
            else None
        )
        manager = BenchmarkManager(store, algorithms=selected)
        rows = manager.run_sweep(
            args.tree,
            sample_sizes=args.k,
            n_trials=args.trials,
            method=args.method,
            time=args.time,
            rng=rng,
        )
        print(format_sweep_table(rows))
        return 0

    if args.command == "serve":
        from repro.admission import AdmissionController, AdmissionLimits
        from repro.server import CrimsonServer
        from repro.storage.wire import PROTOCOL_VERSION

        limits = AdmissionLimits(
            max_cost=args.max_cost,
            quota_rate=args.quota,
            quota_burst=args.quota_burst,
            max_concurrent=args.max_concurrent,
        )
        if not limits.unlimited:
            store.admission = AdmissionController(limits)
        server = CrimsonServer(
            store,
            host=args.host,
            port=args.port,
            access_log=args.access_log,
        )
        host, port = server.address
        pool = store.pool.size if store.pool is not None else 0
        # Handlers go in before the banner, so "banner printed" implies
        # "signals drain gracefully" — supervisors key off the banner.
        previous = _install_drain_handlers(server)
        print(
            f"serving {args.db} on {host}:{port} "
            f"(protocol {PROTOCOL_VERSION}, {pool} pooled readers, "
            f"{store.shards} shard(s)); Ctrl-C to stop",
            flush=True,
        )
        if not limits.unlimited:
            print(f"admission: {_describe_limits(limits)}", flush=True)
        try:
            server.serve_forever()
        finally:
            for signum, handler in previous:
                signal.signal(signum, handler)
            server.shutdown(drain=args.drain_timeout)
        return 0

    if args.command in SESSION_COMMANDS:
        # The remote (--host) form exits in main() before the store
        # opens; reaching here means: the local store's session.
        return _session_command(args, store.session(), str(args.db))

    if args.command == "history":
        entries = history.recent(limit=args.limit, tree_name=args.tree)
        if not entries:
            print("(no recorded queries)")
            return 0
        for entry in entries:
            duration = (
                f"{entry.duration_ms:.1f}ms" if entry.duration_ms is not None else "-"
            )
            print(
                f"#{entry.query_id:<5} {entry.issued_at}  "
                f"{entry.operation:<16} {entry.tree_name or '-':<16} "
                f"{duration:>10}  {json.dumps(entry.params)}"
            )
        return 0

    if args.command == "verify":
        reports = store.verify(args.tree)
        if not reports:
            print("(no trees stored)")
            return 0
        for item in reports:
            print(item)
        return int(any(not item.ok for item in reports))

    if args.command == "bootstrap":
        from repro.benchmark.bootstrap import bootstrap_support, support_versus_truth
        from repro.benchmark.metrics import clusters as _clusters
        from repro.benchmark.sampling import random_sample_stored
        from repro.storage.projection import project_stored

        stored = store.open_tree(args.tree)
        sample = random_sample_stored(stored, args.k, rng)
        truth = project_stored(stored, sample)
        sequences = species.sequences_for(stored, sample)
        result = bootstrap_support(
            sequences,
            ALL_ALGORITHMS[args.algorithm],
            n_replicates=args.replicates,
            rng=rng,
        )
        true_clusters = _clusters(truth)
        print(f"sample: {sorted(sample)}")
        print(f"{args.replicates} {args.algorithm} replicates; "
              "clades by support (* = true in the gold standard):")
        for cluster, support in sorted(
            result.support.items(), key=lambda item: -item[1]
        ):
            marker = "*" if cluster in true_clusters else " "
            print(f"  {marker} {support * 100:5.1f}%  "
                  f"{{{', '.join(sorted(cluster))}}}")
        summary = support_versus_truth(result, truth)
        print(
            f"mean support: true clades "
            f"{summary['mean_support_true'] * 100:.1f}%, false clades "
            f"{summary['mean_support_false'] * 100:.1f}%, recall "
            f"{summary['true_cluster_recall'] * 100:.1f}%"
        )
        history.record(
            "bootstrap",
            {"k": args.k, "replicates": args.replicates,
             "algorithm": args.algorithm},
            tree_name=args.tree,
            result_summary=f"recall={summary['true_cluster_recall']:.2f}",
        )
        return 0

    if args.command == "rerun":
        entry = history.entry(args.query_id)
        print(
            f"re-running #{entry.query_id}: {entry.operation} "
            f"{json.dumps(entry.params)} on {entry.tree_name or '-'}"
        )
        replay = _replay_arguments(entry)
        if replay is None:
            raise CrimsonError(
                f"operation {entry.operation!r} cannot be re-run from history"
            )
        return _dispatch(build_parser().parse_args(replay), store, rng)

    if args.command == "simulate":
        if args.model == "yule":
            tree = yule_tree(args.leaves, args.birth, rng=rng)
        elif args.model == "birth-death":
            tree = birth_death_tree(args.leaves, args.birth, args.death, rng=rng)
        else:
            tree = coalescent_tree(args.leaves, rng=rng)
        sequences = None
        if args.seq_length > 0:
            model = {"jc69": jc69, "k80": k80, "hky85": hky85}[args.subst_model]()
            sequences = evolve_sequences(
                tree, model, args.seq_length, rng=rng, scale=args.scale
            )
        store.load_tree(
            tree, name=args.name, f=args.label_bound, sequences=sequences
        )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _replay_arguments(entry) -> list[str] | None:
    """Reconstruct the argv of a recorded query (None if not replayable)."""
    tree = entry.tree_name
    params = entry.params
    if entry.operation == "lca" and tree:
        return ["lca", tree, *params["taxa"]]
    if entry.operation in ("lca-batch", "lca_batch") and tree:
        return [
            "lca-batch",
            tree,
            *[",".join(pair) for pair in params["pairs"]],
        ]
    if entry.operation == "clade" and tree:
        return ["clade", tree, *params["taxa"]]
    if entry.operation == "frontier" and tree:
        return ["frontier", tree, "--time", str(params["time"])]
    if entry.operation == "sample" and tree:
        argv = ["sample", tree, "-k", str(params["k"]),
                "--method", params.get("method", "random")]
        if params.get("time") is not None:
            argv += ["--time", str(params["time"])]
        return argv
    if entry.operation == "project" and tree:
        return ["project", tree, "--taxa", *params["taxa"]]
    if entry.operation == "match" and tree:
        argv = ["match", tree, params["pattern"]]
        if not params.get("ordered", True):
            argv.append("--unordered")
        return argv
    if entry.operation in ("compare", "distance_matrix") and params.get("trees"):
        return ["compare", *params["trees"]]
    if entry.operation == "consensus" and params.get("trees"):
        argv = ["consensus", *params["trees"]]
        if params.get("strict"):
            argv.append("--strict")
        elif params.get("threshold", 0.5) != 0.5:
            argv += ["--threshold", str(params["threshold"])]
        return argv
    return None


def _parse_pairs(texts: list[str]) -> list[tuple[str, str]]:
    """Parse ``NAME1,NAME2`` command-line pair arguments."""
    pairs: list[tuple[str, str]] = []
    for text in texts:
        parts = [part for part in text.split(",") if part]
        if len(parts) != 2:
            raise CrimsonError(
                f"pair {text!r} must be two comma-separated species names"
            )
        pairs.append((parts[0], parts[1]))
    return pairs


def _estimate_request(
    args: argparse.Namespace,
) -> QueryRequest | AnalyticsRequest:
    """Build the typed request an ``estimate`` invocation describes."""
    if args.operation in ANALYTICS_OPERATIONS:
        if args.operation == "compare":
            if len(args.trees) != 2:
                raise CrimsonError("compare takes exactly two trees")
            return AnalyticsRequest.compare(*args.trees)
        if args.operation == "distance_matrix":
            return AnalyticsRequest.distance_matrix(*args.trees)
        return AnalyticsRequest.consensus(
            *args.trees, threshold=args.threshold, strict=args.strict
        )
    if len(args.trees) != 1:
        raise CrimsonError(
            f"operation {args.operation!r} takes exactly one tree"
        )
    tree = args.trees[0]
    if args.operation == "lca":
        if not args.taxa:
            raise CrimsonError("estimating lca needs --taxa")
        return QueryRequest.lca(tree, *args.taxa)
    if args.operation == "lca_batch":
        if not args.pairs:
            raise CrimsonError("estimating lca_batch needs --pairs")
        return QueryRequest.lca_batch(tree, _parse_pairs(args.pairs))
    if args.operation == "clade":
        if not args.taxa:
            raise CrimsonError("estimating clade needs --taxa")
        return QueryRequest.clade(tree, *args.taxa)
    if args.operation == "project":
        if not args.taxa:
            raise CrimsonError("estimating project needs --taxa")
        return QueryRequest.project(tree, *args.taxa)
    assert args.operation == "match"
    if args.pattern is None:
        raise CrimsonError("estimating match needs --pattern")
    return QueryRequest.match(tree, args.pattern, ordered=not args.unordered)


#: Subcommands that run through a session: with ``--host`` against a
#: server, without it against the local store — the same code for both.
SESSION_COMMANDS = ("ping", "estimate", "stats", "health", "top")


def _session_command(args: argparse.Namespace, session, title: str) -> int:
    if args.command == "ping":
        print(json.dumps(session.ping(), indent=2, sort_keys=True))
        return 0
    if args.command == "estimate":
        estimate = session.estimate(_estimate_request(args))
        if args.as_json:
            print(json.dumps(estimate.as_dict(), indent=2, sort_keys=True))
        else:
            print(estimate.summary())
        return 0
    if args.command == "stats":
        _print_stats(session.stats(_stats_request(args)), args.format)
        return 0
    if args.command == "health":
        return _print_health(session.health(), args.as_json)
    assert args.command == "top"
    from repro.cli.top import run_top

    return run_top(
        session.stats,
        title=title,
        interval=args.interval,
        iterations=args.iterations,
    )


def _stats_request(args: argparse.Namespace) -> StatsRequest:
    """Build the typed request a ``stats`` invocation describes."""
    return StatsRequest(sections=tuple(args.sections or ()))


def _print_stats(snapshot, fmt: str) -> None:
    from repro.obs import render_prometheus, render_table

    if fmt == "json":
        print(json.dumps(snapshot.as_dict(), indent=2, sort_keys=True))
    elif fmt == "prom":
        print(render_prometheus(snapshot.as_dict()), end="")
    else:
        print(render_table(snapshot.as_dict()), end="")


def _print_health(report, as_json: bool) -> int:
    """Print a health report; exit code 0 only when status is ``ok``."""
    from repro.obs import render_health

    if as_json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_health(report.as_dict()), end="")
    return 0 if report.ok else 1


def _describe_limits(limits) -> str:
    """One banner line summarizing the configured admission limits."""
    parts: list[str] = []
    if limits.max_cost is not None:
        parts.append(f"max-cost {limits.max_cost:g}")
    if limits.quota_rate is not None:
        parts.append(
            f"quota {limits.quota_rate:g}/s (burst {limits.burst:g})"
        )
    if limits.max_concurrent is not None:
        parts.append(
            f"max-concurrent {limits.max_concurrent} "
            f"(queue {limits.max_queue}, wait {limits.queue_timeout:g}s)"
        )
    return ", ".join(parts)


def _install_drain_handlers(server) -> list[tuple[int, object]]:
    """Make SIGINT/SIGTERM drain the server instead of tracebacking.

    The handler calls ``stop_accepting``, which never blocks, so
    ``serve_forever`` returns and the caller's ``shutdown`` drains.
    Returns the handlers being replaced so the caller can restore
    them; empty when not on the main thread (Python only allows signal
    handlers there), in which case the default KeyboardInterrupt path
    still applies.
    """
    def _handle(signum: int, frame: object) -> None:
        server.stop_accepting()

    previous: list[tuple[int, object]] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous.append((signum, signal.signal(signum, _handle)))
        except ValueError:
            pass
    return previous


def _draw_sample(stored, args: argparse.Namespace, rng) -> list[str]:
    if args.method == "time":
        if args.time is None:
            raise CrimsonError("time sampling needs --time")
        return sample_with_time_stored(stored, args.time, args.k, rng)
    return random_sample_stored(stored, args.k, rng)


def _format_matrix(names: list[str], matrix) -> str:
    """Render an all-pairs RF distance matrix as an aligned table."""
    width = max(
        [len(name) for name in names]
        + [len(str(cell)) for row in matrix for cell in row]
    )
    lines = [
        " " * width + "  " + "  ".join(f"{name:>{width}}" for name in names)
    ]
    for name, row in zip(names, matrix):
        lines.append(
            f"{name:>{width}}  "
            + "  ".join(f"{cell:>{width}}" for cell in row)
        )
    return "\n".join(lines)


def _render(tree, fmt: str, max_nodes: int = 200) -> str:
    if fmt == "ascii":
        return render_ascii(tree, max_nodes=max_nodes)
    if fmt == "phylogram":
        return render_phylogram(tree)
    if fmt == "newick":
        return write_newick(tree)
    if fmt == "nexus":
        document = NexusDocument(
            taxa=tree.leaf_names(), trees=[(tree.name or "tree1", tree)]
        )
        return write_nexus(document)
    if fmt == "walrus":
        return to_walrus_json(tree)
    raise AssertionError(f"unhandled format {fmt!r}")


if __name__ == "__main__":
    raise SystemExit(main())
