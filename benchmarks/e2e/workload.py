"""One workload, run in a process of its own: set up, measure, check.

``run.py`` starts this file once per workload::

    PYTHONPATH=src python benchmarks/e2e/workload.py --workload warm-small \\
        --seed 1 --seconds 20 --trace 0 --work-dir DIR --result OUT.json

Inputs come only from ``--seed``.  Set-up (store open, loads, server
start, the warm-up pass) runs several times and is timed each time
(``setup_s`` is the median); the timed window runs on what the last
set-up built.  Every client is a closed loop:
it sends its next request only when the previous one has answered.
Answers of the whole warm-up pass and of every ``CHECK_EVERY``-th
timed request are checked after the timed window against the
in-memory ``repro.core`` answers, and remote answers also byte for
byte against a ``LocalSession`` on the same file.  The oracle works on
trees of its own, never on the objects the store loads.

With ``--trace 1`` the window alternates untraced and traced chunks;
the traced chunks feed the per-layer ledger (``tracer.py``) and the
two chunk kinds together give the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.benchmark.consensus import majority_rule_consensus
from repro.benchmark.metrics import clusters, compare_splits
from repro.benchmark.sampling import random_sample_stored
from repro.core.dewey import DeweyIndex
from repro.core.lca import LcaService
from repro.core.projection import project_tree
from repro.errors import CrimsonError
from repro.reconstruction.random_tree import random_topology
from repro.reconstruction.rearrange import perturb
from repro.server.client import RemoteSession
from repro.simulation.birth_death import yule_tree
from repro.storage import wire
from repro.storage.api import QueryRequest, StatsRequest
from repro.storage.projection import project_stored
from repro.storage.store import CrimsonStore
from repro.trees.newick import write_newick

import measure
import tracer

HERE = Path(__file__).resolve().parent
TREE = "gold"
F = 8
BATCH_PAIRS = 25
CHECK_EVERY = 50
POOL_SIZE = 4096
#: The timed window runs in slices this long, with the speed probe
#: after each; a traced run alternates untraced and traced chunks.
SLICE_S = 0.05
CHUNK_S = 1.0

#: An assumed interactive mix, not one measured from user traffic.
SMALL_MIX = (("lca", 0.7), ("lca_batch", 0.1), ("clade", 0.1), ("project", 0.1))
#: The sample sizes of the E7 accuracy sweep
#: (``benchmarks/bench_benchmark_manager.py``).
E7_SAMPLE_SIZES = (8, 16, 32)


@dataclass(frozen=True)
class ReadSpec:
    """Session queries of one mix over a stored Yule tree that fits in
    the row caches; set-up touches every row before timing."""

    leaves: int
    mix: tuple[tuple[str, float], ...]
    project_k: int
    warmup_ops: int
    #: Timed set-ups per run (see :class:`SetupTimer`).
    setups: int = 3
    clients: int = 1
    remote: bool = False


@dataclass(frozen=True)
class TrialSpec:
    """Benchmark Manager trials over a stored Yule gold standard with
    a sequence per leaf (see :class:`Trials`)."""

    leaves: int
    sample_sizes: tuple[int, ...]
    #: Sequence length; E7 evolves 400-site sequences.
    sites: int
    warmup_trials: int
    setups: int = 3


@dataclass(frozen=True)
class ProfileSpec:
    """Replicates replaced in ``window`` slots, beside consensus over
    the slots and compare on the newest two (see :class:`Profile`)."""

    leaves: int
    spr_moves: int
    window: int
    #: Distinct replicate topologies, generated before timing and
    #: loaded in turn (more than ``window``, so no two slots match).
    distinct: int
    setups: int = 3


Spec = ReadSpec | TrialSpec | ProfileSpec

WORKLOADS: dict[str, Spec] = {
    "warm-small": ReadSpec(2000, SMALL_MIX, 16, 200, setups=5),
    "sample-large": TrialSpec(5000, E7_SAMPLE_SIZES, 400, 30),
    "remote": ReadSpec(2000, SMALL_MIX, 16, 200, clients=2, remote=True),
    "profile": ProfileSpec(128, 3, 24, 48, setups=9),
}

#: Seconds-long variants for the test suite: same code, tiny inputs.
SMOKE: dict[str, Spec] = {
    "warm-small": ReadSpec(200, SMALL_MIX, 8, 20),
    "sample-large": TrialSpec(300, (8, 16), 40, 5),
    "remote": ReadSpec(200, SMALL_MIX, 8, 20, clients=2, remote=True),
    "profile": ProfileSpec(32, 3, 6, 12),
}


# ----------------------------------------------------------------------
# Inputs and the in-memory oracle
# ----------------------------------------------------------------------

def gold_tree(leaves: int, seed: int):
    """A read workload's gold standard: a Yule tree drawn from ``seed``."""
    return yule_tree(leaves, rng=np.random.default_rng(seed))


def random_sequences(names: list[str], sites: int, seed: int) -> dict[str, str]:
    """Uniform random DNA, one sequence per name.  What the storage
    path does depends on the sequences' length, not their letters."""
    rng = np.random.default_rng([seed, 2])
    letters = np.frombuffer(b"ACGT", dtype=np.uint8)[
        rng.integers(0, 4, size=(len(names), sites))
    ]
    return {
        name: row.tobytes().decode("ascii") for name, row in zip(names, letters)
    }


class TreeOracle:
    """In-memory answers for one tree (``repro.core``, no storage).

    Give it a tree of its own, not the one the store loads: it replaces
    two of the tree's methods by cached tables.
    """

    def __init__(self, tree) -> None:
        self.tree = tree
        self.dewey = DeweyIndex(tree)
        self.lca_service = LcaService(tree, "dewey")
        order = list(tree.preorder())
        self.rank = {id(node): index for index, node in enumerate(order)}
        self.node = {node.name: node for node in order if node.name}
        self.size: dict[int, int] = {}
        self.leaf_count: dict[int, int] = {}
        for node in tree.postorder():
            self.size[id(node)] = 1 + sum(
                self.size[id(child)] for child in node.children
            )
            self.leaf_count[id(node)] = sum(
                self.leaf_count[id(child)] for child in node.children
            ) or 1
        # project_tree recomputes these O(n) tables on every call; the
        # oracle's tree never changes and nothing else uses it, so
        # compute them once.
        depths, distances = tree.depths(), tree.distances_from_root()
        tree.depths = lambda: depths
        tree.distances_from_root = lambda: distances

    def projection(self, taxa):
        return project_tree(self.tree, taxa, self.lca_service)

    def leaf_groups(self, low: int, high: int) -> list[list[str]]:
        """Leaf names under every interior node with low..high leaves."""
        groups = []
        for node in self.tree.preorder():
            if node.children and low <= self.leaf_count[id(node)] <= high:
                groups.append([leaf.name for leaf in node.leaves()])
        return groups

    def _rank_of_lca(self, names) -> int:
        return self.rank[id(self.dewey.lca_many(self.node[n] for n in names))]

    def matches(self, request: QueryRequest, result) -> bool:
        operation = request.operation
        ids = [row.node_id for row in result.nodes]
        if operation == "lca":
            return ids == [self._rank_of_lca(request.taxa)]
        if operation == "lca_batch":
            return ids == [self._rank_of_lca(pair) for pair in request.pairs]
        if operation == "clade":
            anchor = self.dewey.lca_many(self.node[n] for n in request.taxa)
            start = self.rank[id(anchor)]
            return ids == list(range(start, start + self.size[id(anchor)]))
        return result.projection is not None and result.projection.equals(
            self.projection(request.taxa), tolerance=1e-9
        )


def make_requests(
    spec: ReadSpec, oracle: TreeOracle, names: list[str], rng: random.Random
) -> list[QueryRequest]:
    """``POOL_SIZE`` requests of the spec's mix, taxa drawn uniformly
    from the leaf ``names``.

    Clade taxa are 2-4 leaves of one 8-64-leaf subtree: random taxa
    would almost always span the root, and a whole-tree clade would
    swamp every other request's time.
    """
    groups = oracle.leaf_groups(8, 64)
    operations, weights = zip(*spec.mix)
    requests = []
    for operation in rng.choices(operations, weights, k=POOL_SIZE):
        if operation == "lca":
            requests.append(QueryRequest.lca(TREE, *rng.sample(names, 2)))
        elif operation == "lca_batch":
            pairs = [tuple(rng.sample(names, 2)) for _ in range(BATCH_PAIRS)]
            requests.append(QueryRequest.lca_batch(TREE, pairs))
        elif operation == "clade":
            group = rng.choice(groups)
            taxa = rng.sample(group, rng.randint(2, 4))
            requests.append(QueryRequest.clade(TREE, *taxa))
        else:
            taxa = rng.sample(names, spec.project_k)
            requests.append(QueryRequest.project(TREE, *taxa))
    return requests


def full_pass(names: list[str]) -> list[QueryRequest]:
    """Requests that touch every row: a projection over all leaves, and
    the LCA of every pair of pre-order neighbours (every interior node)."""
    pairs = list(zip(names, names[1:]))
    return [QueryRequest.project(TREE, *names)] + [
        QueryRequest.lca_batch(TREE, pairs[i : i + 500])
        for i in range(0, len(pairs), 500)
    ]


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------

class Client:
    """One closed-loop caller cycling through its request pool."""

    def __init__(
        self,
        index: int,
        session,
        requests: list,
        recorder: tracer.Recorder,
    ) -> None:
        self.index = index
        self.session = session
        self.requests = requests
        self.cursor = 0
        self.recorder = recorder
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.ops = 0
        self.failed = 0
        self.errors: list[str] = []
        self.saved: list[tuple[Any, Any]] = []
        self.traced: dict[str, int] = defaultdict(int)

    def warm(self, requests: list) -> list[tuple[Any, Any]]:
        """Run ``requests`` untimed; return them with their answers.

        A failure here is a set-up failure and ends the run.
        """
        return [(request, self.session.query(request)) for request in requests]

    def run_until(self, deadline: float, traced: bool) -> None:
        requests, size = self.requests, len(self.requests)
        clock = time.perf_counter
        while True:
            request = requests[self.cursor % size]
            self.cursor += 1
            operation = request.operation
            if traced:
                self.traced[operation] += 1
                self.recorder.set_trace(f"{operation}:{self.index}:{self.cursor}")
            start = clock()
            try:
                result = self.session.query(request)
            except CrimsonError as error:
                result = error
            end = clock()
            self.ops += 1
            self.latencies[operation].append(end - start)
            if isinstance(result, CrimsonError):
                self.failed += 1
                self.errors.append(f"{operation}: {result}")
            elif self.ops % CHECK_EVERY == 0:
                self.saved.append((request, result))
            if end >= deadline:
                break
        if traced:
            self.recorder.set_trace(None)

    def timings(self) -> list[list[float]]:
        return list(self.latencies.values())


@dataclass
class Window:
    """Throughput of the timed window, split by whether spans were on.

    ``seconds`` is at the probe's reference speed, ``raw_seconds`` as
    the clock read it.
    """

    seconds: dict[bool, float] = dataclasses.field(
        default_factory=lambda: {False: 0.0, True: 0.0}
    )
    raw_seconds: dict[bool, float] = dataclasses.field(
        default_factory=lambda: {False: 0.0, True: 0.0}
    )
    ops: dict[bool, int] = dataclasses.field(
        default_factory=lambda: {False: 0, True: 0}
    )

    def rate(self, traced: bool) -> float:
        return self.ops[traced] / self.seconds[traced] if self.seconds[traced] else 0.0

    def host_scale(self) -> float:
        """The window's time at reference speed over its clock time."""
        return sum(self.seconds.values()) / sum(self.raw_seconds.values())


def drive(clients: list, deadline: float, traced: bool) -> None:
    if len(clients) == 1:
        # The caller's own thread: its per-thread store handle is the
        # one the warm-up filled.
        clients[0].run_until(deadline, traced)
        return
    threads = [
        threading.Thread(target=c.run_until, args=(deadline, traced))
        for c in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run_window(
    clients: list,
    seconds: float,
    trace: bool,
    toggle: Callable[[bool], None],
    probe: measure.SpeedProbe,
) -> Window:
    """Drive the clients for ``seconds`` in one-second chunks of short
    slices, probing host speed after each slice (probe time is not
    window time); with ``trace``, alternate untraced and traced chunks
    so drift hits both alike.

    At the end of a chunk, every latency the clients recorded in it,
    and the chunk's time, are scaled to the probe's reference speed by
    the chunk's own probes (see :class:`measure.SpeedProbe`).
    """
    chunks = max(2 if trace else 1, round(seconds / CHUNK_S))
    plan = [trace and chunk % 2 == 1 for chunk in range(chunks)]
    window = Window()
    for traced in plan:
        toggle(traced)
        budget = seconds / len(plan)
        spent = 0.0
        first_sample = len(probe.samples)
        recorded = {
            id(values): len(values)
            for client in clients for values in client.timings()
        }
        before = sum(client.ops for client in clients)
        while spent < budget:
            start = time.perf_counter()
            drive(clients, start + min(SLICE_S, budget - spent), traced)
            spent += time.perf_counter() - start
            probe.sample()
        factor = probe.factor(first_sample)
        for client in clients:
            for values in client.timings():
                for i in range(recorded.get(id(values), 0), len(values)):
                    values[i] *= factor
        window.raw_seconds[traced] += spent
        window.seconds[traced] += spent * factor
        window.ops[traced] += sum(client.ops for client in clients) - before
    toggle(False)
    return window


# ----------------------------------------------------------------------
# Helpers shared by the workload kinds
# ----------------------------------------------------------------------

class SetupTimer:
    """Times ``count`` set-ups, each with a speed-probe sample on either
    side.

    A workload whose set-up takes a fraction of a second sets up more
    often, so that the median steadies; the count is fixed per workload
    rather than by time, because each set-up leaves the process a
    little larger and ``peak_rss_mb`` must not vary with host speed.

    A set-up cannot stop for probes the way the window does (a load is
    one call), so its speed factor combines two estimates: its own two
    probe samples, taken at the right moment but only two, and the
    window's factor, from hundreds of samples taken later.  Their
    geometric mean gave steadier set-up times over ten seeds on a busy
    host than either alone.
    """

    def __init__(self, probe: measure.SpeedProbe, count: int) -> None:
        self.probe = probe
        self.count = count
        self.raw: list[float] = []
        #: Each set-up's :meth:`measure.SpeedProbe.factor`.
        self.factors: list[float] = []

    def more(self) -> bool:
        return len(self.raw) < self.count

    def traced(self) -> bool:
        """Whether a traced run traces the coming set-up: the second,
        because the first also pays the process's first-time costs (or
        the only one)."""
        return len(self.raw) == min(1, self.count - 1)

    def start(self) -> None:
        # Collect the previous attempt's garbage first, so that every
        # set-up starts from the same heap, as a fresh process would.
        gc.collect()
        self._first = len(self.probe.samples)
        self.probe.sample()
        self._started = time.perf_counter()

    def stop(self) -> None:
        self.raw.append(time.perf_counter() - self._started)
        self.probe.sample()
        self.factors.append(self.probe.factor(self._first))

    def scaled(self, window_factor: float) -> list[float]:
        return [
            raw * math.sqrt(factor * window_factor)
            for raw, factor in zip(self.raw, self.factors)
        ]


def exclude_from_gc() -> None:
    """Move every object alive now (the inputs, the oracle, the request
    pools) out of the collector's reach.  Otherwise each full
    collection the store's own garbage triggers would also walk the
    benchmark's large input structures, and that time would land on
    whichever request happened to trigger it."""
    gc.collect()
    gc.freeze()


def remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        candidate = Path(f"{path}{suffix}")
        if candidate.exists():
            candidate.unlink()


def file_bytes(path: Path) -> int:
    return sum(
        Path(f"{path}{suffix}").stat().st_size
        for suffix in ("", "-wal")
        if Path(f"{path}{suffix}").exists()
    )


def spans_path(work: Path, workload: str) -> Path:
    """Where a traced run leaves its spans (replacing an older file)."""
    path = work / f"spans-{workload}.jsonl"
    if path.exists():
        path.unlink()
    return path


def checkpointed_bytes(store: CrimsonStore, path: Path) -> int:
    store.db.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    return file_bytes(path)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def service_counters(session) -> dict[str, int]:
    snapshot = session.stats(StatsRequest(sections=("caches", "metrics")))
    total = snapshot.caches.get("total", {})
    counters = snapshot.counters
    return {
        "hits": int(total.get("hits", 0)),
        "misses": int(total.get("misses", 0)),
        "evictions": int(total.get("evictions", 0)),
        "bytes": int(
            counters.get("server.bytes_in", 0) + counters.get("server.bytes_out", 0)
        ),
    }


def delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def canonical(result) -> str:
    """A query result's wire bytes with its timing zeroed."""
    return json.dumps(
        wire.encode_result(dataclasses.replace(result, duration_ms=0.0)),
        sort_keys=True,
    )


class ServerProcess:
    """``serve.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, db: Path, *, traced: bool) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "--db", str(db)]
            + (["--trace"] if traced else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("serve.py exited before printing its address")
        address = json.loads(line)
        self.host, self.port = address["host"], address["port"]

    def command(self, text: str) -> dict[str, Any]:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        reply = json.loads(self.process.stdout.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"serve.py refused {text!r}: {reply}")
        return reply

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except (OSError, ValueError):
                pass


# ----------------------------------------------------------------------
# Read workloads: warm-small, sample-large, remote
# ----------------------------------------------------------------------

def run_reads(
    spec: ReadSpec, args, work: Path, recorder: tracer.Recorder,
    probe: measure.SpeedProbe,
):
    tree = gold_tree(spec.leaves, args.seed)
    oracle = TreeOracle(gold_tree(spec.leaves, args.seed))
    leaf_names = [
        node.name for node in tree.preorder() if not node.children
    ]
    pools = [
        make_requests(
            spec, oracle, leaf_names, random.Random(args.seed * 1000 + index)
        )
        for index in range(spec.clients)
    ]
    exclude_from_gc()
    n_nodes = len(oracle.rank)
    setups = SetupTimer(probe, args.setups)
    warmed: list[tuple[Any, Any]] = []
    store = server = None
    sessions: list[Any] = []
    clients: list[Client] = []
    path = work / "store.db"
    db_bytes = 0
    try:
        while setups.more():
            for session in sessions:
                session.close()
            if server is not None:
                server.stop()
            if store is not None:
                store.close()
            remove_store(path)
            trace_load = args.trace and setups.traced()
            setups.start()
            store = CrimsonStore.open(path)
            if trace_load:
                tracer.install_store(recorder)
                recorder.set_trace("setup")
            store.load_tree(tree, name=TREE, f=F)
            if trace_load:
                recorder.set_trace(None)
                recorder.uninstall()
            if spec.remote:
                store.close()  # the last connection checkpoints the WAL
                store = None
                db_bytes = file_bytes(path)
                server = ServerProcess(path, traced=bool(args.trace))
                sessions = [
                    RemoteSession(server.host, server.port)
                    for _ in range(spec.clients)
                ]
            else:
                sessions = [store.session()]
            clients = [
                Client(index, session, pools[index], recorder)
                for index, session in enumerate(sessions)
            ]
            for client in clients:
                warmed += client.warm(
                    full_pass(leaf_names) + client.requests[: spec.warmup_ops]
                )
                client.cursor = spec.warmup_ops
            setups.stop()
        if not spec.remote:
            db_bytes = checkpointed_bytes(store, path)

        def toggle(traced: bool) -> None:
            if traced and not recorder.installed:
                if spec.remote:
                    server.command("trace on")
                    tracer.install_client(recorder)
                else:
                    tracer.install_store(recorder)
            elif not traced and recorder.installed:
                recorder.uninstall()
                if spec.remote:
                    server.command("trace off")

        before = service_counters(sessions[0])
        window = run_window(clients, args.seconds, args.trace, toggle, probe)
        counters = delta(service_counters(sessions[0]), before)

        # Checks run after the window, so they cost it nothing.
        if spec.remote:
            reference = CrimsonStore.open(path).session()
            peak = server.command("rss")["peak_rss_kb"] / 1024.0
        else:
            reference = None
            peak = peak_rss_mb()
        checked = warmed + [pair for client in clients for pair in client.saved]
        mismatches = check_reads(oracle, reference, checked)
        if reference is not None:
            reference.store.close()

        spans = None
        if args.trace:
            spans = spans_path(work, args.workload)
            if spec.remote:
                server.command(f"dump {spans}")
            recorder.dump(str(spans), "client" if spec.remote else "store")
    finally:
        for session in sessions:
            session.close()
        if server is not None:
            server.stop()
        if store is not None:
            store.close()

    latencies: dict[str, list[float]] = defaultdict(list)
    for client in clients:
        for operation, values in client.latencies.items():
            latencies[operation].extend(values)
    requests = [value for values in latencies.values() for value in values]
    return Outcome(
        setups=setups,
        window=window,
        latencies=latencies,
        request_latencies=requests,
        peak_rss_mb=peak,
        db_bytes_per_node=db_bytes / n_nodes,
        attempted=sum(c.ops for c in clients) + len(warmed),
        failed=sum(c.failed for c in clients) + mismatches.count,
        errors=[e for c in clients for e in c.errors] + mismatches.messages,
        traced=dict(sum((Counter(c.traced) for c in clients), Counter())),
        counters=counters,
        spans=spans,
    )


@dataclass
class Mismatches:
    count: int = 0
    messages: list[str] = dataclasses.field(default_factory=list)

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.messages) < 10:
            self.messages.append(message)


def check_reads(oracle: TreeOracle, reference, checked) -> Mismatches:
    """Compare answers with the oracle, and remote ones with a local
    session's answer byte for byte."""
    found = Mismatches()
    for request, result in checked:
        if reference is not None:
            local = reference.query(request)
            if canonical(local) != canonical(result):
                found.add(f"{request.operation}: remote and local bytes differ")
                continue
        if not oracle.matches(request, result):
            found.add(f"{request.operation}: answer differs from repro.core")
    return found


# ----------------------------------------------------------------------
# The sample-large workload
# ----------------------------------------------------------------------

class Trials:
    """sample-large's one closed-loop client: the storage side of
    ``BenchmarkManager.run_trial`` with random sampling, one trial per
    request.

    Like ``run_trial``, a trial opens a fresh handle on the gold
    standard (``store.trees.open``) and draws ``k`` leaves uniformly
    from a scan of the leaf table (``random_sample_stored``): together
    the ``sample`` operation.  It then projects the gold standard over
    the sample in SQL (``project``: ``project_stored``) and fetches the
    sample's sequences (``sequences``: ``store.species.sequences_for``).
    ``k`` cycles through the spec's sample sizes.  Reconstruction and
    scoring, which follow in ``run_trial``, run no storage code and are
    left out.  A fresh handle starts with empty row caches, so every
    trial reads its rows cold.
    """

    def __init__(self, spec: TrialSpec, store: CrimsonStore, seed: int,
                 recorder: tracer.Recorder) -> None:
        self.spec = spec
        self.store = store
        self.rng = np.random.default_rng([seed, 1])
        self.recorder = recorder
        self.trials = 0
        self.ops = 0
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.steps: list[float] = []
        #: ``(k, sample, projection, sequences)`` of checked trials.
        self.saved: list[tuple[int, list[str], Any, dict[str, str]]] = []
        self.failed = 0
        self.errors: list[str] = []
        self.traced: dict[str, int] = defaultdict(int)
        #: Row-cache counters summed over the trials' handles.
        self.counters: Counter[str] = Counter()

    def _call(self, operation: str, traced: bool, action: Callable[[], Any]):
        if traced:
            self.traced[operation] += 1
            self.recorder.set_trace(f"{operation}:0:{self.trials}")
        start = time.perf_counter()
        try:
            result = action()
        finally:
            if traced:
                self.recorder.set_trace(None)
        elapsed = time.perf_counter() - start
        self.latencies[operation].append(elapsed)
        return result, elapsed

    def _sample(self, k: int):
        stored = self.store.trees.open(TREE)
        return stored, random_sample_stored(stored, k, self.rng)

    def trial(self, traced: bool):
        """One trial; its answers, or ``None`` when a call failed."""
        sizes = self.spec.sample_sizes
        k = sizes[self.trials % len(sizes)]
        self.trials += 1
        step = 0.0
        try:
            (stored, sample), elapsed = self._call(
                "sample", traced, lambda: self._sample(k)
            )
            step += elapsed
            projection, elapsed = self._call(
                "project", traced, lambda: project_stored(stored, sample)
            )
            step += elapsed
            sequences, elapsed = self._call(
                "sequences", traced,
                lambda: self.store.species.sequences_for(stored, sample),
            )
            step += elapsed
        except CrimsonError as error:
            self.failed += 1
            self.errors.append(f"trial k={k}: {error}")
            return None
        self.steps.append(step)
        total = stored.cache_stats()["total"]
        self.counters.update(
            hits=total.hits, misses=total.misses, evictions=total.evictions
        )
        return k, sample, projection, sequences

    def warm(self, count: int) -> list[tuple[int, list[str], Any, dict[str, str]]]:
        """Set-up: ``count`` untimed trials, returned for checking.

        A failure here is a set-up failure and ends the run.
        """
        warmed = []
        for _ in range(count):
            answers = self.trial(False)
            if answers is None:
                raise RuntimeError(f"warm-up failed: {self.errors[-1]}")
            warmed.append(answers)
        # Only the timed window's trials feed the metrics.
        self.latencies.clear()
        self.steps.clear()
        self.counters.clear()
        return warmed

    def timings(self) -> list[list[float]]:
        return list(self.latencies.values()) + [self.steps]

    def run_until(self, deadline: float, traced: bool) -> None:
        while True:
            answers = self.trial(traced)
            self.ops += 1
            if answers is not None and self.trials % CHECK_EVERY == 0:
                self.saved.append(answers)
            if time.perf_counter() >= deadline:
                break


def check_trials(
    oracle: TreeOracle, sequences: dict[str, str], checked
) -> Mismatches:
    """Each sample is ``k`` distinct leaves, its projection matches
    ``repro.core`` and its sequences are the ones loaded."""
    found = Mismatches()
    for k, sample, projection, fetched in checked:
        if len(set(sample)) != k or len(sample) != k or not (
            set(sample) <= sequences.keys()
        ):
            found.add(f"sample: not {k} distinct leaves")
            continue
        if not projection.equals(oracle.projection(sample), tolerance=1e-9):
            found.add("project: differs from repro.core")
        if fetched != {name: sequences[name] for name in sample}:
            found.add("sequences: differ from the loaded ones")
    return found


def run_trials(
    spec: TrialSpec, args, work: Path, recorder: tracer.Recorder,
    probe: measure.SpeedProbe,
):
    tree = gold_tree(spec.leaves, args.seed)
    oracle = TreeOracle(gold_tree(spec.leaves, args.seed))
    leaf_names = [node.name for node in tree.preorder() if not node.children]
    sequences = random_sequences(leaf_names, spec.sites, args.seed)
    exclude_from_gc()
    path = work / "store.db"
    setups = SetupTimer(probe, args.setups)
    warmed: list[tuple[int, list[str], Any, dict[str, str]]] = []
    store = None
    try:
        while setups.more():
            if store is not None:
                store.close()
            remove_store(path)
            trace_load = args.trace and setups.traced()
            setups.start()
            store = CrimsonStore.open(path)
            if trace_load:
                tracer.install_store(recorder)
                recorder.set_trace("setup")
            try:
                store.load_tree(tree, name=TREE, f=F, sequences=sequences)
            finally:
                recorder.set_trace(None)
                recorder.uninstall()
            trials = Trials(spec, store, args.seed, recorder)
            warmed += trials.warm(spec.warmup_trials)
            setups.stop()
        db_bytes = checkpointed_bytes(store, path)

        def toggle(traced: bool) -> None:
            if traced and not recorder.installed:
                tracer.install_store(recorder)
            elif not traced:
                recorder.uninstall()

        window = run_window([trials], args.seconds, args.trace, toggle, probe)
        peak = peak_rss_mb()
        mismatches = check_trials(oracle, sequences, warmed + trials.saved)
        spans = None
        if args.trace:
            spans = spans_path(work, args.workload)
            recorder.dump(str(spans), "store")
    finally:
        if store is not None:
            store.close()
    return Outcome(
        setups=setups,
        window=window,
        latencies=trials.latencies,
        request_latencies=trials.steps,
        peak_rss_mb=peak,
        db_bytes_per_node=db_bytes / len(oracle.rank),
        attempted=trials.ops + len(warmed),
        failed=trials.failed + mismatches.count,
        errors=trials.errors + mismatches.messages,
        traced=dict(trials.traced),
        counters=dict(trials.counters),
        spans=spans,
    )


# ----------------------------------------------------------------------
# The profile workload
# ----------------------------------------------------------------------

class Profile:
    """The profile workload's one closed-loop client.

    The store keeps the newest ``window`` replicates in as many named
    slots.  Each step replaces the two oldest (delete, then load under
    the freed name) and runs consensus over all slots and compare on
    the two newest.  Reusing names keeps the catalogue, the file and
    the store's per-thread handle cache the same size however many
    steps a run gets through, so no metric drifts with throughput.  A
    delete changes the catalogue, which makes every cached handle
    revalidate: each consensus reads all its trees cold.
    """

    def __init__(self, spec: ProfileSpec, store: CrimsonStore, replicates,
                 recorder: tracer.Recorder) -> None:
        self.spec = spec
        self.store = store
        self.session = store.session()
        self.replicates = replicates
        self.recorder = recorder
        self.loaded = 0
        self.ops = 0
        self.calls = 0
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.steps: list[float] = []
        self.saved: list[tuple[str, tuple[int, ...], Any]] = []
        self.failed = 0
        self.errors: list[str] = []
        self.mismatches = Mismatches()
        self.traced: dict[str, int] = defaultdict(int)

    def slot(self, k: int) -> str:
        return f"slot{k % self.spec.window}"

    def tree(self, k: int):
        return self.replicates[k % len(self.replicates)]

    def recent(self) -> tuple[int, ...]:
        return tuple(range(self.loaded - self.spec.window, self.loaded))

    def fill(self) -> list[tuple[str, tuple[int, ...], Any]]:
        """Set-up: load the first window of replicates, warm both verbs."""
        for k in range(self.spec.window):
            self.store.load_tree(self.tree(k), name=self.slot(k), f=F)
        self.loaded = self.spec.window
        recent = self.recent()
        names = [self.slot(k) for k in recent]
        return [
            ("consensus", recent, self.session.consensus(names)),
            ("compare", recent[-2:], self.session.compare(*names[-2:])),
        ]

    def _call(self, operation: str, traced: bool, action: Callable[[], Any]):
        self.calls += 1
        if traced:
            self.traced[operation] += 1
            self.recorder.set_trace(f"{operation}:0:{self.calls}")
        start = time.perf_counter()
        try:
            result = action()
        except CrimsonError as error:
            result = error
        elapsed = time.perf_counter() - start
        if traced:
            self.recorder.set_trace(None)
        self.latencies[operation].append(elapsed)
        if isinstance(result, CrimsonError):
            self.failed += 1
            self.errors.append(f"{operation}: {result}")
        return result, elapsed, self.calls % CHECK_EVERY == 0

    def timings(self) -> list[list[float]]:
        return list(self.latencies.values()) + [self.steps]

    def run_until(self, deadline: float, traced: bool) -> None:
        store, session = self.store, self.session
        while True:
            step = 0.0
            for _ in range(2):
                k, name = self.loaded, self.slot(self.loaded)
                _, elapsed, check = self._call(
                    "delete", traced, lambda: store.trees.delete_tree(name)
                )
                step += elapsed
                if check:
                    self._check_deleted(name)
                _, elapsed, check = self._call(
                    "load", traced,
                    lambda: store.load_tree(self.tree(k), name=name, f=F),
                )
                step += elapsed
                if check:
                    self._check_loaded(name, k)
                self.loaded += 1
            recent = self.recent()
            names = [self.slot(k) for k in recent]
            result, elapsed, check = self._call(
                "consensus", traced, lambda: session.consensus(names)
            )
            step += elapsed
            if check:
                self.saved.append(("consensus", recent, result))
            result, elapsed, check = self._call(
                "compare", traced, lambda: session.compare(*names[-2:])
            )
            step += elapsed
            if check:
                self.saved.append(("compare", recent[-2:], result))
            self.steps.append(step)
            self.ops += 1
            if time.perf_counter() >= deadline:
                break

    # A slot is reused two calls later, so loads and deletes are
    # checked on the spot (untimed) rather than after the window.

    def _check_deleted(self, name: str) -> None:
        try:
            self.store.describe(name)
        except CrimsonError:
            return
        self.mismatches.add(f"delete: {name} is still catalogued")

    def _check_loaded(self, name: str, k: int) -> None:
        stored = self.store.open_tree(name).fetch_tree()
        if write_newick(stored) != write_newick(self.tree(k)):
            self.mismatches.add(f"load: {name} does not read back as loaded")

    def check(self, checked) -> Mismatches:
        """Consensus and compare answers against in-memory ones."""
        found = self.mismatches
        for operation, indices, result in checked:
            if isinstance(result, CrimsonError):
                continue  # counted when it happened
            trees = [self.tree(k) for k in indices]
            if operation == "consensus":
                tree, support = majority_rule_consensus(trees)
                if write_newick(result.consensus) != write_newick(tree) or (
                    dict(result.support) != support
                ):
                    found.add("consensus: differs from repro.benchmark.consensus")
            else:
                a, b = trees
                if result.comparison != compare_splits(a, b) or (
                    result.shared_clusters != len(clusters(a) & clusters(b))
                ):
                    found.add("compare: differs from repro.benchmark.metrics")
        return found


def run_profile(
    spec: ProfileSpec, args, work: Path, recorder: tracer.Recorder,
    probe: measure.SpeedProbe,
):
    rng = np.random.default_rng(args.seed)
    names = [f"s{i:03d}" for i in range(spec.leaves)]
    base = random_topology(names, rng)
    replicates = [perturb(base, spec.spr_moves, rng) for _ in range(spec.distinct)]
    exclude_from_gc()
    path = work / "profile.db"
    setups = SetupTimer(probe, args.setups)
    warmed: list[tuple[str, tuple[int, ...], Any]] = []
    store = None
    try:
        while setups.more():
            if store is not None:
                store.close()
            remove_store(path)
            trace_load = args.trace and setups.traced()
            setups.start()
            store = CrimsonStore.open(path)
            profile = Profile(spec, store, replicates, recorder)
            if trace_load:
                tracer.install_store(recorder)
                recorder.set_trace("setup")
            try:
                warmed += profile.fill()
            finally:
                recorder.set_trace(None)
                recorder.uninstall()
            setups.stop()

        def toggle(traced: bool) -> None:
            if traced and not recorder.installed:
                tracer.install_store(recorder)
            elif not traced:
                recorder.uninstall()

        window = run_window([profile], args.seconds, args.trace, toggle, probe)
        peak = peak_rss_mb()
        total_nodes = sum(info.n_nodes for info in store.list_trees())
        db_bytes = checkpointed_bytes(store, path)
        mismatches = profile.check(warmed + profile.saved)
        spans = None
        if args.trace:
            spans = spans_path(work, args.workload)
            recorder.dump(str(spans), "store")
    finally:
        if store is not None:
            store.close()
    return Outcome(
        setups=setups,
        window=window,
        latencies=profile.latencies,
        request_latencies=profile.steps,
        peak_rss_mb=peak,
        db_bytes_per_node=db_bytes / total_nodes,
        attempted=profile.calls + len(warmed),
        failed=profile.failed + mismatches.count,
        errors=profile.errors + mismatches.messages,
        traced=dict(profile.traced),
        # Row-cache counters live on handles, and every delete retires
        # them all: no handle spans the window, so none is reported.
        counters={},
        spans=spans,
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What a workload measured.  Window times are at the probe's
    reference speed."""

    setups: SetupTimer
    window: Window
    latencies: dict[str, list[float]]
    #: Per-request latencies behind p50_ms (sample-large: per trial,
    #: profile: per step).
    request_latencies: list[float]
    peak_rss_mb: float
    db_bytes_per_node: float
    attempted: int
    failed: int
    errors: list[str]
    traced: dict[str, int]
    #: Row-cache hits/misses/evictions and server bytes over the window.
    counters: dict[str, int]
    spans: Path | None


def end_to_end(outcome: Outcome) -> dict[str, float]:
    window = outcome.window
    return {
        "setup_s": measure.percentile(
            outcome.setups.scaled(window.host_scale()), 0.5
        ),
        "ops_per_s": window.rate(False),
        "p50_ms": measure.percentile(outcome.request_latencies, 0.5) * 1e3,
        "peak_rss_mb": outcome.peak_rss_mb,
        "db_bytes_per_node": outcome.db_bytes_per_node,
    }


def per_layer(outcome: Outcome) -> dict[str, float]:
    window = outcome.window
    ledger = tracer.ledger(
        tracer.load_spans(str(outcome.spans)),
        outcome.traced,
        caches=outcome.counters,
        wire_bytes=outcome.counters.get("bytes", 0),
        window_ops=window.ops[False] + window.ops[True],
    )
    # Spans are clock time; scale them as the window was scaled.
    scale = window.host_scale()
    metrics = {
        name: value * scale if measure.PER_LAYER[name] == "ms" else value
        for name, value in ledger.items()
    }
    untraced, traced = window.rate(False), window.rate(True)
    metrics["trace.ops_per_s_untraced"] = untraced
    metrics["trace.ops_per_s_traced"] = traced
    metrics["trace.overhead_pct"] = (
        100.0 * (1.0 - traced / untraced) if untraced else 0.0
    )
    return metrics


def trace_gate(
    metrics: dict[str, float], *, smoke: bool, remote: bool
) -> list[str]:
    """Why a traced run cannot be trusted, if it cannot."""
    errors = []
    overhead = metrics["trace.overhead_pct"]
    # Smoke windows are far too short to measure overhead.
    if not smoke and overhead > measure.MAX_TRACE_OVERHEAD_PCT:
        errors.append(
            f"tracing cost {overhead:.1f}% of throughput "
            f"(limit {measure.MAX_TRACE_OVERHEAD_PCT:g}%)"
        )
    joined = metrics["trace.remote_joined_pct"]
    if remote and joined != 100.0:
        errors.append(f"only {joined:.1f}% of client spans joined a server span")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    # Exit through the finally blocks, which stop the server process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    spec = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    args.setups = 1 if args.smoke else spec.setups
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    recorder = tracer.Recorder()
    probe = measure.SpeedProbe()
    run_kind = {
        ReadSpec: run_reads, TrialSpec: run_trials, ProfileSpec: run_profile,
    }[type(spec)]
    try:
        outcome = run_kind(spec, args, work, recorder, probe)
    finally:
        probe.close()

    units = measure.PER_LAYER if args.trace else {
        name: unit for name, (unit, _) in measure.END_TO_END.items()
    }
    values = per_layer(outcome) if args.trace else end_to_end(outcome)
    window = outcome.window
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors[:10],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
        "operations": {
            operation: measure.latency_summary(seconds)
            for operation, seconds in sorted(outcome.latencies.items())
        },
        "host_scale": window.host_scale(),
        "probe_mean_ms": statistics.fmean(probe.samples) * 1e3,
        "unscaled": {
            "setup_s": measure.percentile(outcome.setups.raw, 0.5),
            "ops_per_s": window.ops[False] / window.raw_seconds[False],
        },
        "setup_runs_s": outcome.setups.raw,
        "setup_factors": outcome.setups.factors,
    }
    if outcome.spans is not None:
        result["spans"] = str(outcome.spans)
        result["gate_errors"] = trace_gate(
            values, smoke=args.smoke, remote=getattr(spec, "remote", False)
        )
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
