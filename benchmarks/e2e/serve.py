"""Serve one store file over TCP for the ``remote`` workload.

Usage::

    PYTHONPATH=src python benchmarks/e2e/serve.py --db STORE.db

Opens the store with two pooled readers and runs
``CrimsonServer(store, port=0)`` the way ``crimson serve`` does (which
itself refuses ``--port 0``), prints the bound address as one JSON
line, and serves until SIGTERM or SIGINT, draining in-flight requests
first.  While serving it reads one command per line on stdin and
answers each with one JSON line on stdout:

``trace on`` / ``trace off``
    Install or remove the server-side span wrappers (``tracer.py``);
    only a server started with ``--trace`` accepts these.
``dump PATH``
    Append the recorded spans to ``PATH`` as JSON lines.
``rss``
    Report this process's peak resident set size (``VmHWM``).

End of input on stdin stops the server too, so it never outlives the
benchmark that started it.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import threading

from repro.server.server import CrimsonServer
from repro.storage.store import CrimsonStore

import tracer

READERS = 2


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _control(
    server: CrimsonServer, recorder: tracer.Recorder, traced: bool
) -> None:
    """Answer commands from stdin until it closes, then stop serving."""
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "trace" and argument in ("on", "off") and traced:
            if argument == "on" and not recorder.installed:
                tracer.install_server(recorder)
            elif argument == "off":
                recorder.uninstall()
            recorder.rooting = argument == "on"
            _reply({"ok": True})
        elif command == "dump":
            recorder.dump(argument, "server")
            recorder.spans.clear()
            _reply({"ok": True})
        elif command == "rss":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _reply({"ok": True, "peak_rss_kb": peak_kb})
        else:
            _reply({"ok": False, "error": f"unknown command {line.strip()!r}"})
    server.stop_accepting()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--db", required=True, help="store file to serve")
    parser.add_argument(
        "--trace", action="store_true",
        help="hook request framing so `trace on` can record spans",
    )
    args = parser.parse_args(argv)
    recorder = tracer.Recorder()
    if args.trace:
        tracer.install_server_roots(recorder)
    with CrimsonStore.open(args.db, readers=READERS) as store:
        server = CrimsonServer(store, port=0)

        def drain(signum: int, frame: object) -> None:
            # stop_accepting waits for the accept loop, which runs on
            # this (the signalled) thread: hand it to a helper.
            threading.Thread(target=server.stop_accepting, daemon=True).start()

        signal.signal(signal.SIGTERM, drain)
        signal.signal(signal.SIGINT, drain)
        host, port = server.address
        _reply({"host": host, "port": port})
        threading.Thread(
            target=_control, args=(server, recorder, args.trace), daemon=True
        ).start()
        try:
            server.serve_forever()
        finally:
            server.shutdown(drain=5.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
