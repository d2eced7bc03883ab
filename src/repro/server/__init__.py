"""The Crimson RPC subsystem: one query protocol, served over TCP.

The paper's Crimson is a shared repository many evaluation clients
query at once.  In-process, that is :class:`~repro.storage.store.
CrimsonStore` (reader pool, shards); this package extends the same
surface across process boundaries:

* :mod:`repro.server.protocol` — JSON-lines framing of the envelopes
  around the :mod:`repro.storage.wire` codec,
* :mod:`repro.server.server` — :class:`CrimsonServer`, one
  :mod:`selectors` loop thread owning the listener and every client
  connection, answering their frames in turn on the store (the CLI's
  ``crimson serve``),
* :mod:`repro.server.client` — :class:`RemoteSession`, the client
  implementing :class:`~repro.storage.api.CrimsonSession`, so callers
  (and the differential test suites) cannot tell a live server from a
  local store.
"""

from repro.server.client import RemoteSession
from repro.server.server import DEFAULT_PORT, CrimsonServer

__all__ = ["CrimsonServer", "DEFAULT_PORT", "RemoteSession"]
