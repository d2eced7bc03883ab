"""Exception hierarchy for the Crimson reproduction.

Every error raised by :mod:`repro` derives from :class:`CrimsonError`, so
callers can catch the library's failures with a single ``except`` clause
while still being able to distinguish parsing problems from storage or
query problems.
"""

from __future__ import annotations

from typing import Any, ClassVar


class CrimsonError(Exception):
    """Base class for all errors raised by the Crimson library.

    ``wire_fields`` maps the instance attributes that cross the wire
    beside the message to their wire types, in encoding order; the
    codec (:func:`repro.storage.wire.encode_error`) reads it, so a
    kind declares its context once.
    """

    wire_fields: ClassVar[dict[str, Any]] = {}


class TreeStructureError(CrimsonError):
    """An operation would create or encountered an invalid tree structure.

    Examples: re-parenting a node under its own descendant, duplicate leaf
    names where uniqueness is required, or an empty tree where a rooted
    tree is expected.
    """


class ParseError(CrimsonError):
    """A serialized tree or data matrix could not be parsed.

    Raised by the Newick and NEXUS readers.  Carries the position of the
    offending token when it is known.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class StorageError(CrimsonError):
    """A repository operation failed.

    Examples: loading a tree under a name that already exists, querying a
    tree that was never loaded, or using a connection after it was closed.
    """


class ProtocolError(CrimsonError):
    """A wire message could not be understood.

    Examples: a payload missing required fields, a malformed JSON-lines
    frame, or a message stamped with a protocol version this build does
    not speak.  Semantic problems inside a well-formed message (unknown
    taxa, bad operation arguments) raise :class:`QueryError` or
    :class:`StorageError` as usual.
    """


class QueryError(CrimsonError):
    """A structural query was given arguments it cannot satisfy.

    Examples: asking for the LCA of an unknown species, sampling more
    leaves than the tree contains, or projecting over an empty leaf set.
    """


class ReconstructionError(CrimsonError):
    """A tree reconstruction algorithm received unusable input.

    Examples: a non-square distance matrix, fewer than two taxa, or
    sequences of unequal length.
    """


class SimulationError(CrimsonError):
    """A gold-standard simulation was configured with invalid parameters.

    Examples: non-positive birth rates, an unnormalizable substitution
    model, or a requested tree size below two leaves.
    """


class ResourceError(CrimsonError):
    """A request was refused by admission control, not by its semantics.

    Raised when a pre-flight cost estimate exceeds the per-request
    budget, a session's token-bucket quota is exhausted, the server's
    concurrency cap (plus its bounded wait queue) is full, or a server
    is draining for shutdown.  The request itself may be perfectly
    valid — retrying later, narrowing it, or raising the limits are all
    legitimate responses, which is why this is distinct from
    :class:`QueryError`.

    ``estimate`` (a plain dict, see
    :meth:`repro.admission.estimator.CostEstimate.as_dict`), ``limit``
    (the numeric bound that was hit), and ``resource`` (``"cost"``,
    ``"quota"``, ``"concurrency"``, or ``"shutdown"``) carry the
    refusal's context across the wire so clients can budget retries;
    :attr:`wire_fields` declares them.  All three are optional: the
    error stays constructible from its message alone, as the wire
    codec requires.
    """

    wire_fields = {
        "estimate": dict[str, Any],
        "limit": float,
        "resource": str,
    }

    def __init__(
        self,
        message: str,
        *,
        estimate: dict | None = None,
        limit: float | None = None,
        resource: str | None = None,
    ) -> None:
        super().__init__(message)
        self.estimate = dict(estimate) if estimate is not None else None
        self.limit = limit
        self.resource = resource
