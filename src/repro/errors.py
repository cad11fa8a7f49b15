"""Exception hierarchy for the wave-index reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing programming errors (plain ``ValueError``/``TypeError``
raised for bad arguments at API boundaries) from runtime failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class StorageError(ReproError):
    """Base class for simulated-storage failures."""


class OutOfSpaceError(StorageError):
    """The simulated disk has no extent large enough for an allocation."""


class ExtentError(StorageError):
    """An extent handle was used incorrectly (double free, stale access)."""


class FaultError(StorageError):
    """Base class for injected device faults (see :mod:`repro.storage.faults`)."""


class TransientIOError(FaultError):
    """A single I/O failed but the device is healthy; retrying may succeed."""


class DeviceFailure(FaultError):
    """The device failed permanently; every further I/O raises this."""


class SimulatedCrash(ReproError):
    """The simulated process died at a configured crash point.

    Raised by a :class:`~repro.storage.faults.FaultInjector` to model a
    whole-process crash: everything already written to the simulated disk
    survives; in-memory executor/scheme state does not.  Recovery goes
    through :mod:`repro.core.recovery`.
    """


class IndexError_(ReproError):
    """Base class for constituent-index failures.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError``; exported as ``ConstituentIndexError``.
    """


class DirectoryError(IndexError_):
    """A directory structure (B+Tree / hash) was used inconsistently."""


class WaveIndexError(ReproError):
    """Base class for wave-index level failures."""


class SchemeError(WaveIndexError):
    """A maintenance scheme was configured or driven incorrectly."""


class DegradedWindowError(WaveIndexError):
    """A query touched an offline constituent without opting into degraded mode.

    Callers that can tolerate partial answers pass ``degraded=True`` to the
    wave-index query methods and inspect the result's coverage fields.
    """


class RecoveryError(WaveIndexError):
    """Crash recovery could not roll a journaled transition forward."""


class WorkloadError(ReproError):
    """A workload generator was configured incorrectly."""


class ClusterError(ReproError):
    """A sharded cluster (:mod:`repro.cluster`) was configured or driven
    incorrectly — bad partitioner arguments, mismatched shard layouts, or
    an operation that needs a replica no shard can provide."""


class FrontendError(ReproError):
    """The serving frontend (:mod:`repro.serve`) was configured or driven
    incorrectly — bad protocol frames, malformed requests, or a client
    used after its connection closed."""


class RequestRejected(FrontendError):
    """The admission-control pipeline refused a request.

    ``code`` is the machine-readable reason the wire protocol carries
    back to the client: ``shed-overload`` (bounded queue full under the
    shed policy), ``rate-limit`` (the tenant's token bucket is empty),
    ``deadline-expired`` (the request's deadline passed while it was
    queued or in flight), or ``draining`` (the server is shutting down
    gracefully and no longer admits new work).
    """

    def __init__(self, code: str, message: str | None = None) -> None:
        super().__init__(message or code)
        self.code = code


class TransportError(FrontendError):
    """The connection to a frontend died mid-conversation.

    Raised by :class:`~repro.serve.client.FrontendClient` when the TCP
    stream tears (connection reset, EOF mid-frame, EOF with responses
    still owed) or a lazy reconnect fails.  Unlike a plain
    :class:`FrontendError` this is *retryable by construction*: the
    request may or may not have executed server-side, but re-issuing it
    on another replica is always safe for the read-only probe/scan
    surface.  The resilient client's taxonomy treats it accordingly.
    """


class BackendError(FrontendError):
    """The serving backend failed while executing an admitted request.

    Distinct from :class:`RequestRejected` (the pipeline refused the
    request by policy) and from a bad request (the caller's fault): the
    request was well-formed and admitted, but the cluster behind the
    frontend raised.  Carried over the wire as the ``backend-error``
    code so clients can classify it as retryable on another frontend.
    """


# Public alias: ``IndexError_`` reads poorly at call sites.
ConstituentIndexError = IndexError_
