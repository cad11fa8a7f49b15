"""Deterministic fault injection for the simulated disk.

The paper's availability argument (WATA*/RATA* keep the window queryable
while maintenance runs) only matters if maintenance can *fail* — a real
deployment sees transient I/O errors, dying devices, space pressure, and
process crashes mid-transition.  This module adds all four to the substrate
without touching the cost model:

* :class:`FaultInjector` — a seed-driven policy consulted before every I/O.
  Deterministic:
  the same seed and schedule produce the same fault sequence, which is what
  makes the crash-matrix harness (:mod:`repro.sim.crashmatrix`) reproducible.
* :class:`FaultyDisk` — a :class:`~repro.storage.disk.SimulatedDisk` that
  routes every read/write through its injector and retries transients under
  a :class:`RetryPolicy`, charging backoff delays to the simulated clock.
* :class:`CrashPoint` — "die after the Nth I/O", raised as
  :class:`~repro.errors.SimulatedCrash`.  A crash *between* ops is not a
  device fault: a harness throws it into the day's boundary stream
  (:mod:`repro.core.boundary`) at the op boundary it names.

Faults are exceptions from :mod:`repro.errors`: :class:`TransientIOError`
(retryable), :class:`DeviceFailure` (permanent — the query path treats the
affected constituents as offline), and :class:`SimulatedCrash` (process
death; disk state survives, memory does not).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import (
    DeviceFailure,
    OutOfSpaceError,
    SimulatedCrash,
    TransientIOError,
)
from .bufferpool import BufferPoolModel
from .cost import DiskParameters
from .disk import SimulatedDisk
from .extent import Extent
from .pagecache import PageCache


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient I/O errors.

    Args:
        max_attempts: Total tries per I/O (first attempt included).
        base_delay_s: Simulated seconds charged before the first retry.
        multiplier: Backoff growth factor per retry.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.01
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0:
            raise ValueError(f"base_delay_s must be >= 0, got {self.base_delay_s}")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    def delay_before_retry(self, retry_number: int) -> float:
        """Return the backoff before the ``retry_number``-th retry (1-based)."""
        if retry_number < 1:
            raise ValueError(f"retry_number must be >= 1, got {retry_number}")
        return self.base_delay_s * self.multiplier ** (retry_number - 1)


@dataclass(frozen=True)
class CrashPoint:
    """Where a simulated process crash fires, mid-op.

    The first ``after_ios`` I/Os since :meth:`FaultInjector.arm_crash`
    succeed; the next one raises :class:`SimulatedCrash` *before* any time
    or bytes are charged (it never happened).
    """

    after_ios: int

    def __post_init__(self) -> None:
        if self.after_ios < 0:
            raise ValueError(f"crash point must be >= 0, got {self.after_ios}")


@dataclass
class FaultStats:
    """Counters of what the injector actually did."""

    ios: int = 0
    transients_injected: int = 0
    crashes_fired: int = 0


class FaultInjector:
    """Seed-driven fault policy for a :class:`FaultyDisk`.

    Args:
        seed: Seeds the transient-fault stream; same seed, same faults.
        transient_read_rate: Probability a read attempt raises
            :class:`TransientIOError` (each retry redraws).
        transient_write_rate: Same, for writes.
        fail_device_after_ios: Permanent :class:`DeviceFailure` once this
            many I/Os have completed; ``None`` disables.
        space_limit_bytes: Simulated space pressure — allocations that would
            push ``live_bytes`` past this raise
            :class:`~repro.errors.OutOfSpaceError`; ``None`` disables.
        crash: Optional initial :class:`CrashPoint`; :meth:`arm_crash` can
            install one later (resetting the relevant counter).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        transient_read_rate: float = 0.0,
        transient_write_rate: float = 0.0,
        fail_device_after_ios: int | None = None,
        space_limit_bytes: int | None = None,
        crash: CrashPoint | None = None,
    ) -> None:
        for name, rate in (
            ("transient_read_rate", transient_read_rate),
            ("transient_write_rate", transient_write_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self._rng = random.Random(seed)
        self.transient_read_rate = transient_read_rate
        self.transient_write_rate = transient_write_rate
        self.fail_device_after_ios = fail_device_after_ios
        self.space_limit_bytes = space_limit_bytes
        self.stats = FaultStats()
        self._device_failed = False
        self._crash: CrashPoint | None = None
        self._crash_io_base = 0
        if crash is not None:
            self.arm_crash(crash)

    # ------------------------------------------------------------------
    # Crash scheduling
    # ------------------------------------------------------------------

    def arm_crash(self, crash: CrashPoint) -> None:
        """Install ``crash``, counting I/Os from this moment on."""
        self._crash = crash
        self._crash_io_base = self.stats.ios

    def disarm(self) -> None:
        """Remove any armed crash point (the process "survived")."""
        self._crash = None

    @property
    def device_failed(self) -> bool:
        """Return ``True`` once a permanent failure has fired."""
        return self._device_failed

    def fail_device(self) -> None:
        """Fail the device immediately (external cause, e.g. a test)."""
        self._device_failed = True

    # ------------------------------------------------------------------
    # Gates (called by FaultyDisk)
    # ------------------------------------------------------------------

    def before_io(self, kind: str, nbytes: int) -> None:
        """Gate one I/O attempt; raise a fault or admit it (counting it).

        Raise order mirrors severity: a dead device stays dead; a due crash
        fires before weaker faults; transients come last.
        """
        if self._device_failed:
            raise DeviceFailure("simulated device has failed permanently")
        crash = self._crash
        if (
            crash is not None
            and self.stats.ios - self._crash_io_base >= crash.after_ios
        ):
            self.stats.crashes_fired += 1
            raise SimulatedCrash(
                f"crash point reached after {crash.after_ios} I/O(s)"
            )
        if (
            self.fail_device_after_ios is not None
            and self.stats.ios >= self.fail_device_after_ios
        ):
            self._device_failed = True
            raise DeviceFailure(
                f"simulated device failed after {self.stats.ios} I/O(s)"
            )
        rate = (
            self.transient_read_rate
            if kind == "read"
            else self.transient_write_rate
        )
        if rate > 0.0 and self._rng.random() < rate:
            self.stats.transients_injected += 1
            raise TransientIOError(
                f"injected transient {kind} error ({nbytes} bytes)"
            )
        self.stats.ios += 1

    def check_allocation(self, live_bytes: int, nbytes: int) -> None:
        """Apply space pressure to an allocation request."""
        limit = self.space_limit_bytes
        if limit is not None and live_bytes + nbytes > limit:
            raise OutOfSpaceError(
                f"space pressure: allocation of {nbytes} bytes would exceed "
                f"the injected limit of {limit} bytes ({live_bytes} live)"
            )


class FaultyDisk(SimulatedDisk):
    """A simulated disk whose I/Os can fail.

    Every read/write consults the injector first; transient errors are
    retried under ``retry_policy`` with backoff charged to the simulated
    clock (the paper's clock-accounting discipline extends to failure
    handling).  A retryable error that survives every attempt escalates to
    the caller as :class:`TransientIOError`; permanent faults and crashes
    propagate immediately.

    Args:
        params: Hardware cost parameters (as for :class:`SimulatedDisk`).
        buffer_pool: Optional buffer-pool model (as for :class:`SimulatedDisk`).
        page_cache: Optional trace-driven page cache (as for :class:`SimulatedDisk`).
        injector: Fault policy; defaults to a no-fault injector, making
            ``FaultyDisk()`` behave exactly like ``SimulatedDisk()``.
        retry_policy: Backoff schedule for transients.
    """

    def __init__(
        self,
        params: DiskParameters | None = None,
        buffer_pool: BufferPoolModel | None = None,
        page_cache: PageCache | None = None,
        *,
        injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(params, buffer_pool, page_cache)
        self.injector = injector or FaultInjector()
        self.retry_policy = retry_policy or RetryPolicy()

    @property
    def failed(self) -> bool:
        """Return ``True`` once the injector's permanent failure fired."""
        return self.injector.device_failed

    def _admit(self, kind: str, nbytes: int) -> None:
        """Run the injector gate, retrying transients with backoff."""
        retries = 0
        while True:
            try:
                self.injector.before_io(kind, nbytes)
                return
            except TransientIOError:
                retries += 1
                if retries >= self.retry_policy.max_attempts:
                    raise
                self.advance(self.retry_policy.delay_before_retry(retries))

    def allocate(self, nbytes: int) -> Extent:
        self.injector.check_allocation(self.live_bytes, nbytes)
        return super().allocate(nbytes)

    def read(
        self,
        extent: Extent,
        nbytes: int | None = None,
        *,
        seeks: float = 1,
        offset: int = 0,
    ) -> float:
        self._admit("read", nbytes if nbytes is not None else extent.size)
        return super().read(extent, nbytes, seeks=seeks, offset=offset)

    def write(
        self,
        extent: Extent,
        nbytes: int | None = None,
        *,
        seeks: float = 1,
        offset: int = 0,
    ) -> float:
        self._admit("write", nbytes if nbytes is not None else extent.size)
        return super().write(extent, nbytes, seeks=seeks, offset=offset)

    def stream_read(self, nbytes: int, *, seeks: float = 1) -> float:
        self._admit("read", nbytes)
        return super().stream_read(nbytes, seeks=seeks)

    def stream_write(self, nbytes: int, *, seeks: float = 1) -> float:
        self._admit("write", nbytes)
        return super().stream_write(nbytes, seeks=seeks)
