"""Tests for deterministic fault injection on the simulated disk."""

import pytest

from repro.errors import (
    DeviceFailure,
    OutOfSpaceError,
    SimulatedCrash,
    TransientIOError,
)
from repro.storage.cost import MEGABYTE, DiskParameters
from repro.storage.faults import (
    CrashPoint,
    FaultInjector,
    FaultyDisk,
    RetryPolicy,
)

PARAMS = DiskParameters(seek_s=0.01, bandwidth_bps=MEGABYTE)


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.5, multiplier=3.0)
        assert policy.delay_before_retry(1) == pytest.approx(0.5)
        assert policy.delay_before_retry(2) == pytest.approx(1.5)
        assert policy.delay_before_retry(3) == pytest.approx(4.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay_before_retry(0)


class TestCrashPoint:
    def test_negative_point_rejected(self):
        with pytest.raises(ValueError):
            CrashPoint(after_ios=-1)
        assert CrashPoint(after_ios=0).after_ios == 0


class TestTransients:
    def test_deterministic_for_a_seed(self):
        def run(seed):
            injector = FaultInjector(seed, transient_read_rate=0.3)
            outcomes = []
            for _ in range(50):
                try:
                    injector.before_io("read", 100)
                    outcomes.append("ok")
                except TransientIOError:
                    outcomes.append("fault")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_retry_succeeds_and_charges_backoff_to_clock(self):
        # Rate 1.0 for writes only: every write attempt faults, reads don't.
        injector = FaultInjector(0, transient_write_rate=1.0)
        disk = FaultyDisk(
            PARAMS,
            injector=injector,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.5),
        )
        ext = disk.allocate(100)
        with pytest.raises(TransientIOError):
            disk.write(ext)
        # Two retries before escalation: 0.5 + 1.0 simulated seconds, and
        # no transfer time (the I/O never happened).
        assert disk.clock == pytest.approx(1.5)
        assert injector.stats.transients_injected == 3
        assert injector.stats.ios == 0
        # Reads are unaffected.
        disk.read(ext)
        assert injector.stats.ios == 1

    def test_transient_read_eventually_succeeds(self):
        injector = FaultInjector(3, transient_read_rate=0.5)
        disk = FaultyDisk(
            PARAMS,
            injector=injector,
            retry_policy=RetryPolicy(max_attempts=10, base_delay_s=0.01),
        )
        ext = disk.allocate(1000)
        for _ in range(20):
            disk.read(ext)
        assert injector.stats.ios == 20
        assert injector.stats.transients_injected > 0


class TestDeviceFailure:
    def test_fails_permanently_after_threshold(self):
        disk = FaultyDisk(
            PARAMS, injector=FaultInjector(fail_device_after_ios=2)
        )
        ext = disk.allocate(100)
        disk.read(ext)
        disk.read(ext)
        with pytest.raises(DeviceFailure):
            disk.read(ext)
        assert disk.injector.device_failed
        # Dead stays dead.
        with pytest.raises(DeviceFailure):
            disk.write(ext)

    def test_fail_device_immediately(self):
        disk = FaultyDisk(PARAMS)
        ext = disk.allocate(100)
        disk.injector.fail_device()
        with pytest.raises(DeviceFailure):
            disk.read(ext)


class TestSpacePressure:
    def test_allocation_over_limit_rejected(self):
        disk = FaultyDisk(
            PARAMS, injector=FaultInjector(space_limit_bytes=1000)
        )
        disk.allocate(800)
        with pytest.raises(OutOfSpaceError):
            disk.allocate(300)
        # Under the limit still works.
        disk.allocate(200)


class TestCrashPoints:
    def test_io_crash_fires_after_nth_io(self):
        disk = FaultyDisk(
            PARAMS, injector=FaultInjector(crash=CrashPoint(after_ios=2))
        )
        ext = disk.allocate(100)
        disk.read(ext)
        disk.write(ext)
        before = disk.clock
        with pytest.raises(SimulatedCrash):
            disk.read(ext)
        # The crashed I/O charged no time.
        assert disk.clock == before
        assert disk.injector.stats.crashes_fired == 1

    def test_arm_crash_counts_from_arming(self):
        disk = FaultyDisk(PARAMS)
        ext = disk.allocate(100)
        disk.read(ext)
        disk.read(ext)
        disk.injector.arm_crash(CrashPoint(after_ios=1))
        disk.read(ext)  # first I/O since arming: fine
        with pytest.raises(SimulatedCrash):
            disk.read(ext)

    def test_disarm_cancels(self):
        disk = FaultyDisk(
            PARAMS, injector=FaultInjector(crash=CrashPoint(after_ios=0))
        )
        ext = disk.allocate(100)
        disk.injector.disarm()
        disk.read(ext)


class TestFaultFreeEquivalence:
    def test_default_faulty_disk_matches_simulated_disk(self):
        from repro.storage.disk import SimulatedDisk

        plain = SimulatedDisk(PARAMS)
        faulty = FaultyDisk(PARAMS)
        for disk in (plain, faulty):
            ext = disk.allocate(500_000)
            disk.read(ext)
            disk.write(ext, 100_000)
            disk.stream_read(200_000)
        assert faulty.clock == pytest.approx(plain.clock)
        assert faulty.live_bytes == plain.live_bytes
