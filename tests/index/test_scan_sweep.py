"""Scan sweeps: flatten each constituent once per mutation, change nothing
observable.

Two claims, as for posting runs.  *Equivalence*: a wave whose scans read
each constituent's cached :class:`~repro.index.kernels.Sweep` answers,
charges and counts exactly as a twin served by the flatten-per-scan oracle
(``tests.reference.batch.scan_many_object``, which reads nothing a
constituent caches) — before and after every transition, cold and warm.
*Lifetime*: a sweep is the constituent's contents at the moment it was
built, so it lives from the first scan after a mutation to the entry of
the next mutating op and not one step longer; it never stands in for the
device, and it is never handed out in a form a caller could change.
"""

import pytest

from repro.core.executor import ExecutionReport, PlanExecutor
from repro.core.schemes import ALL_SCHEMES, DelScheme, WataTable4Scheme
from repro.core.wave import WaveIndex
from repro.errors import (
    ConstituentIndexError,
    DegradedWindowError,
    DeviceFailure,
    FaultError,
)
from repro.index import kernels
from repro.index.builder import build_index_from_store, build_packed_index
from repro.index.config import IndexConfig
from repro.index.constituent import ConstituentIndex
from repro.index.entry import Entry
from repro.index.updates import UpdateTechnique
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector, FaultyDisk
from tests.conftest import make_store
from tests.index.test_constituent import grouped
from tests.reference.batch import scan_many_object

WINDOW, N = 6, 3
CYCLES = 2
LAST_DAY = WINDOW * (CYCLES + 1)
SEVEN_SCHEMES = (*ALL_SCHEMES, WataTable4Scheme)


def batch_for(day):
    """Whole window, newest day, a partial range, a range outside the
    window, and duplicates of two of them."""
    lo = day - WINDOW + 1
    return [
        (lo, day),
        (day, day),
        (lo + 1, day - 2),
        (day + 3, day + 5),
        (day, day),
        (lo, day),
    ]


def start(scheme_cls, technique, disk=None):
    wave = WaveIndex(disk or SimulatedDisk(), IndexConfig(), N)
    executor = PlanExecutor(wave, make_store(LAST_DAY), technique)
    scheme = scheme_cls(WINDOW, N)
    return wave, executor, scheme


def assert_sweeps_describe_their_indexes(wave):
    """Every bound index's sweep — cached or built now — is its contents."""
    for index in wave.bindings.values():
        sweep = index.sweep()
        assert sweep.entries == tuple(index.all_entries())
        assert sweep.nbytes == index.allocated_bytes
        assert list(sweep.days) == [e.day for e in sweep.entries]
        assert sweep.sorted == (list(sweep.days) == sorted(sweep.days))
        if sweep.entries:
            assert (sweep.lo, sweep.hi) == (min(sweep.days), max(sweep.days))
        assert index.sweep() is sweep


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------


def serve_days(scan_many, scheme_cls, technique, *, check_sweeps):
    """Two wave cycles, a cold and a warm batch at every day boundary."""
    wave, executor, scheme = start(scheme_cls, technique)
    disk = wave.disk
    seen = []

    def run(plan, day):
        for op in plan:
            executor.execute_op(op, ExecutionReport())
            if check_sweeps:
                # Leaves a sweep on every bound index, so the next op
                # meets one wherever it lands.
                assert_sweeps_describe_their_indexes(wave)
        for _ in ("cold", "warm"):
            batch = scan_many(wave, batch_for(day))
            seen.append(
                (day, batch.results, batch.summary, disk.clock, disk.stats.snapshot())
            )

    run(scheme.start_ops(), WINDOW)
    for day in range(WINDOW + 1, LAST_DAY + 1):
        run(scheme.transition_ops(day), day)
    return seen


@pytest.mark.parametrize("technique", list(UpdateTechnique), ids=lambda t: t.value)
@pytest.mark.parametrize("scheme_cls", SEVEN_SCHEMES, ids=lambda c: c.name)
def test_scans_identical_to_flattening_twin(scheme_cls, technique):
    got = serve_days(WaveIndex.scan_many, scheme_cls, technique, check_sweeps=True)
    want = serve_days(scan_many_object, scheme_cls, technique, check_sweeps=False)
    assert got == want


# ----------------------------------------------------------------------
# Lifetime
# ----------------------------------------------------------------------


def small_index(disk):
    return build_packed_index(
        disk,
        IndexConfig(),
        grouped(
            ("a", Entry(1, 1)), ("b", Entry(1, 1)), ("a", Entry(2, 2)), ("c", Entry(3, 2))
        ),
        [1, 2],
    )


def test_sweep_lives_from_first_scan_to_next_mutation():
    index = small_index(SimulatedDisk())
    assert index._sweep is None  # a build scans nothing
    first, _ = index.scan()
    sweep = index._sweep
    assert sweep is not None and index.sweep() is sweep
    index.scan()
    index.charge_scan()
    index.select(1, 1)  # a one-day scan, as a batch makes it
    assert index._sweep is sweep

    index.insert_postings(grouped(("a", Entry(4, 3)), ("d", Entry(4, 3))), [3])
    assert index._sweep is None
    second, _ = index.scan()
    assert index._sweep is not sweep
    assert [e.record_id for e in second] == [1, 2, 4, 1, 3, 4]
    assert [e.record_id for e in first] == [1, 2, 1, 3]  # the old answer stands

    index.delete_days([1])
    assert index._sweep is None
    third, _ = index.scan()
    assert [e.record_id for e in third] == [2, 4, 3, 4]

    held = index.sweep()
    index.drop()
    assert index._sweep is None
    assert held.entries == tuple(third)  # a reader's copy is still whole
    with pytest.raises(ConstituentIndexError):
        index.sweep()
    with pytest.raises(ConstituentIndexError):
        index.scan()


def test_a_layouts_day_runs_live_from_first_scan_to_next_mutation():
    """The same lifetime for the other owner of one-day runs: an index
    laid from day runs keeps them itself and never builds a sweep."""
    index = build_index_from_store(SimulatedDisk(), IndexConfig(), make_store(4), [2, 3, 4])
    assert index._day_runs == {} and index._sweep is None  # a build scans nothing
    entries, (run, lo, hi) = index.select(3, 3)
    assert index._day_runs == {3: run} and index._sweep is None
    assert entries is run.entries and (lo, hi) == (0, len(entries))
    assert [e.day for e in entries] == [3] * len(entries) and entries
    assert index.select(2.5, 3.5)[1][0] is run  # one day in a wider range
    assert index._layout._flat is None  # nothing laid the scan order out

    index.insert_postings(grouped(("a", Entry(99, 3))), [3])
    assert index._day_runs == {} and index._layout is None
    again, _ = index.select(3, 3)
    assert list(again) == [e for b in index.buckets() for e in b.entries if e.day == 3]
    assert len(again) == len(entries) + 1
    assert index._sweep is not None  # laid out as buckets: the sweep's turn
    assert list(run.entries) == list(entries)  # the old answer stands

    rebuilt = build_index_from_store(SimulatedDisk(), IndexConfig(), make_store(4), [2, 3])
    held, _ = rebuilt.select(2, 2)
    rebuilt.drop()
    assert rebuilt._day_runs == {}
    assert all(e.day == 2 for e in held)  # a reader's copy is still whole
    with pytest.raises(ConstituentIndexError):
        rebuilt.select(2, 2)


def test_no_op_mutations_drop_the_sweep_too():
    """One rule — every entry to a mutating op — not one per outcome."""
    index = small_index(SimulatedDisk())
    index.scan()
    index.delete_days([])
    assert index._sweep is None
    index.scan()
    index.insert_postings({}, [])
    assert index._sweep is None


@pytest.mark.parametrize("op", ["insert", "delete"])
def test_op_aborted_by_a_fault_leaves_no_sweep(op):
    injector = FaultInjector()
    index = small_index(FaultyDisk(injector=injector))
    index.scan()
    assert index._sweep is not None
    # Dies after its first bucket: the contents are half-changed.
    injector.fail_device_after_ios = injector.stats.ios + 2
    with pytest.raises(FaultError):
        if op == "insert":
            index.insert_postings(
                grouped(("a", Entry(5, 3)), ("b", Entry(5, 3)), ("c", Entry(5, 3))), [3]
            )
        else:
            index.delete_days([1, 2])
    assert index._sweep is None


def test_a_cached_sweep_never_answers_for_a_failed_device():
    injector = FaultInjector()
    disk = FaultyDisk(injector=injector)
    wave, executor, scheme = start(DelScheme, UpdateTechnique.IN_PLACE, disk)
    executor.execute(scheme.start_ops())
    whole = (1, WINDOW)
    healthy = wave.scan_many([whole]).results[0]
    cached = {name: index._sweep for name, index in wave.bindings.items()}
    assert all(sweep is not None for sweep in cached.values())

    injector.fail_device()
    clock = disk.clock
    for index in wave.bindings.values():
        with pytest.raises(DeviceFailure):
            index.scan()
        with pytest.raises(DeviceFailure):
            index.charge_scan()
    with pytest.raises(DeviceFailure):
        wave.scan_many([whole])
    assert disk.clock == clock  # nothing was transferred, nothing charged
    # Degraded and labelled: no entries, every day reported missing.
    (answer,) = wave.scan_many([whole], degraded=True).results
    assert answer.entries == ()
    assert answer.missing_days == healthy.covered_days
    assert answer.indexes_scanned == 0
    with pytest.raises(DegradedWindowError):
        wave.scan_many([whole])


def test_second_scan_rederives_nothing_for_any_range(monkeypatch):
    """The work-count floor: on an unmutated wave only the first batch
    flattens buckets or builds a day column — whatever ranges follow."""

    def turned_once():
        wave, executor, scheme = start(DelScheme, UpdateTechnique.IN_PLACE)
        executor.execute(scheme.start_ops())
        executor.execute(scheme.transition_ops(WINDOW + 1))
        return wave

    wave, twin, day = turned_once(), turned_once(), WINDOW + 1
    calls = {"day_column": 0, "all_entries": 0}
    real_column, real_all = kernels.day_column, ConstituentIndex.all_entries

    def counted_column(entries):
        calls["day_column"] += 1
        return real_column(entries)

    def counted_all(self):
        calls["all_entries"] += 1
        return real_all(self)

    monkeypatch.setattr(kernels, "day_column", counted_column)
    monkeypatch.setattr(ConstituentIndex, "all_entries", counted_all)

    wave.scan_many([(day - WINDOW + 1, day)])
    assert calls == {"day_column": N, "all_entries": 0}  # one column per constituent
    calls["day_column"] = 0
    other_ranges = batch_for(day) + [(day - 2, day - 1), (1, day + 9)]
    later = wave.scan_many(other_ranges)
    assert calls == {"day_column": 0, "all_entries": 0}
    # No bucket was given a run on the way, and no view of a flat index
    # was made (a view on a layout laid from day runs is made with its run).
    for index in wave.bindings.values():
        assert index._views == [None] * len(index._views)
        assert all(bucket._run is None for bucket in index.directory.values())
    assert later.results == scan_many_object(twin, other_ranges).results


def test_answers_do_not_alias_the_sweep_or_each_other():
    wave, executor, scheme = start(DelScheme, UpdateTechnique.IN_PLACE)
    executor.execute(scheme.start_ops())
    twin, twin_executor, twin_scheme = start(DelScheme, UpdateTechnique.IN_PLACE)
    twin_executor.execute(twin_scheme.start_ops())
    index = wave.get("I1")
    first, _ = index.scan()
    second, _ = index.scan()
    assert first == second and first is not second
    first.clear()
    assert index.scan()[0] == second
    # The shared form is immutable, as is every batched answer.
    assert isinstance(index.sweep().entries, tuple)
    with pytest.raises(AttributeError):
        index.sweep().entries = ()
    whole = wave.scan_many([(1, WINDOW), (1, WINDOW)]).results
    assert isinstance(whole[0].entries, tuple)
    (want,) = scan_many_object(twin, [(1, WINDOW)]).results
    assert whole[0].entries == want.entries
