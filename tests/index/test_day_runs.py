"""Day runs: a one-day scan is its day's run, and nothing else changes.

A :class:`~repro.index.kernels.Sweep` is bucket-major, so one day's
entries are scattered over it.  It keeps one immutable
:class:`~repro.index.kernels.Run` per distinct day, gathered by the first
scan that asks for exactly that day; such a scan is that run, a scan of
every day is the sweep, and every other range is filtered afresh.  Three
claims.  *Equivalence*: for every scheme and technique, after every op,
every ``(t1, t2)`` over the window and a day either side answers, charges
and counts as the flatten-per-scan oracle does.  *Block identity*: when
an answer says what it was cut from, joining those runs' cached record
bytes gives the block encoding the answer would.  *Bounds*: a sweep holds
at most one run per distinct day — it refuses to make one for any other
day — and a range holding two of its days holds none.
"""

import pytest

from repro.core.executor import ExecutionReport
from repro.core.wave import WaveIndex
from repro.index import codec, kernels
from repro.index.builder import build_packed_index
from repro.index.config import IndexConfig
from repro.index.entry import Entry
from repro.index.updates import UpdateTechnique
from repro.serve import protocol
from repro.storage.disk import SimulatedDisk
from tests.index.test_constituent import grouped
from tests.index.test_scan_sweep import N, SEVEN_SCHEMES, WINDOW, start
from tests.reference.batch import scan_many_object

LAST_DAY = WINDOW + N + 1


def every_range(day):
    """Every ``t1 <= t2`` over the window that ends on ``day``, +- 1."""
    days = range(day - WINDOW, day + 2)
    return [(t1, t2) for t1 in days for t2 in days if t1 <= t2]


def joined(parts):
    return codec.join_records(
        [run.records()[codec.RECORD_SIZE * lo : codec.RECORD_SIZE * hi]
         for run, lo, hi in parts]
    )


def shapes_of(wave, spec, result):
    """Name where an answer came from; check it did."""
    t1, t2 = spec
    sweeps = [
        index._sweep for index in wave.live_constituents()
        if any(t1 <= d <= t2 for d in index.time_set)
    ]
    in_range = [[d for d in sweep.distinct if t1 <= d <= t2] for sweep in sweeps]
    if result.parts is None:
        assert any(
            1 < len(days) < len(sweep.distinct) and not sweep.sorted
            for sweep, days in zip(sweeps, in_range)
        )
        return "filtered"
    if len(sweeps) != 1 or not result.entries:
        return None
    (sweep,), (days,) = sweeps, in_range
    ((run, lo, hi),) = result.parts
    assert result.entries == run.entries[lo:hi]
    if run is sweep:
        assert sweep.sorted or len(days) == len(sweep.distinct)
        return "sweep"
    assert run is sweep._day_runs[days[0]] and len(days) == 1
    assert result.entries is run.entries and (lo, hi) == (0, len(run.entries))
    return "day run"


def serve_days(scan_many, scheme_cls, technique, *, check):
    wave, executor, scheme = start(scheme_cls, technique)
    disk = wave.disk
    seen, shapes, widest = [], set(), 0

    def run(plan, day):
        nonlocal widest
        for op in plan:
            executor.execute_op(op, ExecutionReport())
        specs = every_range(day)
        for _ in ("cold", "warm"):
            batch = scan_many(wave, specs)
            seen.append(
                (day, batch.results, batch.summary, disk.clock, disk.stats.snapshot())
            )
            if not check:
                continue
            for spec, result in zip(specs, batch.results):
                shapes.add(shapes_of(wave, spec, result))
                if result.parts is not None:
                    assert joined(result.parts) == codec.encode_entries(result.entries)
                block = protocol.result_to_wire(result)["entries"]
                assert block == codec.encode_entries_object(result.entries)
            for index in wave.live_constituents():
                sweep = index._sweep
                if sweep is None:  # an empty time-set: no scan reaches it
                    continue
                widest = max(widest, len(sweep.distinct))
                assert set(sweep._day_runs) <= set(sweep.distinct)
                for day_, run_ in sweep._day_runs.items():
                    assert run_.entries == tuple(
                        e for e in sweep.entries if e.day == day_
                    )

    run(scheme.start_ops(), WINDOW)
    for day in range(WINDOW + 1, LAST_DAY + 1):
        run(scheme.transition_ops(day), day)
    return seen, shapes, widest


@pytest.mark.parametrize("technique", list(UpdateTechnique), ids=lambda t: t.value)
@pytest.mark.parametrize("scheme_cls", SEVEN_SCHEMES, ids=lambda c: c.name)
def test_every_range_identical_to_flattening_twin(scheme_cls, technique):
    got, shapes, widest = serve_days(
        WaveIndex.scan_many, scheme_cls, technique, check=True
    )
    want, _, _ = serve_days(scan_many_object, scheme_cls, technique, check=False)
    assert got == want
    # Not vacuous: answers took each of the paths the scheme's layout allows.
    assert shapes >= {"day run", "sweep"}
    assert ("filtered" in shapes) == (widest > 2)


# ----------------------------------------------------------------------
# One sweep, by hand
# ----------------------------------------------------------------------

#: Bucket-major over days 1, 3 and 5: no day is a slice of the sweep.
#: Day 2 is in the time-set and has no entries; day 6 is outside it.
DAYS = [1, 2, 3, 5]


def spread_index(disk):
    return build_packed_index(
        disk,
        IndexConfig(),
        grouped(
            ("a", Entry(1, 1)), ("a", Entry(2, 3)), ("a", Entry(3, 5, 7)),
            ("b", Entry(4, 1)), ("b", Entry(5, 5)),
            ("c", Entry(6, 3)), ("c", Entry(7, 3, -2)), ("c", Entry(8, 5)),
        ),
        DAYS,
    )


def one_index_wave():
    wave = WaveIndex(SimulatedDisk(), IndexConfig(), 1)
    wave.bind("I1", spread_index(wave.disk))
    return wave


def test_day_run_is_what_the_comprehension_would_gather():
    sweep = spread_index(SimulatedDisk()).sweep()
    assert not sweep.sorted and sweep.distinct == (1, 3, 5)
    for day in sweep.distinct:
        run = sweep.day_run(day)
        assert run.entries == tuple(
            kernels.filter_entries_object(sweep.entries, day, day)
        )
        assert list(run.days) == [day] * len(run.entries)
        assert (run.sorted, run.lo, run.hi) == (True, day, day)
        assert sweep.day_run(day) is run
        assert run.records() == codec.encode_records(run.entries)
    assert [e.record_id for e in sweep.day_run(3).entries] == [2, 6, 7]


@pytest.mark.parametrize(
    "spec, ids, cut_from",
    [
        ((3, 3), [2, 6, 7], "day run"),
        ((2, 4), [2, 6, 7], "day run"),  # one distinct day in a wider range
        ((5, 9), [3, 5, 8], "day run"),
        ((1, 5), [1, 2, 3, 4, 5, 6, 7, 8], "sweep"),
        ((0, 9), [1, 2, 3, 4, 5, 6, 7, 8], "sweep"),
        ((1, 3), [1, 2, 4, 6, 7], None),  # two days of one constituent
        ((3, 5), [2, 3, 5, 6, 7, 8], None),
        ((0.5, 3.5), [1, 2, 4, 6, 7], None),  # float bounds, gathered
        ((2.5, 3.5), [2, 6, 7], "day run"),
        ((2, 2), [], None),  # in the time-set, no entries
        ((4, 4), [], None),
    ],
    ids=str,
)
def test_select_picks_the_stored_form_that_is_the_answer(spec, ids, cut_from):
    wave, twin = one_index_wave(), one_index_wave()
    for _ in ("cold", "warm"):
        (result,) = wave.scan_many([spec]).results
        (want,) = scan_many_object(twin, [spec]).results
        assert result == want and list(result.record_ids) == ids
        assert wave.disk.clock == twin.disk.clock
        sweep = wave.get("I1")._sweep
        if cut_from == "day run":
            (day,) = [d for d in sweep.distinct if spec[0] <= d <= spec[1]]
            run = sweep._day_runs[day]
            assert result.entries is run.entries
            assert result.parts == ((run, 0, len(ids)),)
        elif cut_from == "sweep":
            assert result.entries is sweep.entries
            assert result.parts == ((sweep, 0, len(ids)),)
        elif ids:
            assert result.parts is None  # interleaved: no slice equals it
        else:
            assert result.parts == ()
        assert protocol.result_to_wire(result)["entries"] == (
            codec.encode_entries_object(result.entries)
        )
    # Days outside the time-set never reach the constituent.
    before = wave.disk.clock
    (outside,) = wave.scan_many([(6, 8)]).results
    assert (outside.entries, outside.indexes_scanned) == ((), 0)
    assert wave.disk.clock == before


def test_a_sweep_never_holds_more_day_runs_than_distinct_days():
    wave = one_index_wave()
    specs = [(t1, t2) for t1 in range(0, 8) for t2 in range(t1, 8)]
    for _ in range(3):
        wave.scan_many(specs)
    sweep = wave.get("I1")._sweep
    assert sorted(sweep._day_runs) == list(sweep.distinct) == [1, 3, 5]


@pytest.mark.parametrize("day", [0, 2, 4, 6, 3.5])
def test_a_day_the_sweep_does_not_hold_has_no_day_run(day):
    sweep = spread_index(SimulatedDisk()).sweep()
    with pytest.raises(ValueError, match="holds no entry"):
        sweep.day_run(day)
    assert not sweep._day_runs
    sweep.day_run(3)
    assert list(sweep._day_runs) == [3]


def test_two_days_of_one_constituent_are_filtered_on_every_call(monkeypatch):
    """A day run is a partition of stored data, not a result cache."""
    wave = one_index_wave()
    wave.scan_many([(1, 5)])
    calls = []
    real = kernels._gather

    def counted(run, t1, t2):
        calls.append((t1, t2))
        return real(run, t1, t2)

    monkeypatch.setattr(kernels, "_gather", counted)
    for _ in range(3):
        wave.scan_many([(1, 3)])
        wave.scan_many([(3, 3)])
    assert calls == [(1, 3), (3, 3), (1, 3), (1, 3)]


def test_a_sorted_sweep_answers_one_day_with_a_slice_of_itself():
    index = build_packed_index(
        SimulatedDisk(),
        IndexConfig(),
        grouped(("a", Entry(1, 1)), ("a", Entry(2, 2)), ("a", Entry(3, 2))),
        [1, 2],
    )
    sweep = index.sweep()
    found, part = kernels.select(sweep, 2, 2)
    assert sweep.sorted and part == (sweep, 1, 3) and not sweep._day_runs
    assert [e.record_id for e in found] == [2, 3]


def test_infos_the_columns_cannot_hold_take_the_encode_path():
    index = build_packed_index(
        SimulatedDisk(),
        IndexConfig(),
        grouped(("a", Entry(1, 1, "text")), ("a", Entry(2, 2)), ("b", Entry(3, 1, 2.5))),
        [1, 2],
    )
    wave = WaveIndex(index.disk, IndexConfig(), 1)
    wave.bind("I1", index)
    (result,) = wave.scan_many([(1, 1)]).results
    ((run, _, _),) = result.parts
    assert run.records() is None
    assert protocol.result_to_wire(result)["entries"] == (
        codec.encode_entries_object(result.entries)
    )
