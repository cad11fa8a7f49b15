"""First fit without slivers, against first fit over the whole free list.

``ExtentAllocator`` searches a second list — the free ranges at least as
wide as the smallest request seen so far, in offset order — instead of
the whole free list.  Three claims:

* *It is the same first fit.*  Random allocate/free traces driven through
  the allocator and through ``tests.reference.allocator.LinearFirstFit``
  give the same offsets, free lists, frontier, live and high-water bytes
  and error text after every step (``--hypothesis-profile nightly``:
  2 000 traces).
* *The second list is checked where the free list is.*
  ``check_invariants`` — and through it ``check_wave_invariants``, at
  every crash-matrix cell and soak boundary — fails on a list that is not
  the free list filtered at the floor.
* *It skips the slivers.*  Over a seeded ten-day DEL loop at the shape
  of the ``coord-batch`` benchmark workload, first fit looks at no more
  than four free ranges per allocation on average (3.3 measured; about
  195 ranges are free).  Walking the whole free list it looked at 32.4.
  What it still walks past are ranges wider than the smallest request
  and narrower than the one it places.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.invariants import check_wave_invariants
from repro.core.records import RecordStore
from repro.core.schemes import DelScheme, scheme_by_name
from repro.errors import ReproError
from repro.index.updates import UpdateTechnique
from repro.storage import allocator as allocator_module
from repro.storage.allocator import ExtentAllocator
from repro.workloads.text import NetnewsGenerator, TextWorkloadConfig
from repro.workloads.zipf import heaps_vocabulary
from tests.index.test_scan_sweep import WINDOW, start
from tests.reference.allocator import LinearFirstFit

# ----------------------------------------------------------------------
# Same first fit
# ----------------------------------------------------------------------

# Entry-sized requests, slivers below them, zero and the odd large one.
sizes = st.one_of(
    st.sampled_from([0, 16, 16, 32, 48, 64, 64, 64, 96, 128, 192, 256]),
    st.integers(min_value=0, max_value=3000),
)
step = st.tuples(
    st.sampled_from(["allocate"] * 3 + ["free"] * 2),
    sizes,
    st.integers(min_value=0, max_value=10**6),
)
traces = st.lists(step, min_size=1, max_size=80)
capacities = st.sampled_from([None, None, 2048, 6000])

# A zero-byte request, a request below the floor, a free that retracts
# the frontier, a range split by a smaller request, and a bounded device
# that runs out.
COVERING_TRACE = [
    ("allocate", 64, 0),
    ("allocate", 128, 0),
    ("allocate", 64, 0),
    ("allocate", 0, 0),
    ("free", 0, 1),  # the 128-byte range: a hole
    ("allocate", 16, 0),  # below the floor of 64: re-filter, split the hole
    ("allocate", 64, 0),
    ("free", 0, 1),  # the last 64 bytes and the hole's rest: the frontier retracts
    ("allocate", 3000, 0),  # past a 2048-byte capacity
    ("allocate", 48, 0),
]


class Twin:
    """One allocator and the extents it handed out, by arrival."""

    def __init__(self, cls, capacity):
        self.alloc = cls(capacity)
        self.live = []

    def step(self, op):
        kind, nbytes, pick = op
        try:
            if kind == "allocate":
                extent = self.alloc.allocate(nbytes)
                self.live.append(extent)
                outcome = ("ok", extent.offset, extent.size)
            elif self.live:
                extent = self.live.pop(pick % len(self.live))
                self.alloc.free(extent)
                outcome = ("freed", extent.offset, extent.size)
            else:
                outcome = ("nothing to free",)
        except ReproError as error:
            outcome = (type(error).__name__, str(error))
        alloc = self.alloc
        alloc.check_invariants()
        return (
            outcome,
            alloc.free_ranges(),
            alloc.frontier,
            alloc.live_bytes,
            alloc.high_water_bytes,
            [(e.offset, e.size) for e in alloc.live_extent_list()],
        )


@given(trace=traces, capacity=capacities)
@example(trace=COVERING_TRACE, capacity=2048)
@settings(deadline=None)
def test_first_fit_equals_the_linear_walk(trace, capacity):
    got, want = Twin(ExtentAllocator, capacity), Twin(LinearFirstFit, capacity)
    for i, op in enumerate(trace):
        assert got.step(op) == want.step(op), (i, op)


def test_the_covering_trace_covers_what_it_says():
    twin = Twin(ExtentAllocator, 2048)
    seen = [twin.step(op) for op in COVERING_TRACE]
    alloc = twin.alloc
    assert seen[3][0] == ("ok", 256, 0)  # zero bytes: at the frontier
    assert seen[5][0] == ("ok", 64, 16) and alloc._floor == 16
    assert seen[7][2] < seen[6][2]  # the frontier retracted
    assert seen[8][0][0] == "OutOfSpaceError"
    assert seen[7][1] == [] and seen[7][2] == 144
    assert seen[9][0] == ("ok", 144, 48)  # at the retracted frontier


# ----------------------------------------------------------------------
# Checked where the free list is
# ----------------------------------------------------------------------


def holey():
    """An allocator with free ranges above and below a 64-byte floor."""
    alloc = ExtentAllocator()
    extents = [alloc.allocate(n) for n in (64, 96, 64, 160, 64, 128, 64)]
    for i in (1, 3, 5):
        alloc.free(extents[i])
    alloc.allocate(64)  # from the 96-byte hole: a 32-byte sliver is left
    alloc.check_invariants()
    assert alloc.free_ranges() == [(128, 32), (224, 160), (448, 128)]
    assert alloc._fit == [(224, 160), (448, 128)]
    return alloc


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda fit, free: fit.pop(),  # a range missing
        lambda fit, free: fit.append(free[0]),  # a sliver searched
        lambda fit, free: fit.reverse(),  # out of order
        lambda fit, free: fit.__setitem__(0, (224, 150)),  # stale size
    ],
    ids=["missing", "sliver", "order", "stale"],
)
def test_invariants_catch_a_drifted_first_fit_list(corrupt):
    alloc = holey()
    corrupt(alloc._fit, alloc._free)
    with pytest.raises(AssertionError, match="first-fit list drifted"):
        alloc.check_invariants()


def test_wave_invariants_check_the_first_fit_list():
    # DEL in place frees, shrinks and regrows bucket extents every day.
    # Eight days in, the disk holds a range to search and a sliver.
    wave, executor, scheme = start(DelScheme, UpdateTechnique.IN_PLACE)
    executor.execute(scheme.start_ops())
    for day in range(WINDOW + 1, WINDOW + 9):
        executor.execute(scheme.transition_ops(day))
    check_wave_invariants(wave, scheme)
    alloc = wave.disk._allocator
    assert len(alloc.free_ranges()) > len(alloc._fit) > 0
    alloc._fit.pop(0)
    with pytest.raises(AssertionError, match="first-fit list drifted"):
        check_wave_invariants(wave, scheme)


# ----------------------------------------------------------------------
# Skips the slivers
# ----------------------------------------------------------------------

#: ``coord-batch``'s shape: DEL in place, W = 7, n = 2, four shards, a
#: 128 KiB page cache per device, 250 documents of 40 words a day.
DOCS_PER_DAY, WORDS_PER_DOC, W, N, SHARDS = 250, 40, 7, 2, 4
SETUP_TURNS, LOOP_DAYS = 3, 10


def test_first_fit_skips_slivers_through_a_del_loop(monkeypatch):
    last = W + SETUP_TURNS + LOOP_DAYS
    store = RecordStore()
    NetnewsGenerator(
        TextWorkloadConfig(
            docs_per_day=DOCS_PER_DAY,
            words_per_doc=WORDS_PER_DOC,
            vocabulary=heaps_vocabulary(DOCS_PER_DAY * WORDS_PER_DOC),
            zipf_s=1.0,
            seed=7,
        )
    ).populate(store, 1, last)
    sim = ClusterSimulation(
        lambda: scheme_by_name("DEL")(W, N),
        store,
        technique=UpdateTechnique.IN_PLACE,
        cluster=ClusterConfig(
            n_shards=SHARDS, replication=1, page_cache_bytes=128 * 1024
        ),
    )
    sim.run_start()
    for day in range(W + 1, W + SETUP_TURNS + 1):
        sim.run_transition(day)

    # First fit's search is the one ``enumerate`` in the allocator
    # module: every range it yields is a range first fit looked at.
    inspected = 0

    def counting(ranges):
        nonlocal inspected
        for item in enumerate(ranges):
            inspected += 1
            yield item

    allocations = 0
    allocate = ExtentAllocator.allocate

    def counted(self, nbytes):
        nonlocal allocations
        allocations += nbytes > 0
        return allocate(self, nbytes)

    monkeypatch.setattr(allocator_module, "enumerate", counting, raising=False)
    monkeypatch.setattr(ExtentAllocator, "allocate", counted)
    for day in range(W + SETUP_TURNS + 1, last + 1):
        sim.run_transition(day)
    monkeypatch.undo()

    assert allocations > 6000, allocations
    assert inspected / allocations <= 4.0, (inspected, allocations)
