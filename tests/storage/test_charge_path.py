"""The one-frame charge path vs the composed path it replaced.

``SimulatedDisk.read`` / ``.write`` validate, touch the cache, price,
count and advance the clock in one frame — a one-page touch takes its LRU
step there, and only a span of two pages and up calls into the cache
(``PageCache.touch_span``).  ``tests.reference.disk`` keeps the chain of
calls this replaced (``ComposedDisk`` over ``ComposedPageCache``) and the
cache hooks the device used to ask for every charge (``HookPageCache``).
Twin devices — one of each — are driven through the same random trace
and must agree with ``==`` after every step: the seconds returned, the
clock, every ``IOStats`` field, every ``PageCacheSnapshot`` field, the
full LRU order and the per-extent map read off it.  Float addition is not
associative, so ``==`` here is what keeps every committed artifact
byte-identical.

The frame floor pins the point of the change the way the "0 JSON codec
calls" test of the wire format did: Python calls per touch, counted by
``sys.setprofile``.
"""

import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.storage.bufferpool import BufferPoolModel
from repro.storage.cost import DiskParameters
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector, FaultyDisk, RetryPolicy
from repro.storage.pagecache import PageCache
from tests.reference.disk import (
    ComposedDisk,
    ComposedFaultyDisk,
    ComposedPageCache,
    HookPageCache,
    resident_by_extent,
)

PAGE = 64
CAPACITY_PAGES = 4
PARAMS = DiskParameters(seek_s=0.0137, bandwidth_bps=9_700_001.0)


def injector():
    return FaultInjector(
        seed=5, transient_read_rate=0.3, transient_write_rate=0.3
    )


# kind -> (device under test, its composed twin)
DEVICES = {
    "cacheless": (
        lambda: SimulatedDisk(PARAMS),
        lambda: ComposedDisk(PARAMS),
    ),
    "buffer-pool": (
        lambda: SimulatedDisk(PARAMS, buffer_pool=BufferPoolModel(3 * PAGE, 0.01)),
        lambda: ComposedDisk(PARAMS, buffer_pool=BufferPoolModel(3 * PAGE, 0.01)),
    ),
    "page-cache": (
        lambda: SimulatedDisk(
            PARAMS, page_cache=PageCache(CAPACITY_PAGES * PAGE, PAGE)
        ),
        lambda: ComposedDisk(
            PARAMS, page_cache=ComposedPageCache(CAPACITY_PAGES * PAGE, PAGE)
        ),
    ),
    "page-cache-hooks": (
        lambda: SimulatedDisk(
            PARAMS, page_cache=PageCache(CAPACITY_PAGES * PAGE, PAGE)
        ),
        lambda: ComposedDisk(
            PARAMS, page_cache=HookPageCache(CAPACITY_PAGES * PAGE, PAGE)
        ),
    ),
    "faulty": (
        lambda: FaultyDisk(
            PARAMS,
            page_cache=PageCache(CAPACITY_PAGES * PAGE, PAGE),
            injector=injector(),
            retry_policy=RetryPolicy(max_attempts=2),
        ),
        lambda: ComposedFaultyDisk(
            PARAMS,
            page_cache=ComposedPageCache(CAPACITY_PAGES * PAGE, PAGE),
            injector=injector(),
            retry_policy=RetryPolicy(max_attempts=2),
        ),
    ),
}

seek_counts = st.sampled_from([0, 1, 0.0, 1.0, 0.25, 2, 1.5])
picks = st.integers(min_value=0, max_value=10**6)

# Every step is one tuple ``(kind, a, b, c, stretch, seeks)`` that the
# driver reads by kind, so the mix is the list below and not whatever a
# union of strategies shrinks towards: four steps in five are touches.  A
# touch names its extent (a), offset (b) and length (c) as draws the
# driver folds into the extent's size, so most touches are valid and land
# anywhere inside it — the last partial page included — while ``stretch``
# pushes some past the end (refused by the disk).  Most are a bucket's:
# well under a page, on one of the first few extents, so pages are
# revisited, hit out of LRU order and evicted.
KINDS = (
    ["read", "write"] * 10
    + ["allocate", "free", "reallocate", "stream_read", "stream_write", "advance"]
)
step = st.tuples(
    st.sampled_from(KINDS),
    st.one_of(st.integers(min_value=0, max_value=2), picks),
    picks,
    st.one_of(st.integers(min_value=0, max_value=PAGE), st.none(), picks),
    st.sampled_from([0] * 12 + [1, PAGE, 9 * PAGE]),
    seek_counts,
)
traces = st.lists(step, min_size=10, max_size=120)


class Driver:
    """One device and the extents allocated on it, by arrival ordinal."""

    def __init__(self, disk):
        self.disk = disk
        self.extents = []
        self.ordinal = {}
        for nbytes in (6 * PAGE, PAGE, 2 * PAGE + 7, 0):
            self.allocate(nbytes)

    def allocate(self, nbytes):
        extent = self.disk.allocate(nbytes)
        self.ordinal[extent.extent_id] = len(self.extents)
        self.extents.append(extent)
        return extent.offset, extent.size

    def apply(self, op):
        kind, a, b, c, stretch, seeks = op
        disk = self.disk
        size = (c or 0) % (7 * PAGE)
        if kind == "allocate":
            return self.allocate(size)
        # The first three extents are never given back, so most touches
        # find theirs live; the later ones die and are touched dead.
        doomed = self.extents[3 + b % (len(self.extents) - 3)]
        if kind == "free":
            return disk.free(doomed)
        if kind == "reallocate":
            new = disk.reallocate(doomed, size)
            self.ordinal[new.extent_id] = len(self.extents)
            self.extents.append(new)
            return new.offset, new.size
        if kind in ("stream_read", "stream_write"):
            return getattr(disk, kind)(size, seeks=seeks)
        if kind == "advance":
            return disk.advance(size / 1000)
        extent = self.extents[a % len(self.extents)]
        nbytes = c  # None: the whole extent, which only fits from offset 0
        offset = 0 if nbytes is None else b % (extent.size + 1)
        if nbytes is not None:
            nbytes = nbytes % (extent.size - offset + 1) + stretch
        if disk.buffer_pool is not None:
            seeks = disk.effective_seeks(seeks, float(3 * offset))
        return getattr(disk, kind)(extent, nbytes, seeks=seeks, offset=offset)

    def step(self, op):
        """Apply ``op``; return everything observable afterwards."""
        try:
            outcome = ("ok", self.apply(op))
        except (ReproError, ValueError) as error:
            outcome = (type(error).__name__,)
        disk = self.disk
        cache = disk.page_cache
        seen = [outcome, disk.clock, disk.snapshot(), disk.live_bytes]
        if cache is not None:
            ordinal = self.ordinal
            seen += [
                cache.snapshot(),
                [(ordinal[ext_id], page) for ext_id, page in cache._pages],
                {
                    ordinal[k]: sorted(v)
                    for k, v in resident_by_extent(cache).items()
                },
            ]
        if isinstance(disk, FaultyDisk):
            seen.append(vars(disk.injector.stats).copy())
        return seen


# Spans of 0, 1, 2, capacity and more-than-capacity pages on the six-page
# extent, read cold, overwritten from the extent's start, read again.
SPAN_SHAPES = [
    op
    for pages in (0, 1, 2, CAPACITY_PAGES, CAPACITY_PAGES + 1)
    for op in (
        ("read", 0, PAGE, pages * PAGE, 0, 1.0),
        ("write", 0, 0, pages * PAGE, 0, 1.0),
        ("read", 0, PAGE, pages * PAGE, 0, 1.0),
    )
]


@pytest.mark.parametrize("kind", list(DEVICES))
@given(trace=traces)
@example(trace=SPAN_SHAPES)
@settings(deadline=None)
def test_one_frame_charges_equal_the_composed_path(kind, trace):
    make, make_composed = DEVICES[kind]
    device, twin = Driver(make()), Driver(make_composed())
    for i, op in enumerate(trace):
        assert device.step(op) == twin.step(op), (i, op)


def test_price_is_the_cost_models():
    # The inlined expression is DiskParameters.io_time's, to the bit.
    disk = SimulatedDisk(PARAMS)
    extent = disk.allocate(10_007)
    for nbytes, seeks in [(0, 0), (1, 1), (10_007, 0.3), (777, 2), (4096, 1.0)]:
        assert disk.read(extent, nbytes, seeks=seeks) == PARAMS.io_time(
            nbytes, seeks=seeks
        )
        assert disk.write(extent, nbytes, seeks=seeks) == PARAMS.io_time(
            nbytes, seeks=seeks
        )


# ----------------------------------------------------------------------
# Frame floor
# ----------------------------------------------------------------------


def python_calls(fn):
    """Return how many Python frames ``fn()`` enters, itself excluded."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls - 1


def touches_on(disk):
    """Single-page touches: cold misses, hits, then misses that evict."""
    extent = disk.allocate(3 * CAPACITY_PAGES * PAGE)
    plan = [
        (kind, page * PAGE + 3)
        for pages in (range(CAPACITY_PAGES), range(CAPACITY_PAGES),
                      range(CAPACITY_PAGES, 3 * CAPACITY_PAGES))
        for page in pages
        for kind in ("read", "write")
    ]

    def run():
        for kind, offset in plan:
            if kind == "read":
                disk.read(extent, 40, seeks=1.0, offset=offset)
            else:
                disk.write(extent, 40, seeks=1.0, offset=offset)

    return run, len(plan)


def test_a_cacheless_touch_is_one_python_frame():
    run, n = touches_on(SimulatedDisk(PARAMS))
    assert python_calls(run) == n  # the composed path: 6


def test_a_cached_single_page_touch_is_one_python_frame():
    disk = DEVICES["page-cache"][0]()
    run, n = touches_on(disk)
    # The cache hooks: 2 (read -> read_charges); the composed path: 9-11.
    assert python_calls(run) == n
    assert disk.page_cache.evictions > 0 and disk.page_cache.hits > 0
