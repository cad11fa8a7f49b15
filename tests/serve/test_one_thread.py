"""The frontend is one thread.

A three-frontend fleet — one frontend behind an injected straggler, one
behind a backend that always fails — an impostor frontend that tears its
answers, and an in-process controller over the service-delay backend
serve a burst, a batch whose deadlines expire in flight, and an unclean
drain.  Every wait is a timer on the one event loop: no thread is
started, a waiting batch is cancelled at its deadline before it reaches
the coordinator, and the serving package names no thread machinery at
all.
"""

import asyncio
import re
import threading
from pathlib import Path

import pytest

import repro.serve
from repro.bench.frontend import DelayBackend
from repro.bench.resilience import FailingBackend, ImpostorFrontend
from repro.errors import BackendError, RequestRejected, TransportError
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    CoordinatorBackend,
    FrontendClient,
    FrontendFleet,
    InProcessClient,
)
from repro.serve.admission import CODE_DEADLINE, CODE_DRAINING
from repro.serve.demo import DemoClusterConfig, build_demo_cluster

SMALL = DemoClusterConfig(
    window=3, n_indexes=2, n_shards=2, domain=40,
    records_per_day=12, extra_days=1, seed=11,
)
T1, T2 = SMALL.oldest_day, SMALL.last_day

#: The straggler's sleep per batch, and the deadline that expires in it.
STRAGGLER_MS = 600.0
DEADLINE_MS = 50.0


def wrap(idx, backend):
    if idx == 0:
        return DelayBackend(backend, batch_s=STRAGGLER_MS / 1e3)
    if idx == 1:
        return FailingBackend(backend)
    return backend


def test_a_fleet_and_a_controller_serve_burst_deadline_and_drain_on_one_thread():
    sim = build_demo_cluster(SMALL)
    expected = [sim.coordinator.probe(v, T1, T2).entries for v in range(1, 13)]
    probes = sim.coordinator.obs.counter("cluster.probes")

    async def scenario():
        loop = asyncio.get_running_loop()
        threads = [threading.active_count()]
        fleet = FrontendFleet(
            sim.coordinator,
            AdmissionConfig(max_concurrency=2, batch_max=8),
            n_frontends=3,
            wrap_backend=wrap,
        )
        await fleet.start()
        impostor = ImpostorFrontend(torn=True)
        impostor_port = await impostor.start()
        controller = AdmissionController(
            DelayBackend(
                CoordinatorBackend(sim.coordinator), request_s=20_000.0 / 1e6
            ),
            AdmissionConfig(max_concurrency=2, batch_max=4),
        )
        controller.start()
        inproc = InProcessClient(controller)
        clients = [await fleet.client(idx) for idx in range(3)]
        clients.append(
            await FrontendClient().connect("127.0.0.1", impostor_port)
        )
        try:
            # A burst at every frontend at once.
            served = (clients[0], clients[2], inproc)
            burst = await asyncio.gather(
                *(c.probe(v, T1, T2) for c in served for v in range(1, 13)),
                *(clients[1].probe(v, T1, T2) for v in range(1, 5)),
                clients[3].probe(1, T1, T2),
                return_exceptions=True,
            )
            threads.append(threading.active_count())
            answers, failed, torn = burst[:36], burst[36:40], burst[40]
            assert [a.entries for a in answers] == expected * 3
            assert all(isinstance(f, BackendError) for f in failed)
            assert isinstance(torn, TransportError)

            # A batch whose every deadline passes while the straggler
            # sleeps: it is refused at the deadline, and the coordinator
            # never sees it.
            before = probes.value
            started = loop.time()
            expired = await asyncio.gather(
                *(clients[0].probe(v, T1, T2, deadline_ms=DEADLINE_MS)
                  for v in range(1, 5)),
                return_exceptions=True,
            )
            waited_s = loop.time() - started
            threads.append(threading.active_count())
            assert [getattr(e, "code", e) for e in expired] == [CODE_DEADLINE] * 4
            assert waited_s < STRAGGLER_MS / 1e3 / 2
            assert probes.value == before
            stats = fleet.servers[0].stats()["counters"]
            assert stats["serve.deadline.inflight"] == 4

            # An unclean drain: batches asleep in the service delay and
            # requests queued behind them are all refused, none hangs.
            pending = [
                loop.create_task(inproc.probe(v, T1, T2)) for v in range(1, 13)
            ]
            await asyncio.sleep(0.005)
            assert await controller.drain(0.01) is False
            outcomes = await asyncio.wait_for(
                asyncio.gather(*pending, return_exceptions=True), 1.0
            )
            threads.append(threading.active_count())
            assert all(
                isinstance(o, RequestRejected) and o.code == CODE_DRAINING
                for o in outcomes
            )
        finally:
            for client in clients:
                await client.close()
            await impostor.close()
            await fleet.close()
            await controller.drain(0.0)
        threads.append(threading.active_count())
        return threads

    threads = asyncio.run(scenario())
    assert threads == [threads[0]] * len(threads)


@pytest.mark.parametrize(
    "name", ["threading", "ThreadPoolExecutor", "run_in_executor"]
)
def test_the_serving_package_names_no_thread_machinery(name):
    package = Path(repro.serve.__file__).parent
    named = [
        path.name for path in sorted(package.glob("*.py"))
        if re.search(rf"\b{name}\b", path.read_text(encoding="utf-8"))
    ]
    assert named == []
