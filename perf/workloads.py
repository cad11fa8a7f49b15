"""The four workloads: what each builds and what it sends.

Everything the program receives is generated here from two seeds: the
corpus seed (``--seed``) and the query seed (``--seed + 1``).  The
workloads share one corpus shape and differ in exactly one property
each, so a change that moves one and not its neighbour names its layer
(``/BENCHMARK.json`` and ``README.md`` say why each is there):

* ``point-tcp`` and ``posting-tcp`` differ only in answer size;
* ``posting-tcp`` and ``coord-batch`` differ only in access path;
* ``day-turn`` swaps DEL's in-place updates for REINDEX's shadow
  rebuilds over twice the daily volume.
"""

from __future__ import annotations

import asyncio
import bisect
import random
from dataclasses import dataclass, replace
from typing import Any

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.records import RecordStore
from repro.core.schemes import scheme_by_name
from repro.errors import ReproError
from repro.index.updates import UpdateTechnique
from repro.serve import AdmissionConfig, FrontendClient, FrontendServer
from repro.workloads.text import NetnewsGenerator, TextWorkloadConfig
from repro.workloads.zipf import heaps_vocabulary

WINDOW = 7
N_INDEXES = 2
N_SHARDS = 4
WORDS_PER_DOC = 40
ZIPF_S = 1.0
#: Transitions run past the initial build before anything is measured.
SETUP_TURNS = 3
#: Probes issued one at a time right after a turn (their own metric).
COLD_PROBES = 32
#: ``probe_many`` batch size on the in-process path.
BATCH = 32
#: Loopback TCP load: 2 connections x 8 pipelined closed-loop callers.
CONNECTIONS = 2
CALLERS_PER_CONNECTION = 8
#: Share of the non-cold answers compared with the oracle.
ORACLE_SHARE = 0.05

ProbeSpec = tuple[str, int, int]
ScanSpec = tuple[int, int]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (sizes are per round)."""

    name: str
    path: str  # "tcp": FrontendClient over loopback; "coord": in-process
    scheme: str
    docs_per_day: int
    values: str  # "rare": rarer half of the lexicon; "zipf": Zipf-ranked
    page_cache_bytes: int | None
    throughput_probes: int
    lone_probes: int
    warm_scans: int

    def quick(self) -> "Workload":
        """Return the smoke-test sizing (100 docs/day, blocks cut 8x)."""
        return replace(
            self,
            docs_per_day=100,
            throughput_probes=max(BATCH, self.throughput_probes // 8),
            lone_probes=max(8, self.lone_probes // 8),
            warm_scans=min(2, self.warm_scans),
        )

    @property
    def vocabulary(self) -> int:
        """Heaps-law lexicon for one day's tokens."""
        return heaps_vocabulary(self.docs_per_day * WORDS_PER_DOC)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="point-tcp",
            path="tcp",
            scheme="DEL",
            docs_per_day=250,
            values="rare",
            page_cache_bytes=None,
            throughput_probes=2400,
            lone_probes=200,
            warm_scans=3,
        ),
        Workload(
            name="posting-tcp",
            path="tcp",
            scheme="DEL",
            docs_per_day=250,
            values="zipf",
            page_cache_bytes=None,
            throughput_probes=256,
            lone_probes=128,
            warm_scans=3,
        ),
        Workload(
            name="coord-batch",
            path="coord",
            scheme="DEL",
            docs_per_day=250,
            values="zipf",
            page_cache_bytes=128 * 1024,
            throughput_probes=8192,
            lone_probes=400,
            warm_scans=8,
        ),
        Workload(
            name="day-turn",
            path="coord",
            scheme="REINDEX",
            docs_per_day=500,
            values="zipf",
            page_cache_bytes=1024 * 1024,
            throughput_probes=2048,
            lone_probes=400,
            warm_scans=4,
        ),
    )
}


# ----------------------------------------------------------------------
# Set-up: corpus, cluster, serving path
# ----------------------------------------------------------------------


def build_cluster(
    workload: Workload, seed: int, n_days: int
) -> tuple[RecordStore, ClusterSimulation]:
    """Generate ``n_days`` of corpus and run the cluster to day W+3."""
    store = RecordStore()
    NetnewsGenerator(
        TextWorkloadConfig(
            docs_per_day=workload.docs_per_day,
            words_per_doc=WORDS_PER_DOC,
            vocabulary=workload.vocabulary,
            zipf_s=ZIPF_S,
            seed=seed,
        )
    ).populate(store, 1, n_days)
    scheme_cls = scheme_by_name(workload.scheme)
    sim = ClusterSimulation(
        lambda: scheme_cls(WINDOW, N_INDEXES),
        store,
        technique=(
            UpdateTechnique.IN_PLACE
            if workload.scheme == "DEL"
            else UpdateTechnique.SIMPLE_SHADOW
        ),
        cluster=ClusterConfig(
            n_shards=N_SHARDS,
            replication=1,
            page_cache_bytes=workload.page_cache_bytes,
        ),
    )
    sim.run_start()
    for day in range(WINDOW + 1, WINDOW + SETUP_TURNS + 1):
        sim.run_transition(day)
    return store, sim


class CoordPath:
    """In-process access: straight into ``ClusterCoordinator``."""

    server = None
    clients: tuple = ()

    def __init__(self, sim: ClusterSimulation) -> None:
        self.sim = sim

    async def probe(self, spec: ProbeSpec) -> Any:
        return self.sim.coordinator.probe_many([spec]).results[0]

    async def scan(self, spec: ScanSpec) -> Any:
        return self.sim.coordinator.scan_many([spec]).results[0]

    async def throughput(
        self, specs: list[ProbeSpec], keep: set[int]
    ) -> tuple[dict[int, Any], int]:
        """Serve ``specs`` in ``probe_many`` batches; keep sampled answers."""
        kept: dict[int, Any] = {}
        failed = 0
        probe_many = self.sim.coordinator.probe_many
        for start in range(0, len(specs), BATCH):
            try:
                results = probe_many(specs[start:start + BATCH]).results
            except ReproError:
                failed += min(BATCH, len(specs) - start)
                continue
            for i in keep.intersection(range(start, start + len(results))):
                kept[i] = results[i - start]
        return kept, failed

    async def close(self) -> None:
        return None


class TcpPath:
    """``FrontendClient`` connections to a ``FrontendServer`` on loopback.

    Server, clients and driver share this process and its event loop, so
    the numbers are loopback numbers on shared cores: no network, and
    the client's CPU competes with the server's.
    """

    def __init__(
        self, sim: ClusterSimulation, server: FrontendServer,
        clients: list[FrontendClient],
    ) -> None:
        self.sim = sim
        self.server = server
        self.clients = clients

    @classmethod
    async def start(cls, sim: ClusterSimulation) -> "TcpPath":
        server = FrontendServer(sim.coordinator, AdmissionConfig())
        await server.start()
        clients = [
            await FrontendClient().connect("127.0.0.1", server.port)
            for _ in range(CONNECTIONS)
        ]
        return cls(sim, server, clients)

    async def probe(self, spec: ProbeSpec) -> Any:
        return await self.clients[0].probe(*spec)

    async def scan(self, spec: ScanSpec) -> Any:
        return await self.clients[0].scan(*spec)

    async def throughput(
        self, specs: list[ProbeSpec], keep: set[int]
    ) -> tuple[dict[int, Any], int]:
        """Closed loop: each caller sends its next probe on its reply."""
        kept: dict[int, Any] = {}
        failed = 0
        queue = iter(enumerate(specs))

        async def caller(client: FrontendClient) -> None:
            nonlocal failed
            for i, spec in queue:
                try:
                    result = await client.probe(*spec)
                except ReproError:
                    failed += 1
                    continue
                if i in keep:
                    kept[i] = result

        await asyncio.gather(
            *(
                caller(client)
                for client in self.clients
                for _ in range(CALLERS_PER_CONNECTION)
            )
        )
        return kept, failed

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.drain_and_close()


async def open_path(workload: Workload, sim: ClusterSimulation) -> Any:
    """Return the workload's access path over ``sim``."""
    if workload.path == "tcp":
        return await TcpPath.start(sim)
    return CoordPath(sim)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


class Requests:
    """Seeded request blocks; the same seed yields the same blocks.

    A block's values are the distribution's own quantiles, not draws
    from it: a block of ``n`` Zipf-ranked values holds the rank at the
    midpoint of each of ``n`` equal-probability slices of the Zipf CDF,
    and a block of rare values holds ``n`` ranks evenly spaced over the
    rarer half of the lexicon.  The seed sets the order they are sent
    in (and, as the corpus seed, what they find).  Drawn at random, 32
    Zipf values hold the commonest word three times or four depending
    on the seed, and that alone moved ``day-turn``'s
    ``post_turn_probe_ms`` by 7 % from seed to seed.  A block sends the
    same values every round; only the window they are asked over moves.
    """

    def __init__(self, workload: Workload, query_seed: int) -> None:
        self.workload = workload
        self.query_seed = query_seed
        vocabulary = workload.vocabulary
        weights = [1.0 / rank**ZIPF_S for rank in range(1, vocabulary + 1)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for w in weights:
            acc += w
            self._cdf.append(acc / total)
        self._cdf[-1] = 1.0

    def _rng(self, *key: object) -> random.Random:
        return random.Random(":".join(map(str, (self.query_seed, *key))))

    def probes(self, day: int, block: str, n: int) -> list[ProbeSpec]:
        """Return ``n`` whole-window probes for ``block``: the same
        values every round, over the window that ends at ``day``."""
        rng = self._rng(block)
        vocabulary = self.workload.vocabulary
        if self.workload.values == "rare":
            first = vocabulary // 2 + 1
            ranks = [first + i * (vocabulary - first + 1) // n for i in range(n)]
        else:
            ranks = [
                bisect.bisect_left(self._cdf, (i + 0.5) / n) + 1 for i in range(n)
            ]
        rng.shuffle(ranks)
        t1 = day - WINDOW + 1
        return [(f"w{rank}", t1, day) for rank in ranks]

    def sample(self, round_index: int, block: str, n: int) -> set[int]:
        """Return the indexes of ``block``'s answers the oracle checks."""
        rng = self._rng(block, "oracle", round_index)
        return set(rng.sample(range(n), max(1, round(n * ORACLE_SHARE))))
