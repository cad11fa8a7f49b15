"""Cost-aware query routing across divergently-tuned replicas.

With divergent designs, replicas of one shard hold the *same days* under
*different* (scheme, n) layouts, so every healthy replica returns the
same answer at a different price.  The router prices each candidate from
its live structure — no workload state, just the wave's constituent
day-sets — and picks the cheapest:

* a **probe** touches every constituent overlapping the query range at
  one seek plus the overlapping bucket bytes, so its key is
  ``(overlapping constituents, overlapping days)`` — fewer seeks first;
* a **scan** streams each overlapping constituent end to end, so its key
  is ``(total days of overlapping constituents, overlapping count)`` —
  fewer bytes first.

Ties break to the lowest replica id, which is exactly the legacy
``shard.primary`` choice — so routing over uniform replicas degenerates
to the old behaviour and answers stay bit-identical by construction.

Fallback order on failure (documented in DESIGN.md): cost-preferred
among healthy replicas → breaker policy (when a health monitor is
active, *it* owns replica choice and the router only breaks the tie
among equally-healthy candidates) → any healthy replica → degraded
last-replica answers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.shard import Shard, ShardReplica


class DesignRouter:
    """Structural cost routing over a shard's replicas."""

    def cost_key(
        self, replica: "ShardReplica", t1: int, t2: int, kind: str
    ) -> tuple[float, float, int]:
        """Return the ordering key for serving ``kind`` on ``replica``."""
        overlapping = 0
        overlap_days = 0
        total_days = 0
        for index in replica.wave.live_constituents():
            hit = sum(1 for d in index.time_set if t1 <= d <= t2)
            if hit:
                overlapping += 1
                overlap_days += hit
                total_days += len(index.time_set)
        if kind == "probe":
            return (overlapping, overlap_days, replica.replica_id)
        return (total_days, overlapping, replica.replica_id)

    def choose(
        self,
        shard: "Shard",
        t1: int,
        t2: int,
        kind: str,
        *,
        candidates: Sequence["ShardReplica"] | None = None,
    ) -> "ShardReplica | None":
        """Return the cheapest replica for ``[t1, t2]``.

        ``candidates`` restricts the choice (the failover loop passes the
        replicas not yet excluded for the request); by default every
        replica the shard holds — a retired one has left it — is
        considered.  Returns ``None`` when none is left.
        """
        pool = candidates if candidates is not None else shard.replicas
        if not pool:
            return None
        if len(pool) == 1:
            return pool[0]
        return min(pool, key=lambda r: self.cost_key(r, t1, t2, kind))
