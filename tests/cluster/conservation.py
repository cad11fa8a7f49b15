"""Cluster-wide byte conservation, checked from outside the cluster.

Every device that has not failed holds exactly the bytes pinned by the
bindings of the replicas ``sim.shards`` holds: a retired replica has left
its shard and freed what it held on its healthy devices, a replaced
parent or retuned-away wave was discarded, and a failed rebuild swept its
spares.  A failed device keeps its bindings and their accounting, so it
is not judged.
"""

from __future__ import annotations


def pinned_by_device(sim) -> dict:
    """Return the bytes each device's bindings pin, over the replicas the
    cluster's shards hold."""
    pinned: dict = {}
    for shard in sim.shards:
        for replica in shard.replicas:
            for index in replica.wave.bindings.values():
                pinned[index.disk] = (
                    pinned.get(index.disk, 0) + index.allocated_bytes
                )
    return pinned


def assert_bytes_conserved(sim) -> None:
    """Assert every healthy device of ``sim.array`` holds what the
    replicas in service pin on it, and nothing else."""
    pinned = pinned_by_device(sim)
    for i, device in enumerate(sim.array.devices):
        if device.failed:
            continue
        assert device.live_bytes == pinned.get(device, 0), (
            f"device {i} holds {device.live_bytes} live bytes but the "
            f"replicas in service pin {pinned.get(device, 0)} there"
        )
