"""The serving bench counts what every grid cell's batches read."""

import pytest

from repro.bench import serving
from repro.core.wave import WaveIndex


@pytest.mark.parametrize("cache_bytes", [None, 8192], ids=["uncached", "cached"])
def test_an_unbatched_cell_counts_the_buckets_its_batches_read(
    monkeypatch, cache_bytes
):
    config = serving.quick_config(serving.ServingBenchConfig(probes=60))
    sim = serving._build_window(config, cache_bytes)
    values = serving._zipf_values(config, config.corpus.vocabulary)
    read = []
    real = WaveIndex.probe_many

    def counted(self, requests, **kwargs):
        batch = real(self, requests, **kwargs)
        read.append(batch.summary.buckets_read)
        return batch

    monkeypatch.setattr(WaveIndex, "probe_many", counted)
    cell = serving._replay(sim, config, values, 1)
    assert len(read) == len(values)  # a batch of one per probe
    assert cell["buckets_read"] > 0
    assert cell["buckets_read"] == sum(read)
