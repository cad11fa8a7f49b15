"""Seeded corpora are the same in every interpreter.

Builtin ``hash()`` of a ``str`` is salted per process (``PYTHONHASHSEED``),
so a generator that seeds its day's ``random.Random`` from one draws a
different corpus in every process.  The same seed must give the same
batches whatever the hash seed.
"""

import os
import subprocess
import sys

import repro

PROBE = """
import sys
sys.path.insert(0, {src!r})
from repro.workloads.tpcd import TpcdConfig, TpcdGenerator
from repro.workloads.trades import TradeGenerator, TradesConfig
tpcd = TpcdGenerator(TpcdConfig(rows_per_day=20, suppliers=50, seed=3))
trades = TradeGenerator(TradesConfig(trades_per_day=20, seed=3))
for day in (1, 2):
    print(repr(tpcd.generate_day(day)))
    print(repr(trades.generate_day(day)))
"""


def _batches(hash_seed: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return subprocess.run(
        [sys.executable, "-c", PROBE.format(src=src)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    ).stdout


def test_tpcd_and_trades_batches_ignore_the_hash_seed():
    first = _batches("1")
    assert "LineItem" in first and "Record" in first
    assert _batches("2") == first
