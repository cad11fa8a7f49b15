"""Stock-trade workload: the introduction's financial example.

"A financial institution may keep an index of the stock market trades of
the past 7 days" — this generator produces daily batches of trades keyed by
ticker symbol, with the trade amount stored as the entry's associated
information so aggregate scans (sum/min/max per Section 2) have something
to fold.

Symbol popularity is Zipfian (a few tickers dominate volume), prices follow
a per-symbol random walk, and everything is seeded per day.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from zlib import crc32

from ..core.records import DayBatch, Record, RecordStore
from ..errors import WorkloadError
from .zipf import ZipfSampler

#: A compact default ticker universe.
DEFAULT_SYMBOLS: tuple[str, ...] = (
    "AAA", "BBN", "CMP", "DLT", "EXO", "FNX", "GGR", "HLM",
    "INK", "JZZ", "KLO", "LMN", "MST", "NVA", "OPL", "PQR",
)


@dataclass(frozen=True)
class TradesConfig:
    """Settings for the trade generator.

    Attributes:
        trades_per_day: Trades generated each day.
        symbols: Ticker universe; popularity is Zipfian over this order.
        base_price: Starting price for every symbol's random walk.
        volatility: Daily relative price drift bound.
        seed: Master seed.
    """

    trades_per_day: int = 500
    symbols: tuple[str, ...] = DEFAULT_SYMBOLS
    base_price: float = 100.0
    volatility: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trades_per_day < 0:
            raise WorkloadError("trades_per_day must be >= 0")
        if not self.symbols:
            raise WorkloadError("need at least one symbol")
        if self.base_price <= 0 or self.volatility < 0:
            raise WorkloadError("invalid price parameters")


class TradeGenerator:
    """Daily batches of trades; entry info = notional trade amount."""

    def __init__(self, config: TradesConfig | None = None) -> None:
        self.config = config or TradesConfig()
        self._next_trade_id = 1
        self._prices: dict[str, float] = {
            s: self.config.base_price for s in self.config.symbols
        }

    def generate_day(self, day: int) -> DayBatch:
        """Generate ``day``'s trades (deterministic given prior days)."""
        cfg = self.config
        # crc32, not hash(): builtin string hashing is salted per process.
        rng = random.Random(crc32(f"{cfg.seed}:trades:{day}".encode()))
        sampler = ZipfSampler(
            len(cfg.symbols), s=1.1, seed=hash((cfg.seed, day)) & 0x7FFFFFFF
        )
        # Drift each symbol's price once per day.
        for symbol in cfg.symbols:
            drift = 1.0 + rng.uniform(-cfg.volatility, cfg.volatility)
            self._prices[symbol] = max(0.01, self._prices[symbol] * drift)

        records = []
        for _ in range(cfg.trades_per_day):
            symbol = cfg.symbols[sampler.sample() - 1]
            shares = rng.randint(1, 1000)
            price = self._prices[symbol] * (1 + rng.uniform(-0.005, 0.005))
            amount = round(shares * price, 2)
            records.append(
                Record(
                    record_id=self._next_trade_id,
                    day=day,
                    values=(symbol,),
                    nbytes=64,
                    info=amount,
                )
            )
            self._next_trade_id += 1
        return DayBatch(day=day, records=records)

    def populate(self, store: RecordStore, first_day: int, last_day: int) -> None:
        """Add trade batches for ``first_day .. last_day``."""
        for day in range(first_day, last_day + 1):
            store.add_batch(self.generate_day(day))


def build_trades_store(
    num_days: int, config: TradesConfig | None = None
) -> RecordStore:
    """Convenience: a store with trade batches for days ``1..num_days``."""
    store = RecordStore()
    TradeGenerator(config).populate(store, 1, num_days)
    return store
