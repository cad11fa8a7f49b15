"""TPC-D–style warehouse workload: LINEITEM/ORDERS generation.

The paper's third case study builds a wave index on ``LINEITEM.SUPPKEY``
over a 100-day window, with daily arrival batches and query Q1 (the
"Pricing Summary Report") as the analytical workload.  The official dbgen
tool and data are unavailable offline, so this module generates rows
following the TPC-D column domains that matter here (DESIGN.md substitution
table): uniform ``SUPPKEY`` (hence CONTIGUOUS ``g = 1.08``), realistic
quantity/price/discount/tax distributions, and R/A/N × O/F flag structure
for Q1's grouping.

Everything is seeded and deterministic per day.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from zlib import crc32

from ..core.records import DayBatch, Record, RecordStore
from ..errors import WorkloadError

#: TPC-D scale-factor-1 supplier population.
DEFAULT_SUPPLIERS = 10_000

_RETURN_FLAGS = ("R", "A", "N")
_LINE_STATUSES = ("O", "F")
_SHIP_MODES = ("RAIL", "AIR", "TRUCK", "MAIL", "SHIP", "FOB", "REG AIR")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")


@dataclass(frozen=True)
class LineItem:
    """One LINEITEM row (the columns Q1 and the SUPPKEY index need)."""

    orderkey: int
    linenumber: int
    suppkey: int
    partkey: int
    quantity: int
    extendedprice: float
    discount: float
    tax: float
    returnflag: str
    linestatus: str
    shipdate: int  # day number: arrival day of the batch
    commitdate: int
    receiptdate: int
    shipmode: str


@dataclass(frozen=True)
class Order:
    """One ORDERS row (kept for schema completeness / examples)."""

    orderkey: int
    custkey: int
    orderdate: int
    totalprice: float
    orderpriority: str


@dataclass(frozen=True)
class TpcdConfig:
    """Generator settings.

    Attributes:
        rows_per_day: LINEITEM rows arriving per day.
        suppliers: SUPPKEY domain size (uniform distribution over it).
        customers: CUSTKEY domain size for ORDERS.
        seed: Master seed.
    """

    rows_per_day: int = 1_000
    suppliers: int = DEFAULT_SUPPLIERS
    customers: int = 15_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows_per_day < 0:
            raise WorkloadError("rows_per_day must be >= 0")
        if self.suppliers < 1 or self.customers < 1:
            raise WorkloadError("domains must be >= 1")


class TpcdGenerator:
    """Daily LINEITEM/ORDERS batches with TPC-D column domains."""

    def __init__(self, config: TpcdConfig | None = None) -> None:
        self.config = config or TpcdConfig()
        self._next_orderkey = 1

    def _rng_for(self, day: int) -> random.Random:
        # crc32, not hash(): builtin string hashing is salted per process.
        return random.Random(crc32(f"{self.config.seed}:tpcd:{day}".encode()))

    def generate_day(self, day: int) -> tuple[list[Order], list[LineItem]]:
        """Return the orders and line items arriving on ``day``."""
        cfg = self.config
        rng = self._rng_for(day)
        orders: list[Order] = []
        items: list[LineItem] = []
        rows_left = cfg.rows_per_day
        while rows_left > 0:
            orderkey = self._next_orderkey
            self._next_orderkey += 1
            lines = min(rows_left, rng.randint(1, 7))
            rows_left -= lines
            total = 0.0
            for linenumber in range(1, lines + 1):
                quantity = rng.randint(1, 50)
                price = round(quantity * rng.uniform(900.0, 105_000.0) / 50, 2)
                item = LineItem(
                    orderkey=orderkey,
                    linenumber=linenumber,
                    suppkey=rng.randint(1, cfg.suppliers),
                    partkey=rng.randint(1, cfg.suppliers * 20),
                    quantity=quantity,
                    extendedprice=price,
                    discount=round(rng.uniform(0.0, 0.10), 2),
                    tax=round(rng.uniform(0.0, 0.08), 2),
                    returnflag=rng.choice(_RETURN_FLAGS),
                    linestatus=rng.choice(_LINE_STATUSES),
                    shipdate=day,
                    commitdate=day + rng.randint(7, 60),
                    receiptdate=day + rng.randint(1, 30),
                    shipmode=rng.choice(_SHIP_MODES),
                )
                items.append(item)
                total += item.extendedprice
            orders.append(
                Order(
                    orderkey=orderkey,
                    custkey=rng.randint(1, cfg.customers),
                    orderdate=day,
                    totalprice=round(total, 2),
                    orderpriority=rng.choice(_PRIORITIES),
                )
            )
        return orders, items

    def lineitem_batch(self, day: int, *, bytes_per_row: int = 120) -> DayBatch:
        """Return ``day``'s line items as an indexable batch on SUPPKEY.

        Each record carries its line item as the entry payload would in a
        covering index; the record id packs (orderkey, linenumber).
        """
        _, items = self.generate_day(day)
        records = [
            Record(
                record_id=item.orderkey * 10 + item.linenumber,
                day=day,
                values=(item.suppkey,),
                nbytes=bytes_per_row,
            )
            for item in items
        ]
        return DayBatch(day=day, records=records)

    def populate(self, store: RecordStore, first_day: int, last_day: int) -> None:
        """Add LINEITEM batches for ``first_day .. last_day`` to ``store``."""
        for day in range(first_day, last_day + 1):
            store.add_batch(self.lineitem_batch(day))


def build_lineitem_store(num_days: int, config: TpcdConfig | None = None) -> RecordStore:
    """Convenience: a store with LINEITEM batches for days ``1..num_days``."""
    store = RecordStore()
    TpcdGenerator(config).populate(store, 1, num_days)
    return store
