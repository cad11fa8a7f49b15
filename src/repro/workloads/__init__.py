"""Workload generators: Zipfian text, Usenet volume traces, TPC-D tables."""

from .keys import build_int_store
from .text import NetnewsGenerator, TextWorkloadConfig, build_store
from .tpcd import (
    DEFAULT_SUPPLIERS,
    LineItem,
    Order,
    TpcdConfig,
    TpcdGenerator,
    build_lineitem_store,
)
from .tpcd_queries import Q1Row, q1_pricing_summary, q1_rows_equal
from .trades import (
    DEFAULT_SYMBOLS,
    TradeGenerator,
    TradesConfig,
    build_trades_store,
)
from .usenet import (
    WEEKDAY_MEANS,
    day_weights,
    june_december_1997_volume,
    september_1997_volume,
    weekly_volume_trace,
    weight_fn,
)
from .zipf import ZipfSampler, heaps_vocabulary

__all__ = [
    "DEFAULT_SUPPLIERS",
    "DEFAULT_SYMBOLS",
    "TradeGenerator",
    "TradesConfig",
    "build_trades_store",
    "LineItem",
    "NetnewsGenerator",
    "Order",
    "Q1Row",
    "TextWorkloadConfig",
    "TpcdConfig",
    "TpcdGenerator",
    "WEEKDAY_MEANS",
    "ZipfSampler",
    "build_int_store",
    "build_lineitem_store",
    "build_store",
    "day_weights",
    "heaps_vocabulary",
    "june_december_1997_volume",
    "q1_pricing_summary",
    "q1_rows_equal",
    "september_1997_volume",
    "weekly_volume_trace",
    "weight_fn",
]
