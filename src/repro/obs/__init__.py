"""Dependency-free observability: metrics, scrape history, SLOs, dashboards.

The public surface is the registry/primitive layer (:mod:`.metrics`),
the scrape history (:mod:`.timeseries`) and the SLO definitions
(:mod:`.slo`).  Per-cell phase timing is not here: it lives with the
engines, in :mod:`repro.local.context`, so the paper's layers never
import this package.  The HTML dashboard renderer lives in
:mod:`repro.obs.dashboard` and is imported explicitly by the CLI — it
is presentation, not instrumentation, and nothing in the service path
should pull it in.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
    histogram_quantile,
    parse_exposition,
    parse_exposition_types,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLO,
    SLOBurnResult,
    SLOResult,
    Window,
    evaluate_slos,
    evaluate_slos_windowed,
)
from repro.obs.timeseries import (
    ScrapeHistory,
    ScrapePoint,
    counter_increase,
    counter_rate,
    gauge_delta,
    load_history_jsonl,
    parse_duration,
    points_from_payload,
    windowed_quantile,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SLOS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLO",
    "SLOBurnResult",
    "SLOResult",
    "Sample",
    "ScrapeHistory",
    "ScrapePoint",
    "Window",
    "counter_increase",
    "counter_rate",
    "evaluate_slos",
    "evaluate_slos_windowed",
    "gauge_delta",
    "histogram_quantile",
    "load_history_jsonl",
    "parse_duration",
    "parse_exposition",
    "parse_exposition_types",
    "points_from_payload",
    "windowed_quantile",
]
