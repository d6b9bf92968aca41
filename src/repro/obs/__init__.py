"""Dependency-free observability: metrics, SLOs, dashboards.

The public surface is the registry the sweep server instruments
(:mod:`.metrics`: counters, gauges and histograms, rendered as one
Prometheus-text scrape), the parser that reads a scrape back, and the
SLOs evaluated over one scrape (:mod:`.slo`).  Per-cell phase timing is
not here: it lives with the engines, in :mod:`repro.local.context`, so
the paper's layers never import this package.  The HTML pages live in
:mod:`repro.obs.dashboard`, which the CLI imports explicitly: they are
presentation, not instrumentation, and nothing in the service path
should pull them in.  Metrics over time are two saved scrapes compared
by ``dashboard --diff``.
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
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLO,
    SLOResult,
    evaluate_slos,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SLOS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLO",
    "SLOResult",
    "Sample",
    "evaluate_slos",
    "histogram_quantile",
    "parse_exposition",
]
