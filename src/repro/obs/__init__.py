"""Dependency-free observability: metrics, SLOs, dashboards.

The public surface is the registry/primitive layer (:mod:`.metrics`)
and the SLO definitions (:mod:`.slo`), which read one scrape.  Per-cell
phase timing is not here: it lives with the engines, in
:mod:`repro.local.context`, so the paper's layers never import this
package.  The HTML dashboard renderer lives in
:mod:`repro.obs.dashboard` and is imported explicitly by the CLI — it
is presentation, not instrumentation, and nothing in the service path
should pull it in.  Metrics over time are two saved scrapes compared
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
    parse_exposition_types,
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
    "parse_exposition_types",
]
