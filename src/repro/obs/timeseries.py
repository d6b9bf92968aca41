"""Retained scrape history and PromQL-style window queries over it.

A :class:`ScrapeHistory` snapshots one :class:`MetricsRegistry` into a
ring buffer on a configurable interval — a background thread in the
long-lived sweep server (``ResultCollector``) — with an
optional on-disk JSONL spill for post-mortems.  Each retained point is
the full Prometheus text exposition plus its wall-clock timestamp, so
anything that can read one scrape can read the history.

On top of the retained points this module provides the window queries a
single cumulative scrape cannot answer: :func:`counter_increase` /
:func:`counter_rate` for counters, :func:`gauge_delta` for gauges, and
:func:`windowed_quantile` for histograms via bucket deltas between the
window endpoints.  Every query returns ``None`` — never a guess — when
the window holds fewer than two points, the series is absent, or a
counter reset makes the delta meaningless.

The JSONL spill format is one ``{"unix_s": <float>, "metrics": "<text>"}``
object per line; ``metrics --history --out FILE`` writes it and both
``slo_burn_check.py --history`` and ``dashboard`` read it back.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.obs.metrics import (
    MetricsRegistry,
    Sample,
    histogram_quantile,
    parse_exposition,
    samples_named,
)

__all__ = [
    "DEFAULT_HISTORY_CAPACITY",
    "DEFAULT_SCRAPE_INTERVAL_S",
    "MAX_HISTORY_POINTS_PER_RESPONSE",
    "ScrapeHistory",
    "ScrapePoint",
    "bucket_counts",
    "counter_increase",
    "counter_rate",
    "gauge_delta",
    "load_history_jsonl",
    "parse_duration",
    "points_from_payload",
    "points_in_window",
    "windowed_quantile",
]

#: Default seconds between background snapshots.
DEFAULT_SCRAPE_INTERVAL_S = 5.0

#: Default ring-buffer depth: one hour of history at the default interval.
DEFAULT_HISTORY_CAPACITY = 720

#: Hard cap on points returned by one ``metrics_history`` response, so a
#: long-running service cannot push a reply past the transport's framed
#: line limit.  Clients page by window instead.
MAX_HISTORY_POINTS_PER_RESPONSE = 360


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_samples(samples: Iterable[Sample]) -> str:
    """Minimal exposition text (sample lines only) for in-memory points,
    so a point built via :meth:`ScrapePoint.from_samples` still
    serialises losslessly through :meth:`ScrapePoint.to_record`."""
    lines = []
    for sample in samples:
        label_text = ""
        if sample.labels:
            pairs = ",".join(
                f'{key}="{_escape_label(str(value))}"'
                for key, value in sample.labels
            )
            label_text = "{" + pairs + "}"
        lines.append(f"{sample.name}{label_text} {float(sample.value)!r}")
    return "\n".join(lines) + ("\n" if lines else "")


class ScrapePoint:
    """One retained scrape: a timestamp plus the full exposition text."""

    __slots__ = ("unix_s", "text", "_samples")

    def __init__(self, unix_s: float, text: str) -> None:
        self.unix_s = float(unix_s)
        self.text = text
        self._samples: tuple[Sample, ...] | None = None

    @classmethod
    def from_samples(cls, unix_s: float, samples: Iterable[Sample]) -> "ScrapePoint":
        """A point built from already-parsed samples (no exposition text)."""
        point = cls(unix_s, "")
        point._samples = tuple(samples)
        return point

    @property
    def samples(self) -> tuple[Sample, ...]:
        if self._samples is None:
            self._samples = tuple(parse_exposition(self.text))
        return self._samples

    def to_record(self) -> dict:
        text = self.text
        if not text and self._samples:
            text = _render_samples(self._samples)
        return {"unix_s": self.unix_s, "metrics": text}

    @classmethod
    def from_record(cls, record: Mapping) -> "ScrapePoint":
        return cls(float(record["unix_s"]), str(record["metrics"]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScrapePoint(unix_s={self.unix_s:.3f}, {len(self.text)} bytes)"


class ScrapeHistory:
    """A ring buffer of registry snapshots with a background scraper.

    ``capacity`` bounds retention (oldest points are evicted), and
    ``spill_path`` — when given — appends every snapshot as one JSONL
    record so a post-mortem can outlive the process.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float = DEFAULT_SCRAPE_INTERVAL_S,
        capacity: int = DEFAULT_HISTORY_CAPACITY,
        spill_path: str | Path | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"history capacity must be >= 1, got {capacity}")
        self.registry = registry
        self.interval_s = float(interval_s)
        self.capacity = int(capacity)
        self.spill_path = Path(spill_path) if spill_path is not None else None
        self._points: deque[ScrapePoint] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    def snapshot(self, now: float | None = None) -> ScrapePoint:
        """Scrape the registry into the buffer (and the spill) right now."""
        point = ScrapePoint(
            time.time() if now is None else now, self.registry.render()
        )
        with self._lock:
            self._points.append(point)
        if self.spill_path is not None:
            self.spill_path.parent.mkdir(parents=True, exist_ok=True)
            with self.spill_path.open("a", encoding="utf-8") as spill:
                spill.write(json.dumps(point.to_record()) + "\n")
        return point

    def start(self) -> None:
        """Start the background snapshot thread (first scrape immediate)."""
        if self.interval_s <= 0:
            raise ValueError(
                f"scrape interval must be > 0 to start, got {self.interval_s}"
            )
        if self._thread is not None:
            return
        self._stop.clear()
        self.snapshot()
        self._thread = threading.Thread(
            target=self._run, name="scrape-history", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.snapshot()

    def stop(self) -> None:
        """Stop the background thread (idempotent; final state retained)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def points(
        self, window_s: float | None = None, now: float | None = None
    ) -> list[ScrapePoint]:
        """Retained points, optionally restricted to a trailing window."""
        with self._lock:
            points = list(self._points)
        return points_in_window(points, window_s, now)

    def payload(
        self,
        window_s: float | None = None,
        max_points: int | None = None,
        now: float | None = None,
    ) -> dict:
        """The ``metrics_history`` response body: bounded, most recent last."""
        points = self.points(window_s, now)
        cap = MAX_HISTORY_POINTS_PER_RESPONSE
        if max_points is not None:
            cap = max(1, min(int(max_points), cap))
        truncated = len(points) > cap
        if truncated:
            points = points[-cap:]
        return {
            "interval_s": self.interval_s,
            "capacity": self.capacity,
            "retained": len(self),
            "truncated": truncated,
            "points": [point.to_record() for point in points],
        }


# ----------------------------------------------------------------------
# window selection and (de)serialisation
# ----------------------------------------------------------------------

def points_in_window(
    points: Sequence[ScrapePoint],
    window_s: float | None = None,
    now: float | None = None,
) -> list[ScrapePoint]:
    """The points inside the trailing window ending at ``now``.

    ``now`` defaults to the newest point's own timestamp, so a saved
    history evaluates the same way regardless of when it is re-read.
    """
    ordered = sorted(points, key=lambda point: point.unix_s)
    if window_s is None or not ordered:
        return ordered
    end = ordered[-1].unix_s if now is None else now
    cutoff = end - float(window_s)
    return [point for point in ordered if cutoff <= point.unix_s <= end]


def points_from_payload(payload: Mapping) -> list[ScrapePoint]:
    """Rebuild points from a ``metrics_history`` verb response."""
    records = payload.get("points", [])
    if not isinstance(records, list):
        raise ValueError("metrics_history payload: 'points' must be a list")
    return [ScrapePoint.from_record(record) for record in records]


def load_history_jsonl(path: str | Path) -> list[ScrapePoint]:
    """Read a JSONL spill (one ``{unix_s, metrics}`` object per line)."""
    points: list[ScrapePoint] = []
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                points.append(ScrapePoint.from_record(record))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad history record: {exc}"
                ) from exc
    return points


_DURATION = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_duration(text: str) -> float:
    """``"30s"`` / ``"5m"`` / ``"1h"`` / ``"2d"`` (or bare seconds) → seconds."""
    cleaned = str(text).strip()
    suffix = cleaned[-1:].lower()
    if suffix in _DURATION:
        number, scale = cleaned[:-1], _DURATION[suffix]
    else:
        number, scale = cleaned, 1.0
    try:
        seconds = float(number) * scale
    except ValueError:
        raise ValueError(
            f"bad duration {text!r} (use e.g. 30s, 5m, 1h)"
        ) from None
    if seconds <= 0:
        raise ValueError(f"duration must be positive, got {text!r}")
    return seconds


# ----------------------------------------------------------------------
# window queries
# ----------------------------------------------------------------------

def _matching_value(
    samples: Sequence[Sample], name: str, labels: Mapping[str, str]
) -> float | None:
    """Sum of ``name`` samples matching the label subset; None if absent."""
    matched = [
        sample
        for sample in samples_named(samples, name)
        if all(sample.label(key) == str(value) for key, value in labels.items())
    ]
    if not matched:
        return None
    return sum(sample.value for sample in matched)


def _window_ends(
    points: Sequence[ScrapePoint],
    window_s: float | None,
    now: float | None,
) -> tuple[ScrapePoint, ScrapePoint] | None:
    pts = points_in_window(points, window_s, now)
    if len(pts) < 2:
        return None
    return pts[0], pts[-1]


def counter_increase(
    points: Sequence[ScrapePoint],
    name: str,
    window_s: float | None = None,
    now: float | None = None,
    **labels: str,
) -> float | None:
    """``increase()``: how much a counter grew across the window.

    ``None`` when the window has fewer than two points, the series is
    absent at the window end, or the counter reset (end < start).  A
    series born mid-window counts from zero, as in PromQL.
    """
    ends = _window_ends(points, window_s, now)
    if ends is None:
        return None
    first, last = ends
    end_value = _matching_value(last.samples, name, labels)
    if end_value is None:
        return None
    start_value = _matching_value(first.samples, name, labels)
    if start_value is None:
        start_value = 0.0
    if end_value < start_value:
        return None  # counter reset mid-window: the delta is meaningless
    return end_value - start_value


def counter_rate(
    points: Sequence[ScrapePoint],
    name: str,
    window_s: float | None = None,
    now: float | None = None,
    **labels: str,
) -> float | None:
    """``rate()``: per-second counter growth across the window."""
    ends = _window_ends(points, window_s, now)
    if ends is None:
        return None
    first, last = ends
    span_s = last.unix_s - first.unix_s
    if span_s <= 0:
        return None
    increase = counter_increase(points, name, window_s, now, **labels)
    if increase is None:
        return None
    return increase / span_s


def gauge_delta(
    points: Sequence[ScrapePoint],
    name: str,
    window_s: float | None = None,
    now: float | None = None,
    **labels: str,
) -> float | None:
    """``delta()``: gauge value at the window end minus the start.

    Unlike counters, a gauge absent at either endpoint yields ``None``
    (there is no meaningful zero to count from) and negative deltas are
    legitimate.
    """
    ends = _window_ends(points, window_s, now)
    if ends is None:
        return None
    start_value = _matching_value(ends[0].samples, name, labels)
    end_value = _matching_value(ends[1].samples, name, labels)
    if start_value is None or end_value is None:
        return None
    return end_value - start_value


def bucket_counts(
    samples: Sequence[Sample], name: str, **labels: str
) -> dict[float, float]:
    """Cumulative ``(le → count)`` for one histogram family, pooled
    across every label combination matching the ``labels`` subset."""
    buckets: dict[float, float] = {}
    for sample in samples_named(samples, name + "_bucket"):
        le = sample.label("le")
        if le is None:
            continue
        if not all(sample.label(k) == str(v) for k, v in labels.items()):
            continue
        bound = math.inf if le == "+Inf" else float(le)
        buckets[bound] = buckets.get(bound, 0.0) + sample.value
    return buckets


def windowed_quantile(
    points: Sequence[ScrapePoint],
    name: str,
    quantile: float,
    window_s: float | None = None,
    now: float | None = None,
    **labels: str,
) -> float | None:
    """A histogram quantile over only the observations inside the window.

    Computed from per-bucket deltas between the window endpoints — the
    ``histogram_quantile(rate(..._bucket[w]))`` estimate.  ``None`` when
    the window has fewer than two points, no new observations landed in
    it, or any bucket went backwards (a reset).
    """
    ends = _window_ends(points, window_s, now)
    if ends is None:
        return None
    start = bucket_counts(ends[0].samples, name, **labels)
    end = bucket_counts(ends[1].samples, name, **labels)
    if not end:
        return None
    deltas: dict[float, float] = {}
    for bound, end_count in end.items():
        delta = end_count - start.get(bound, 0.0)
        if delta < 0:
            return None  # histogram reset mid-window
        deltas[bound] = delta
    return histogram_quantile(quantile, deltas.items())
