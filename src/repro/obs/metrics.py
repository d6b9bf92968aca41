"""In-process metrics primitives with Prometheus text exposition.

A :class:`MetricsRegistry` holds :class:`Counter` / :class:`Gauge` /
:class:`Histogram` families, each optionally labelled, and
:meth:`~MetricsRegistry.render` produces the standard Prometheus text
format (``# HELP`` / ``# TYPE`` lines, escaped label values, cumulative
histogram buckets).  The API is what the sweep server calls:
``labels(...)`` returns a family's child for one set of label values; a
counter child takes ``inc``, a gauge child ``inc``, ``dec`` and
``set_function`` (read at render time), a histogram child ``observe``.
An unlabelled family is its own one child, and forwards ``inc``
(counter), ``set_function`` (gauge) or ``observe`` (histogram) to it.
Everything is dependency-free stdlib and safe to update from the server
threads: one lock guards registration, one per family guards its
children, and one per child guards its value.

Exposition is deterministic — families sorted by name, children by
label values — so golden-file tests can pin the exact bytes.

:func:`parse_exposition` is the matching reader: it turns rendered text
back into :class:`Sample` values, which is what the SLOs, the
dashboard pages and the CI ingest-completeness assertion run on.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
    "histogram_quantile",
    "parse_exposition",
    "pooled_buckets",
]

#: Default histogram buckets for request/phase latencies, in seconds.
#: Sub-millisecond verbs (status, lease) through multi-second sweep phases.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Prometheus-style sample value: integral floats print as integers."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    return "+Inf" if bound == math.inf else _format_value(bound)


class _Metric:
    """One metric family: a name, a type, and children per label values."""

    type_name = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]) -> None:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}
        self._lock = threading.Lock()
        if not self.labelnames:
            # An unlabelled family is its own single child.
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labels: str):
        """The child for one combination of label values (created lazily)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def _default_child(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is labelled by {self.labelnames}; "
                f"call .labels(...) first"
            )
        return self._children[()]

    def _sorted_children(self) -> list[tuple[tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())

    def _label_text(self, values: tuple[str, ...], extra: str = "") -> str:
        pairs = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, values)
        ]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def render(self) -> Iterator[str]:
        yield f"# HELP {self.name} {_escape_help(self.help)}"
        yield f"# TYPE {self.name} {self.type_name}"
        for values, child in self._sorted_children():
            yield from self._render_child(values, child)

    def _render_child(self, values: tuple[str, ...], child) -> Iterator[str]:
        raise NotImplementedError


class _CounterValue:
    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount}) refused")
        with self._lock:
            self.value += amount


class Counter(_Metric):
    """A monotonically increasing count (requests, records, restarts)."""

    type_name = "counter"

    def _make_child(self) -> _CounterValue:
        return _CounterValue()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def _render_child(self, values, child) -> Iterator[str]:
        yield f"{self.name}{self._label_text(values)} {_format_value(child.value)}"


class _GaugeValue:
    __slots__ = ("value", "function", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self.function: Callable[[], float] | None = None
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, function: Callable[[], float]) -> None:
        """Read the gauge from ``function`` at render time (live depths)."""
        self.function = function

    @property
    def current(self) -> float:
        if self.function is not None:
            return float(self.function())
        return self.value


class Gauge(_Metric):
    """A value that can go up and down (queue depth, uptime, lag)."""

    type_name = "gauge"

    def _make_child(self) -> _GaugeValue:
        return _GaugeValue()

    def set_function(self, function: Callable[[], float]) -> None:
        self._default_child().set_function(function)

    def _render_child(self, values, child) -> Iterator[str]:
        yield f"{self.name}{self._label_text(values)} {_format_value(child.current)}"


class _HistogramValue:
    __slots__ = ("bounds", "counts", "sum", "count", "_lock")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            # Per-bucket (non-cumulative) counts; rendering accumulates.
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self.counts[index] += 1
                    break


class Histogram(_Metric):
    """A latency/size distribution with cumulative Prometheus buckets."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.bounds = bounds
        super().__init__(name, help, labelnames)

    def _make_child(self) -> _HistogramValue:
        return _HistogramValue(self.bounds)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def _render_child(self, values, child) -> Iterator[str]:
        with child._lock:
            counts = list(child.counts)
            total = child.count
            observed_sum = child.sum
        cumulative = 0
        for bound, count in zip(self.bounds, counts):
            cumulative += count
            label_text = self._label_text(
                values, f'le="{_format_le(bound)}"'
            )
            yield f"{self.name}_bucket{label_text} {cumulative}"
        yield f"{self.name}_sum{self._label_text(values)} {_format_value(observed_sum)}"
        yield f"{self.name}_count{self._label_text(values)} {total}"


class MetricsRegistry:
    """A named collection of metric families with one text exposition."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.type_name} with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, tuple(labelnames), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str, labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str, labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def render(self) -> str:
        """The full Prometheus text exposition (trailing newline included)."""
        with self._lock:
            families = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# reading exposition text back (SLO checks, CI assertions)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """One exposed sample: a name, its labels, and the value."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float

    def label(self, name: str, default: str | None = None) -> str | None:
        for key, value in self.labels:
            if key == name:
                return value
        return default


_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(text: str) -> str:
    return (
        text.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_exposition(text: str) -> list[Sample]:
    """Parse Prometheus text format back into samples.

    Comment (``# HELP`` / ``# TYPE``) and blank lines are skipped; any
    other unparseable line raises — a scrape that half-parses would make
    SLO checks silently vacuous.
    """
    samples: list[Sample] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        labels: list[tuple[str, str]] = []
        label_text = match.group("labels")
        if label_text:
            consumed = 0
            for pair in _LABEL_PAIR.finditer(label_text):
                labels.append((pair.group(1), _unescape_label_value(pair.group(2))))
                consumed = pair.end()
            remainder = label_text[consumed:].strip(", ")
            if remainder:
                raise ValueError(f"unparseable label text: {label_text!r}")
        samples.append(Sample(
            name=match.group("name"),
            labels=tuple(labels),
            value=_parse_value(match.group("value")),
        ))
    return samples


def samples_named(samples: Iterable[Sample], name: str) -> list[Sample]:
    """All samples of one metric name (bucket/sum/count names are exact)."""
    return [sample for sample in samples if sample.name == name]


def sum_samples(samples: Iterable[Sample], name: str, **labels: str) -> float:
    """Sum every sample of ``name`` whose labels include ``labels``."""
    total = 0.0
    for sample in samples_named(samples, name):
        if all(sample.label(key) == value for key, value in labels.items()):
            total += sample.value
    return total


def pooled_buckets(samples: Iterable[Sample], name: str) -> dict[float, float]:
    """Cumulative ``(le → count)`` of one histogram family, summed over
    every label set — the input :func:`histogram_quantile` takes for a
    p99 across all of a family's series."""
    buckets: dict[float, float] = {}
    for sample in samples_named(samples, name + "_bucket"):
        le = sample.label("le")
        if le is None:
            continue
        bound = math.inf if le == "+Inf" else float(le)
        buckets[bound] = buckets.get(bound, 0.0) + sample.value
    return buckets


def histogram_quantile(
    quantile: float, buckets: Iterable[tuple[float, float]]
) -> float | None:
    """Estimate a quantile from cumulative ``(le, count)`` histogram buckets.

    Linear interpolation within the bucket that crosses the target rank —
    the same estimate ``histogram_quantile()`` makes in PromQL.  Returns
    the sentinel ``None`` (never a guess) whenever the buckets cannot
    support an estimate:

    - the bucket set is empty, or the total count is zero;
    - the cumulative counts are non-monotone or negative (a half-reset
      or corrupted scrape — interpolating over it would fabricate data);
    - every observation sits in the ``+Inf`` bucket, so no finite bound
      constrains the value at all.

    A quantile landing in the ``+Inf`` bucket with *some* finite mass
    clamps to the largest finite bound: the estimate is then a lower
    bound, which is the conservative direction for an SLO check.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    ordered = sorted(buckets, key=lambda pair: pair[0])
    if not ordered or ordered[-1][1] <= 0:
        return None
    previous = 0.0
    for _, cumulative in ordered:
        if cumulative < previous:  # non-monotone: reject, don't extrapolate
            return None
        previous = cumulative
    total = ordered[-1][1]
    rank = quantile * total
    previous_bound = 0.0
    previous_count = 0.0
    for bound, cumulative in ordered:
        if cumulative >= rank:
            if bound == math.inf:
                finite = [
                    (b, c) for b, c in ordered if b != math.inf and c > 0
                ]
                return finite[-1][0] if finite else None
            if cumulative == previous_count:
                return bound
            fraction = (rank - previous_count) / (cumulative - previous_count)
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound, previous_count = bound, cumulative
    return previous_bound
