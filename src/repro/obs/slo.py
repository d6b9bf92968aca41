"""Service-level objectives evaluated over one metrics scrape.

Each :class:`SLO` is a named predicate over the samples of one
Prometheus-text exposition.  Counters are cumulative since the server
started, so an objective reads lifetime totals: drops, malformed lines
and auth failures against a zero budget, the conflict share of every
ingested record, and the p99 of every request the server has answered.
To see what changed between two moments, save two scrapes and compare
them with ``dashboard --diff``.

``evaluate_slos`` runs every objective of :data:`DEFAULT_SLOS` over
one scrape; both ``scripts/slo_burn_check.py <scrape>`` and the
dashboard's SLO table call it.  :data:`FAILURE_COUNTERS` is the one list
of series whose every count is a failure: each is a zero-budget
objective here, and ``dashboard --diff`` flags its growth between two
scrapes.

An objective whose underlying series is absent from the scrape passes
with ``"no data"`` (and ``no_data=True`` on the result) rather than
burning: a scrape taken before the first request, or from a service
that does not own that subsystem, is not an outage.  The reverse — a
metric present but over budget — always burns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.obs.metrics import (
    Sample,
    histogram_quantile,
    pooled_buckets,
    samples_named,
    sum_samples,
)

__all__ = [
    "DEFAULT_SLOS",
    "FAILURE_COUNTERS",
    "SLO",
    "SLOResult",
    "evaluate_slos",
]

_NO_DATA = "no data"


@dataclass(frozen=True)
class SLOResult:
    """One objective's verdict over one scrape."""

    name: str
    ok: bool
    detail: str
    no_data: bool = False

    @property
    def status(self) -> str:
        return "ok" if self.ok else "BURNING"


@dataclass(frozen=True)
class SLO:
    """A named objective: ``check`` maps a scrape's samples to (ok, detail)."""

    name: str
    description: str
    check: Callable[[Sequence[Sample]], tuple[bool, str]]

    def evaluate(self, samples: Sequence[Sample]) -> SLOResult:
        ok, detail = self.check(samples)
        return SLOResult(
            name=self.name,
            ok=ok,
            detail=detail,
            no_data=detail.startswith(_NO_DATA),
        )


def _trim(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4f}"


def _histogram_p99(
    samples: Sequence[Sample], name: str, threshold_s: float
) -> tuple[bool, str]:
    """p99 over all label combinations of one latency histogram pooled."""
    p99 = histogram_quantile(0.99, pooled_buckets(samples, name).items())
    if p99 is None:
        return True, f"no data ({name} has no observations)"
    return p99 <= threshold_s, f"p99 ≈ {p99:.4f}s (budget {threshold_s}s)"


def _ratio_at_most(
    samples: Sequence[Sample],
    numerator: tuple[str, dict],
    denominator: str,
    budget: float,
) -> tuple[bool, str]:
    num_name, num_labels = numerator
    if not samples_named(samples, denominator):
        return True, f"no data ({denominator} absent)"
    total = sum_samples(samples, denominator)
    if total <= 0:
        return True, f"no data ({denominator} is zero)"
    ratio = sum_samples(samples, num_name, **num_labels) / total
    return ratio <= budget, f"ratio = {ratio:.4f} (budget {budget})"


def _slo_verb_latency(samples: Sequence[Sample]) -> tuple[bool, str]:
    return _histogram_p99(samples, "service_request_seconds", threshold_s=5.0)


def _slo_conflict_rate(samples: Sequence[Sample]) -> tuple[bool, str]:
    return _ratio_at_most(
        samples,
        numerator=("collector_records_total", {"fate": "conflict"}),
        denominator="collector_records_ingested_total",
        budget=0.05,
    )


def _slo_lease_stuck(samples: Sequence[Sample]) -> tuple[bool, str]:
    """No fleet lease should outlive 3x the lease TTL: heartbeats renew
    live workers' leases and expiry reassigns dead workers' leases, so a
    lease that old means reassignment itself has wedged."""
    name = "fleet_oldest_lease_age_seconds"
    if not samples_named(samples, name):
        return True, f"no data ({name} absent)"
    ttl = sum_samples(samples, "fleet_lease_ttl_seconds")
    if ttl <= 0:
        return True, "no data (fleet_lease_ttl_seconds absent or zero)"
    oldest = sum_samples(samples, name)
    budget = 3.0 * ttl
    ok = oldest <= budget
    return ok, (
        f"oldest active lease {oldest:.2f}s "
        f"(budget {_trim(budget)} = 3x {_trim(ttl)}s TTL)"
    )


#: The failure counters, by the objective that holds each to a zero
#: budget: the series name and the labels a sample must carry to count.
#: ``dashboard --diff`` flags the growth of exactly these series, in this
#: order.
FAILURE_COUNTERS: dict[str, tuple[str, dict[str, str]]] = {
    "zero-malformed-lines": ("service_malformed_lines_total", {}),
    "zero-auth-failures": ("service_auth_failures_total", {}),
    "zero-dropped-records": ("collector_records_total", {"fate": "dropped"}),
}


def _zero_budget(objective: str, description: str) -> SLO:
    """The objective holding one failure counter to a zero budget."""
    name, labels = FAILURE_COUNTERS[objective]
    label_note = "".join(f"{{{k}={v}}}" for k, v in labels.items())

    def check(samples: Sequence[Sample]) -> tuple[bool, str]:
        if not samples_named(samples, name):
            return True, f"no data ({name} absent)"
        total = sum_samples(samples, name, **labels)
        return total <= 0, f"{name}{label_note} total = {_trim(total)} (budget 0)"

    return SLO(name=objective, description=description, check=check)


#: The repo's objectives, documented in ROADMAP.md.  Budgets are tuned
#: for the CI smoke jobs: a healthy run serves every verb in well under
#: five seconds at p99 and drops, mangles and rejects nothing.
DEFAULT_SLOS: tuple[SLO, ...] = (
    SLO(
        name="verb-latency-p99",
        description="p99 service request latency ≤ 5s across all verbs",
        check=_slo_verb_latency,
    ),
    _zero_budget(
        "zero-dropped-records", "the collector drops no pushed records"
    ),
    SLO(
        name="duplicate-conflict-rate",
        description="semantic duplicate conflicts ≤ 5% of ingested records",
        check=_slo_conflict_rate,
    ),
    _zero_budget("zero-malformed-lines", "no protocol lines fail to parse"),
    _zero_budget(
        "zero-auth-failures", "no connections are rejected for a bad token"
    ),
    SLO(
        name="lease-stuck",
        description="no fleet lease stays active beyond 3x the lease TTL",
        check=_slo_lease_stuck,
    ),
)


def evaluate_slos(samples: Iterable[Sample]) -> list[SLOResult]:
    """Every objective's verdict over one scrape, in definition order."""
    samples = list(samples)
    return [slo.evaluate(samples) for slo in DEFAULT_SLOS]
