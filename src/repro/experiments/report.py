"""Turn stored sweep results into the paper's scaling tables and fits.

Everything here consumes only the JSONL records of a
:class:`~repro.experiments.store.ResultStore` — the report is reproducible
from disk alone, with no re-simulation.  Aggregation averages over seeds
per (scenario, n); the shape fits feed the aggregated round counts through
:func:`repro.analysis.curves.fit_power_of_log`, which is how the Theorem 3
claim (``rounds ≈ c · (log₂ n)^β`` with ``β < 1`` for the transformed edge
colouring) is checked from the analytic-prediction cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.analysis import MeasurementTable, fit_power_of_log
from repro.experiments.spec import ANALYTIC_GENERATOR

__all__ = [
    "ScenarioPoint",
    "ScenarioSummary",
    "ReportBundle",
    "aggregate",
    "scenario_table",
    "scaling_table",
    "fit_summaries",
    "build_report",
    "render_json_tables",
    "report_payload",
]

#: Name of the analytic algorithm whose fit carries the Theorem 3 claim.
THEOREM3_ALGORITHM = "predicted-edge-coloring-log12"


#: Suffix appended to a scenario's name to label its charged series in
#: the scaling table and the shape fits.
CHARGED_SUFFIX = " [charged]"


@dataclass
class ScenarioPoint:
    """One aggregated (scenario, n) data point, averaged over seeds."""

    n: int
    cells: int
    rounds: float
    messages: float | None
    verified: bool
    #: Mean analytic account under ``OracleCostModel`` charging; ``None``
    #: for cells that ran without a cost model.
    charged_rounds: float | None = None


@dataclass
class ScenarioSummary:
    """All aggregated points of one scenario, sorted by ``n``."""

    scenario: str
    generator: str
    algorithm: str
    points: list[ScenarioPoint] = field(default_factory=list)
    #: Execution provenance: every engine backend recorded by the
    #: scenario's cells ("interpreted" / "vectorized" / "mixed").  Empty
    #: for stores written before engines were recorded — the field is
    #: schema-tolerant, like ``charged_rounds``.
    engines: set = field(default_factory=set)

    @property
    def is_analytic(self) -> bool:
        return self.generator == ANALYTIC_GENERATOR

    @property
    def verified(self) -> bool:
        return all(point.verified for point in self.points)

    @property
    def has_charged(self) -> bool:
        """Whether any point carries the analytic charged-rounds account."""
        return any(point.charged_rounds is not None for point in self.points)


def aggregate(records: Iterable[dict[str, Any]]) -> list[ScenarioSummary]:
    """Group records by scenario and average over seeds per size.

    Records are deduplicated by fingerprint first, last occurrence winning:
    a cell that failed verification and was re-run on resume has two
    records in the append-only store, and only the re-run must count.
    """
    by_fingerprint: dict[str, dict[str, Any]] = {}
    for record in records:
        by_fingerprint[record["fingerprint"]] = record
    grouped: dict[tuple[str, str, str], dict[int, list[dict]]] = {}
    for record in by_fingerprint.values():
        key = (record["scenario"], record["generator"], record["algorithm"])
        grouped.setdefault(key, {}).setdefault(record["n"], []).append(record)

    summaries = []
    for (scenario, generator, algorithm), by_n in sorted(grouped.items()):
        summary = ScenarioSummary(scenario, generator, algorithm)
        for n in sorted(by_n):
            cells = by_n[n]
            summary.engines.update(
                c["engine"] for c in cells if c.get("engine") is not None
            )
            message_counts = [c["messages"] for c in cells if c.get("messages") is not None]
            charged = [
                c["charged_rounds"]
                for c in cells
                if c.get("charged_rounds") is not None
            ]
            summary.points.append(ScenarioPoint(
                n=n,
                cells=len(cells),
                rounds=sum(c["rounds"] for c in cells) / len(cells),
                messages=(
                    sum(message_counts) / len(message_counts)
                    if message_counts
                    else None
                ),
                verified=all(c["verified"] for c in cells),
                charged_rounds=sum(charged) / len(charged) if charged else None,
            ))
        summaries.append(summary)
    return summaries


def _format_n(n: int) -> str:
    """Big analytic sizes print as powers of two, measured sizes verbatim."""
    if n >= 2**53 and (n & (n - 1)) == 0:
        return f"2^{n.bit_length() - 1}"
    return str(n)


def scenario_table(summary: ScenarioSummary) -> MeasurementTable:
    """The per-scenario detail table (one row per size).

    The title carries the engine provenance when the store recorded it,
    so a report alone says which backend produced each series.
    """
    provenance = ""
    if summary.engines:
        provenance = f"  (engine: {'/'.join(sorted(summary.engines))})"
    table = MeasurementTable(
        f"{summary.scenario}  [{summary.generator} × {summary.algorithm}]"
        + provenance,
        ["n", "cells", "rounds (mean)", "charged (mean)", "messages (mean)",
         "verified"],
    )
    for point in summary.points:
        table.add_row(
            _format_n(point.n),
            point.cells,
            round(point.rounds, 2),
            round(point.charged_rounds, 2) if point.charged_rounds is not None else "-",
            round(point.messages, 1) if point.messages is not None else "-",
            "ok" if point.verified else "FAILED",
        )
    return table


def scaling_table(summaries: list[ScenarioSummary]) -> MeasurementTable:
    """The paper-style scaling table: sizes × measured scenarios, mean rounds.

    Scenarios that ran under ``OracleCostModel`` charging get a second
    ``<scenario> [charged]`` column, so the measured engine and the
    analytic account sit side by side per size.
    """
    measured = [summary for summary in summaries if not summary.is_analytic]
    sizes = sorted({point.n for summary in measured for point in summary.points})
    columns: list[str] = ["n"]
    for summary in measured:
        columns.append(summary.scenario)
        if summary.has_charged:
            columns.append(summary.scenario + CHARGED_SUFFIX)
    table = MeasurementTable(
        "Measured (and charged) rounds by instance size (mean over seeds)",
        columns,
    )
    for n in sizes:
        row: list[Any] = [n]
        for summary in measured:
            match = next((p for p in summary.points if p.n == n), None)
            row.append(round(match.rounds, 1) if match is not None else "-")
            if summary.has_charged:
                row.append(
                    round(match.charged_rounds, 1)
                    if match is not None and match.charged_rounds is not None
                    else "-"
                )
        table.add_row(*row)
    return table


def fit_summaries(
    summaries: list[ScenarioSummary],
) -> tuple[MeasurementTable, dict[str, float]]:
    """Fit ``rounds ≈ c · (log₂ n)^β`` per scenario with ≥ 2 usable sizes.

    A scenario carrying the charged series is fitted twice: once on the
    measured rounds and once on ``charged_rounds`` (labelled
    ``<scenario> [charged]``), so the Theorem 3 shape check can run on
    either account.
    """
    table = MeasurementTable(
        "Log-power fits: rounds ≈ c · (log₂ n)^β",
        ["scenario", "points", "beta", "c", "shape"],
    )
    betas: dict[str, float] = {}
    for summary in summaries:
        series: list[tuple[str, list[int], list[float]]] = [(
            summary.scenario,
            [point.n for point in summary.points],
            [point.rounds for point in summary.points],
        )]
        if summary.has_charged:
            charged = [
                (point.n, point.charged_rounds)
                for point in summary.points
                if point.charged_rounds is not None
            ]
            series.append((
                summary.scenario + CHARGED_SUFFIX,
                [n for n, _ in charged],
                [value for _, value in charged],
            ))
        for label, ns, values in series:
            if len(set(ns)) < 2:
                continue
            try:
                beta, c = fit_power_of_log(ns, values)
            except ValueError:
                # Fewer than two points survive the n > 2 / value > 0 filter
                # (e.g. a --sizes 1,2 sweep); an unfittable scenario should
                # not take down the rest of the report.
                continue
            betas[label] = beta
            shape = "strongly sublogarithmic (beta < 1)" if beta < 1 else "beta >= 1"
            table.add_row(label, len(ns), round(beta, 3), round(c, 3), shape)
    return table, betas


@dataclass
class ReportBundle:
    """Everything the ``report`` subcommand prints and exports."""

    summaries: list[ScenarioSummary]
    scenario_tables: list[MeasurementTable]
    scaling: MeasurementTable
    fits: MeasurementTable
    betas: dict[str, float]
    theorem3_beta: float | None
    all_verified: bool

    @property
    def has_measured(self) -> bool:
        """Whether any stored scenario is a measured (non-analytic) one."""
        return any(not summary.is_analytic for summary in self.summaries)

    def render(self) -> str:
        parts = []
        if self.has_measured:
            parts += [self.scaling.render(), ""]
        else:
            parts += [
                "no measured cells stored — nothing to report in the scaling "
                "table (analytic cells only)",
                "",
            ]
        parts += [self.fits.render(), ""]
        for table in self.scenario_tables:
            parts += [table.render(), ""]
        if self.theorem3_beta is not None:
            verdict = "<" if self.theorem3_beta < 1 else ">="
            parts.append(
                "Theorem 3 shape (transformed edge colouring, analytic cells): "
                f"beta = {self.theorem3_beta:.3f} {verdict} 1"
            )
        parts.append(
            "all stored cells verified: " + ("yes" if self.all_verified else "NO")
        )
        return "\n".join(parts)


def render_json_tables(bundle: ReportBundle) -> str:
    """The exact JSON payload ``report --json`` writes for ``bundle``.

    One canonical serialisation shared by the CLI and the sweep server's
    ``report`` verb, so a bundle fetched over the wire is byte-identical
    to one written from the same store locally — the equivalence the
    server paths are pinned against.
    """
    tables = [bundle.scaling, bundle.fits] + bundle.scenario_tables
    return "[" + ",\n".join(table.to_json() for table in tables) + "]\n"


def report_payload(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """The wire form of a report bundle (the ``report`` verb's response body).

    Raises ``ValueError`` (from :func:`build_report`) when ``records`` is
    empty — an empty store reports as an error, not an empty bundle.
    """
    bundle = build_report(records)
    return {
        "render": bundle.render(),
        "json": render_json_tables(bundle),
        "csv": bundle.scaling.to_csv(),
        "betas": bundle.betas,
        "theorem3_beta": bundle.theorem3_beta,
        "all_verified": bundle.all_verified,
    }


def build_report(records: Iterable[dict[str, Any]]) -> ReportBundle:
    """Aggregate stored records into tables, fits and the Theorem 3 verdict."""
    summaries = aggregate(records)
    if not summaries:
        raise ValueError("no stored results to report on (run a suite first)")
    fits, betas = fit_summaries(summaries)
    theorem3_beta = None
    for summary in summaries:
        if summary.algorithm == THEOREM3_ALGORITHM and summary.scenario in betas:
            theorem3_beta = betas[summary.scenario]
            break
    return ReportBundle(
        summaries=summaries,
        scenario_tables=[scenario_table(summary) for summary in summaries],
        scaling=scaling_table(summaries),
        fits=fits,
        betas=betas,
        theorem3_beta=theorem3_beta,
        all_verified=all(summary.verified for summary in summaries),
    )
