"""Static HTML dashboards: report tables, scraped metrics, diffs.

``render_dashboard`` takes the pieces the ``dashboard`` CLI subcommand
gathers — an optional :class:`~repro.experiments.report.ReportBundle`
(duck-typed: anything with ``scaling`` / ``fits`` / ``scenario_tables``
tables, ``theorem3_beta`` and ``all_verified``) and an optional
Prometheus exposition string — and emits one self-contained HTML page.
CI uploads it as the ``dashboard`` artifact.

``render_metrics_diff`` (``dashboard --diff A.prom B.prom``) and
``render_bench_diff`` (``dashboard --diff-bench OLD.json NEW.json``)
are the cross-run views: per-metric deltas between two scrapes, and
per-(scenario, engine, n) wall-clock ratios between two canonical
``BENCH_*.json`` payloads with regressions highlighted — the page CI
uploads as the ``bench-diff`` artifact when gating a PR's bench run
against the committed trajectory.  Two scrapes saved with
``metrics --out`` and diffed are the one view of metrics over time: the
diff flags growth of the :data:`~repro.obs.slo.FAILURE_COUNTERS` and a
pooled p99 that more than doubles.

Both scrape pages read samples only, and find a histogram family one
way: a ``_bucket`` sample with an ``le`` label names it.

Everything is a stat tile or a table: the quantities here (verdicts,
fits, per-size means, counter totals, histogram quantiles) are headline
numbers and enumerable rows.  Status is always icon + label, never
colour alone; text stays in the ink tokens; dark mode derives from
``prefers-color-scheme``.  Every interpolated value is HTML-escaped.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.obs.metrics import (
    Sample,
    histogram_quantile,
    parse_exposition,
    pooled_buckets,
)
from repro.obs.slo import DEFAULT_SLOS, FAILURE_COUNTERS, SLOResult, evaluate_slos

__all__ = [
    "BenchDiff",
    "BenchEntryDiff",
    "diff_bench_payloads",
    "render_bench_diff",
    "render_dashboard",
    "render_metrics_diff",
]

_STYLE = """
:root {
  --surface: #ffffff; --panel: #f6f7f9; --border: #d9dce1;
  --ink: #1a1c1f; --ink-2: #4b5058; --ink-3: #788089;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #16181c; --panel: #1f2228; --border: #363b43;
    --ink: #e8eaed; --ink-2: #aeb4bc; --ink-3: #7f868f;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; color: var(--ink); }
.subtitle { color: var(--ink-3); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--panel); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 150px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 22px; font-weight: 600; margin-top: 2px; }
.tile .note { color: var(--ink-3); font-size: 12px; margin-top: 2px; }
table {
  border-collapse: collapse; margin: 8px 0 16px; background: var(--panel);
  border: 1px solid var(--border); border-radius: 8px; overflow: hidden;
}
caption {
  text-align: left; color: var(--ink-2); font-size: 13px; padding: 8px 10px 4px;
  caption-side: top;
}
th, td {
  padding: 5px 12px; text-align: left; font-variant-numeric: tabular-nums;
  border-top: 1px solid var(--border);
}
th { color: var(--ink-2); font-weight: 600; border-top: none; font-size: 13px; }
details { margin: 12px 0; }
summary { cursor: pointer; color: var(--ink-2); }
pre {
  background: var(--panel); border: 1px solid var(--border); border-radius: 8px;
  padding: 12px; overflow-x: auto; font-size: 12px; color: var(--ink-2);
}
.status { white-space: nowrap; }
.muted { color: var(--ink-3); }
tr.regression td { font-weight: 600; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _status(ok: bool, ok_text: str, bad_text: str) -> str:
    """Icon + label, never colour alone."""
    icon, text = ("✓", ok_text) if ok else ("✗", bad_text)
    return f'<span class="status">{icon} {_esc(text)}</span>'


def _tile(label: str, value: str, note: str = "", raw_value: bool = False) -> str:
    value_html = value if raw_value else _esc(value)
    note_html = f'<div class="note">{_esc(note)}</div>' if note else ""
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{value_html}</div>{note_html}</div>'
    )


def _table_html(table: Any) -> str:
    """A MeasurementTable (duck-typed: title/columns/rows) as HTML."""
    head = "".join(f"<th>{_esc(column)}</th>" for column in table.columns)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row) + "</tr>"
        for row in table.rows
    )
    return (
        f"<table><caption>{_esc(table.title)}</caption>"
        f"<thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
    )


def _rows_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[str]],
    row_classes: Sequence[str | None] | None = None,
) -> str:
    """A table from pre-escaped-or-escapable plain rows."""
    head = "".join(f"<th>{_esc(column)}</th>" for column in columns)
    classes = row_classes if row_classes is not None else [None] * len(rows)
    body = "".join(
        (f'<tr class="{_esc(cls)}">' if cls else "<tr>")
        + "".join(f"<td>{cell}</td>" for cell in row)
        + "</tr>"
        for row, cls in zip(rows, classes)
    )
    return (
        f"<table><caption>{_esc(title)}</caption>"
        f"<thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
    )


def _format_number(value: float) -> str:
    if value != value or value in (math.inf, -math.inf):
        return str(value)
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return f"{value:.6g}"


def _label_text(sample: Sample) -> str:
    pairs = [f"{k}={v}" for k, v in sample.labels]
    return ", ".join(pairs) if pairs else "—"


def _is_bucket(sample: Sample) -> bool:
    return sample.name.endswith("_bucket") and sample.label("le") is not None


def _histogram_families(samples: Sequence[Sample]) -> set[str]:
    """The scrape's histogram families: those with a ``_bucket`` sample
    that carries an ``le`` label.  Both pages find histograms this way,
    so a family nothing has observed yet (no bucket sample) is none."""
    return {sample.name[: -len("_bucket")] for sample in samples if _is_bucket(sample)}


def _metrics_section(metrics_text: str) -> tuple[str, list[SLOResult]]:
    samples = parse_exposition(metrics_text)
    slo_results = evaluate_slos(samples)

    slo_rows = []
    for slo, result in zip(DEFAULT_SLOS, slo_results):
        slo_rows.append([
            _esc(result.name),
            _status(result.ok, "ok", "BURNING"),
            _esc(slo.description),
            _esc(result.detail),
        ])
    parts = [
        "<h2>Service-level objectives</h2>",
        _rows_table(
            "One row per objective, evaluated over this scrape",
            ["objective", "status", "description", "detail"],
            slo_rows,
        ),
    ]

    # Split samples into scalar families and histogram families.
    histogram_names = _histogram_families(samples)
    scalar_rows = []
    for sample in samples:
        base = sample.name
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in histogram_names:
                base = None
                break
        if base is None:
            continue
        scalar_rows.append([
            _esc(sample.name),
            _esc(_label_text(sample)),
            _esc(_format_number(sample.value)),
        ])
    if scalar_rows:
        parts.append("<h2>Counters and gauges</h2>")
        parts.append(_rows_table(
            "Every scalar sample in the scrape",
            ["metric", "labels", "value"],
            scalar_rows,
        ))

    histogram_rows = []
    for name in sorted(histogram_names):
        # Group buckets by the non-le label set.
        by_labels: dict[tuple, dict[float, float]] = {}
        counts: dict[tuple, float] = {}
        sums: dict[tuple, float] = {}
        for sample in samples:
            key = tuple((k, v) for k, v in sample.labels if k != "le")
            if sample.name == name + "_bucket":
                le = sample.label("le")
                bound = math.inf if le == "+Inf" else float(le)
                by_labels.setdefault(key, {})[bound] = sample.value
            elif sample.name == name + "_count":
                counts[key] = sample.value
            elif sample.name == name + "_sum":
                sums[key] = sample.value
        for key in sorted(by_labels):
            buckets = by_labels[key]
            quantiles = [
                histogram_quantile(q, buckets.items()) for q in (0.5, 0.9, 0.99)
            ]
            histogram_rows.append([
                _esc(name),
                _esc(", ".join(f"{k}={v}" for k, v in key) or "—"),
                _esc(_format_number(counts.get(key, 0.0))),
                _esc(_format_number(sums.get(key, 0.0))),
                *(
                    _esc(_format_number(q)) if q is not None
                    else '<span class="muted">—</span>'
                    for q in quantiles
                ),
            ])
    if histogram_rows:
        parts.append("<h2>Latency and size distributions</h2>")
        parts.append(_rows_table(
            "Histogram families with estimated quantiles (linear interpolation)",
            ["histogram", "labels", "count", "sum", "p50", "p90", "p99"],
            histogram_rows,
        ))

    parts.append(
        "<details><summary>Raw Prometheus exposition</summary>"
        f"<pre>{_esc(metrics_text)}</pre></details>"
    )
    return "".join(parts), slo_results


def _page(title: str, tiles: Sequence[str], sections: Sequence[str]) -> str:
    tiles_html = f'<div class="tiles">{"".join(tiles)}</div>' if tiles else ""
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>{_esc(title)}</h1>
<p class="subtitle">Static snapshot rendered by <code>repro.experiments dashboard</code>.</p>
{tiles_html}
{"".join(sections)}
</body>
</html>
"""


def render_dashboard(
    bundle: Any | None = None,
    metrics_text: str | None = None,
    title: str = "Sweep observability dashboard",
) -> str:
    """One self-contained HTML page from a report bundle and/or a scrape."""
    tiles: list[str] = []
    sections: list[str] = []

    if bundle is not None:
        tiles.append(_tile(
            "All cells verified",
            _status(bundle.all_verified, "yes", "NO"),
            raw_value=True,
        ))
        if bundle.theorem3_beta is not None:
            ok = bundle.theorem3_beta < 1
            tiles.append(_tile(
                "Theorem 3 shape β",
                f"{bundle.theorem3_beta:.3f}",
                note="sublogarithmic (β < 1)" if ok else "β ≥ 1",
            ))
        tiles.append(_tile("Scenarios", str(len(bundle.summaries))))
        sections.append("<h2>Scaling</h2>")
        sections.append(_table_html(bundle.scaling))
        sections.append(_table_html(bundle.fits))
        sections.append("<h2>Per-scenario detail</h2>")
        sections.extend(_table_html(table) for table in bundle.scenario_tables)

    if metrics_text:
        metrics_html, slo_results = _metrics_section(metrics_text)
        burning = [result for result in slo_results if not result.ok]
        tiles.insert(0, _tile(
            "SLOs",
            _status(not burning, "all ok", f"{len(burning)} burning"),
            note=f"{len(slo_results)} objectives evaluated",
            raw_value=True,
        ))
        sections.append(metrics_html)

    if not tiles and not sections:
        sections.append('<p class="muted">Nothing to show: no report bundle '
                        "and no metrics scrape were provided.</p>")

    return _page(title, tiles, sections)


# ----------------------------------------------------------------------
# cross-run diffs: two scrapes, two bench trajectories
# ----------------------------------------------------------------------

#: A p99 that grows past this factor between two scrapes is a regression.
_P99_REGRESSION_FACTOR = 2.0

#: Bench entries under this wall clock (seconds) on either side are
#: noise-dominated: the bench diff reports them but never gates on them.
BENCH_NOISE_FLOOR_S = 0.05


def _scalar_map(samples: Sequence[Sample]) -> dict[tuple[str, tuple], float]:
    values: dict[tuple[str, tuple], float] = {}
    for sample in samples:
        if _is_bucket(sample):
            continue  # buckets are noise here; quantiles cover them
        key = (sample.name, sample.labels)
        values[key] = values.get(key, 0.0) + sample.value
    return values


def _pooled_p99(samples: Sequence[Sample], name: str) -> float | None:
    return histogram_quantile(0.99, pooled_buckets(samples, name).items())


def render_metrics_diff(
    text_a: str,
    text_b: str,
    label_a: str = "A",
    label_b: str = "B",
    title: str = "Metrics diff",
) -> tuple[str, list[str]]:
    """Two scrapes side by side: per-series deltas plus regression flags.

    Returns ``(html, regressions)`` where ``regressions`` lists the
    :data:`~repro.obs.slo.FAILURE_COUNTERS` that grew and the histogram
    p99s that blew past :data:`_P99_REGRESSION_FACTOR` between A and B.
    """
    samples_a = parse_exposition(text_a)
    samples_b = parse_exposition(text_b)
    map_a = _scalar_map(samples_a)
    map_b = _scalar_map(samples_b)

    regressions: list[str] = []
    bad_keys: set[tuple[str, tuple]] = set()
    for name, labels in FAILURE_COUNTERS.values():
        matching = [
            key for key in set(map_a) | set(map_b)
            if key[0] == name
            and all(dict(key[1]).get(k) == v for k, v in labels.items())
        ]
        before = sum(map_a.get(key, 0.0) for key in matching)
        after = sum(map_b.get(key, 0.0) for key in matching)
        if after > before:
            label_note = "".join(f"{{{k}={v}}}" for k, v in labels.items())
            regressions.append(
                f"{name}{label_note} grew {_format_number(before)} → "
                f"{_format_number(after)}"
            )
            bad_keys.update(matching)

    rows = []
    changed = 0
    for key in sorted(set(map_a) | set(map_b)):
        name, labels = key
        before = map_a.get(key)
        after = map_b.get(key)
        delta = (after or 0.0) - (before or 0.0)
        if before != after:
            changed += 1
        if key in bad_keys and (after or 0.0) > (before or 0.0):
            status = _status(False, "", "REGRESSION")
        elif before == after:
            status = '<span class="muted">unchanged</span>'
        else:
            status = "changed"
        sample = Sample(name=name, labels=labels, value=0.0)
        rows.append([
            _esc(name),
            _esc(_label_text(sample)),
            _esc(_format_number(before)) if before is not None
            else '<span class="muted">—</span>',
            _esc(_format_number(after)) if after is not None
            else '<span class="muted">—</span>',
            _esc(f"{delta:+g}") if before != after else "",
            status,
        ])

    quantile_rows = []
    histograms = _histogram_families(samples_a) | _histogram_families(samples_b)
    for name in sorted(histograms):
        p99_a = _pooled_p99(samples_a, name)
        p99_b = _pooled_p99(samples_b, name)
        regressed = (
            p99_a is not None
            and p99_b is not None
            and p99_a > 0
            and p99_b > p99_a * _P99_REGRESSION_FACTOR
        )
        if regressed:
            regressions.append(
                f"{name} p99 grew {p99_a:.4f}s → {p99_b:.4f}s "
                f"(>{_P99_REGRESSION_FACTOR}×)"
            )
        quantile_rows.append([
            _esc(name),
            _esc(f"{p99_a:.4f}s") if p99_a is not None
            else '<span class="muted">—</span>',
            _esc(f"{p99_b:.4f}s") if p99_b is not None
            else '<span class="muted">—</span>',
            _status(False, "", "REGRESSION") if regressed
            else '<span class="muted">ok</span>',
        ])

    tiles = [
        _tile(
            "Verdict",
            _status(not regressions, "no regressions", f"{len(regressions)} regressions"),
            raw_value=True,
        ),
        _tile("Series compared", str(len(rows)), note=f"{changed} changed"),
    ]
    sections = []
    if regressions:
        items = "".join(f"<li>{_esc(r)}</li>" for r in regressions)
        sections.append(f"<h2>Regressions</h2><ul>{items}</ul>")
    sections.append(f"<h2>Scalar series: {_esc(label_a)} vs {_esc(label_b)}</h2>")
    sections.append(_rows_table(
        "Counters, gauges and histogram sums/counts (buckets elided)",
        ["metric", "labels", label_a, label_b, "Δ", "status"],
        rows,
    ))
    if quantile_rows:
        sections.append("<h2>Histogram p99 (pooled across labels)</h2>")
        sections.append(_rows_table(
            f"A p99 growing more than {_P99_REGRESSION_FACTOR}× regresses",
            ["histogram", label_a, label_b, "status"],
            quantile_rows,
        ))
    return _page(title, tiles, sections), regressions


@dataclass(frozen=True)
class BenchEntryDiff:
    """One (scenario, engine, n) cell compared across two bench runs."""

    scenario: str
    engine: str
    n: int
    old_wall_s: float
    new_wall_s: float
    ratio: float | None
    gated: bool  # at or above BENCH_NOISE_FLOOR_S on both sides
    regression: bool
    note: str = ""


@dataclass
class BenchDiff:
    """The full comparison of two canonical ``BENCH_*.json`` payloads."""

    rows: list[BenchEntryDiff]
    only_old: list[tuple[str, str, int]]
    only_new: list[tuple[str, str, int]]
    max_regression: float

    @property
    def regressions(self) -> list[BenchEntryDiff]:
        return [row for row in self.rows if row.regression]

    @property
    def worst_ratio(self) -> float | None:
        ratios = [row.ratio for row in self.rows if row.ratio is not None]
        return max(ratios) if ratios else None

    def pair_summary(self) -> dict[tuple[str, str], float]:
        """Worst gated wall-clock ratio per (scenario, engine) pair."""
        worst: dict[tuple[str, str], float] = {}
        for row in self.rows:
            if row.ratio is None or not row.gated:
                continue
            key = (row.scenario, row.engine)
            worst[key] = max(worst.get(key, 0.0), row.ratio)
        return worst


def _bench_entries(payload: Mapping) -> dict[tuple[str, str, int], Mapping]:
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise ValueError(
            "bench payload lacks an 'entries' list — is this a canonical "
            "BENCH_*.json file?"
        )
    table: dict[tuple[str, str, int], Mapping] = {}
    for entry in entries:
        key = (
            str(entry.get("scenario", "?")),
            str(entry.get("engine") or "-"),
            int(entry.get("n", 0)),
        )
        table[key] = entry
    return table


def diff_bench_payloads(
    old: Mapping, new: Mapping, max_regression: float = 2.0
) -> BenchDiff:
    """Compare two canonical bench payloads entry by entry.

    An entry *regresses* when its wall clock grew by more than
    ``max_regression``× — but only entries taking at least
    :data:`BENCH_NOISE_FLOOR_S` on both sides gate: shorter timings are
    noise-dominated and reported informationally, never failed on.  Semantic fields
    (``rounds``, ``messages``) that changed are noted on the row.
    """
    old_entries = _bench_entries(old)
    new_entries = _bench_entries(new)
    rows: list[BenchEntryDiff] = []
    for key in sorted(set(old_entries) & set(new_entries)):
        old_entry, new_entry = old_entries[key], new_entries[key]
        old_wall = float(old_entry.get("wall_clock_s", 0.0))
        new_wall = float(new_entry.get("wall_clock_s", 0.0))
        ratio = new_wall / old_wall if old_wall > 0 else None
        gated = (
            old_wall >= BENCH_NOISE_FLOOR_S and new_wall >= BENCH_NOISE_FLOOR_S
        )
        regression = (
            gated and ratio is not None and ratio > max_regression
        )
        notes = []
        for semantic in ("rounds", "messages"):
            if (semantic in old_entry or semantic in new_entry) and \
                    old_entry.get(semantic) != new_entry.get(semantic):
                notes.append(
                    f"{semantic} {old_entry.get(semantic)} → "
                    f"{new_entry.get(semantic)}"
                )
        rows.append(BenchEntryDiff(
            scenario=key[0],
            engine=key[1],
            n=key[2],
            old_wall_s=old_wall,
            new_wall_s=new_wall,
            ratio=ratio,
            gated=gated,
            regression=regression,
            note="; ".join(notes),
        ))
    return BenchDiff(
        rows=rows,
        only_old=sorted(set(old_entries) - set(new_entries)),
        only_new=sorted(set(new_entries) - set(old_entries)),
        max_regression=max_regression,
    )


def render_bench_diff(
    diff: BenchDiff,
    label_old: str = "baseline",
    label_new: str = "current",
    title: str = "Bench trajectory diff",
) -> str:
    """The regression-highlighted bench comparison page (CI artifact)."""
    regressions = diff.regressions
    tiles = [
        _tile(
            "Verdict",
            _status(
                not regressions,
                "within budget",
                f"{len(regressions)} regressions",
            ),
            note=f"budget {diff.max_regression}× wall clock",
            raw_value=True,
        ),
        _tile("Entries compared", str(len(diff.rows))),
    ]
    worst = diff.worst_ratio
    if worst is not None:
        tiles.append(_tile("Worst ratio", f"{worst:.2f}×"))

    sections = []
    if regressions:
        items = "".join(
            f"<li>{_esc(row.scenario)} / {_esc(row.engine)} / n={row.n}: "
            f"{row.old_wall_s:.4f}s → {row.new_wall_s:.4f}s "
            f"({row.ratio:.2f}×)</li>"
            for row in regressions
        )
        sections.append(f"<h2>Regressions</h2><ul>{items}</ul>")

    entry_rows = []
    entry_classes = []
    for row in diff.rows:
        entry_classes.append("regression" if row.regression else None)
        if row.regression:
            status = _status(False, "", "REGRESSION")
        elif not row.gated:
            status = f'<span class="muted">below {BENCH_NOISE_FLOOR_S}s floor</span>'
        else:
            status = _status(True, "ok", "")
        entry_rows.append([
            _esc(row.scenario),
            _esc(row.engine),
            _esc(str(row.n)),
            _esc(f"{row.old_wall_s:.4f}"),
            _esc(f"{row.new_wall_s:.4f}"),
            _esc(f"{row.ratio:.2f}×") if row.ratio is not None
            else '<span class="muted">—</span>',
            status,
            _esc(row.note) if row.note else "",
        ])
    sections.append(f"<h2>Wall clock: {_esc(label_old)} vs {_esc(label_new)}</h2>")
    sections.append(_rows_table(
        f"Regression = ratio > {diff.max_regression}× with both sides ≥ "
        f"{BENCH_NOISE_FLOOR_S}s",
        ["scenario", "engine", "n", f"{label_old} (s)", f"{label_new} (s)",
         "ratio", "status", "notes"],
        entry_rows,
        row_classes=entry_classes,
    ))

    pair_rows = [
        [
            _esc(scenario),
            _esc(engine),
            _esc(f"{ratio:.2f}×"),
            _status(ratio <= diff.max_regression, "ok", "REGRESSION"),
        ]
        for (scenario, engine), ratio in sorted(diff.pair_summary().items())
    ]
    if pair_rows:
        sections.append("<h2>Per-(scenario, engine) summary</h2>")
        sections.append(_rows_table(
            "Worst gated ratio per pair — what CI fails on",
            ["scenario", "engine", "worst ratio", "status"],
            pair_rows,
        ))

    for label, keys in (("Only in " + label_old, diff.only_old),
                        ("Only in " + label_new, diff.only_new)):
        if keys:
            items = "".join(
                f"<li>{_esc(s)} / {_esc(e)} / n={n}</li>" for s, e, n in keys
            )
            sections.append(f"<h2>{_esc(label)}</h2><ul>{items}</ul>")

    return _page(title, tiles, sections)
