"""Result tables, rendered as text, JSON and CSV."""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Iterable


class MeasurementTable:
    """An ordered collection of measurements, printable as a text table."""

    def __init__(self, title: str, columns: Iterable[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[Any]] = []

    def add_row(self, *values: Any) -> None:
        """Append a row; the number of values must match the column count."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        """Render the table as aligned plain text."""
        cells = [self.columns] + [
            [_format_cell(value) for value in row] for row in self.rows
        ]
        widths = [
            max(len(str(row[index])) for row in cells) for index in range(len(self.columns))
        ]
        lines = [self.title, ""]
        header = "  ".join(
            str(cell).ljust(widths[index]) for index, cell in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in cells[1:]:
            lines.append(
                "  ".join(str(cell).ljust(widths[index]) for index, cell in enumerate(row))
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """The table as a JSON document: title, columns and raw rows."""
        return json.dumps(
            {"title": self.title, "columns": self.columns, "rows": self.rows},
            sort_keys=True,
        )

    def to_csv(self) -> str:
        """The table as CSV (header row = columns; the title is not encoded)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)

