"""The experiment result table every figure and ablation returns."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """One experiment's output: rows of named values plus paper targets."""

    name: str
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add(self, **values: object) -> None:
        """Append one row of named values."""
        self.rows.append(values)

    def column(self, key: str) -> list[object]:
        """All values of one column, in row order."""
        return [row[key] for row in self.rows]

    def to_json(self) -> str:
        """Serialize name, rows, and notes as a JSON document."""
        return json.dumps(
            {"name": self.name, "notes": self.notes, "rows": self.rows},
            indent=2,
            default=str,
        )

    def save(self, path: str) -> None:
        """Write the :meth:`to_json` document to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def format_table(self) -> str:
        """Render the rows as an aligned text table."""
        if not self.rows:
            return f"[{self.name}] (no rows)"
        keys = list(self.rows[0].keys())
        widths = {
            k: max(len(k), *(len(_fmt(row.get(k))) for row in self.rows)) for k in keys
        }
        header = "  ".join(k.ljust(widths[k]) for k in keys)
        lines = [f"[{self.name}]", header, "  ".join("-" * widths[k] for k in keys)]
        for row in self.rows:
            lines.append("  ".join(_fmt(row.get(k)).ljust(widths[k]) for k in keys))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
