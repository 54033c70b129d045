"""The experiment result table every figure and ablation returns."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """One experiment's output: rows of named values plus run notes."""

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
