"""Table containers and formatting for the experiment harness.

Each experiment module returns a :class:`Table` whose rows mirror the
paper's layout; ``format()`` prints them side by side with the paper's
reference values so shape agreement is visible at a glance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

__all__ = ["Table"]


@dataclass
class Table:
    """One reproduced table."""

    table_id: str
    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> List[Any]:
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]

    def row_dict(self, i: int) -> Dict[str, Any]:
        return dict(zip(self.columns, self.rows[i]))

    def format(self) -> str:
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                if value == 0:
                    return "0"
                if abs(value) >= 100:
                    return f"{value:.0f}"
                if abs(value) >= 1:
                    return f"{value:.1f}"
                return f"{value:.2f}"
            return str(value)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [max(len(str(col)), *(len(r[i]) for r in cells))
                  if cells else len(str(col))
                  for i, col in enumerate(self.columns)]
        lines = [f"== {self.table_id}: {self.title} =="]
        lines.append("  ".join(str(c).rjust(w)
                               for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.format())
