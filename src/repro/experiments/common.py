"""Shared infrastructure for the experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..device.catalog import make_varied_device
from ..errors import ConfigurationError

__all__ = ["ExperimentResult", "make_varied_device"]


@dataclass
class ExperimentResult:
    """A reproduced table or figure: labelled rows the paper also reports."""

    experiment: str
    description: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ConfigurationError(
                f"{self.experiment}: row of {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        """All values of one named column."""
        try:
            index = self.columns.index(name)
        except ValueError:
            raise ConfigurationError(
                f"{self.experiment}: no column {name!r}"
            ) from None
        return [row[index] for row in self.rows]

    def to_text(self) -> str:
        """Fixed-width table rendering (what the bench harness prints)."""

        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        table = [self.columns] + [[fmt(v) for v in row] for row in self.rows]
        widths = [max(len(r[c]) for r in table) for c in range(len(self.columns))]
        lines = [f"== {self.experiment}: {self.description} =="]
        header = "  ".join(c.ljust(w) for c, w in zip(table[0], widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in table[1:]:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)
