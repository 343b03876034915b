"""Report records and table artifacts shared by the verification suites."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

__all__ = ["VerificationReport", "TableArtifact", "write_jsonl"]

STATUSES = ("pass", "fail", "skipped")


@dataclass
class VerificationReport:
    """One check outcome: identity, parameters, verdict, witnesses, timing.

    Witness entries are (where, expected, actual) triples and only appear
    on non-passing outcomes.
    """

    check: str
    params: dict
    status: str
    witnesses: list = field(default_factory=list)
    elapsed_ms: int = 0

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "pass" and self.witnesses:
            raise ValueError("passing reports carry no witnesses")

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": dict(self.params),
            "status": self.status,
            "witnesses": [list(w) for w in self.witnesses],
            "elapsed_ms": int(self.elapsed_ms),
        }

    def to_json(self) -> str:
        # plain integers only; numpy scalars fall back through int()
        return json.dumps(self.to_dict(), separators=(",", ":"), default=int)


def _skip(check: str, params: dict, cap: int, n: int) -> VerificationReport:
    """The record of a check not run because its arity n is above ``cap``."""
    return VerificationReport(check, params, "skipped", [("max-n", cap, n)], 0)


def write_jsonl(reports, stream) -> None:
    """One report per line, stable field order."""
    for r in reports:
        stream.write(r.to_json() + "\n")


@dataclass
class TableArtifact:
    """A labeled integer grid with a named key column."""

    name: str
    corner: str
    columns: list[str]
    rows: list[tuple[str, list[int]]]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)  # RFC 4180 quoting and line endings
        writer.writerow([self.corner, *self.columns])
        for key, values in self.rows:
            writer.writerow([key, *[int(v) for v in values]])
        return buf.getvalue()

    @classmethod
    def from_csv_text(cls, name: str, text: str) -> "TableArtifact":
        parsed = [row for row in csv.reader(io.StringIO(text)) if row]
        if not parsed:
            raise ValueError(f"empty table {name!r}")
        header = parsed[0]
        rows = [(row[0], [int(cell) for cell in row[1:]]) for row in parsed[1:]]
        return cls(name, header[0], header[1:], rows)

    def cells(self):
        """Iterate (row_key, column_label, value)."""
        for key, values in self.rows:
            for label, value in zip(self.columns, values):
                yield key, label, value

    def diff(self, other: "TableArtifact") -> list[tuple[str, object, object]]:
        """Cells where ``other`` disagrees, keyed 'row@column', self first."""
        if self.columns != other.columns or [k for k, _ in self.rows] != [
            k for k, _ in other.rows
        ]:
            return [("layout", f"{self.corner}:{len(self.rows)}x{len(self.columns)}",
                     f"{other.corner}:{len(other.rows)}x{len(other.columns)}")]
        mine = {(k, c): v for k, c, v in self.cells()}
        out = []
        for key, label, value in other.cells():
            expected = mine[(key, label)]
            if expected != value:
                out.append((f"{key}@{label}", expected, value))
        return out
