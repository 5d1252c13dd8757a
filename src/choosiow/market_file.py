"""Market-file ingestion.

Two formats are supported:

* the canonical structured text file, line oriented with sections

      # comment
      format_version = 1
      [types.male]
      young
      old
      [types.female]
      any
      [gains mode=Pi]
      1.0
      0.5
      [population]
      young 100
      old 50
      any 120
      [c]            # optional exogenous constants for transfer recovery
      0.0
      0.0

  The gains mode tag is "Pi" for raw exponentiated gains or "pi" for
  log-gains, which are exponentiated on hand-off to the core model.
  Population lines list male types first, then female types, matching the
  declared label order.

* a pair of comma-separated tables for spreadsheet interoperability:
  a gains table (first column male labels, header row female labels) and a
  population table with columns side,label,count, holding exactly one row
  for each type of the gains table, in any order.

Zero counts are allowed: MarketFile.populated masks the types with a
positive count, and to_market returns the market of those types alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import GainsMatrix, ValidatedMarket, reduce_unpopulated

FORMAT_VERSION = "1"
GAINS_MODES = ("Pi", "pi")
# The largest log gain whose exponential is a finite float.
MAX_LOG_GAIN = float(np.log(np.finfo(float).max))


class ParseError(ValueError):
    """Malformed market file; message carries file position context."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class MarketFile:
    """Parsed, dimension-checked market description (gains kept raw)."""

    male_types: tuple[str, ...]
    female_types: tuple[str, ...]
    gains_mode: str
    gains: np.ndarray  # raw entries as given, per gains_mode
    populations: np.ndarray  # length I+J, non-negative (zeros allowed)
    c_matrix: np.ndarray | None = None

    def __post_init__(self):
        n_men, n_women = len(self.male_types), len(self.female_types)
        if len(set(self.male_types)) != n_men or len(set(self.female_types)) != n_women:
            raise ParseError("type labels must be unique within each side")
        if self.gains_mode not in GAINS_MODES:
            raise ParseError(f"unknown gains mode {self.gains_mode!r}")
        gains = np.asarray(self.gains, dtype=float)
        if gains.shape != (n_men, n_women):
            raise ParseError(
                f"gains block has shape {gains.shape}, expected ({n_men}, {n_women})"
            )
        if self.gains_mode == "Pi" and np.any(gains < 0):
            i, j = np.argwhere(gains < 0)[0]
            raise ParseError(
                f"gain {float(gains[i, j])!r} for ({self.male_types[i]}, {self.female_types[j]}): "
                "gains entries must be non-negative in Pi mode"
            )
        if self.gains_mode == "pi" and np.any(gains > MAX_LOG_GAIN):
            i, j = np.argwhere(gains > MAX_LOG_GAIN)[0]
            pair = f"({self.male_types[i]}, {self.female_types[j]})"
            raise ParseError(
                f"log gain {float(gains[i, j])!r} for {pair} exceeds {MAX_LOG_GAIN!r}, "
                "beyond which exp(pi) overflows"
            )
        populations = np.asarray(self.populations, dtype=float)
        if populations.shape != (n_men + n_women,):
            raise ParseError(
                f"population block has {populations.size} entries, expected {n_men + n_women}"
            )
        if np.any(populations < 0):
            k = np.flatnonzero(populations < 0)[0]
            label = (self.male_types + self.female_types)[k]
            raise ParseError(
                f"count {float(populations[k])!r} for {label}: "
                "population counts must be non-negative"
            )
        if self.c_matrix is not None:
            c = np.asarray(self.c_matrix, dtype=float)
            if c.shape != (n_men, n_women):
                raise ParseError(
                    f"c block has shape {c.shape}, expected ({n_men}, {n_women})"
                )
            if not np.isfinite(c).all():
                raise ParseError("c block entries must be finite")
            object.__setattr__(self, "c_matrix", c)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "populations", populations)

    @property
    def pi_matrix(self) -> np.ndarray:
        """Exponentiated gains regardless of the input mode."""
        if self.gains_mode == "pi":
            return np.exp(self.gains)
        return self.gains

    @property
    def populated(self) -> np.ndarray:
        """Mask over [men | women] of the types with a positive count."""
        return self.populations > 0

    def to_market(self) -> ValidatedMarket:
        """Hand off to the core model: the market of the populated types."""
        gains = GainsMatrix(
            entries=self.pi_matrix,
            row_labels=self.male_types,
            col_labels=self.female_types,
        )
        return reduce_unpopulated(gains, self.populations)


def _parse_matrix_rows(rows: list[tuple[int, str]], name: str) -> np.ndarray:
    parsed = []
    width = None
    for line_no, text in rows:
        try:
            values = [float(tok) for tok in text.split()]
        except ValueError as exc:
            raise ParseError(f"bad number in {name} block: {exc}", line_no) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(
                f"{name} row has {len(values)} entries, expected {width}", line_no
            )
        parsed.append(values)
    if not parsed:
        raise ParseError(f"{name} block is empty")
    return np.array(parsed)


def parse_market(path, gains_mode_override: str | None = None) -> MarketFile:
    """Parse the canonical structured-text market file."""
    path = Path(path)
    sections: dict[str, list[tuple[int, str]]] = {}
    section_attrs: dict[str, dict[str, str]] = {}
    current: str | None = None
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            parts = header.split()
            name = parts[0]
            attrs = {}
            for part in parts[1:]:
                if "=" not in part:
                    raise ParseError(f"bad section attribute {part!r}", line_no)
                key, value = part.split("=", 1)
                attrs[key] = value
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", line_no)
            sections[name] = []
            section_attrs[name] = attrs
            current = name
        elif current is None:
            if "=" not in line:
                raise ParseError(f"expected key = value before first section, got {line!r}", line_no)
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "format_version" and value != FORMAT_VERSION:
                raise ParseError(
                    f"format_version {value!r} is not supported (expected {FORMAT_VERSION})",
                    line_no,
                )
        else:
            sections[current].append((line_no, line))

    for required in ("types.male", "types.female", "gains", "population"):
        if required not in sections:
            raise ParseError(f"missing required section [{required}]")

    male_types = tuple(text for _, text in sections["types.male"])
    female_types = tuple(text for _, text in sections["types.female"])

    gains_mode = gains_mode_override or section_attrs["gains"].get("mode")
    if gains_mode is None:
        raise ParseError("gains section is missing its mode tag (mode=Pi or mode=pi)")
    gains = _parse_matrix_rows(sections["gains"], "gains")

    expected_labels = male_types + female_types
    populations = np.empty(len(expected_labels))
    pop_rows = sections["population"]
    if len(pop_rows) != len(expected_labels):
        raise ParseError(
            f"population block has {len(pop_rows)} lines, expected {len(expected_labels)}"
        )
    for k, (line_no, text) in enumerate(pop_rows):
        parts = text.rsplit(None, 1)
        if len(parts) != 2:
            raise ParseError("population lines must read 'label value'", line_no)
        label, value = parts
        if label != expected_labels[k]:
            raise ParseError(
                f"population label {label!r} does not match declared type "
                f"{expected_labels[k]!r} (male types first, then female)",
                line_no,
            )
        try:
            populations[k] = float(value)
        except ValueError:
            raise ParseError(f"bad population count {value!r}", line_no) from None

    c_matrix = _parse_matrix_rows(sections["c"], "c") if "c" in sections else None

    return MarketFile(
        male_types=male_types,
        female_types=female_types,
        gains_mode=gains_mode,
        gains=gains,
        populations=populations,
        c_matrix=c_matrix,
    )


def parse_market_tables(
    gains_path, populations_path, gains_mode: str = "Pi"
) -> MarketFile:
    """Parse the CSV pair format (gains table + population table)."""
    with open(gains_path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if any(cell.strip() for cell in row)]
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ParseError(f"{gains_path}: gains table needs a header row and one data row")
    female_types = tuple(cell.strip() for cell in rows[0][1:])
    male_types = tuple(row[0].strip() for row in rows[1:])
    try:
        gains = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
    except ValueError as exc:
        raise ParseError(f"{gains_path}: bad number in gains table: {exc}") from None
    if gains.shape[1] != len(female_types):
        raise ParseError(f"{gains_path}: ragged gains table")

    declared = {"male": male_types, "female": female_types}
    counts = {}
    with open(populations_path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or {"side", "label", "count"} - set(reader.fieldnames):
            raise ParseError(f"{populations_path}: expected columns side,label,count")
        for row in reader:
            missing = [key for key in ("side", "label", "count") if row[key] is None]
            if missing:
                raise ParseError(
                    f"{populations_path}: line {reader.line_num} has no {missing[0]} cell"
                )
            side, label = row["side"].strip(), row["label"].strip()
            if side not in declared:
                raise ParseError(f"{populations_path}: unknown side {side!r}")
            if label not in declared[side]:
                raise ParseError(
                    f"{populations_path}: {side} label {label!r} is not in the gains table"
                )
            if (side, label) in counts:
                raise ParseError(f"{populations_path}: duplicate {side} row for {label!r}")
            try:
                counts[side, label] = float(row["count"])
            except ValueError:
                raise ParseError(
                    f"{populations_path}: bad count {row['count']!r}"
                ) from None
    populations = []
    for side, labels in declared.items():
        for label in labels:
            if (side, label) not in counts:
                raise ParseError(f"{populations_path}: missing {side} count for {label!r}")
            populations.append(counts[side, label])

    return MarketFile(
        male_types=male_types,
        female_types=female_types,
        gains_mode=gains_mode,
        gains=gains,
        populations=np.array(populations),
    )
