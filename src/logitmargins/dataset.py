"""Typed tabular data: CSV loading, listwise deletion, descriptive summaries."""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

MISSING_TOKENS = ("", "NA")

KINDS = ("continuous", "categorical", "binary")


class DataError(ValueError):
    """Raised for unreadable, malformed, or contract-violating input data."""


def readonly_copy(a) -> np.ndarray:
    """A read-only copy of ``a``, so the caller's array stays writable and a
    later write to it leaves the object that stored the copy unchanged."""
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ColumnSpec:
    """Declared name and kind of one column, with optional fixed level order."""

    name: str
    kind: str
    levels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.levels is not None and self.kind != "categorical":
            raise DataError(f"levels given for non-categorical column {self.name!r}")


@dataclass(frozen=True)
class Column:
    """One typed column.  Continuous and binary columns hold float64
    ``values``; a categorical column holds int64 codes into ``levels``."""

    name: str
    kind: str
    values: np.ndarray
    levels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "values", readonly_copy(self.values))
        ColumnSpec(self.name, self.kind, self.levels)  # checks the kind and where levels go
        if self.kind == "categorical":
            if self.levels is None or len(set(self.levels)) != len(self.levels):
                raise DataError(f"missing or duplicate levels in column {self.name!r}")
            if not np.issubdtype(self.values.dtype, np.integer):
                raise DataError(f"categorical codes in column {self.name!r} must be integers")
            if self.values.size and (self.values.min() < 0
                                     or self.values.max() >= len(self.levels)):
                raise DataError(f"categorical codes out of range in column {self.name!r}")
        elif self.kind == "binary" and not np.isin(self.values, (0.0, 1.0)).all():
            raise DataError(f"binary column {self.name!r} contains values other than 0/1")

    @property
    def codes(self) -> np.ndarray:
        # the categorical codes under their old name, read by bench/oracle.py
        return self.values

    @property
    def n(self) -> int:
        return len(self.values)

    def token(self, i: int) -> str:
        if self.kind == "categorical":
            return self.levels[self.values[i]]
        if self.kind == "binary":
            return str(int(self.values[i]))
        return repr(float(self.values[i]))


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of equally long typed columns.

    ``n_dropped`` records how many rows listwise deletion removed at load
    time; it is metadata and does not participate in equality.
    """

    name: str
    columns: tuple[Column, ...]
    n_dropped: int = field(default=0, compare=False)

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("column names are not unique")
        if any(not c.name for c in self.columns):
            raise DataError("empty column name")
        lengths = {c.n for c in self.columns}
        if len(lengths) > 1:
            raise DataError(f"ragged columns: lengths {sorted(lengths)}")

    @property
    def n_rows(self) -> int:
        return self.columns[0].n if self.columns else 0

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise DataError(f"no column named {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.name == other.name and self.names == other.names
                and all(a.kind == b.kind and a.levels == b.levels
                        and np.array_equal(a.values, b.values)
                        for a, b in zip(self.columns, other.columns)))


@dataclass(frozen=True)
class SummaryRow:
    """One descriptive line: a percentage for levels/binaries, moments otherwise."""

    variable: str
    level: Optional[str]
    value: float  # percentage for categorical levels and binaries, mean otherwise
    sd: Optional[float]
    vmin: float
    vmax: float


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple[SummaryRow, ...]


def _normalize_schema(schema: Sequence) -> list[ColumnSpec]:
    out = []
    for entry in schema:
        if isinstance(entry, ColumnSpec):
            out.append(entry)
        else:
            name, kind = entry
            out.append(ColumnSpec(name, kind))
    return out


def load_csv(path, schema: Sequence, name: Optional[str] = None) -> Dataset:
    """Load a typed dataset from a CSV file.

    ``schema`` lists ``(name, kind)`` pairs or :class:`ColumnSpec` objects;
    kinds are ``continuous``, ``categorical``, or ``binary``.  Rows with a
    missing value (empty field or ``NA``) in any schema column are dropped,
    and the count of removed rows is recorded on the returned dataset.

    Raises :class:`DataError` for unreadable files, headers that do not
    cover the schema, non-numeric tokens in numeric columns, binary values
    other than 0/1, and datasets left empty after filtering.
    """
    specs = _normalize_schema(schema)
    with _csv_rows(path) as (header, rows):
        col_index = {}
        for spec in specs:
            if spec.name not in header:
                raise DataError(f"{path}: header is missing column {spec.name!r}")
            col_index[spec.name] = header.index(spec.name)
        raw: list[list[str]] = []
        n_dropped = 0
        for row in rows:
            cells = [row[col_index[s.name]].strip() if col_index[s.name] < len(row) else ""
                     for s in specs]
            if any(c in MISSING_TOKENS for c in cells):
                n_dropped += 1
                continue
            raw.append(cells)
    if not raw:
        raise DataError(f"{path}: no rows left after listwise deletion")

    columns: list[Column] = []
    for j, spec in enumerate(specs):
        tokens = [r[j] for r in raw]
        columns.append(_make_column(spec, tokens))
    return Dataset(name=name or str(path), columns=tuple(columns), n_dropped=n_dropped)


@contextlib.contextmanager
def _csv_rows(path):
    """Open a CSV file and yield its header and an iterator over its non-empty
    rows, which streams from the file until the ``with`` block ends."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        yield header, filter(None, reader)


def _make_column(spec: ColumnSpec, tokens: list[str]) -> Column:
    if spec.kind == "categorical":
        # declared level order wins, otherwise first appearance
        index = {lv: i for i, lv in enumerate(spec.levels or ())}
        codes = np.empty(len(tokens), dtype=np.int64)
        for i, t in enumerate(tokens):
            if t not in index:
                if spec.levels is not None:
                    raise DataError(
                        f"unknown level {t!r} for categorical column {spec.name!r}")
                index[t] = len(index)
            codes[i] = index[t]
        levels = tuple(index) if spec.levels is None else tuple(spec.levels)
        return Column(spec.name, "categorical", codes, levels)
    try:
        values = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError:
        bad = next(t for t in tokens if not _is_float(t))
        raise DataError(
            f"non-numeric token {bad!r} in {spec.kind} column {spec.name!r}") from None
    if spec.kind == "binary":
        bad_mask = ~np.isin(values, (0.0, 1.0))
        if bad_mask.any():
            i = int(np.argmax(bad_mask))
            raise DataError(
                f"invalid binary value {tokens[i]!r} in column {spec.name!r}")
    elif not np.isfinite(values).all():
        raise DataError(f"non-finite value in continuous column {spec.name!r}")
    return Column(spec.name, spec.kind, values)


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def to_csv(ds: Dataset, path) -> None:
    """Write the dataset back out; reloading with the same schema round-trips."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ds.names)
        for i in range(ds.n_rows):
            writer.writerow([c.token(i) for c in ds.columns])


def schema_of(ds: Dataset) -> list[ColumnSpec]:
    """Schema that reloads this dataset with identical typing and level order."""
    return [ColumnSpec(c.name, c.kind, c.levels) for c in ds.columns]


def sniff_schema(path) -> list[ColumnSpec]:
    """Infer column kinds from file contents.

    Values all in {0,1} make a binary column, anything fully numeric is
    continuous, and everything else is categorical.  Missing tokens are
    ignored during inference.
    """
    with _csv_rows(path) as (header, rows):
        seen: list[list[str]] = [[] for _ in header]
        for row in rows:
            for tokens, t in zip(seen, row):
                t = t.strip()
                if t not in MISSING_TOKENS:
                    tokens.append(t)
    specs = []
    for name, tokens in zip(header, seen):
        if tokens and all(t in ("0", "1") for t in tokens):
            specs.append(ColumnSpec(name, "binary"))
        elif tokens and all(_is_float(t) for t in tokens):
            specs.append(ColumnSpec(name, "continuous"))
        else:
            specs.append(ColumnSpec(name, "categorical"))
    return specs


def summarize(ds: Dataset) -> SummaryTable:
    """Descriptive table: level percentages for factors and binaries, moments
    (mean, sample sd, min, max) for continuous columns."""
    if ds.n_rows == 0:
        raise DataError("cannot summarize an empty dataset")
    rows: list[SummaryRow] = []
    for c in ds.columns:
        if c.kind == "binary":
            pct = 100.0 * float(np.mean(c.values))
            rows.append(SummaryRow(c.name, None, pct, None,
                                   float(c.values.min()), float(c.values.max())))
        elif c.kind == "categorical":
            for code, level in enumerate(c.levels):
                share = 100.0 * float(np.mean(c.values == code))
                rows.append(SummaryRow(c.name, level, share, None, 0.0, 1.0))
        else:
            mean = float(np.mean(c.values))
            sd = float(np.std(c.values, ddof=1)) if c.n > 1 else None
            rows.append(SummaryRow(c.name, None, mean, sd,
                                   float(c.values.min()), float(c.values.max())))
    return SummaryTable(tuple(rows))

