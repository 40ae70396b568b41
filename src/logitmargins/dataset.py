"""Typed tabular data: CSV loading, listwise deletion, descriptive summaries."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
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
            # csv.writer quotes a line feed but not a bare carriage return, so
            # every table or CSV holding such a level would split its row
            for level in self.levels:
                if "\r" in str(level):
                    raise DataError(f"level {level!r} of column {self.name!r} holds a "
                                    "carriage return")
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

    def tokens(self) -> list[str]:
        """The CSV cells of this column, which load back to the same values."""
        values = self.values.tolist()
        if self.kind == "categorical":
            return [self.levels[c] for c in values]
        return list(map(str, map(int, values)) if self.kind == "binary"
                    else map(repr, values))


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of equally long typed columns.

    ``n_dropped`` records how many rows listwise deletion removed at load
    time; it is metadata and does not participate in equality.
    """

    columns: tuple[Column, ...]
    n_dropped: int = 0

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
        return (self.names == other.names
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


def _normalize_schema(schema: Sequence) -> list[ColumnSpec]:
    out = []
    for entry in schema:
        if isinstance(entry, ColumnSpec):
            out.append(entry)
        else:
            name, kind = entry
            out.append(ColumnSpec(name, kind))
    return out


def load_csv(path, schema: Sequence) -> Dataset:
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
    header, columns = _csv_columns(path)
    for spec in specs:
        if spec.name not in header:
            raise DataError(f"{path}: header is missing column {spec.name!r}")
    cells = [columns[header.index(s.name)] for s in specs]
    dropped = set()
    for col in cells:
        for tok in MISSING_TOKENS:
            if tok in col:
                dropped.update(i for i, t in enumerate(col) if t == tok)
    if len(dropped) == (len(columns[0]) if columns else 0):
        raise DataError(f"{path}: no rows left after listwise deletion")
    if dropped:
        cells = [[t for i, t in enumerate(col) if i not in dropped] for col in cells]
    return Dataset(tuple(_make_column(s, col) for s, col in zip(specs, cells)),
                   n_dropped=len(dropped))


def _csv_columns(path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV file into its stripped, distinct header names and one list
    of stripped cells per column.  Empty lines are skipped; a row's absent
    cells read as ``""``."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(filter(None, reader))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [name.strip() for name in header]
    if len(set(header)) < len(header):
        raise DataError(f"{path}: column names are not unique")
    # the header row gives each name a column even with no cells below it;
    # stripping while the rows are alive peaks lower than a later copy would
    columns = itertools.zip_longest(header, *rows, fillvalue="")
    return header, [list(map(str.strip, itertools.islice(col, 1, None))) for col in columns]


def _make_column(spec: ColumnSpec, tokens: list[str]) -> Column:
    if spec.kind == "categorical":
        # declared level order wins, otherwise first appearance
        levels = tuple(dict.fromkeys(tokens) if spec.levels is None else spec.levels)
        index = {lv: i for i, lv in enumerate(levels)}
        try:
            codes = np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))
        except KeyError as exc:
            raise DataError(f"unknown level {exc.args[0]!r} for categorical "
                            f"column {spec.name!r}") from None
        return Column(spec.name, "categorical", codes, levels)
    try:
        values = np.array(list(map(float, tokens)), dtype=np.float64)
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
        writer.writerows(zip(*(c.tokens() for c in ds.columns)))


def schema_of(ds: Dataset) -> list[ColumnSpec]:
    """Schema that reloads this dataset with identical typing and level order."""
    return [ColumnSpec(c.name, c.kind, c.levels) for c in ds.columns]


def sniff_schema(path) -> list[ColumnSpec]:
    """Infer column kinds from file contents.

    Values all in {0,1} make a binary column, anything fully numeric is
    continuous, and everything else is categorical.  Missing tokens are
    ignored during inference.
    """
    header, columns = _csv_columns(path)
    specs = []
    for name, col in zip(header, columns):
        tokens = set(col).difference(MISSING_TOKENS)
        if tokens and tokens <= {"0", "1"}:
            specs.append(ColumnSpec(name, "binary"))
        elif tokens and all(map(_is_float, tokens)):
            specs.append(ColumnSpec(name, "continuous"))
        else:
            specs.append(ColumnSpec(name, "categorical"))
    return specs


def summarize(ds: Dataset) -> tuple[SummaryRow, ...]:
    """One descriptive row per line of the table: level percentages for
    factors and binaries, moments (mean, sample sd, min, max) for continuous
    columns."""
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
    return tuple(rows)

