"""Model formula parsing and design-matrix construction.

Grammar::

    formula := ident "~" term ("+" term)*
    term    := "C(" ident ")" | ident | ident "^2"

Whitespace is insignificant.  ``C(x)`` marks a factor (dummy coding against
a reference level), a bare ``x`` enters linearly, and ``x^2`` adds the
square of ``x`` as an extra column tied to its base term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .dataset import DataError, Dataset, readonly_copy


class FormulaError(ValueError):
    """Parse or model-structure error; ``position`` indexes into the source text."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message)
        self.position = position


# design-column transforms; a formula term has one of the last three
INTERCEPT = "intercept"
INDICATOR = "indicator"
IDENTITY = "identity"
SQUARE = "square"
TRANSFORMS = (INTERCEPT, INDICATOR, IDENTITY, SQUARE)


@dataclass(frozen=True)
class Term:
    """One formula term: ``C(var)`` is INDICATOR, ``var`` IDENTITY, ``var^2`` SQUARE."""

    var: str
    transform: str

    def __post_init__(self):
        if self.transform not in (INDICATOR, IDENTITY, SQUARE):
            raise FormulaError(f"unknown term transform {self.transform!r}")


@dataclass(frozen=True)
class ModelSpec:
    response: str
    terms: tuple[Term, ...]


_TOKEN_RE = re.compile(r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<num>\d+)"
                       r"|(?P<op>[~+()^])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaError(f"unexpected character {text[pos]!r} at position {pos}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self, kind: str, value: Optional[str] = None):
        tk, tv, tp = self.peek()
        if tk != kind or (value is not None and tv != value):
            want = value if value is not None else kind
            raise FormulaError(f"expected {want!r} at position {tp}", tp)
        self.i += 1
        return tv, tp

    def parse(self) -> ModelSpec:
        response, _ = self.take("ident")
        self.take("op", "~")
        terms = [self.term()]
        while True:
            tk, tv, tp = self.peek()
            if tk is None:
                break
            if tk == "op" and tv == "+":
                self.i += 1
                terms.append(self.term())
            else:
                raise FormulaError(f"expected '+' or end of formula at position {tp}", tp)
        return _validated(self.text, response, terms)

    def term(self) -> tuple[Term, int]:
        name, pos = self.take("ident")
        tk, tv, tp = self.peek()
        if name == "C" and tk == "op" and tv == "(":
            self.i += 1
            var, _ = self.take("ident")
            self.take("op", ")")
            return Term(var, INDICATOR), pos
        if tk == "op" and tv == "^":
            self.i += 1
            num, npos = self.take("num")
            if int(num) != 2:
                raise FormulaError(f"unsupported exponent {num} at position {npos}"
                                   " (only ^2 is supported)", npos)
            return Term(name, SQUARE), pos
        return Term(name, IDENTITY), pos


def _validated(text: str, response: str, placed: list[tuple[Term, int]]) -> ModelSpec:
    terms = [t for t, _ in placed]
    for t, pos in placed:
        if t.var == response:
            raise FormulaError(
                f"response {response!r} reused as a predictor at position {pos}", pos)
    seen = set()
    for t, pos in placed:
        if t in seen:
            raise FormulaError(f"duplicate term at position {pos}", pos)
        seen.add(t)
    linears = {t.var for t in terms if t.transform == IDENTITY}
    for t, pos in placed:
        if t.transform == SQUARE and t.var not in linears:
            raise FormulaError(
                f"squared term {t.var}^2 at position {pos} has no bare {t.var} term", pos)
    return ModelSpec(response=response, terms=tuple(terms))


def parse_formula(text: str) -> ModelSpec:
    """Parse a formula string into a :class:`ModelSpec`."""
    return _Parser(text).parse()


@dataclass(frozen=True)
class ColumnRole:
    """Provenance of one design column: its source variable and transform."""

    source: Optional[str]
    transform: str
    level: Optional[str] = None

    def __post_init__(self):
        if self.transform not in TRANSFORMS:
            raise FormulaError(f"unknown column transform {self.transform!r}")

    @property
    def label(self) -> str:
        if self.transform == INTERCEPT:
            return "intercept"
        if self.transform == INDICATOR:
            return f"{self.source}={self.level}"
        if self.transform == SQUARE:
            return f"{self.source}^2"
        return str(self.source)


@dataclass(frozen=True)
class TermMap:
    """Mapping between raw variables and design-matrix columns.

    Column 0 is always the intercept.  A factor with L levels owns L-1
    indicator columns (the omitted level is recorded in ``reference``), and
    a squared term owns a column locked to the square of its base column.
    This map is what makes counterfactual substitution rewrite every column
    a variable touches, never just one.  Construction raises
    :class:`FormulaError` unless each factor has one reference level among
    its levels and one indicator column per other level, in level order,
    and every square column has its linear column.
    """

    columns: tuple[ColumnRole, ...]
    reference: Mapping[str, str]
    factor_levels: Mapping[str, tuple[str, ...]]
    # (source, transform, level) -> first column with that role
    _index: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        cols = self.columns
        if not cols or cols[0].transform != INTERCEPT:
            raise FormulaError("column 0 must be the intercept")
        if set(self.reference) != set(self.factor_levels):
            raise FormulaError("reference levels must name exactly the factors")
        for var, levels in self.factor_levels.items():
            ref = self.reference[var]
            if levels.count(ref) != 1:
                raise FormulaError(f"reference level {ref!r} of factor {var!r} must "
                                   "be one of its levels, once")
            got = [c.level for c in cols if c.source == var and c.transform == INDICATOR]
            if got != [lv for lv in levels if lv != ref]:
                raise FormulaError(f"indicator columns of factor {var!r} must be its "
                                   "non-reference levels, in order")
        index: dict = {}
        for j, c in enumerate(cols):
            if c.transform == INDICATOR and c.source not in self.factor_levels:
                raise FormulaError(f"indicator column {c.label!r} belongs to no factor")
            index.setdefault((c.source, c.transform, c.level), j)
        for c in cols:
            if c.transform == SQUARE and (c.source, IDENTITY, None) not in index:
                raise FormulaError(f"square column {c.label!r} has no linear column")
        object.__setattr__(self, "_index", index)

    @property
    def k(self) -> int:
        return len(self.columns)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.columns)

    def is_factor(self, var: str) -> bool:
        return var in self.factor_levels

    def indicator_col(self, var: str, level: str) -> Optional[int]:
        return self._index.get((var, INDICATOR, level))

    def linear_col(self, var: str) -> int:
        j = self._index.get((var, IDENTITY, None))
        if j is None:
            raise KeyError(f"variable {var!r} has no linear column")
        return j

    def square_col(self, var: str) -> Optional[int]:
        return self._index.get((var, SQUARE, None))

    def to_dict(self) -> dict:
        return {
            "columns": [
                {"source": c.source, "transform": c.transform, "level": c.level}
                for c in self.columns
            ],
            "reference": dict(self.reference),
            "factor_levels": {v: list(lvls) for v, lvls in self.factor_levels.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TermMap":
        cols = tuple(ColumnRole(c["source"], c["transform"], c.get("level"))
                     for c in d["columns"])
        return cls(columns=cols,
                   reference=dict(d["reference"]),
                   factor_levels={v: tuple(lvls) for v, lvls in d["factor_levels"].items()})


@dataclass(frozen=True)
class DesignMatrix:
    """Dense design matrix, response vector, and the term map that built them.

    Construction raises :class:`FormulaError` unless ``X`` is a finite n x k
    matrix, k the term map's width, and ``y`` n values in {0, 1}.  Any n is
    a design: a fit needs n > k, a margin on new rows does not.
    """

    X: np.ndarray
    y: np.ndarray
    term_map: TermMap

    def __post_init__(self):
        object.__setattr__(self, "X", readonly_copy(self.X))
        object.__setattr__(self, "y", readonly_copy(self.y))
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[0] != self.y.shape[0]:
            raise FormulaError("design shapes disagree")
        if self.X.shape[1] != self.term_map.k:
            raise FormulaError("design width disagrees with term map")
        if not np.isin(self.y, (0.0, 1.0)).all():
            raise FormulaError("response must be 0/1")
        if not np.isfinite(self.X).all():
            raise FormulaError("design matrix has non-finite values")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]


def build_design(
    ds: Dataset,
    spec: ModelSpec,
    *,
    reference: Optional[Mapping[str, str]] = None,
) -> DesignMatrix:
    """Build the design matrix and term map for ``spec`` over ``ds``.

    A factor gets one indicator column per level of its column except the
    reference, in the column's level order.  That order is the one the
    dataset was loaded with: to re-apply a stored model to new data, load
    the data with ``ColumnSpec(levels=term_map.factor_levels[var])``, which
    pins the order and makes an unseen level a :class:`DataError`, and pass
    the stored ``term_map.reference``.  ``reference`` overrides the
    reference level per factor (default: the first level); a key that is
    not a factor term of ``spec`` raises :class:`FormulaError`.  A squared
    term that overflows raises :class:`DataError`.
    """
    reference = dict(reference or {})
    factors = {t.var for t in spec.terms if t.transform == INDICATOR}
    for var in reference:
        if var not in factors:
            raise FormulaError(f"reference level given for {var!r}, which is not "
                               "a factor term of the formula")

    resp_col = ds.column(spec.response)
    if resp_col.kind != "binary":
        raise FormulaError(f"response {spec.response!r} must be a binary column")
    y = resp_col.values.astype(np.float64)

    n = ds.n_rows
    roles: list[ColumnRole] = [ColumnRole(None, INTERCEPT)]
    cols: list[np.ndarray] = [np.ones(n)]
    refmap: dict[str, str] = {}
    levmap: dict[str, tuple[str, ...]] = {}

    for term in spec.terms:
        col = ds.column(term.var)
        if term.transform == INDICATOR:
            if col.kind != "categorical":
                raise FormulaError(
                    f"C({term.var}) requires a categorical column, got {col.kind}")
            # min == max rather than np.unique, which imports numpy.ma
            if not col.values.size or col.values.min() == col.values.max():
                raise FormulaError(f"factor {term.var!r} has fewer than 2 observed levels")
            ref = reference.get(term.var, col.levels[0])
            if ref not in col.levels:
                raise FormulaError(f"reference level {ref!r} unknown for {term.var!r}")
            for code, level in enumerate(col.levels):
                if level != ref:
                    roles.append(ColumnRole(term.var, INDICATOR, level))
                    cols.append((col.values == code).astype(np.float64))
            refmap[term.var] = ref
            levmap[term.var] = tuple(col.levels)
        elif term.transform == IDENTITY:
            if col.kind == "categorical":
                raise FormulaError(
                    f"categorical column {term.var!r} must be wrapped in C()")
            roles.append(ColumnRole(term.var, IDENTITY))
            cols.append(col.values.astype(np.float64))
        else:  # SQUARE
            if col.kind != "continuous":
                raise FormulaError(f"squared term needs a continuous column, got {col.kind}")
            roles.append(ColumnRole(term.var, SQUARE))
            with np.errstate(over="ignore"):
                cols.append(col.values.astype(np.float64) ** 2)
            if not np.isfinite(cols[-1]).all():
                raise DataError(f"squared term {roles[-1].label} overflows: some |{term.var}| "
                                f"exceeds {np.sqrt(np.finfo(np.float64).max):.4g}")

    term_map = TermMap(columns=tuple(roles), reference=refmap, factor_levels=levmap)
    X = np.column_stack(cols)
    del cols  # DesignMatrix copies X; two n x k arrays alive at once, not three
    return DesignMatrix(X=X, y=y, term_map=term_map)


def substitute_matrix(X: np.ndarray, term_map: TermMap, var: str, value) -> np.ndarray:
    """Return a copy of a design row, or of every row of ``X``, with ``var`` set.

    Every column sourced from ``var`` is rewritten together: indicators flip
    to the new level, the identity column takes the new value, and a square
    column takes its square.  Columns owned by other variables are untouched.
    Raises ``KeyError`` for an unknown variable or level and ``ValueError``
    for a non-finite value.
    """
    if term_map.is_factor(var):
        if value not in term_map.factor_levels[var]:
            raise KeyError(f"unknown level {value!r} for factor {var!r}")
        ref = term_map.reference[var]
        cols = {term_map.indicator_col(var, lv): float(lv == value)
                for lv in term_map.factor_levels[var] if lv != ref}
    else:
        lin, sq = term_map.linear_col(var), term_map.square_col(var)
        v = float(value)
        if not np.isfinite(v):
            raise ValueError(f"non-finite value {value!r} for {var!r}")
        cols = {lin: v} if sq is None else {lin: v, sq: v * v}
    out = np.array(X, dtype=np.float64, copy=True)
    for j, x in cols.items():
        out[..., j] = x
    return out
