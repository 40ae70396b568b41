"""Independent reference implementations used only by the tests.

Nothing here calls the library's substitution, margin or CSV code.  The
margin oracles re-implement the counterfactual recipe as plain Python loops
over raw column values: set the target variable for one row, rebuild that
row's design vector from scratch, predict, repeat, average.  The CSV
oracles read a file one row and one cell at a time.
"""

import csv
import math

import numpy as np

from logitmargins.dataset import MISSING_TOKENS, Column, ColumnSpec, DataError, Dataset


def sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


class ToyModel:
    """Hand-coded design layout for a small model.

    ``factors`` maps a variable to its ordered non-reference levels;
    ``continuous`` maps a variable to True when a squared column follows its
    linear column.  Column order: intercept, then factors (in order), then
    continuous variables (linear, then square when present).
    """

    def __init__(self, factors: dict, continuous: dict, raw: dict):
        self.factors = factors
        self.continuous = continuous
        self.raw = raw  # variable -> list of per-row raw values
        self.n = len(next(iter(raw.values())))

    def row(self, i: int, overrides: dict) -> list:
        cells = [1.0]
        for var, nonref in self.factors.items():
            value = overrides.get(var, self.raw[var][i])
            for level in nonref:
                cells.append(1.0 if value == level else 0.0)
        for var, squared in self.continuous.items():
            v = float(overrides.get(var, self.raw[var][i]))
            cells.append(v)
            if squared:
                cells.append(v * v)
        return cells

    def mean_row(self) -> list:
        # fractional indicators and variable-level means (square of the mean)
        cells = [1.0]
        for var, nonref in self.factors.items():
            vals = self.raw[var]
            for level in nonref:
                cells.append(sum(1.0 for v in vals if v == level) / self.n)
        for var, squared in self.continuous.items():
            m = sum(float(v) for v in self.raw[var]) / self.n
            cells.append(m)
            if squared:
                cells.append(m * m)
        return cells

    # the averaging recipe: substitute per publication, predict, then average

    def aap(self, beta, var, value) -> float:
        total = 0.0
        for i in range(self.n):
            total += sigmoid(_dot(self.row(i, {var: value}), beta))
        return total / self.n

    def ame(self, beta, var, value, base) -> float:
        total = 0.0
        for i in range(self.n):
            p1 = sigmoid(_dot(self.row(i, {var: value}), beta))
            p0 = sigmoid(_dot(self.row(i, {var: base}), beta))
            total += p1 - p0
        return total / self.n

    def aprv(self, beta, fvar, level, cvar, v) -> float:
        total = 0.0
        for i in range(self.n):
            total += sigmoid(_dot(self.row(i, {fvar: level, cvar: v}), beta))
        return total / self.n

    def merv(self, beta, fvar, level, base, cvar, v) -> float:
        return (self.aprv(beta, fvar, level, cvar, v)
                - self.aprv(beta, fvar, base, cvar, v))

    def ame_derivative(self, beta, var, v) -> float:
        # d/dv of sigmoid at substituted v: p(1-p) * (b_lin + 2 b_sq v)
        lin, sq = self._cont_cols(var)
        slope = beta[lin] + (2.0 * beta[sq] * v if sq is not None else 0.0)
        total = 0.0
        for i in range(self.n):
            p = sigmoid(_dot(self.row(i, {var: v}), beta))
            total += p * (1.0 - p) * slope
        return total / self.n

    def ame_observed(self, beta, var) -> float:
        # the derivative with every row at its own value of var
        lin, sq = self._cont_cols(var)
        total = 0.0
        for i in range(self.n):
            v = float(self.raw[var][i])
            slope = beta[lin] + (2.0 * beta[sq] * v if sq is not None else 0.0)
            p = sigmoid(_dot(self.row(i, {}), beta))
            total += p * (1.0 - p) * slope
        return total / self.n

    def ame_unit(self, beta, var, v=None) -> float:
        # mean[p(v+1) - p(v)]; v=None keeps each row's own value
        total = 0.0
        for i in range(self.n):
            at = float(self.raw[var][i]) if v is None else v
            total += (sigmoid(_dot(self.row(i, {var: at + 1.0}), beta))
                      - sigmoid(_dot(self.row(i, {var: at}), beta)))
        return total / self.n

    def mem_derivative(self, beta, var, v=None) -> float:
        # the derivative at the mean row, var at v (default: its mean)
        lin, sq = self._cont_cols(var)
        cells = self.mean_row()
        if v is not None:
            cells = self._override_mean_row(cells, var, v)
        slope = beta[lin] + (2.0 * beta[sq] * cells[lin] if sq is not None else 0.0)
        p = sigmoid(_dot(cells, beta))
        return p * (1.0 - p) * slope

    def mem_unit(self, beta, var, v=None) -> float:
        lin, _ = self._cont_cols(var)
        at = self.mean_row()[lin] if v is None else v
        return self.apm_at(beta, {var: at + 1.0}) - self.apm_at(beta, {var: at})

    def apm(self, beta, var, value) -> float:
        return self.apm_at(beta, {var: value})

    def apm_at(self, beta, overrides: dict) -> float:
        cells = self.mean_row()
        for var, value in overrides.items():
            cells = self._override_mean_row(cells, var, value)
        return sigmoid(_dot(cells, beta))

    def mem(self, beta, var, value, base) -> float:
        return self.apm(beta, var, value) - self.apm(beta, var, base)

    def _cont_cols(self, var):
        j = 1 + sum(len(v) for v in self.factors.values())
        for name, squared in self.continuous.items():
            if name == var:
                return j, (j + 1 if squared else None)
            j += 2 if squared else 1
        raise KeyError(var)

    def _override_mean_row(self, row, var, value):
        cells = list(row)
        if var in self.factors:
            j = 1
            for name, nonref in self.factors.items():
                for level in nonref:
                    if name == var:
                        cells[j] = 1.0 if level == value else 0.0
                    j += 1
        else:
            lin, sq = self._cont_cols(var)
            cells[lin] = float(value)
            if sq is not None:
                cells[sq] = float(value) ** 2
        return cells


def _dot(row, beta) -> float:
    return sum(r * b for r, b in zip(row, beta))


def irls_fit(X: np.ndarray, y: np.ndarray, max_iter: int = 200,
             tol: float = 1e-12) -> np.ndarray:
    """Independent logit MLE via iteratively reweighted least squares.

    Solves each weighted least-squares step with a QR-based lstsq rather
    than the Newton/Cholesky route the library takes.
    """
    n, k = X.shape
    beta = np.zeros(k)
    for _ in range(max_iter):
        eta = X @ beta
        p = 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700)))
        w = np.clip(p * (1.0 - p), 1e-12, None)
        z = eta + (y - p) / w
        sw = np.sqrt(w)
        new_beta, *_ = np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)
        if np.max(np.abs(new_beta - beta)) < tol:
            return new_beta
        beta = new_beta
    return beta


def svd_rank(X: np.ndarray) -> int:
    """Numerical rank of X from its singular values: those above
    ``s_max * max(n, k) * eps`` count."""
    s = np.linalg.svd(X, compute_uv=False)
    return int((s > s[0] * max(X.shape) * np.finfo(np.float64).eps).sum())


def lp_separated(X: np.ndarray, y: np.ndarray) -> bool:
    """Whether the logit MLE of (X, y) fails to exist, by Konis's linear
    program (Konis 2007, the ``safeBinaryRegression`` R package): maximise
    sum((2y-1) x beta) subject to (2y-1) x_i beta >= 0 on every row and
    |beta_j| <= 1.  For a full-rank X the optimum is positive exactly when
    some direction separates the outcomes, completely or quasi-completely.
    """
    from scipy.optimize import linprog
    A = (2.0 * y - 1.0)[:, None] * X
    res = linprog(-A.sum(axis=0), A_ub=-A, b_ub=np.zeros(len(A)),
                  bounds=[(-1.0, 1.0)] * X.shape[1], method="highs")
    assert res.status == 0, res.message
    return -res.fun > 1e-6


def fd_gradient(f, beta: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Fourth-order central finite-difference gradient of scalar f at beta.

    ``(8 (f(b+h) - f(b-h)) - (f(b+2h) - f(b-2h))) / 12h`` has truncation
    error O(h^4), so h can be large enough that the rounding of f, about
    eps |f| / h, stays far below a 1e-6 relative bound.
    """
    beta = np.asarray(beta, dtype=np.float64)
    g = np.zeros_like(beta)
    for j in range(len(beta)):
        def at(t):
            b = beta.copy()
            b[j] += t
            return f(b)
        g[j] = (8.0 * (at(h) - at(-h)) - (at(2.0 * h) - at(-2.0 * h))) / (12.0 * h)
    return g


def _csv_rows(path):
    """The stripped header names and the non-empty rows of a CSV file."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(set(header)) < len(header):
            raise DataError(f"{path}: column names are not unique")
        return header, [row for row in reader if row]


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_csv_rowwise(path, schema) -> Dataset:
    """``load_csv`` one row at a time: a stripped cell list per row, listwise
    deletion per row, then a typed column from each cell position."""
    specs = [s if isinstance(s, ColumnSpec) else ColumnSpec(*s) for s in schema]
    header, rows = _csv_rows(path)
    for spec in specs:
        if spec.name not in header:
            raise DataError(f"{path}: header is missing column {spec.name!r}")
    where = [header.index(s.name) for s in specs]
    kept, n_dropped = [], 0
    for row in rows:
        cells = [row[j].strip() if j < len(row) else "" for j in where]
        if any(c in MISSING_TOKENS for c in cells):
            n_dropped += 1
        else:
            kept.append(cells)
    if not kept:
        raise DataError(f"{path}: no rows left after listwise deletion")
    columns = tuple(_column_rowwise(spec, [r[j] for r in kept])
                    for j, spec in enumerate(specs))
    return Dataset(columns, n_dropped=n_dropped)


def _column_rowwise(spec: ColumnSpec, tokens: list) -> Column:
    if spec.kind == "categorical":
        index = {lv: i for i, lv in enumerate(spec.levels or ())}
        codes = []
        for t in tokens:
            if t not in index:
                if spec.levels is not None:
                    raise DataError(
                        f"unknown level {t!r} for categorical column {spec.name!r}")
                index[t] = len(index)
            codes.append(index[t])
        levels = tuple(index) if spec.levels is None else tuple(spec.levels)
        return Column(spec.name, "categorical", np.array(codes, dtype=np.int64), levels)
    values = []
    for t in tokens:
        if not _is_float(t):
            raise DataError(f"non-numeric token {t!r} in {spec.kind} column {spec.name!r}")
        values.append(float(t))
    if spec.kind == "binary":
        for t, v in zip(tokens, values):
            if v not in (0.0, 1.0):
                raise DataError(f"invalid binary value {t!r} in column {spec.name!r}")
    elif not all(math.isfinite(v) for v in values):
        raise DataError(f"non-finite value in continuous column {spec.name!r}")
    return Column(spec.name, spec.kind, np.array(values, dtype=np.float64))


def sniff_kinds_rowwise(path) -> list:
    """The column kinds ``sniff_schema`` infers, gathered cell by cell."""
    header, rows = _csv_rows(path)
    seen = [[] for _ in header]
    for row in rows:
        for tokens, t in zip(seen, row):
            if t.strip() not in MISSING_TOKENS:
                tokens.append(t.strip())
    kinds = []
    for tokens in seen:
        if tokens and all(t in ("0", "1") for t in tokens):
            kinds.append("binary")
        elif tokens and all(_is_float(t) for t in tokens):
            kinds.append("continuous")
        else:
            kinds.append("categorical")
    return kinds
