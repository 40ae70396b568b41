"""Independent reference results for the benchmark's correctness check.

Nothing here calls the package's design, fit or margin code.  The design
matrix is rebuilt from raw columns with the paper model's layout, the logit
is refit by step-halving Newton iterations, and every margin follows the
counterfactual recipe directly: set a variable in every row, predict,
average.  Prediction gradients use the closed form mean(p(1-p) x); the
derivative marginal effect of ``jif`` takes its gradient by complex-step
differentiation of its own estimate, so no hand-derived formula is shared
with the package.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

Z95 = 1.959964

# layout of the paper model: intercept, factor indicators (reference level
# omitted), then each continuous variable followed by its square if any
FACTORS = ("univ", "subject", "doctype")
CONTINUOUS = (("jif", True), ("years", False), ("authors", False), ("pages", True))
RESPONSE = "top10"


class OracleError(RuntimeError):
    pass


@dataclass
class Raw:
    """Raw columns: factor levels (reference first) with codes, and values."""

    y: np.ndarray
    factors: dict
    continuous: dict


def raw_from_dataset(ds) -> Raw:
    factors, continuous, y = {}, {}, None
    for col in ds.columns:
        if col.name == RESPONSE:
            y = np.asarray(col.values, dtype=np.float64)
        elif col.name in FACTORS:
            factors[col.name] = (tuple(col.levels), np.asarray(col.codes))
        else:
            continuous[col.name] = np.asarray(col.values, dtype=np.float64)
    return Raw(y, factors, continuous)


def raw_from_csv(path) -> Raw:
    """Parse the corpus CSV; factor levels in order of first appearance."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = list(zip(*reader))
    by_name = dict(zip(header, cols))
    factors = {}
    for var in FACTORS:
        levels = tuple(dict.fromkeys(by_name[var]))
        index = {lv: i for i, lv in enumerate(levels)}
        factors[var] = (levels, np.array([index[t] for t in by_name[var]]))
    continuous = {var: np.array(by_name[var], dtype=np.float64) for var, _ in CONTINUOUS}
    return Raw(np.array(by_name[RESPONSE], dtype=np.float64), factors, continuous)


def _expit(z):
    return 1.0 / (1.0 + np.exp(-z))


def _loglik(beta, X, y) -> float:
    eta = X @ beta
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def newton(X: np.ndarray, y: np.ndarray):
    """Logit MLE by Newton from zero, halving any step that lowers the
    likelihood; returns (beta, cov).

    It stops once the score is below 1e-6 and a step no longer raises the
    likelihood beyond rounding.  A quasi-separated sample (a factor level
    whose outcomes are all 0) therefore ends at a boundary point where that
    level's predictions are negligible, as the package's fit does.
    """
    beta = np.zeros(X.shape[1])
    ll = _loglik(beta, X, y)
    for _ in range(200):
        p = _expit(X @ beta)
        score = X.T @ (y - p)
        info = X.T @ (X * (p * (1.0 - p))[:, None])
        step = np.linalg.solve(info, score)
        noise = 64.0 * np.finfo(np.float64).eps * (1.0 + abs(ll))
        t, new_ll = 1.0, _loglik(beta + step, X, y)
        while new_ll < ll - noise and t > 1e-12:
            t *= 0.5
            new_ll = _loglik(beta + t * step, X, y)
        beta, gain, ll = beta + t * step, new_ll - ll, new_ll
        if gain <= noise and np.abs(score).max() < 1e-6:
            break
    else:
        raise OracleError("Newton iterations did not converge")
    p = _expit(X @ beta)
    info = X.T @ (X * (p * (1.0 - p))[:, None])
    return beta, np.linalg.inv(info)


class Model:
    """The paper model fitted to ``raw`` by the oracle."""

    def __init__(self, raw: Raw):
        self.raw = raw
        self.levels = {var: raw.factors[var][0] for var in FACTORS}
        cols, self.col = [np.ones(len(raw.y))], {}
        for var in FACTORS:
            levels, codes = raw.factors[var]
            for i, level in enumerate(levels[1:], start=1):
                self.col[(var, level)] = len(cols)
                cols.append((codes == i).astype(np.float64))
        for var, squared in CONTINUOUS:
            self.col[var] = len(cols)
            cols.append(raw.continuous[var])
            if squared:
                self.col[(var, 2)] = len(cols)
                cols.append(raw.continuous[var] ** 2)
        self.X = np.column_stack(cols)
        self.beta, self.cov = newton(self.X, raw.y)

    def mean_row(self) -> np.ndarray:
        """Level shares for indicators, variable means, squares of the means."""
        row = self.X.mean(axis=0)[None, :].copy()
        for var, squared in CONTINUOUS:
            if squared:
                row[0, self.col[(var, 2)]] = row[0, self.col[var]] ** 2
        return row

    def setting(self, X: np.ndarray, var: str, value) -> np.ndarray:
        """Copy of ``X`` with ``var`` set to ``value`` in every row."""
        out = X.copy()
        if var in FACTORS:
            for level in self.levels[var][1:]:
                out[:, self.col[(var, level)]] = 1.0 if level == value else 0.0
        else:
            out[:, self.col[var]] = value
            if (var, 2) in self.col:
                out[:, self.col[(var, 2)]] = value * value
        return out

    def prediction(self, X: np.ndarray):
        p = _expit(X @ self.beta)
        return float(p.mean()), (X * (p * (1.0 - p))[:, None]).mean(axis=0)

    def slope(self, X: np.ndarray, var: str):
        """Average derivative of the prediction with respect to ``var``."""
        lin, sq = self.col[var], self.col.get((var, 2))
        values = X[:, lin][:, None]
        # column j of B is beta + i h e_j, so X @ B = X beta + i h X[:, j]
        h = 1e-30
        B = self.beta[:, None] + 1j * h * np.eye(len(self.beta))
        p = _expit((X @ self.beta)[:, None] + 1j * h * X)
        b_sq = B[sq] if sq is not None else 0.0
        vals = (p * (1.0 - p) * (B[lin] + 2.0 * b_sq * values)).mean(axis=0)
        return float(vals.real.mean()), vals.imag / h

    def se(self, grad) -> float:
        return float(np.sqrt(grad @ self.cov @ grad))


def _row(m: Model, label, at, est, grad):
    return (label, at, est, m.se(grad))


def factor_predictions(m: Model, var: str, atmeans=False):
    base = m.mean_row() if atmeans else m.X
    prefix = "APM" if atmeans else "AAP"
    return [_row(m, f"{prefix} {var}={lv}", None, *m.prediction(m.setting(base, var, lv)))
            for lv in m.levels[var]]


def factor_effects(m: Model, var: str, atmeans=False):
    base = m.mean_row() if atmeans else m.X
    prefix = "MEM" if atmeans else "AME"
    ref, *others = m.levels[var]
    est_r, grad_r = m.prediction(m.setting(base, var, ref))
    rows = []
    for lv in others:
        est, grad = m.prediction(m.setting(base, var, lv))
        rows.append(_row(m, f"{prefix} {var}={lv}-{ref}", None, est - est_r, grad - grad_r))
    return rows


def grid_predictions(m: Model, var: str, grid):
    return [_row(m, f"AAP {var}", v, *m.prediction(m.setting(m.X, var, v))) for v in grid]


def grid_slopes(m: Model, var: str, grid):
    return [_row(m, f"AME {var}", v, *m.slope(m.setting(m.X, var, v), var)) for v in grid]


def observed_slope(m: Model, var: str):
    return [_row(m, f"AME {var} (observed)", None, *m.slope(m.X, var))]


def _level_grid(m: Model, factor: str, var: str, grid):
    return {lv: [m.prediction(m.setting(m.setting(m.X, factor, lv), var, v)) for v in grid]
            for lv in m.levels[factor]}


def representative_predictions(m: Model, factor: str, var: str, grid):
    cells = _level_grid(m, factor, var, grid)
    return [_row(m, f"APRV {factor}={lv}", v, est, grad)
            for lv in m.levels[factor] for v, (est, grad) in zip(grid, cells[lv])]


def representative_effects(m: Model, factor: str, var: str, grid):
    cells = _level_grid(m, factor, var, grid)
    ref, *others = m.levels[factor]
    return [_row(m, f"MERV {factor}={lv}-{ref}", v, est - est_r, grad - grad_r)
            for lv in others
            for v, (est, grad), (est_r, grad_r) in zip(grid, cells[lv], cells[ref])]


def bootstrap_se(m: Model, var: str, reps: int, seed: int):
    """Bootstrap SD of the factor effects of ``var``, resampling rows with the
    package's documented stream: one ``SeedSequence(seed).spawn`` child per
    replicate, ``default_rng(child).integers(0, n, size=n)``.  Replicates
    whose design loses full rank are skipped; returns (ses, failures)."""
    n, k = m.X.shape
    ref, *others = m.levels[var]
    estimates = []
    for child in np.random.SeedSequence(seed).spawn(reps):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        Xb, yb = m.X[idx], m.raw.y[idx]
        if np.linalg.matrix_rank(Xb) < k:
            continue
        beta, _ = newton(Xb, yb)
        p_ref = _expit(m.setting(Xb, var, ref) @ beta).mean()
        estimates.append([_expit(m.setting(Xb, var, lv) @ beta).mean() - p_ref
                          for lv in others])
    return np.std(np.array(estimates), axis=0, ddof=1), reps - len(estimates)
