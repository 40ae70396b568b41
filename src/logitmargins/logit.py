"""Maximum-likelihood binary logit: Newton-Raphson fit, covariance, fit statistics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .dataset import readonly_copy
from .formula import DesignMatrix, TermMap

SCORE_TOL = 1e-6
_SEPARATION_BETA = 30.0
_SEPARATION_PROB = 1e-10


class FitError(RuntimeError):
    """Base class for estimation failures."""


class RankDeficiencyError(FitError):
    """Design matrix is not full column rank; ``columns`` names the dependent ones."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"design matrix is rank deficient; dependent columns: "
                         f"{', '.join(map(str, self.columns))}")


class SeparationError(FitError):
    """Quasi-complete separation detected; the MLE does not exist."""


class ConvergenceError(FitError):
    """Newton iterations exhausted without meeting the convergence criteria."""


def expit(x, out=None):
    """Logistic function 1/(1+exp(-x)), elementwise; ``out`` may be ``x`` itself.

    Where exp(-x) overflows (x < -709.78) the result is 0, as in scipy's expit.
    """
    with np.errstate(over="ignore"):
        e = np.exp(np.negative(x, out=out), out=out)
        return np.reciprocal(np.add(e, 1.0, out=out), out=out)


def two_sided_p(z) -> np.ndarray:
    """Two-sided normal p-values 2*Phi(-|z|) = erfc(|z|/sqrt(2)), elementwise."""
    z = np.asarray(z, dtype=np.float64)
    return np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in z.flat]).reshape(z.shape)


def log_likelihood(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Bernoulli log-likelihood sum(y*eta - softplus(eta)), overflow safe."""
    beta = np.asarray(beta, dtype=np.float64)
    if not np.isfinite(beta).all():
        raise ValueError("non-finite coefficient vector")
    eta = X @ beta
    # log(1 + exp(eta)) via logaddexp keeps eta = +-800 finite
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def score_and_hessian(beta, X, y):
    """Gradient X'(y-p) and Hessian -X' diag(p(1-p)) X of the log-likelihood."""
    beta = np.asarray(beta, dtype=np.float64)
    eta = X @ beta
    p = expit(eta, out=eta)
    score = X.T @ (y - p)
    w = p * (1.0 - p)
    hessian = -(X * w[:, None]).T @ X
    return score, hessian


@dataclass(frozen=True)
class FitResult:
    """Converged logit fit: coefficients, covariance, and likelihood metadata."""

    beta: np.ndarray
    cov: np.ndarray
    ll: float
    ll0: float
    n: int
    k: int
    iterations: int
    converged: bool
    term_map: Optional[TermMap] = None
    ll_trace: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", readonly_copy(self.beta))
        object.__setattr__(self, "cov", readonly_copy(self.cov))


@dataclass(frozen=True)
class FitStats:
    pseudo_r2: float
    aic: float
    bic: float
    lr_chi2: float
    df: int
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray


def _null_ll(y: np.ndarray) -> float:
    ybar = float(np.mean(y))
    n = len(y)
    if ybar in (0.0, 1.0):
        return 0.0
    return n * (ybar * math.log(ybar) + (1.0 - ybar) * math.log(1.0 - ybar))


def _check_rank(X: np.ndarray, term_map: Optional[TermMap]):
    n, k = X.shape
    sv = np.linalg.svd(np.linalg.qr(X, mode="r"), compute_uv=False)
    tol = sv.max() * max(n, k) * np.finfo(np.float64).eps if sv.size else 0.0
    rank = int((sv > tol).sum())
    if rank < k:
        # only a failing check pays for scipy: its pivoted QR names the columns
        import scipy.linalg
        piv = scipy.linalg.qr(X, mode="r", pivoting=True)[1]
        dependent = sorted(piv[rank:])
        if term_map is not None:
            names = [term_map.labels[j] for j in dependent]
        else:
            names = dependent
        raise RankDeficiencyError(names)


def _check_separation(beta, X, y, col_scale):
    scaled = np.abs(beta) * col_scale
    # column 0 (the intercept) is exempt: constant columns carry no scale
    if len(beta) > 1 and (scaled[1:] > _SEPARATION_BETA).any():
        raise SeparationError(
            "quasi-complete separation: a standardized coefficient exceeds 30")
    ones = y == 1.0
    zeros = ~ones
    if ones.any() and zeros.any():
        p = expit(X @ beta)
        if (p[ones] >= 1.0 - _SEPARATION_PROB).all() and (p[zeros] <= _SEPARATION_PROB).all():
            raise SeparationError(
                "complete separation: fitted probabilities are pinned at 0/1")


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b from the lower Cholesky factor L."""
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


def fit(
    X: Union[np.ndarray, DesignMatrix],
    y: Optional[np.ndarray] = None,
    *,
    max_iter: int = 100,
    tol: float = 1e-10,
    term_map: Optional[TermMap] = None,
) -> FitResult:
    """Fit the logit model by Newton-Raphson from beta = 0.

    Each iteration evaluates the score and Hessian once and factors the
    negative Hessian once.  A step that would lower the log-likelihood is
    halved until it does not, so the trace is nondecreasing.  Convergence
    requires both a relative log-likelihood change below ``tol`` and a
    maximal score component below 1e-6.  The covariance is the inverse
    negative Hessian at the optimum, solved from the converged iterate's
    Cholesky factor; a non-positive-definite Hessian is an error, never a
    pseudo-inverse.

    Raises :class:`RankDeficiencyError`, :class:`SeparationError`, or
    :class:`ConvergenceError` instead of returning unusable estimates.
    """
    if isinstance(X, DesignMatrix):
        term_map = X.term_map if term_map is None else term_map
        X, y = X.X, X.y
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, k) and y (n,) with matching n")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("response must be 0/1")
    if not np.isfinite(X).all():
        raise ValueError("design matrix has non-finite values")
    n, k = X.shape
    if n <= k:
        raise FitError(f"need more observations than parameters (n={n}, k={k})")
    _check_rank(X, term_map)

    col_sd = X.std(axis=0)
    col_scale = np.where(col_sd > 0, col_sd, 1.0)
    beta = np.zeros(k)
    ll = log_likelihood(beta, X, y)
    trace = [ll]
    iterations = 0
    while True:
        score, hessian = score_and_hessian(beta, X, y)
        converged = iterations > 0 and (
            abs(trace[-1] - trace[-2]) / (abs(trace[-2]) + 1e-300) < tol
            and np.abs(score).max() < SCORE_TOL)
        if not converged and iterations >= max_iter:
            raise ConvergenceError(f"no convergence after {max_iter} iterations")
        try:
            chol = np.linalg.cholesky(-hessian)
        except np.linalg.LinAlgError as exc:
            raise FitError("negative Hessian is not positive definite") from exc
        if converged:
            break
        step = _cho_solve(chol, score)
        # a computed decrease within fp resolution of ll is not a real decrease;
        # rejecting it would freeze the final score-polishing steps
        noise = 64.0 * np.finfo(np.float64).eps * (1.0 + abs(ll))
        for halvings in range(61):  # the full step, then at most 60 halvings
            new_beta = beta + step * 0.5 ** halvings
            new_ll = log_likelihood(new_beta, X, y)
            if not new_ll < ll - noise:
                break
        beta, ll = new_beta, new_ll
        trace.append(ll)
        iterations += 1
        _check_separation(beta, X, y, col_scale)

    cov = _cho_solve(chol, np.eye(k))
    cov = (cov + cov.T) / 2.0
    return FitResult(beta=beta, cov=cov, ll=ll, ll0=_null_ll(y), n=n, k=k,
                     iterations=iterations, converged=True, term_map=term_map,
                     ll_trace=tuple(trace))


def fit_stats(fr: FitResult) -> FitStats:
    """McFadden pseudo R2, AIC/BIC, LR chi2, and per-coefficient inference."""
    if not fr.converged:
        raise FitError("fit_stats requires a converged fit")
    diag = np.diag(fr.cov)
    if (diag <= 0).any():
        raise FitError("degenerate covariance: non-positive diagonal")
    se = np.sqrt(diag)
    z = fr.beta / se
    p = two_sided_p(z)
    return FitStats(
        pseudo_r2=1.0 - fr.ll / fr.ll0 if fr.ll0 != 0.0 else 0.0,
        aic=2.0 * fr.k - 2.0 * fr.ll,
        bic=fr.k * math.log(fr.n) - 2.0 * fr.ll,
        lr_chi2=2.0 * (fr.ll - fr.ll0),
        df=fr.k - 1,
        se=se, z=z, p=p,
    )


def predict(fr: FitResult, rows: np.ndarray) -> np.ndarray:
    """Predicted probabilities logistic(x . beta) for one or more design rows."""
    rows = np.asarray(rows, dtype=np.float64)
    width = rows.shape[-1]
    if width != fr.k:
        raise ValueError(f"row width {width} does not match k={fr.k}")
    return expit(rows @ fr.beta)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if not math.isfinite(v):
        raise ValueError("cannot serialize non-finite number")
    return f"{v:.17g}"


def to_json(fr: FitResult, formula_text: str) -> str:
    """Serialize a fit to the model JSON format (17 significant digits)."""
    if fr.term_map is None:
        raise ValueError("model JSON requires a term map")
    tm = fr.term_map.to_dict()
    parts = [
        f'"formula": {json.dumps(formula_text)}',
        f'"term_map": {json.dumps(tm, sort_keys=False)}',
        '"beta": [' + ", ".join(_fmt(b) for b in fr.beta) + "]",
        '"cov": [' + ", ".join(
            "[" + ", ".join(_fmt(v) for v in row) + "]" for row in fr.cov) + "]",
        f'"ll": {_fmt(fr.ll)}',
        f'"ll0": {_fmt(fr.ll0)}',
        f'"n": {_fmt(fr.n)}',
        f'"k": {_fmt(fr.k)}',
        f'"converged": {_fmt(fr.converged)}',
        f'"iterations": {_fmt(fr.iterations)}',
    ]
    return "{" + ", ".join(parts) + "}\n"


def _check_model(beta: np.ndarray, cov: np.ndarray, k: int, term_map: TermMap):
    if beta.ndim != 1 or not len(beta) == k == term_map.k:
        raise ValueError(f"beta has shape {beta.shape}, but k={k} and the term map "
                         f"has {term_map.k} columns")
    if cov.shape != (k, k):
        raise ValueError(f"cov has shape {cov.shape}, expected ({k}, {k})")
    if not (np.isfinite(beta).all() and np.isfinite(cov).all()):
        raise ValueError("beta and cov must be finite")
    if not np.array_equal(cov, cov.T):
        raise ValueError("cov is not symmetric")
    if (np.diag(cov) <= 0).any():
        raise ValueError("cov has a non-positive diagonal")


def _typed(d: dict, name: str, types, what: str):
    # JSON true/false load as bool, a subclass of int: only a bool field takes one
    v = d[name]
    if isinstance(v, bool) != (types is bool) or not isinstance(v, types):
        raise ValueError(f"malformed model JSON: {name!r} must be {what}, got {v!r}")
    return v


def from_json(text: str) -> tuple[FitResult, str]:
    """Load a fit from model JSON; returns the fit and its formula text.

    Raises ``ValueError`` for a field of the wrong type (``converged`` must
    be a JSON boolean, ``k``, ``n`` and ``iterations`` integers, ``ll`` and
    ``ll0`` finite numbers), unless ``n > k`` and ``iterations >= 0``, for
    a term map whose columns disagree with its factors, and unless ``beta``
    has one entry per term-map column and ``cov`` is a finite, symmetric
    k x k matrix with a positive diagonal.
    """
    d = json.loads(text)
    if not isinstance(d, dict) or not isinstance(d.get("formula"), str):
        raise ValueError("model JSON must be an object with a formula string")
    try:
        tm = TermMap.from_dict(d["term_map"])
        beta = np.array(d["beta"], dtype=np.float64)
        cov = np.array(d["cov"], dtype=np.float64)
        k = _typed(d, "k", int, "an integer")
        _check_model(beta, cov, k, tm)
        fr = FitResult(
            beta=beta,
            cov=cov,
            ll=float(_typed(d, "ll", (int, float), "a number")),
            ll0=float(_typed(d, "ll0", (int, float), "a number")),
            n=_typed(d, "n", int, "an integer"),
            k=k,
            iterations=_typed(d, "iterations", int, "an integer"),
            converged=_typed(d, "converged", bool, "a boolean"),
            term_map=tm,
        )
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed model JSON: {exc}") from None
    if not (math.isfinite(fr.ll) and math.isfinite(fr.ll0)):
        raise ValueError(f"malformed model JSON: 'll' and 'll0' must be finite, "
                         f"got {fr.ll!r} and {fr.ll0!r}")
    if not (fr.n > fr.k and fr.iterations >= 0):
        raise ValueError(f"malformed model JSON: needs n > k and iterations >= 0, got "
                         f"n={fr.n}, k={fr.k}, iterations={fr.iterations}")
    return fr, d["formula"]
