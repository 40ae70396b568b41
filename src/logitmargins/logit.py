"""Maximum-likelihood binary logit: Newton-Raphson fit, covariance, fit statistics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dataset import readonly_copy
from .formula import DesignMatrix, TermMap

SCORE_TOL = 1e-6
_TILE = 16  # the widest output tile of a product summed over the data rows
_CHUNK = 8192  # the most data rows one call of such a product sums over
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
    """Bernoulli log-likelihood sum(y*eta - softplus(eta)), overflow safe.

    A reference for one coefficient vector; :func:`fit` evaluates its
    candidates in blocks instead.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if not np.isfinite(beta).all():
        raise ValueError("non-finite coefficient vector")
    eta = X @ beta
    # log(1 + exp(eta)) via logaddexp keeps eta = +-800 finite
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def score_and_hessian(beta, X, y):
    """Gradient X'(y-p) and Hessian -X' diag(p(1-p)) X of the log-likelihood.

    A reference for one coefficient vector; :func:`fit` evaluates them in
    blocks instead.
    """
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
    iterations: int
    term_map: TermMap
    ll_trace: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", readonly_copy(self.beta))
        object.__setattr__(self, "cov", readonly_copy(self.cov))

    @property
    def k(self) -> int:
        return len(self.beta)


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


def _null_ll(ybar: float, n: int) -> float:
    if ybar in (0.0, 1.0):
        return 0.0
    return n * (ybar * math.log(ybar) + (1.0 - ybar) * math.log(1.0 - ybar))


def _check_rank(X: np.ndarray, term_map: TermMap):
    rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        # only a failing check pays for scipy: its pivoted QR names the columns
        import scipy.linalg
        piv = scipy.linalg.qr(X, mode="r", pivoting=True)[1]
        raise RankDeficiencyError(term_map.labels[j] for j in sorted(piv[rank:]))


def _log_likelihoods(eta: np.ndarray, y: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Per row of ``eta``, sum(c*(y*eta - softplus(eta))) under the weights ``C``."""
    # softplus(eta) = max(eta, 0) + log1p(exp(-|eta|)), finite for eta = +-800;
    # the vectorised exp and log1p are several times faster than np.logaddexp
    ll = np.abs(eta)
    np.negative(ll, out=ll)
    np.log1p(np.exp(ll, out=ll), out=ll)
    ll += np.maximum(eta, 0.0)
    np.subtract(y * eta, ll, out=ll)
    ll *= C
    return ll.sum(axis=1)


def _matmul_tiles(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None):
    """``a @ b`` summed over the n data rows, in output tiles of at most 16 x 16,
    each the sum of its partials over chunks of at most 8192 rows, added in
    chunk order.

    OpenBLAS splits a wider output, or a longer sum, between threads in ways
    that change its bits; a tile over one chunk gave the same bits at 1 and
    2 threads on every shape tried (see the README).  A product within one
    tile and one chunk is a single call.
    """
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], _TILE):
        for j in range(0, b.shape[1], _TILE):
            tile = out[i:i + _TILE, j:j + _TILE]
            np.matmul(a[i:i + _TILE, :_CHUNK], b[:_CHUNK, j:j + _TILE], out=tile)
            for r in range(_CHUNK, a.shape[1], _CHUNK):
                tile += a[i:i + _TILE, r:r + _CHUNK] @ b[r:r + _CHUNK, j:j + _TILE]
    return out


def _score_hessians(X, y, C, P):
    """Scores (c(y-p))'X as (A, k), negative Hessians X'diag(c p(1-p))X as
    (A, k, k), and residuals y - p as (A, n), of the A fits whose
    probabilities and weights are the rows of ``P`` and ``C``.

    Each Hessian is one tiled product ``(X * w).T @ X``, with ``w`` its fit's
    row of c p(1-p).
    """
    resid = y - P
    score = _matmul_tiles(resid * C, X)
    W = 1.0 - P
    W *= P
    W *= C
    neg_h = np.empty((len(P), X.shape[1], X.shape[1]))
    for a, w in enumerate(W):
        _matmul_tiles((X * w[:, None]).T, X, out=neg_h[a])
    return score, neg_h, resid


def _cholesky(A: np.ndarray):
    """The lower Cholesky factors of the stacked matrices ``A``, the identity
    standing in for one that is not positive definite, and each matrix's
    ``LinAlgError`` or None."""
    try:
        return np.linalg.cholesky(A), [None] * len(A)
    except np.linalg.LinAlgError:
        L, errors = np.empty_like(A), [None] * len(A)
        for a, m in enumerate(A):
            try:
                L[a] = np.linalg.cholesky(m)
            except np.linalg.LinAlgError as exc:
                L[a], errors[a] = np.eye(len(m)), exc
        return L, errors


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b from the (stacked) lower Cholesky factors L."""
    return np.linalg.solve(np.swapaxes(chol, -1, -2), np.linalg.solve(chol, b))


def _newton(design: DesignMatrix, C=None, *, max_iter: int = 100,
            tol: float = 1e-10) -> list:
    """Newton-Raphson fits of one logit model under B frequency-weight rows.

    Row b of ``C`` (B x n) counts how often each data row enters fit b, as a
    row resample drawn with replacement does; ``None`` is one fit of the
    rows as given.  Fit b runs, in the same order, every check and step that
    a fit of its materialised resample runs (see :func:`fit`), from
    ``sqrt(c)*X`` for the rank check and weighted sums elsewhere, so it
    gives that fit's iterations and exceptions and its estimates up to
    rounding.  The fits iterate together, each a row of every per-fit array.
    After each evaluation of their scores and Hessians, one verdict per fit,
    read from that evaluation alone, takes the first of these that holds:
    quasi-complete, then complete separation (:class:`SeparationError`);
    ``max_iter`` iterations without convergence (:class:`ConvergenceError`);
    a negative Hessian without a Cholesky factor (:class:`FitError`);
    convergence (a :class:`FitResult`); a step to a non-finite coefficient
    vector (``ValueError``).  A fit with a verdict leaves the active set.
    Returns one :class:`FitResult`, or the exception that fit raised, per
    row of ``C``.  An invalid ``tol`` or ``max_iter``, or a design with no
    more rows than columns, raises at once, for the whole block; the
    :class:`DesignMatrix` has already checked its response and values.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise FitError(f"tol must be finite and positive, got {tol}")
    if max_iter < 0:
        raise FitError(f"max_iter must be non-negative, got {max_iter}")
    X, y, term_map = design.X, design.y, design.term_map
    n, k = X.shape
    if n <= k:
        raise FitError(f"need more observations than parameters (n={n}, k={k})")
    C = np.ones((1, n)) if C is None else np.asarray(C, dtype=np.float64)
    out: list = [None] * len(C)
    for b, c in enumerate(C):
        try:
            _check_rank(X * np.sqrt(c)[:, None], term_map)
        except RankDeficiencyError as exc:
            out[b] = exc
    act = np.flatnonzero([o is None for o in out])  # the fits still iterating
    if not act.size:
        return out
    ones = C @ y  # weighted count of y = 1, exact for integer weights
    C = C[act]
    # per-fit constants: the rows a fit holds (1, else 0) and the weighted
    # sds of the non-intercept columns, from moments about the full-sample
    # mean (every weighted mean is close to it, so no precision is lost)
    present = (C > 0).astype(np.float64)
    D = X - X.mean(axis=0)
    shift = _matmul_tiles(C, D) / n
    col_var = _matmul_tiles(C, np.square(D, out=D)) / n - shift * shift
    col_sd = np.sqrt(np.maximum(col_var[:, 1:], 0.0))
    col_scale = np.where(col_sd > 0, col_sd, 1.0)

    beta = np.zeros((act.size, k))
    P = np.full((act.size, n), 0.5)  # expit(0)
    ll = prev_ll = _log_likelihoods(np.zeros_like(P), y, C)
    trace = ll[:, None]  # (A, iterations + 1)
    iterations = 0
    while True:
        score, neg_h, resid = _score_hessians(X, y, C, P)
        quasi = (np.abs(beta[:, 1:]) * col_scale > _SEPARATION_BETA).any(axis=1)
        np.abs(resid, out=resid)
        resid *= present
        pinned = resid.max(axis=1) <= _SEPARATION_PROB
        converged = ((np.abs(ll - prev_ll) / (np.abs(prev_ll) + 1e-300) < tol)
                     & (np.abs(score).max(axis=1) < SCORE_TOL) & (iterations > 0))
        L, errors = _cholesky(neg_h)
        step = _cho_solve(L, score[:, :, None])[:, :, 0]
        for a, b in enumerate(act):
            if quasi[a]:
                out[b] = SeparationError(
                    "quasi-complete separation: a standardized coefficient exceeds 30")
            elif pinned[a]:
                out[b] = SeparationError(
                    "complete separation: fitted probabilities are pinned at 0/1")
            elif iterations >= max_iter and not converged[a]:
                out[b] = ConvergenceError(f"no convergence after {max_iter} iterations")
            elif errors[a] is not None:
                out[b] = FitError("negative Hessian is not positive definite")
                out[b].__cause__ = errors[a]
            elif converged[a]:
                cov = _cho_solve(L[a], np.eye(k))
                out[b] = FitResult(beta=beta[a], cov=(cov + cov.T) / 2.0, ll=float(ll[a]),
                                   ll0=_null_ll(float(ones[b]) / n, n), n=n,
                                   iterations=iterations, term_map=term_map,
                                   ll_trace=tuple(trace[a]))
            elif not np.isfinite(beta[a] + step[a]).all():
                out[b] = ValueError("non-finite coefficient vector")
        keep = np.array([out[b] is None for b in act], dtype=bool)
        if not keep.all():
            act, C, present, col_scale, beta, P, ll, trace, step = (
                v[keep] for v in (act, C, present, col_scale, beta, P, ll, trace, step))
        if not act.size:
            break

        # a computed decrease within fp resolution of ll is not a real decrease;
        # rejecting it would freeze the final score-polishing steps
        noise = 64.0 * np.finfo(np.float64).eps * (1.0 + np.abs(ll))
        scale = np.ones(act.size)  # the full step, then at most 60 halvings
        while True:
            cand = beta + step * scale[:, None]
            eta = cand @ X.T
            cand_ll = _log_likelihoods(eta, y, C)
            halve = (cand_ll < ll - noise) & (scale > 0.5 ** 60)
            if not halve.any():
                break
            scale[halve] *= 0.5
        # the accepted eta serves the likelihood and the next evaluation
        beta, prev_ll, ll, P = cand, ll, cand_ll, expit(eta, out=eta)
        trace = np.column_stack((trace, ll))
        iterations += 1
    return out


def fit(design: DesignMatrix, *, max_iter: int = 100, tol: float = 1e-10) -> FitResult:
    """Fit the logit model of a design by Newton-Raphson from beta = 0.

    Each iteration evaluates the score and Hessian once and factors the
    negative Hessian once.  A step that would lower the log-likelihood is
    halved until it does not, so the trace is nondecreasing.  Convergence
    requires both a relative log-likelihood change below ``tol`` and a
    maximal score component below 1e-6.  The covariance is the inverse
    negative Hessian at the optimum, solved from the converged iterate's
    Cholesky factor; a non-positive-definite Hessian is an error, never a
    pseudo-inverse.

    Raises :class:`RankDeficiencyError`, :class:`SeparationError`, or
    :class:`ConvergenceError` instead of returning unusable estimates.  The
    fit is the one-column case of the weighted Newton core the bootstrap
    uses.
    """
    result, = _newton(design, max_iter=max_iter, tol=tol)
    if isinstance(result, Exception):
        raise result
    return result


def fit_stats(fr: FitResult) -> FitStats:
    """McFadden pseudo R2, AIC/BIC, LR chi2, and per-coefficient inference."""
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
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if not math.isfinite(v):
        raise ValueError("cannot serialize non-finite number")
    # "-0" would load as the integer 0, which has no sign
    return "-0.0" if v == 0.0 and math.copysign(1.0, v) < 0 else f"{v:.17g}"


def to_json(fr: FitResult, formula_text: str) -> str:
    """Serialize a fit to the model JSON format (17 significant digits)."""
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
        f'"iterations": {_fmt(fr.iterations)}',
    ]
    return "{" + ", ".join(parts) + "}\n"


def _check_model(beta: np.ndarray, cov: np.ndarray, term_map: TermMap):
    k = term_map.k
    if beta.shape != (k,):
        raise ValueError(f"beta has shape {beta.shape}, but the term map has {k} columns")
    if cov.shape != (k, k):
        raise ValueError(f"cov has shape {cov.shape}, expected ({k}, {k})")
    if not (np.isfinite(beta).all() and np.isfinite(cov).all()):
        raise ValueError("beta and cov must be finite")
    if not np.array_equal(cov, cov.T):
        raise ValueError("cov is not symmetric")
    if (np.diag(cov) <= 0).any():
        raise ValueError("cov has a non-positive diagonal")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("cov is not positive definite") from None


def _typed(d: dict, name: str, types, what: str):
    # JSON true/false load as bool, a subclass of int: no field takes one
    v = d[name]
    if isinstance(v, bool) or not isinstance(v, types):
        raise ValueError(f"malformed model JSON: {name!r} must be {what}, got {v!r}")
    return v


def from_json(text: str) -> tuple[FitResult, str]:
    """Load a fit from model JSON; returns the fit and its formula text.

    Raises ``ValueError`` for a missing key (of the object, its term map or
    a term-map column), for a field of the wrong type (``n`` and
    ``iterations`` must be integers, ``ll`` and ``ll0`` finite numbers),
    unless ``n > k`` and ``iterations >= 0``, for a term map whose columns
    disagree with its factors, and unless ``beta`` has one entry per
    term-map column (k of them) and ``cov`` is a finite, symmetric,
    positive-definite k x k matrix (one with a Cholesky factor).  Other
    keys, such as the ``k`` and ``converged`` of earlier files, are ignored.
    """
    d = json.loads(text)
    if not isinstance(d, dict) or not isinstance(d.get("formula"), str):
        raise ValueError("model JSON must be an object with a formula string")
    try:
        tm = TermMap.from_dict(d["term_map"])
        beta = np.array(d["beta"], dtype=np.float64)
        cov = np.array(d["cov"], dtype=np.float64)
        _check_model(beta, cov, tm)
        fr = FitResult(
            beta=beta,
            cov=cov,
            ll=float(_typed(d, "ll", (int, float), "a number")),
            ll0=float(_typed(d, "ll0", (int, float), "a number")),
            n=_typed(d, "n", int, "an integer"),
            iterations=_typed(d, "iterations", int, "an integer"),
            term_map=tm,
        )
    except KeyError as exc:
        raise ValueError(f"malformed model JSON: missing key {exc}") from None
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed model JSON: {exc}") from None
    if not (math.isfinite(fr.ll) and math.isfinite(fr.ll0)):
        raise ValueError(f"malformed model JSON: 'll' and 'll0' must be finite, "
                         f"got {fr.ll!r} and {fr.ll0!r}")
    if not (fr.n > fr.k and fr.iterations >= 0):
        raise ValueError(f"malformed model JSON: needs n > k and iterations >= 0, got "
                         f"n={fr.n}, k={fr.k}, iterations={fr.iterations}")
    return fr, d["formula"]
