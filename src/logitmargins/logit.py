"""Maximum-likelihood binary logit: Newton-Raphson fit, covariance, fit statistics."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import readonly_copy
from .formula import DesignMatrix, TermMap

_TILE = 16  # the widest output tile of a product summed over the data rows
_CHUNK = 8192  # the most data rows one call of such a product sums over
_ROWS = 8  # the most coefficient rows of one linear-predictor product
_SEPARATION_SD = 30.0


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


def _matmul_tiles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` summed over the n data rows, in output tiles of at most 16 x 16,
    each the sum of its partials over chunks of at most 8192 rows, added in
    chunk order.

    OpenBLAS splits a wider output, or a longer sum, between threads in ways
    that change its bits; a tile over one chunk gave the same bits at 1 and
    2 threads on every shape tried (see the README).  A product within one
    tile and one chunk is a single call.
    """
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], _TILE):
        for j in range(0, b.shape[1], _TILE):
            tile = out[i:i + _TILE, j:j + _TILE]
            np.matmul(a[i:i + _TILE, :_CHUNK], b[:_CHUNK, j:j + _TILE], out=tile)
            for r in range(_CHUNK, a.shape[1], _CHUNK):
                tile += a[i:i + _TILE, r:r + _CHUNK] @ b[r:r + _CHUNK, j:j + _TILE]
    return out


def _linear_predictors(B: np.ndarray, X: np.ndarray, rows: int = _ROWS) -> np.ndarray:
    """X beta for each of the A rows beta of ``B``, as (A, n), in products of
    at most ``rows`` <= 8 coefficient rows by at most 8192 data rows.  With
    12 or 16 coefficient rows OpenBLAS gave other bits at 1 and 2 threads for
    most n from 3001 to 40001, and so did one row over 40001 data rows; each
    piece gave the same bits at every n tried, 2001 to 100001, and the
    pieces the bits of the whole product at 1 thread (see the README).  With
    ``rows=1`` each row's bits are those of its own call."""
    eta = np.empty((len(B), len(X)))
    for i in range(0, len(B), rows):
        for j in range(0, len(X), _CHUNK):
            np.matmul(B[i:i + rows], X[j:j + _CHUNK].T, out=eta[i:i + rows, j:j + _CHUNK])
    return eta


def _products(X: np.ndarray) -> np.ndarray:
    """The k(k+1)/2 column products x_i*x_j (i <= j, row-major over the upper
    triangle) of the n x k design ``X``, stored products x rows; each is
    finite, since a design's values are within the root of the largest double."""
    XT = np.ascontiguousarray(X.T)
    k, n = XT.shape
    Zt = np.empty((k * (k + 1) // 2, n))
    start = 0
    for i in range(k):
        np.multiply(XT[i:], XT[i], out=Zt[start:start + k - i])
        start += k - i
    return Zt


@functools.cache
def _gram_index(k: int) -> np.ndarray:
    """The row of :func:`_products` that holds each entry (i, j) of a k x k Gram."""
    index = np.empty((k, k), dtype=np.intp)
    i, j = np.triu_indices(k)
    index[i, j] = index[j, i] = np.arange(len(i))
    return index


def _grams(Zt: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X'diag(w)X as (A, k, k) for each of the A rows w of ``W``, from the
    column products ``Zt`` of X: one tiled product, gathered into the
    symmetric matrices.  A sum that overflows gives inf or NaN, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        flat = _matmul_tiles(W, Zt.T)
    return flat[:, _gram_index((math.isqrt(8 * len(Zt) + 1) - 1) // 2)]


def _clears_rank(G: np.ndarray, n: int) -> np.ndarray:
    """Per Gram X'diag(c)X of ``G`` (summed over n rows), whether it shows the
    weighted design sqrt(c)*X to be of full rank beyond doubt, so that
    :func:`_check_rank` need not run.

    Each entry of a computed Gram is off by at most n*eps*sqrt(G_ii*G_jj)
    <= n*eps*lmax (Cauchy-Schwarz), so the Gram by at most n*k*eps*lmax in
    norm, and ``eigvalsh`` adds O(k*eps*lmax) (Weyl).  A computed ratio
    lmin/lmax above tau = 16*n*k*eps thus leaves the true one above
    15*n*k*eps, and sigma_min/sigma_max of sqrt(c)*X, its square root,
    above sqrt(15*n*k*eps) (1e-5 at n=2000, k=15), where ``matrix_rank``
    would have to find it below max(n, k)*eps (4e-13) to fail it.  tau
    (1.1e-10 at n=2000, 8.2e-10 at the paper's n=15426) sits far below the
    smallest ratio of the bootstrap and paper designs (1.3e-7 over the 201
    fits of corpus seeds 61 and 2, 2.0e-7 for the paper fit), so the check
    runs only on designs near rank deficiency, and on a Gram that is not
    finite.
    """
    finite = np.isfinite(G).all(axis=(1, 2))
    lam = np.linalg.eigvalsh(np.where(finite[:, None, None], G, 0.0))
    tau = 16.0 * n * G.shape[1] * np.finfo(np.float64).eps
    return finite & (lam[:, 0] > tau * lam[:, -1])


def _score_hessians(X, Zt, y, C, P):
    """Scores (c(y-p))'X as (A, k) and negative Hessians X'diag(c p(1-p))X as
    (A, k, k) of the A fits whose probabilities and weights are the rows of
    ``P`` and ``C``: two tiled products, the second over the column products
    ``Zt`` of X (:func:`_grams`)."""
    return _matmul_tiles((y - P) * C, X), _grams(Zt, (1.0 - P) * P * C)


def _separations(X, C, G, Gy, term_map: TermMap) -> list:
    """Per row c of the weights ``C``, a :class:`SeparationError` if, for 0/1
    columns x_i and x_j of the rows of weight c > 0 (x_0 the intercept), one
    cell of (x_i, x_j) has one outcome only and the opposite cell, if it has
    rows, only the other, else None: x_i + x_j - 1 (cells 11 and 00) or
    x_i - x_j (cells 10 and 01) then raises the likelihood without bound
    (Albert & Anderson 1984).  Every separating direction in the span of 1,
    x_i and x_j is a sum of these two.  The cell counts come from the Grams
    X'diag(c)X in ``G`` and X'diag(c y)X in ``Gy`` at the 0/1 columns, where
    each entry counts the rows with x_i = x_j = 1: exact for integer weights.
    """
    binary = _matmul_tiles(C, ((X != 0.0) & (X != 1.0)).astype(np.float64)) == 0  # 0/1 per fit
    B = np.flatnonzero(binary.any(axis=0))
    binary = binary[:, B, None] & binary[:, None, B]  # (fits, m, m) pairs
    cells = []  # per fit and pair, the rows of cells 11, 00, 10, 01, then those with y = 1
    # a pair that is not 0/1 on a fit's rows may not be finite, and is masked below
    with np.errstate(over="ignore", invalid="ignore"):
        for g in (G[:, B[:, None], B], Gy[:, B[:, None], B]):  # x_i = x_j = 1
            d = np.diagonal(g, axis1=1, axis2=2)  # the rows with x_i = 1
            cells.append(np.array([g, g[:, :1, :1] - d[:, :, None] - d[:, None] + g,
                                   d[:, :, None] - g, d[:, None] - g]))
        n, o = cells
        ones, zeros = o == n, o == 0.0  # an empty cell is both
        # hit[q]: x_i + x_j - 1 with y = 1 (q = 0) or 0 (q = 1) on its +1 cell, x_i - x_j (2, 3)
        hit = np.triu([ones[0] & zeros[1], zeros[0] & ones[1], ones[2] & zeros[3],
                       zeros[2] & ones[3]])
        hit = np.moveaxis(hit & np.repeat(n[[0, 2]] + n[[1, 3]] > 0, 2, axis=0) & binary, 0, -1)
    out = [None] * len(C)
    for f in np.flatnonzero(hit.any(axis=(1, 2, 3))):
        i, j, q = np.unravel_index(np.argmax(hit[f]), hit.shape[1:])
        plus, minus = ((1, 1), (0, 0)) if q < 2 else ((1, 0), (0, 1))  # the ray's cells
        where = [" and ".join(f"{term_map.labels[B[t]]} is {v}" for t, v in zip((i, j), cell) if t)
                 for cell in (plus, minus)]
        also = f", and every one where {where[1]} has y = {q % 2}" if i else ""
        out[f] = SeparationError(f"separation: every observation{' where ' if j else ''}"
                                 f"{where[0]} has y = {1 - q % 2}{also}")
    return out


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

    Row b of ``C`` (B x n) counts how often each data row enters fit b;
    ``None`` is one fit of the rows as given.  Fit b runs every check and
    step of a fit of its materialised resample (``sqrt(c)*X`` for the rank
    check, weighted sums elsewhere), so it gives that fit's iterations,
    exceptions, ``n`` (the total weight sum(c)), ``ll0`` and, up to
    rounding, estimates.  Once per call the column products of X are built
    (:func:`_products`, n*k(k+1)/2 doubles, held until the call returns),
    and every X'diag(w)X the fits need is one tiled product with them
    (:func:`_grams`): the Grams G under ``C`` and Gy under ``C*y``, and the
    negative Hessian of each evaluation after a step.  The Grams give each
    fit its totals (sum(c) is G[0, 0], sum(c*y) is Gy[0, 0]), its weighted
    column means mu = G[0, :] / sum(c) and covariance S = G / sum(c) - mu mu',
    and its evaluation at beta = 0, where every p is 1/2 and the negative
    Hessian is G/4.  A fit ends before iterating on a rank deficiency (the
    rank check runs only on a fit whose Gram :func:`_clears_rank` does not
    clear), else on :func:`_separations`.  After each evaluation, one
    verdict per fit takes the first that holds: a linear predictor X beta
    whose weighted standard deviation sqrt(beta'S beta) exceeds 30, whatever
    the coding of the columns (:class:`SeparationError`);
    ``max_iter`` iterations (:class:`ConvergenceError`); a negative Hessian
    without a Cholesky factor (:class:`FitError`); a Newton decrement below
    ``tol**2`` (a :class:`FitResult`); a non-finite step (:class:`FitError`).
    The covariances of the fits that converge at one evaluation come from one
    solve, each bit for bit its own.  A bad ``tol`` or ``max_iter``, or
    n <= k, raises for the whole block.
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
    Zt = _products(X)
    G, Gy = _grams(Zt, C), _grams(Zt, C * y)
    out = _separations(X, C, G, Gy, term_map)
    for b in np.flatnonzero(~_clears_rank(G, n)):
        try:
            _check_rank(X * np.sqrt(C[b])[:, None], term_map)
        except RankDeficiencyError as exc:
            out[b] = exc
    act = np.flatnonzero([o is None for o in out])  # the fits still iterating
    if not act.size:
        return out
    C, m = C[act], G[act, 0, 0]  # m: each fit's total weight; Gy[:, 0, 0] its weight at y = 1
    ll0 = m * [p * math.log(p) + (1.0 - p) * math.log(1.0 - p) for p in Gy[act, 0, 0] / m]
    # each fit's weighted column means and covariance; S's intercept row and column are 0
    mu = G[act, 0, :] / m[:, None]
    S = G[act] / m[:, None, None] - mu[:, :, None] * mu[:, None, :]
    rms = np.sqrt(np.diagonal(G[act], axis1=1, axis2=2) / m[:, None])  # column root mean squares

    # at beta = 0 every p is 1/2: the likelihood is m log(1/2), the score
    # (c(y - 1/2))'X and the negative Hessian X'diag(c/4)X, a quarter of G
    beta = np.zeros((act.size, k))
    ll = -math.log(2.0) * m
    trace = ll[:, None]  # (A, iterations + 1)
    score, neg_h = _matmul_tiles((y - 0.5) * C, X), G[act] / 4.0
    iterations = 0
    while True:
        # beta'S beta: the weighted variance of the linear predictor X beta
        quasi = (beta[:, None] @ S @ beta[:, :, None])[:, 0, 0] > _SEPARATION_SD ** 2
        L, errors = _cholesky(neg_h)
        step = _cho_solve(L, score[:, :, None])[:, :, 0]
        # lambda^2 (NaN, with no warning, for a non-finite step) bounds |step_j| by lambda*se_j
        converged = np.einsum("ij,ij->i", score, step) < tol * tol
        failed = np.array([e is not None for e in errors])
        over = ~converged & (iterations >= max_iter)
        broken = ~np.isfinite(beta + step).all(axis=1)
        done = converged & ~quasi & ~failed  # a converged fit is never over
        if done.any():  # one solve gives the covariance of every fit that converged
            cov = np.empty_like(neg_h)
            cov[done] = _cho_solve(L[done], np.eye(k))
        ended = quasi | over | failed | converged | broken
        # each ended fit's verdict: the first that holds, in order of precedence
        for a in np.flatnonzero(ended):
            b = act[a]
            if quasi[a]:
                out[b] = SeparationError("quasi-complete separation: the linear "
                                         "predictor's standard deviation exceeds 30")
            elif over[a]:
                out[b] = ConvergenceError(f"no convergence after {max_iter} iterations")
            elif failed[a]:
                out[b] = FitError("negative Hessian is not positive definite")
                out[b].__cause__ = errors[a]
            elif done[a]:
                out[b] = FitResult(beta=beta[a], cov=(cov[a] + cov[a].T) / 2.0, ll=float(ll[a]),
                                   ll0=float(ll0[a]), n=int(m[a]), iterations=iterations,
                                   term_map=term_map, ll_trace=tuple(trace[a]))
            else:
                out[b] = FitError("non-finite coefficient vector")
        if ended.any():
            act, C, m, S, rms, beta, ll, ll0, trace, step = (
                v[~ended] for v in (act, C, m, S, rms, beta, ll, ll0, trace, step))
        if not act.size:
            break

        # a computed decrease within the rounding of ll is not a real decrease;
        # rejecting it would freeze the final score-polishing steps.  ll sums
        # c*(y*eta - softplus(eta)), and each eta = x'beta is rounded by about
        # eps*sum_j |beta_j x_j|, which over the rows weighs sum(c)*sum_j |beta_j|*rms_j
        noise = 64.0 * np.finfo(np.float64).eps * (
            1.0 + np.abs(ll) + m * np.einsum("ij,ij->i", np.abs(beta), rms))
        scale = np.ones(act.size)  # the full step, then at most 60 halvings
        while True:
            cand = beta + step * scale[:, None]
            eta = _linear_predictors(cand, X)
            cand_ll = _log_likelihoods(eta, y, C)
            halve = (cand_ll < ll - noise) & (scale > 0.5 ** 60)
            if not halve.any():
                break
            scale[halve] *= 0.5
        # the accepted eta serves the likelihood and the next evaluation
        beta, ll = cand, cand_ll
        trace = np.column_stack((trace, ll))
        iterations += 1
        score, neg_h = _score_hessians(X, Zt, y, C, expit(eta, out=eta))
    return out


def fit(design: DesignMatrix, *, max_iter: int = 100, tol: float = 1e-10) -> FitResult:
    """Fit the logit model of a design by Newton-Raphson from beta = 0.

    Each iteration evaluates the score and Hessian once and factors the
    negative Hessian once; a step that would lower the log-likelihood is
    halved until it does not.  The fit has converged when the Newton
    decrement score'(-H)^-1 score is below ``tol**2``, so the next step is
    under ``tol`` standard errors in every coefficient, whatever the units.
    The covariance is the inverse negative Hessian there, from its Cholesky
    factor, never a pseudo-inverse.  Raises :class:`RankDeficiencyError`,
    :class:`SeparationError` (a separating pair of 0/1 columns, or a linear
    predictor whose standard deviation passes 30), :class:`ConvergenceError`
    or :class:`FitError` in :func:`_newton`'s order of precedence instead of
    returning unusable estimates.
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


def to_json(fr: FitResult, formula_text: str) -> str:
    """Serialize a fit to the model JSON format: one ``json.dumps``, each float
    written in the shortest form that reads back to the same double.  A
    non-finite number raises ``ValueError``."""
    d = {"formula": formula_text, "term_map": fr.term_map.to_dict(),
         "beta": [float(b) for b in fr.beta], "cov": [[float(v) for v in r] for r in fr.cov],
         "ll": float(fr.ll), "ll0": float(fr.ll0),
         "n": int(fr.n), "iterations": int(fr.iterations)}
    return json.dumps(d, allow_nan=False) + "\n"


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
