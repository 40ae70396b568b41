"""Adjusted predictions and marginal effects with delta-method inference.

All six margin kinds are one computation.  A request compiles to S
counterfactual *scenarios* and an R x S *contrast* matrix ``L``.  A scenario
overrides, in every row, the design columns ``C`` of one or two variables:
a factor's indicators take the 0/1 pattern of one level, and a continuous
variable's column takes a value v while its linked square takes v*v, by
construction.  With the offset ``r = X@b0`` computed once, where ``b0`` is
``b`` with its entries ``C`` set to 0 (so no term is subtracted, and none
cancels), the scenarios' linear predictors are ``r + c`` with ``c = V@b[C]``;
the row mean of ``expit(r + c) = exp(c) / (exp(c) + exp(-r))`` is each
scenario's estimate, from one exponential per row and one per scenario
(``_evaluate`` keeps ``expit`` where a factor could overflow, and for the
per-row overrides below).  Output rows are ``L@est``:
an AAP, APM or APRV row is one scenario, an AME, MEM or MERV row the
difference of two.

The delta method needs each scenario's gradient in the coefficients: one
GEMM ``X.T@W/n`` with ``W = p(1-p)``, whose overridden rows ``C`` are then
replaced in closed form by ``V.T * mean(W)``.  Standard errors are
``sqrt(diag(L G' Sigma G L'))``.  Derivative effects average
``p(1-p) * d eta/dv`` instead of ``p`` and add that slope's closed-form
gradient.  Effects at each row's observed value use a per-row shift override
(``v = x_i + delta``), and at-means margins run the same code on the single
row of sample means.

Scenarios are evaluated in blocks of at most 32, and bootstrap replicates
in as many as fit, of about ``BLOCK_BYTES`` of float64 per array, so memory
stays flat however long the grid.  A block is stored replicate- then
scenario-major, A x S x n: each scenario's mean is a contiguous row sum,
whose bits do not depend on the block the scenario falls in (its
gradient's can, by the last digit: the tile of the product that holds it
does).  The offsets are one product per row of ``b0``, in pieces of 8192
data rows, so a row's bits are those of its own call at any thread count.
The gradient product ``X.T @ D.T`` reads the transposed block without a
copy, through ``logit._matmul_tiles``, whose output tiles and row chunks
keep its bits at any thread count.  A nonparametric bootstrap is
available as a cross-check.  Its replicates are row weights, never resample copies, and a
block of them is one evaluation by the same code under their weights:
weighted row means, or the weighted rows of sample means, and no gradients.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .formula import SQUARE, _MAX_VALUE, DesignMatrix, TermMap
# bench/tracer.py wraps margins.substitute_matrix and margins.fit by name
from .formula import substitute_matrix  # noqa: F401
from .logit import (FitError, FitResult, _linear_predictors, _matmul_tiles, _newton, expit, fit,
                    two_sided_p)

Z95 = 1.959964  # fixed critical value for 95% intervals
BLOCK_BYTES = 2 << 20  # replicates x scenarios x n float64 per block of the kernel
_FACTORED = 708.0  # the largest |r| and |c| whose factors exp(-r) and exp(c) are taken
# scenarios per block of the kernel, and bootstrap replicates per Newton call
# and per margin evaluation: Python and LAPACK overheads are paid per block
_BLOCK_COLUMNS = 32


class MarginsError(ValueError):
    """Invalid margin request (unknown variable/level, bad grid, bad combination)."""


def zstar(ci_level: float) -> float:
    """Normal critical value; pinned to 1.959964 at the default 95% level."""
    if not 0.0 < ci_level < 1.0:
        raise MarginsError(f"ci_level must be in (0,1), got {ci_level}")
    if abs(ci_level - 0.95) < 1e-12:
        return Z95
    import statistics  # about 5 ms of import, with decimal and fractions
    return statistics.NormalDist().inv_cdf(0.5 + ci_level / 2.0)


@dataclass(frozen=True)
class MarginRow:
    """One estimated margin with its delta-method (or bootstrap) inference."""

    label: str
    at_value: Optional[float]
    estimate: float
    se: float
    z: float
    p: float
    ci_low: float
    ci_high: float
    extrapolated: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class MarginRequest:
    """One margin request, for :func:`compute_margins` or :func:`bootstrap_se`.

    ``kind`` is one of aap, ame, apm, mem, aprv, merv; apm and mem evaluate
    at the single row of sample means.  A factor ``target`` gives one row
    per level in ``levels`` (default: all of them); an effect contrasts each
    level with ``base`` (default: the reference level).  ``at`` is an
    optional (continuous variable, grid) pair.  With a factor target each
    level is crossed with the grid, so aap and ame give APRV and MERV rows.
    With a continuous target the grid must be the target's own, and an
    effect without one is averaged over each row's observed value.
    Continuous effects are derivatives, or unit changes with ``discrete``.

    A field the request would not read is an error (:class:`MarginsError`):
    ``base`` or ``discrete`` on a prediction (aap, apm, aprv); aprv or merv
    without ``at``; ``levels`` or ``base`` on a continuous target;
    ``discrete`` on a factor target; ``levels`` that are empty, repeated or
    include the effect's base.  The grid must be non-empty, finite and
    strictly ascending, and ``ci_level`` in (0, 1).
    """

    kind: str
    target: str
    levels: Optional[tuple[str, ...]] = None
    base: Optional[str] = None
    at: Optional[tuple[str, tuple[float, ...]]] = None
    ci_level: float = 0.95
    discrete: bool = False  # unit-change effects for continuous variables

    def __post_init__(self):
        if self.kind not in ("aap", "ame", "apm", "mem", "aprv", "merv"):
            raise MarginsError(f"unknown margin kind {self.kind!r}")
        if self.kind in ("aap", "apm", "aprv") and (self.base is not None or self.discrete):
            raise MarginsError(f"{self.kind} is a prediction: it takes no base or discrete")
        if self.kind in ("aprv", "merv") and self.at is None:
            raise MarginsError("representative-value margins need an `at` grid")
        if self.levels is not None and not 0 < len(self.levels) == len(set(self.levels)):
            raise MarginsError(f"levels must be non-empty and distinct, got {self.levels}")
        zstar(self.ci_level)  # a ci_level outside (0, 1) is an error
        if self.at is not None:
            _check_grid(self.at[1])


def _check_grid(grid: Sequence[float]):
    if len(grid) == 0:
        raise MarginsError("empty grid")
    arr = np.asarray(grid, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise MarginsError("grid contains non-finite values")
    if (np.diff(arr) <= 0).any():
        raise MarginsError("grid values must be sorted strictly ascending")


def _mean_row(arr: np.ndarray, term_map: TermMap, weights=None) -> np.ndarray:
    # the row of sample means of arr, or with (A, n) ``weights`` the A rows
    # of means that count each row of arr as often as a weight row says: a
    # factor's indicators become its level shares, and a squared column the
    # square of its variable's mean, as a substitution sets it
    row = (arr.mean(axis=0) if weights is None
           else np.einsum("ai,ij->aj", weights, arr) / weights.sum(axis=1)[:, None])
    for j, c in enumerate(term_map.columns):
        if c.transform == SQUARE:
            m = row[..., term_map.linear_col(c.source)]
            row[..., j] = m * m
    row[..., 0] = 1.0
    return row


# --- compiling requests into scenarios and contrasts -------------------------

@dataclass(frozen=True)
class _Plan:
    """A margin request compiled to S scenarios and an R x S contrast ``L``.

    Scenario s sets the indicator columns ``fcols`` to ``fvals[s]`` and the
    continuous column ``lin`` to ``values[s]`` (its square ``sq`` to the
    square); with ``shift`` the value is an offset from each row's own
    value.  ``slope`` averages the derivative p(1-p) d eta/dv instead of p.
    With ``atmeans`` the scenarios override the single row of sample means
    of ``X`` instead of each of its rows.
    """

    X: np.ndarray  # (n, k) design rows the scenarios average over
    term_map: TermMap
    atmeans: bool
    fcols: list[int]
    fvals: np.ndarray  # (S, len(fcols))
    lin: Optional[int]
    sq: Optional[int]
    values: np.ndarray  # (S,)
    shift: bool
    slope: bool
    L: np.ndarray  # (R, S)
    labels: tuple[str, ...]
    at: tuple[Optional[float], ...]
    extrapolated: tuple[bool, ...]


def _check_continuous(tm: TermMap, var: str):
    try:
        tm.linear_col(var)
    except KeyError:
        raise MarginsError(f"{var!r} is not a continuous variable in the model") from None


def _compile(design: DesignMatrix, request: MarginRequest) -> _Plan:
    """Compile a request into deduplicated scenarios and their contrast.

    Each output row is a (label, at, plus, minus) spec; ``plus`` and
    ``minus`` are scenario keys (factor level, value), and a row without
    ``minus`` is the ``plus`` scenario alone.  A design with no rows, and a
    grid value whose square overflows, for a variable with a squared term,
    are a :class:`MarginsError`.
    """
    tm, arr = design.term_map, design.X
    if not len(arr):
        raise MarginsError("the design has no rows to average the margins over")
    kind, target = request.kind, request.target
    atmeans = kind in ("apm", "mem")
    effect = kind in ("ame", "mem", "merv")
    var, grid = request.at or (None, None)
    points = (None,) if grid is None else tuple(float(v) for v in grid)
    label = kind.upper()
    factor = None
    shift = slope = False

    if kind in ("aprv", "merv") or tm.is_factor(target):
        if not tm.is_factor(target):
            raise MarginsError(f"{target!r} is not a factor in the model")
        if request.discrete:
            raise MarginsError(f"discrete applies to continuous effects, not factor {target!r}")
        factor = target
        known = tm.factor_levels[target]
        base = tm.reference[target] if effect and request.base is None else request.base
        for level in (*(request.levels or ()), base):
            if level is not None and level not in known:
                raise MarginsError(f"unknown level {level!r} for factor {target!r}")
        if base in (request.levels or ()):
            raise MarginsError(f"level {base!r} is the base of the contrast")
        if var is not None:
            _check_continuous(tm, var)
        if grid is not None and not atmeans:
            label = "MERV" if effect else "APRV"
        suffix = "" if base is None else f"-{base}"
        # by default an effect contrasts every level but its base
        specs = [(f"{label} {target}={level}{suffix}", v, (level, v),
                  None if base is None else (base, v))
                 for level in request.levels or known if level != base for v in points]
    else:
        _check_continuous(tm, target)
        if request.levels is not None or request.base is not None:
            raise MarginsError(f"levels and base apply to a factor target, not {target!r}")
        if grid is not None and var != target:
            raise MarginsError("`at` grid variable must match a continuous target")
        if grid is None and not effect:
            raise MarginsError(
                "adjusted predictions for a continuous variable need an `at` grid")
        var, label = target, f"{label} {target}"
        slope = effect and not request.discrete
        if grid is None:  # an effect at each row's observed value
            shift = True
            label = label if atmeans else f"{label} (observed)"
            specs = [(label, None, (None, 1.0), (None, 0.0)) if request.discrete
                     else (label, None, (None, 0.0), None)]
        elif effect and request.discrete:
            specs = [(label, v, (None, v + 1.0), (None, v)) for v in points]
        else:
            specs = [(label, v, (None, v), None) for v in points]

    keys = list(dict.fromkeys(key for *_, plus, minus in specs
                              for key in (plus, minus) if key is not None))
    index = {key: s for s, key in enumerate(keys)}
    L = np.zeros((len(specs), len(keys)))
    for r, (*_, plus, minus) in enumerate(specs):
        L[r, index[plus]] += 1.0
        if minus is not None:
            L[r, index[minus]] -= 1.0

    fcols: list[int] = []
    fvals = np.zeros((len(keys), 0))
    if factor is not None:
        nonref = [lv for lv in tm.factor_levels[factor] if lv != tm.reference[factor]]
        fcols = [tm.indicator_col(factor, lv) for lv in nonref]
        fvals = np.array([[float(level == lv) for lv in nonref] for level, _ in keys],
                         dtype=np.float64).reshape(len(keys), len(nonref))
    lin = sq = None
    extrapolated = [False] * len(specs)
    values = np.array([0.0 if v is None else v for _, v in keys])
    if var is not None:
        lin, sq = tm.linear_col(var), tm.square_col(var)
        lo, hi = float(arr[:, lin].min()), float(arr[:, lin].max())
        extrapolated = [at is not None and not lo <= at <= hi for _, at, _, _ in specs]
    if sq is not None and not (np.abs(values) <= _MAX_VALUE).all():
        raise MarginsError(f"squared term {tm.labels[sq]} overflows: some grid value "
                           f"|{var}| exceeds {_MAX_VALUE:.4g}")
    return _Plan(X=arr, term_map=tm, atmeans=atmeans,
                 fcols=fcols, fvals=fvals, lin=lin, sq=sq, values=values,
                 shift=shift, slope=slope, L=L,
                 labels=tuple(s[0] for s in specs), at=tuple(s[1] for s in specs),
                 extrapolated=tuple(extrapolated))


# --- the counterfactual kernel ----------------------------------------------

def _avg(A: np.ndarray, A_mean: np.ndarray, z: np.ndarray) -> np.ndarray:
    # row means of A * z for a per-element (..., S, n) or per-scenario
    # (..., S, 1) z, given A's row means
    return (A * z).mean(axis=-1) if z.shape[-1] > 1 else z[..., 0] * A_mean


def _row_name(plan: _Plan, r: int) -> str:
    at = plan.at[r]
    return repr(plan.labels[r]) + ("" if at is None else f" at {at:g}")


# extreme coefficients or grid values overflow to inf or nan, which the
# finiteness check at the end reports as an error
@np.errstate(all="ignore")
def _evaluate(plan: _Plan, beta: np.ndarray, weights=None):
    """Row estimates ``L@est`` of each of the A rows of the (A, k)
    coefficients ``beta``, as (A, R), and without ``weights`` their
    gradients, as (A, k, R).  A vector ``beta`` is the A = 1 case with that
    axis dropped: the delta method's (R,) estimates and (k, R) gradients.

    Row a of the (A, n) ``weights`` counts how often each design row enters
    evaluation a, as in a bootstrap resample: its estimates average over the
    weighted rows, dividing by the weights' total, or at-means over the
    weighted row of sample means, so they are those of the materialised
    rows.  Each row's values are bit for bit those of its own call (A = 1).
    A weight row that sums to 0, and a row that is not finite, estimate or
    gradient, are a :class:`MarginsError`.

    A scenario that sets one override c in every row, a factor level, a
    grid value or a row of means, has p = 1/(1 + exp(-c) exp(-r)) =
    exp(c) / (exp(c) + exp(-r)) for the offsets r: one exponential per row
    and one per scenario, not one per pair, and an add and a divide per
    element.
    Where a factor may over- or underflow, a row a with any |r| > 708 or a
    scenario with |c_as| > 708, the pair (a, s) takes expit(r + c); the
    choice reads that row and that scenario alone.  An effect at each row's
    observed value takes expit of each row's own linear predictor.
    """
    B = np.atleast_2d(beta)
    weights = None if weights is None else np.atleast_2d(weights)
    gradients = weights is None
    if not gradients:
        total = weights.sum(axis=1)
        if not (total > 0).all():
            raise MarginsError("the weights sum to 0: there are no rows to average over")
    X = plan.X
    if plan.atmeans:  # one row of means, or one per weight row: (1, k) or (A, 1, k)
        X, weights = _mean_row(X, plan.term_map, weights)[..., None, :], None
    A, (n, k) = len(B), X.shape[-2:]
    kept = B.copy()  # the overridden columns add an exact +0.0 to the offset
    kept[:, [*plan.fcols, *(c for c in (plan.lin, plan.sq) if c is not None)]] = 0.0
    # (A, n): one X @ b0 per row of beta, each row its own product
    r = (np.matmul(X, kept[:, :, None])[..., 0] if X.ndim == 3
         else _linear_predictors(kept, X, rows=1))
    zero = np.zeros((A, 1, 1))
    b_lin = zero if plan.lin is None else B[:, plan.lin, None, None]
    b_sq = zero if plan.sq is None else B[:, plan.sq, None, None]
    fixed = np.matmul(plan.fvals, B[:, plan.fcols, None])[..., 0]  # (A, S)
    # each row's own value: (1, n), or (A, 1, 1) at the A weighted rows of means
    own = X[..., None, :, plan.lin] if plan.shift else np.zeros((1, 1))
    S = len(plan.values)
    est = np.empty((A, S))
    G = np.empty((A, k, S)) if gradients else None
    if not plan.shift:
        # the factored odds: p = e^c / (e^c + e^-r).  A factor within e^+-708
        # is a normal double, so their sum cannot overflow, and the quotient
        # underflows only where p < 2.2e-308 anyway; the pairs with a factor
        # beyond keep expit(r + c)
        v = plan.values
        c = fixed + b_lin[:, 0] * v + b_sq[:, 0] * (v * v)  # (A, S)
        er, ec = np.exp(-r), np.exp(c)
        beyond = ~(np.abs(r) <= _FACTORED).all(axis=-1)[:, None] | ~(np.abs(c) <= _FACTORED)

    # a function per block, so that a block's arrays are freed before the
    # next block allocates its own; a block is replicates x scenarios x rows,
    # so each per-scenario mean is a contiguous row sum
    def block(ab: slice, sb: slice):
        u = plan.values[sb, None] + (own[ab] if own.ndim == 3 else own)
        if plan.shift:  # an override per row: one expit per row and scenario
            eta = r[ab, None] + (fixed[ab, sb, None] + b_lin[ab] * u + b_sq[ab] * (u * u))
            P = expit(eta, out=eta)
        else:
            P = np.add(ec[ab, sb, None], er[ab, None])
            np.divide(ec[ab, sb, None], P, out=P)
            far = beyond[ab, sb]
            if far.any():
                P[far] = expit(r[ab, None] + c[ab, sb, None])[far]
        if not (plan.slope or gradients):  # a bootstrap of predictions reads p alone
            F = P
        else:
            W = 1.0 - P
            W *= P
            if plan.slope:
                F = W * (b_lin[ab] + 2.0 * b_sq[ab] * u)
                D = P  # (1 - 2p) * F, in place of p
                D *= -2.0
                D += 1.0
                D *= F
            else:
                F, D = P, W
        est[ab, sb] = (F.mean(axis=-1) if weights is None
                       else np.einsum("asi,ai->as", F, weights[ab]) / total[ab, None])
        if not gradients:
            return
        D_mean = D.mean(axis=-1)  # (a, s): each mean is computed once
        W_mean = W.mean(axis=-1) if plan.slope else None
        Gb = np.stack([_matmul_tiles(X.T, Da.T) for Da in D])  # (a, k, s)
        Gb /= n
        Gb[:, plan.fcols] = plan.fvals[sb].T * D_mean[:, None]
        if plan.lin is not None:
            Gb[:, plan.lin] = _avg(D, D_mean, u)
            if plan.slope:
                Gb[:, plan.lin] += W_mean
        if plan.sq is not None:
            Gb[:, plan.sq] = _avg(D, D_mean, u * u)
            if plan.slope:
                Gb[:, plan.sq] += 2.0 * _avg(W, W_mean, u)
        G[ab, :, sb] = Gb

    step = max(1, min(_BLOCK_COLUMNS, BLOCK_BYTES // (8 * n)))  # scenarios per block
    per = max(1, BLOCK_BYTES // (8 * n * min(step, S)))  # replicates per block
    for a0 in range(0, A, per):
        for s0 in range(0, S, step):
            block(slice(a0, a0 + per), slice(s0, s0 + step))
    rows = np.matmul(plan.L, est[:, :, None])[..., 0]
    grad = G @ plan.L.T if gradients else None
    bad = ~np.isfinite(rows)
    if gradients:
        bad |= ~np.isfinite(grad).all(axis=1)
    if bad.any():
        raise MarginsError(f"margin row {_row_name(plan, int(np.argmax(bad.any(axis=0))))} "
                           "is not finite: the coefficients or grid values are too large")
    if beta.ndim == 1:
        return rows[0], None if grad is None else grad[0]
    return rows, grad


def _margin_rows(plan: _Plan, est: np.ndarray, se: np.ndarray,
                 ci_level: float) -> list[MarginRow]:
    zs = zstar(ci_level)
    z = np.array([e / s if s > 0 else (0.0 if e == 0.0 else math.copysign(math.inf, e))
                  for e, s in zip(est, se)])
    p = two_sided_p(z)
    return [MarginRow(label=label, at_value=at, estimate=float(e), se=float(s),
                      z=float(zz), p=float(pp), ci_low=float(e - zs * s),
                      ci_high=float(e + zs * s), extrapolated=x)
            for label, at, x, e, s, zz, pp in zip(
                plan.labels, plan.at, plan.extrapolated, est, se, z, p)]


def compute_margins(fr: FitResult, design: DesignMatrix,
                    request: MarginRequest) -> list[MarginRow]:
    """The rows of a :class:`MarginRequest` with delta-method inference.

    The predictions average over the rows of ``design``, whose term map
    must be the fit's (else :class:`MarginsError`).  Rows whose grid value
    lies outside the observed range of the grid variable are flagged
    ``extrapolated``.
    """
    if fr.term_map != design.term_map:
        raise MarginsError("the fit's term map does not match the design's")
    plan = _compile(design, request)
    est, G = _evaluate(plan, fr.beta)
    with np.errstate(all="ignore"):
        var = np.einsum("kr,kr->r", fr.cov @ G, G)
        # g' cov g, two sums of k products, is rounded by at most
        # 2k eps |g|'|cov||g|: a negative variance within that is a rounded 0
        bound = 2 * len(G) * np.finfo(np.float64).eps * np.einsum(
            "kr,kr->r", np.abs(fr.cov) @ np.abs(G), np.abs(G))
    bad = ~np.isfinite(var) | (var < -bound)
    if bad.any():
        r = int(np.argmax(bad))
        raise MarginsError(f"margin row {_row_name(plan, r)} has delta-method variance "
                           f"{var[r]:.4g}: the coefficient covariance is not positive "
                           "semidefinite, or too large")
    se = np.sqrt(np.where(var > 0, var, 0.0))
    return _margin_rows(plan, est, se, request.ci_level)


@dataclass(frozen=True)
class BootstrapResult:
    rows: list[MarginRow]
    replicates: int
    failures: int


def bootstrap_se(design: DesignMatrix, request: MarginRequest, reps: int, seed: int, *,
                 workers: Optional[int] = None) -> BootstrapResult:
    """Nonparametric bootstrap of a margin request.

    Rows are resampled with replacement, the model refit, and the margins
    recomputed per replicate; the reported standard error is the sd of the
    replicate estimates.  Replicate b resamples with
    ``default_rng(child_b).integers(0, n, size=n)`` over
    ``SeedSequence(seed).spawn(reps)``, in spawn order.  No resample is
    copied: replicate b is the design under the weights
    ``bincount(idx_b, minlength=n)``.  The replicates go in blocks of 32: a
    block's weight rows are one ``bincount``, its refits one call of the
    weighted Newton core, and the margins of the refits that succeed one
    evaluation under their weights (weighted row means, or the weighted
    rows of sample means), each replicate's values those of its own call.
    The request is compiled against the design before any fit.  Replicates
    whose refit raises :class:`FitError` are counted and skipped; more than
    10% failures is an error.  ``workers`` is accepted for compatibility and
    ignored.
    """
    return _bootstrap(design, (request,), reps, seed)[0]


def _bootstrap(design: DesignMatrix, requests: Sequence[MarginRequest], reps: int,
               seed: int) -> list[BootstrapResult]:
    """:func:`bootstrap_se` of each of ``requests``, from one resample and
    refit loop: each block's refits are evaluated under every request, so
    each result is that of its own call."""
    if reps < 100:
        raise MarginsError(f"bootstrap needs at least 100 replicates, got {reps}")
    if seed < 0:
        raise MarginsError(f"bootstrap seed must be non-negative, got {seed}")
    plans = [_compile(design, request) for request in requests]
    beta = fit(design).beta
    full_est = [_evaluate(plan, beta)[0] for plan in plans]
    n = design.n
    children = np.random.SeedSequence(seed).spawn(reps)
    kept = [[] for _ in plans]
    for b0 in range(0, reps, _BLOCK_COLUMNS):
        block = children[b0:b0 + _BLOCK_COLUMNS]
        # replicate b's draws, offset by b*n: one bincount counts every row
        C = np.bincount(np.concatenate([np.random.default_rng(child).integers(0, n, size=n) + b * n
                                        for b, child in enumerate(block)]),
                        minlength=len(block) * n).reshape(-1, n).astype(np.float64)
        fits = _newton(design, C)
        ok = [b for b, fr in enumerate(fits) if not isinstance(fr, FitError)]
        if ok:
            B = np.array([fits[b].beta for b in ok])
            for plan, estimates in zip(plans, kept):
                estimates.append(_evaluate(plan, B, C[ok])[0])

    failures = reps - sum(map(len, kept[0]))
    if failures > 0.10 * reps:
        raise MarginsError(f"{failures}/{reps} bootstrap replicates failed to fit")
    return [BootstrapResult(rows=_margin_rows(plan, est, np.vstack(estimates).std(axis=0, ddof=1),
                                              request.ci_level),
                            replicates=reps, failures=failures)
            for plan, request, est, estimates in zip(plans, requests, full_est, kept)]


def margins_tsv(rows: Sequence[MarginRow]) -> str:
    """Render margin rows as TSV through one ``csv.writer``, numbers at 17
    significant digits; a label with a tab, a quote or a line feed is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter="\t", lineterminator="\n")
    writer.writerow(("label", "at", "estimate", "std_err", "z", "p", "ci_low", "ci_high"))
    for r in rows:
        at = "" if r.at_value is None else f"{r.at_value:.17g}"
        numbers = (r.estimate, r.se, r.z, r.p, r.ci_low, r.ci_high)
        writer.writerow((r.label, at, *(f"{v:.17g}" for v in numbers)))
    return buf.getvalue()
