import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit

import logitmargins as lm
from logitmargins.formula import ColumnRole, TermMap, substitute_matrix
from logitmargins import logit as logit_mod
from logitmargins.logit import (ConvergenceError, FitError, RankDeficiencyError,
                                SeparationError, _cholesky, _clears_rank, _grams,
                                _matmul_tiles, _newton, _products, _score_hessians, fit, fit_stats, from_json,
                                log_likelihood, predict, score_and_hessian, to_json)
from oracles import fd_gradient, irls_fit, lp_separated, svd_rank
from conftest import BOOT_SEED, plain_design, plain_term_map, year_probe

DATA = Path(__file__).parent / "data"


def random_problem(seed, n=20, k=4):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    beta = rng.normal(scale=0.7, size=k)
    y = (rng.random(n) < expit(X @ beta)).astype(float)
    return X, y, beta


def test_ll_at_zero_is_n_log_half():
    X, y, _ = random_problem(1, n=37)
    assert log_likelihood(np.zeros(X.shape[1]), X, y) == pytest.approx(
        37 * math.log(0.5), rel=1e-12)


def test_ll_intercept_only_closed_form():
    y = np.array([1.0, 0, 0, 0] * 5)
    X = np.ones((20, 1))
    beta = np.array([math.log(0.25 / 0.75)])
    expected = 20 * (0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert log_likelihood(beta, X, y) == pytest.approx(expected, rel=1e-12)


def test_ll_overflow_safe():
    X = np.array([[1.0, 800.0]])
    y = np.array([1.0])
    val = log_likelihood(np.array([0.0, 1.0]), X, y)
    assert math.isfinite(val)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_ll_rejects_non_finite_beta():
    X, y, _ = random_problem(2)
    with pytest.raises(ValueError):
        log_likelihood(np.array([np.nan, 0, 0, 0]), X, y)


def test_score_matches_finite_differences():
    X, y, beta = random_problem(3, n=20, k=4)
    score, _ = score_and_hessian(beta, X, y)
    fd = fd_gradient(lambda b: log_likelihood(b, X, y), beta, h=1e-6)
    assert np.max(np.abs(score - fd)) < 1e-6


def test_hessian_matches_finite_differences():
    X, y, beta = random_problem(4, n=20, k=4)
    _, H = score_and_hessian(beta, X, y)
    h = 1e-6
    for j in range(len(beta)):
        up, dn = beta.copy(), beta.copy()
        up[j] += h
        dn[j] -= h
        col = (score_and_hessian(up, X, y)[0] - score_and_hessian(dn, X, y)[0]) / (2 * h)
        denom = np.maximum(np.abs(H[:, j]), 1.0)
        assert np.max(np.abs(col - H[:, j]) / denom) < 1e-5


def test_intercept_only_fit_closed_form():
    y = np.array([1.0, 1, 0, 0, 0, 0, 0, 0])
    fr = fit(plain_design(np.ones((8, 1)), y))
    assert fr.beta[0] == pytest.approx(math.log(0.25 / 0.75), abs=1e-10)


def test_mean_fitted_probability_equals_ybar(toy_fit):
    fr, design = toy_fit
    assert abs(expit(design.X @ fr.beta).mean() - design.y.mean()) < 1e-8


def test_fit_matches_independent_irls_on_frozen_data():
    ds = lm.load_csv(DATA / "logit32.csv",
                     [("y", "binary"), ("g", "categorical"),
                      ("x1", "continuous"), ("x2", "continuous")])
    design = lm.build_design(ds, lm.parse_formula("y ~ C(g) + x1 + x2"))
    fr = fit(design)
    oracle = irls_fit(np.asarray(design.X), np.asarray(design.y))
    assert np.max(np.abs(fr.beta - oracle)) < 1e-6


def test_separation_raises():
    # separation on a continuous column: only the check on the linear
    # predictor's spread (sd of X beta > 30) catches it; without it the fit
    # stopped at beta = 469 after 52 iterations
    x = np.linspace(-2, 2, 30)
    X = np.column_stack([np.ones(30), x])
    y = (x > 0).astype(float)
    with pytest.raises(SeparationError):
        fit(plain_design(X, y))


# two crossing 0/1 columns and a continuous one: every (x1, x2) cell but the
# two named by a case holds both outcomes
CROSSED = np.column_stack([np.ones(16), [1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0],
                           [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0],
                           [-0.8, -1.32, -0.25, 0.42, 1.14, 0.11, -0.55, -0.78, 0.75, 1.63,
                            0.27, -1.23, -0.96, 1.6, 0.2, -1.73]])


@pytest.mark.parametrize("y, message", [
    ([1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0],
     "every observation where x1 is 1 and x2 is 0 has y = 1, and every one where x1 is 0 "
     "and x2 is 1 has y = 0"),
    ([1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0],
     "every observation where x1 is 1 and x2 is 1 has y = 1, and every one where x1 is 0 "
     "and x2 is 0 has y = 0"),
    ([1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0],
     "every observation where x2 is 1 has y = 0"),
    ([1] * 16, "every observation has y = 1"),
], ids=["x1-x2", "x1+x2-1", "x2", "single-outcome"])
def test_separation_along_two_0_1_columns_is_found_before_iterating(y, message, monkeypatch):
    # x1 - x2 and x1 + x2 - 1 separate the first two although neither column
    # does alone; without the pair count they converged after 23 and 24
    # iterations, to coefficients near +-25 with standard errors near 1e5
    y = np.array(y, dtype=float)
    assert lp_separated(CROSSED, y)
    monkeypatch.setattr(logit_mod, "_score_hessians", None)  # no iteration runs
    with pytest.raises(SeparationError, match=f"^separation: {message}$"):
        fit(plain_design(CROSSED, y))


def test_redundant_column_raises_with_names(toy_ds):
    design = lm.build_design(toy_ds, lm.parse_formula("y ~ C(g) + x"))
    X = np.column_stack([design.X, design.X[:, 3] * 2.0])
    tm = TermMap(
        columns=design.term_map.columns + (ColumnRole("x", "identity"),),
        reference=design.term_map.reference,
        factor_levels=design.term_map.factor_levels)
    with pytest.raises(RankDeficiencyError) as exc:
        fit(lm.DesignMatrix(X, design.y, tm))
    # the offending columns are named
    assert "x" in " ".join(map(str, exc.value.columns))


# the largest double whose square is finite: the bound of every design value
BOUND = 1.3407807929942596e154


@pytest.mark.parametrize("where, bad", [
    pytest.param("X", np.nan, id="nan"), pytest.param("X", np.inf, id="inf"),
    pytest.param("X", -np.inf, id="-inf"),
    pytest.param("X", math.nextafter(BOUND, math.inf), id="beyond"),
    pytest.param("X", -math.nextafter(BOUND, math.inf), id="-beyond"),
    pytest.param("y", 2.0, id="y=2")])
def test_non_finite_design_is_rejected(where, bad):
    # the design rejects itself when it is built, before any fit reads it
    beyond = math.nextafter(BOUND, math.inf)
    assert math.isfinite(BOUND * BOUND) and math.isinf(beyond * beyond)
    assert BOUND == lm.formula._MAX_VALUE
    X, y, _ = random_problem(3)
    X[4, 1], X[6, 3] = BOUND, -BOUND
    assert plain_design(X, y).X[4, 1] == BOUND  # +-BOUND builds
    if where == "X":
        X[5, 2] = bad
        message = (f"design column x2 holds {bad:g}: every design value must be finite "
                   "and within +-1.341e+154")
    else:
        y[5], message = bad, "response must be 0/1"
    with pytest.raises(lm.FormulaError, match=re.escape(message)):
        plain_design(X, y)


def test_needs_more_rows_than_columns():
    X = np.ones((3, 4))
    with pytest.raises(FitError, match="more observations"):
        fit(plain_design(X, np.array([1.0, 0, 1])))


def halving_design():
    """A design whose fit halves its step at iteration 4 of 8: y ~ x + x^2 on
    n=148 rows with lognormal x.  It is seed 324 of a seeded family (n drawn
    from 100-200, x from lognormal(0, sigma) with sigma from U(0.5, 1.5), the
    true beta from N(0, diag(1, 1, 0.09))), where about one fit in a
    thousand halves a step; the first step never does, because -H(0) =
    X'X/4 bounds the curvature (Boehning & Lindsay 1988)."""
    ds = lm.load_csv(DATA / "halving148.csv", [("y", "binary"), ("x", "continuous")])
    return lm.build_design(ds, lm.parse_formula("y ~ x + x^2"))


def test_ll_trace_nondecreasing(toy_fit, corpus15k_fit):
    for fr in (toy_fit[0], corpus15k_fit[0], fit(halving_design())):
        diffs = np.diff(fr.ll_trace)
        # allow decreases only at fp resolution of the log-likelihood
        assert (diffs >= -1e-9 * (1 + abs(fr.ll))).all()
        assert fr.ll >= fr.ll0


def test_a_full_step_that_lowers_the_likelihood_is_halved():
    design = halving_design()
    X, y = design.X, design.y
    fr = fit(design)

    def full_step(beta):
        score, hessian = score_and_hessian(beta, X, y)
        return beta - np.linalg.solve(hessian, score)

    beta = np.zeros(3)
    for j in (1, 2, 3):  # the fit takes the full step up to iteration 3
        beta = full_step(beta)
        assert log_likelihood(beta, X, y) == pytest.approx(fr.ll_trace[j], rel=1e-9)
    # the full step at iteration 4 lowers the log-likelihood; the fit's step does not
    assert log_likelihood(full_step(beta), X, y) < fr.ll_trace[3] - 1.0
    assert fr.ll_trace[4] > fr.ll_trace[3]


def test_estimates_invariant_under_row_permutation(toy_fit, toy_ds):
    fr, design = toy_fit
    perm = np.random.default_rng(11).permutation(design.n)
    fr2 = fit(lm.DesignMatrix(design.X[perm], design.y[perm], design.term_map))
    assert np.max(np.abs(fr.beta - fr2.beta)) < 1e-8


def test_estimates_invariant_under_rescaling(toy_fit):
    fr, design = toy_fit
    X2 = np.array(design.X)
    X2[:, 3] = X2[:, 3] / 10.0      # x -> x/10
    X2[:, 4] = X2[:, 4] / 100.0     # x^2 -> (x/10)^2
    fr2 = fit(lm.DesignMatrix(X2, design.y, design.term_map))
    # x/10 scales its coefficient by 10 (and the square's by 100)
    rescaled = fr2.beta * np.array([1.0, 1.0, 1.0, 0.1, 0.01])
    assert np.max(np.abs(rescaled - fr.beta)) < 1e-8


@pytest.mark.parametrize("power", [-12, -6, 8, 10, 12])
def test_paper_fit_does_not_depend_on_the_units_of_jif(corpus15k_fit, power):
    # the stopping rule bounds each step in standard errors, which rescale
    # with their column: jif measured x 2^p (jif^2 x 4^p) takes the same 6
    # iterations, and its coefficients scale back exactly up to rounding
    fr, design = corpus15k_fit
    tm = design.term_map
    s = np.ones(design.k)
    s[tm.linear_col("jif")], s[tm.square_col("jif")] = 2.0 ** power, 4.0 ** power
    scaled = fit(lm.DesignMatrix(design.X * s, design.y, tm))
    assert scaled.iterations == fr.iterations == 6
    np.testing.assert_allclose(scaled.beta * s, fr.beta, rtol=1e-10, atol=0)


def test_cov_symmetric_positive_definite(toy_fit):
    fr, _ = toy_fit
    assert np.array_equal(fr.cov, fr.cov.T)
    assert (np.linalg.eigvalsh(fr.cov) > 0).all()


def test_fit_stats_null_model():
    y = np.array([1.0, 0, 1, 0, 1, 0, 0, 0, 1, 1])
    fr = fit(plain_design(np.ones((10, 1)), y))
    st = fit_stats(fr)
    assert st.pseudo_r2 == pytest.approx(0.0, abs=1e-10)
    assert st.lr_chi2 == pytest.approx(0.0, abs=1e-8)
    assert st.df == 0


def test_bic_minus_aic_identity(corpus15k_fit):
    fr, _ = corpus15k_fit
    st = fit_stats(fr)
    assert st.bic - st.aic == pytest.approx(15 * (math.log(15426) - 2), rel=1e-12)


def test_fit_stats_z_and_p(toy_fit):
    fr, _ = toy_fit
    st = fit_stats(fr)
    se = np.sqrt(np.diag(fr.cov))
    assert np.allclose(st.z, fr.beta / se)
    assert ((st.p >= 0) & (st.p <= 1)).all()
    assert st.pseudo_r2 == pytest.approx(1 - fr.ll / fr.ll0, rel=1e-12)


@pytest.mark.parametrize("diagonal", [0.0, -1.0])
def test_fit_stats_refuse_a_degenerate_covariance(toy_fit, diagonal):
    fr, _ = toy_fit
    cov = np.array(fr.cov)
    cov[2, 2] = diagonal
    with pytest.raises(FitError, match="degenerate covariance: non-positive diagonal"):
        fit_stats(dataclasses.replace(fr, cov=cov))


def test_predict_basics(toy_fit):
    fr, design = toy_fit
    assert predict(lm.FitResult(beta=np.zeros(1), cov=np.eye(1), ll=0, ll0=0, n=1,
                                iterations=0, term_map=plain_term_map(1)),
                   np.array([[1.0]]))[0] == 0.5
    with pytest.raises(ValueError, match="width"):
        predict(fr, np.ones((2, design.k + 1)))


def test_predict_spot_value_from_published_intercept():
    fr = lm.FitResult(beta=np.array([-3.961]), cov=np.eye(1), ll=0, ll0=0,
                      n=1, iterations=0, term_map=plain_term_map(1))
    p = predict(fr, np.array([[1.0]]))[0]
    assert p == pytest.approx(0.018688, abs=2e-6)


def test_predict_monotone_in_positive_coefficient(toy_fit):
    fr, design = toy_fit
    base = np.array(design.X[0])
    j = design.term_map.linear_col("x")
    sq = design.term_map.square_col("x")
    # move along increasing x in the region where the linked slope is positive
    slope = fr.beta[j] + 2 * fr.beta[sq] * base[j]
    rows = []
    for delta in (0.0, 0.1, 0.2):
        r = substitute_matrix(base, design.term_map, "x", float(base[j] + delta))
        rows.append(r)
    ps = predict(fr, np.array(rows))
    if slope > 0:
        assert ps[0] < ps[1] < ps[2]
    else:
        assert ps[0] > ps[1] > ps[2]


def test_max_iter_exhaustion():
    X, y, _ = random_problem(8, n=200, k=3)
    with pytest.raises(ConvergenceError):
        fit(plain_design(X, y), max_iter=1)


def _problem(name, request):
    """The design of a random problem, or of a ``<name>_fit`` fixture."""
    if name == "random":
        return plain_design(*random_problem(9, n=300, k=5)[:2])
    return request.getfixturevalue(f"{name}_fit")[1]


@pytest.mark.parametrize("name", ["toy", "random"])
def test_one_score_hessian_evaluation_per_iteration(name, request, monkeypatch):
    design = _problem(name, request)
    calls = []

    def counted(*args):
        calls.append(1)
        return _score_hessians(*args)

    # every sum over the data rows is one _matmul_tiles call: the Grams under
    # C and C*y, the 0/1 screen of _separations and the score at beta = 0
    # once per call, then a score and a Hessian per iteration; a pass over
    # the rows added once per call would show here
    products = []

    def counted_products(a, b):
        products.append(1)
        return _matmul_tiles(a, b)

    monkeypatch.setattr("logitmargins.logit._score_hessians", counted)
    monkeypatch.setattr("logitmargins.logit._matmul_tiles", counted_products)
    fr = fit(design)
    assert fr.iterations > 1
    assert len(calls) == fr.iterations  # the evaluation at beta = 0 is read from the Grams
    assert len(products) == 4 + 2 * fr.iterations


def test_a_newton_block_solves_the_covariances_of_an_evaluation_at_once(monkeypatch):
    # every fit that converges at an evaluation gets its covariance from one
    # solve with the others: a block makes its steps' solve and at most one
    # covariance solve per evaluation, however many of its fits converge
    X, y, _ = random_problem(9, n=300, k=5)
    rng = np.random.default_rng(4)
    C = np.vstack([np.ones(300)] * 8 + [np.bincount(rng.integers(0, 300, 300), minlength=300)
                                        for _ in range(24)])
    solves, evaluations = [], [1]  # the evaluation at beta = 0 is read from the Grams
    solve = logit_mod._cho_solve

    def counted_solve(chol, b):
        solves.append(len(chol))
        return solve(chol, b)

    def counted_evaluation(*args):
        evaluations.append(1)
        return _score_hessians(*args)

    monkeypatch.setattr("logitmargins.logit._cho_solve", counted_solve)
    monkeypatch.setattr("logitmargins.logit._score_hessians", counted_evaluation)
    fits = _newton(plain_design(X, y), C)
    assert all(isinstance(f, lm.FitResult) for f in fits)
    assert len(solves) <= 2 * len(evaluations) < len(fits)


def test_a_bootstrap_makes_one_newton_call_and_one_evaluation_per_block(corpus2k,
                                                                        monkeypatch):
    # 200 replicates are 7 blocks of at most 32, and the full-sample fit and
    # its margins are one call of each more
    from logitmargins import margins
    _, design = corpus2k
    calls = {"_newton": 0, "_evaluate": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for module, name in ((logit_mod, "_newton"), (margins, "_newton"), (margins, "_evaluate")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    got = lm.bootstrap_se(design, lm.MarginRequest("ame", "univ"), reps=200, seed=BOOT_SEED)
    assert got.failures == 0
    assert calls == {"_newton": 8, "_evaluate": 8}


@pytest.mark.parametrize("kind, target, at, calls", [
    ("aap", "univ", None, 0), ("ame", "univ", None, 0), ("apm", "univ", None, 0),
    ("aprv", "univ", ("jif", (0.0, 4.5, 9.0)), 0), ("aap", "jif", ("jif", (0.0, 9.0)), 0),
    ("ame", "jif", ("jif", (0.0, 9.0)), 0), ("mem", "jif", ("jif", (0.0, 9.0)), 0),
    ("ame", "jif", None, 1), ("mem", "jif", None, 1)])
def test_only_an_observed_value_plan_takes_an_expit_per_row(corpus2k, monkeypatch,
                                                            kind, target, at, calls):
    # a scenario that overrides every row alike has the odds exp(-r) exp(-c):
    # with moderate coefficients no expit runs, weighted or not, while a
    # shift of each row's own value (one override per row) takes one
    from logitmargins import margins
    fr, design = corpus2k
    plan = margins._compile(design, lm.MarginRequest(kind, target, at=at))
    counted, kernel_expit = [], margins.expit

    def expit_counted(x, out=None):
        counted.append(x.shape)
        return kernel_expit(x, out=out)

    monkeypatch.setattr(margins, "expit", expit_counted)
    margins._evaluate(plan, fr.beta)
    margins._evaluate(plan, np.vstack([fr.beta] * 3), np.ones((3, design.n)))
    assert len(counted) == 2 * calls


@st.composite
def resample_blocks(draw):
    """A small design (intercept, a factor level held by 1-5 rows, a binary
    and a continuous column), its response, a block of resamples of its rows
    and a tight iteration budget."""
    n = draw(st.integers(12, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rare = np.zeros(n)
    rare[:draw(st.integers(1, 5))] = 1.0
    X = np.column_stack([np.ones(n), rare, rng.integers(0, 2, n), rng.normal(size=n)])
    y = (rng.random(n) < expit(X @ rng.normal(scale=0.8, size=4))).astype(float)
    idx = rng.integers(0, n, size=(draw(st.integers(1, 6)), n))
    return X, y, idx, draw(st.integers(1, 25))


@given(resample_blocks())
def test_the_evaluation_at_beta_zero_is_a_quarter_of_the_gram(case):
    # at beta = 0 every p is 1/2 and p(1 - p) = 1/4, a power of two, so the
    # first evaluation is the score at p = 1/2 and the Gram under C over 4,
    # bit for bit: _newton reads it from its Grams instead of evaluating
    X, y, idx, _ = case
    C = np.vstack([np.bincount(i, minlength=len(y)) for i in idx]).astype(float)
    Zt = _products(X)
    score, neg_h = _score_hessians(X, Zt, y, C, np.full(C.shape, 0.5))
    assert np.array_equal(score, _matmul_tiles((y - 0.5) * C, X))
    assert np.array_equal(neg_h, _grams(Zt, C) / 4)


@st.composite
def near_dependent_blocks(draw):
    """A ``resample_blocks`` design with a fifth column, a combination of the
    others plus noise of relative size 1 down to 1e-14 (or none), every
    column scaled by a power of two within 2^+-40; a coefficient vector with
    |x_j beta_j| <= 2; and 16 resamples of the rows, each leaving about a
    third of them at weight zero."""
    X, y, idx, _ = draw(resample_blocks())
    n = len(y)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    combo = X @ rng.normal(size=X.shape[1])
    noise = draw(st.sampled_from([0.0] + [10.0 ** -e for e in range(15)]))
    X = np.column_stack([X, combo + noise * np.abs(combo).max() * rng.normal(size=n)])
    X = X * 2.0 ** np.array(draw(st.lists(st.integers(-40, 40), min_size=5, max_size=5)))
    beta = rng.uniform(-2.0, 2.0, size=5) / np.abs(X).max(axis=0)
    idx = np.vstack([idx, rng.integers(0, n, size=(16 - len(idx), n))])
    return X, y, beta, idx


@given(near_dependent_blocks())
def test_the_rank_screen_clears_only_full_rank_designs_and_grams_are_hessians(case):
    # wherever the Gram screen lets a fit skip the rank check, the SVD oracle
    # finds the weighted design of full rank
    X, y, beta, idx = case
    n, k = X.shape
    eps = np.finfo(np.float64).eps
    C = np.vstack([np.bincount(i, minlength=n) for i in idx]).astype(float)
    Zt = _products(X)
    for c in C[_clears_rank(_grams(Zt, C), n)]:
        assert svd_rank(np.sqrt(c)[:, None] * X) == k
    # the block's Hessians are the reference's on each materialised resample:
    # an entry sums n terms w x_i x_j, each form rounds by (n + 2) eps times
    # the sum of their magnitudes M (n k eps in norm, the rounding tau rests
    # on), and eta = x beta rounds each weight by k eps |x||beta| relative
    p = expit(X @ beta)
    W = C * p * (1.0 - p)
    slack = 2 * n + 8 + k * (np.abs(X) @ np.abs(beta)).max()
    for i, got, w in zip(idx, _grams(Zt, W), W):
        want = -score_and_hessian(beta, X[i], y[i])[1]
        M = (np.abs(X) * w[:, None]).T @ np.abs(X)
        assert (np.abs(got - want) <= slack * eps * M).all()


def test_no_rank_check_runs_on_the_paper_fit_or_its_bootstrap(corpus15k_fit, corpus2k,
                                                               monkeypatch):
    # the screen's threshold (8e-10 at n=15426) sits far below the smallest
    # Gram eigenvalue ratio of these designs (about 1.3e-7), so none reaches
    # the SVD
    checked = []
    monkeypatch.setattr(logit_mod, "_check_rank", lambda *args: checked.append(args))
    assert fit(corpus15k_fit[1]).iterations == 6
    result = lm.bootstrap_se(corpus2k[1], lm.MarginRequest("ame", "univ"), 200, BOOT_SEED)
    assert result.failures == 0 and checked == []


def test_a_newton_block_holds_one_product_matrix(corpus2k):
    # a 16-fit block at n=2000, k=15 peaks at its column products
    # (n k(k+1)/2 doubles, 1.83 MiB) plus about 6.6 of its own (16, n)
    # arrays; the slack of 8 such arrays is well short of a second product
    # matrix (7.5 of them)
    design = corpus2k[1]
    n, k = design.X.shape
    rng = np.random.default_rng(BOOT_SEED)
    C = np.vstack([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(16)])
    _newton(design, C)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        _newton(design, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n * k * (k + 1) // 2 + 8 * len(C) * n), peak


LINEAR_PREDICTOR_BYTES = """
import hashlib
import numpy as np
from logitmargins.logit import _linear_predictors
rng = np.random.default_rng(40013)
X = rng.normal(size=(40001, 12))
b = rng.normal(size=(1, 12))
B = rng.normal(size=(32, 12))
for eta in (_linear_predictors(b, X), _linear_predictors(B, X), _linear_predictors(B, X, rows=1)):
    print(hashlib.sha256(eta.tobytes()).hexdigest())
"""


def test_linear_predictors_do_not_depend_on_the_blas_thread_count():
    # one coefficient row over 40001 data rows is a matrix-vector product,
    # which OpenBLAS splits between threads in a way that changes its bits;
    # pieces of at most 8192 data rows keep them, for 1, 8 and 32 rows
    src = str(Path(lm.__file__).parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        r = subprocess.run([sys.executable, "-W", "error", "-c", LINEAR_PREDICTOR_BYTES],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        hashes.append(r.stdout.split())
    assert len(hashes[0]) == 3 and hashes[0] == hashes[1]


def test_convergence_needs_a_small_score():
    # the stopping rule: a Newton decrement score . step below tol^2 bounds
    # every |step_j| by tol * se_j, so the reference step at the returned
    # beta is below tol standard errors in each coefficient
    X, y, _ = random_problem(9, n=300, k=5)
    for tol in (1e-10, 1e-3):
        fr = fit(plain_design(X, y), tol=tol)
        score, hessian = score_and_hessian(fr.beta, X, y)
        step = np.linalg.solve(-hessian, score)
        se = np.sqrt(np.diag(np.linalg.inv(-hessian)))
        assert (np.abs(step) < tol * se).all(), (tol, step / se)


def _failure(exc) -> tuple:
    # a rank failure compares by class: which tied column a pivoted QR names
    # as dependent can turn on rounding
    if isinstance(exc, RankDeficiencyError):
        return (RankDeficiencyError,)
    return type(exc), str(exc)


# one block holding a resample of each kind, with zero-weight rows in each:
# completely separated (the binary column equals y: pinned probabilities),
# single-outcome (y = 1 only), rank-deficient (no row of the rare level)
# and ordinary (every row once)
FROZEN_BLOCK = (
    np.column_stack([np.ones(12), [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                     [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
                     [0.3, -0.8, 1.2, -0.5, 0.7, 0.1, -1.1, 0.9, -0.2, 1.5, -0.7, 0.4]]),
    np.array([1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0], dtype=float),
    np.array([[1, 2, 3, 6, 7, 8, 9, 1, 2, 3, 6, 7],
              [0, 1, 3, 4, 7, 9, 10, 0, 1, 3, 4, 7],
              [3, 4, 5, 6, 7, 8, 9, 10, 11, 3, 4, 5],
              list(range(12))]),
    25)

# a quasi-separated resample (none of the rare level's rows with y = 0 is
# drawn), which the exact count refuses before iterating; without the count
# it converged at iteration 24 with cond(cov) = 1.5e11, and fit() on its
# rows reversed moved cov[0, 1] from -43560 to 12493, where max|cov| was
# 4.5e10
ILL_CONDITIONED_BLOCK = (
    np.column_stack([np.ones(12), [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                     [1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1],
                     [1.3040000451301372, 0.9470809631292422, -0.7037352358069926,
                      -1.2654214710460525, -0.6232744625373522, 0.0413259793472436,
                      -2.3250307746388343, -0.21879166393254573, -1.2459109472530652,
                      -0.7322673547034516, -0.5442589828573099, -0.31630015636915454]]),
    np.array([1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0], dtype=float),
    np.array([[8, 2, 9, 0, 6, 4, 11, 2, 11, 1, 7, 6]]),
    24)


# drawn by the recipe of resample_blocks from default_rng(11481) at n=14:
# resample 0 converges in 5 iterations, the x2 = 0 rows of resample 1 all
# have y = 0, and resample 2 is nearly separated: its MLE exists (beta near
# (-24, -32, 1, -87)), but the negative Hessian there is singular to working
# precision, and the fit ends without a Cholesky factor (FitError, with the
# LinAlgError as its cause), alike in this block, alone, and in fit() on its
# rows in either order
CHOLESKY_BLOCK = (
    np.column_stack([np.ones(14), [1] * 5 + [0] * 9,
                     [1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0],
                     [-1.3993408811632557, -0.5614168364079974, 0.31726896638763213,
                      -0.6513120260209619, -0.6241199940466152, -1.6456395746969497,
                      -0.19279928055890472, 1.5088756591283665, -0.24659163066010756,
                      -0.5215954892535924, -0.25766409603216894, -1.2016724209364573,
                      -2.0583169206749203, -1.088253223094145]]),
    np.array([1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0], dtype=float),
    np.array([[8, 1, 7, 12, 10, 6, 3, 2, 10, 6, 13, 0, 11, 6],
              [9, 11, 1, 8, 3, 10, 2, 3, 13, 9, 0, 2, 4, 7],
              [3, 0, 7, 3, 8, 11, 9, 9, 9, 10, 4, 9, 10, 12]]),
    25)


@settings(max_examples=300)
@given(resample_blocks())
@example(FROZEN_BLOCK)
@example(ILL_CONDITIONED_BLOCK)
@example(CHOLESKY_BLOCK)
def test_weighted_block_matches_each_materialised_resample(case):
    # each weight row of the batched core fits as fit() does on the copied
    # resample: the same exception (and message, but for a rank failure), or
    # the same iteration count and estimates within 1e-10.  Nearly separated
    # resamples are held to what rounding allows:
    # - one whose MLE is huge (|beta| near 20) has cond(cov) up to ~1e12, and
    #   any change of summation order moves its beta and cov in their leading
    #   digits' tail (fits with cond(cov) below 1e8 agree within 1e-12);
    #   rounding moves each entry of such a cov by up to about
    #   cond(cov) * eps * max|cov|, however small the entry itself;
    # - one separated along a direction that no exact count sees: where the
    #   Hessian's smallest eigenvalue reaches ~1e-17, rounding decides
    #   whether its Cholesky factor fails (FitError) or one more step trips
    #   the check on the linear predictor's spread (SeparationError); the
    #   bootstrap skips both alike.
    X, y, idx, max_iter = case
    C = np.vstack([np.bincount(i, minlength=len(y)) for i in idx])
    for i, got in zip(idx, _newton(plain_design(X, y), C, max_iter=max_iter)):
        try:
            want = fit(plain_design(X[i], y[i]), max_iter=max_iter)
        except FitError as exc:
            outcomes = {_failure(e) for e in (got, exc)}
            assert len(outcomes) == 1 or outcomes == {
                (FitError, "negative Hessian is not positive definite"),
                (SeparationError, "quasi-complete separation: the linear "
                                  "predictor's standard deviation exceeds 30")}, (got, exc)
            continue
        assert isinstance(got, lm.FitResult), got
        assert got.iterations == want.iterations and got.ll0 == want.ll0
        assert got.ll == pytest.approx(want.ll, rel=1e-12)
        cond = np.linalg.cond(want.cov)
        rtol = 1e-10 if cond < 1e8 else 1e-3
        np.testing.assert_allclose(got.beta, want.beta, rtol=rtol, atol=1e-12)
        scale = 1e-12 if cond < 1e8 else cond * np.finfo(np.float64).eps
        np.testing.assert_allclose(got.cov, want.cov, rtol=rtol,
                                   atol=scale * np.abs(want.cov).max())


def test_each_fit_of_a_block_has_the_totals_of_its_own_weight_row():
    # a row that leaves half the data at weight 0 and one that counts every
    # row twice fit as their materialised rows do: n, ll0, ll and the
    # iterations are the weight row's own, not the design's
    X, y, _ = random_problem(9, n=300, k=5)
    n = len(y)
    C = np.vstack([np.repeat([0.0, 1.0], n // 2), np.full(n, 2.0)])
    materialised = (np.arange(n // 2, n), np.tile(np.arange(n), 2))
    for got, rows in zip(_newton(plain_design(X, y), C), materialised):
        want = fit(plain_design(X[rows], y[rows]))
        assert (got.n, got.ll0, got.iterations) == (want.n, want.ll0, want.iterations)
        assert got.ll == pytest.approx(want.ll, rel=1e-12)
        np.testing.assert_allclose(got.beta, want.beta, rtol=1e-10)
        np.testing.assert_allclose(got.cov, want.cov, rtol=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big", [1e160, 1e300])
def test_a_row_whose_products_would_overflow_is_refused_by_the_design(big):
    # x^2 of row 0 would overflow, which made every Gram of a Newton call NaN
    # (0*inf) even for a fit that gives the row weight 0; the design refuses
    # the row when it is built, so no fit, weighted or not, ever sees it
    X, y, _ = random_problem(12, n=200, k=2)
    X[0, 1] = big
    with pytest.raises(lm.FormulaError, match=re.escape(f"design column x1 holds {big:g}: ")):
        plain_design(X, y)


@st.composite
def recoded_covariates(draw):
    """An intercept, a 0/1 column b and a standard normal z on 30-300 rows,
    with z^2 in some draws; a response; and a shift of z by up to 250 of its
    standard deviations."""
    n = draw(st.integers(30, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, z = rng.integers(0, 2, n).astype(float), rng.normal(size=n)
    square = draw(st.booleans())
    beta = rng.normal(scale=0.8, size=4)
    y = (rng.random(n) < expit(beta[0] + beta[1] * b + beta[2] * z
                               + square * beta[3] * z * z)).astype(float)
    return b, z, y, square, draw(st.floats(-250.0, 250.0)) * z.std()


def _coded(b, z, y, square):
    return plain_design(np.column_stack([np.ones(len(y)), b, z, *([z * z] if square else [])]), y)


# y ~ x + year + year^2 at n=2000 (conftest.year_probe), drawn centred and
# shifted back to the raw year: the raw fit raised "a standardized
# coefficient exceeds 30", since year^2 has a standard deviation near 3.6e4
_x, _year, _y = year_probe(2000)
RAW_YEAR = (_x, _year - 1995.0, _y, True, 1995.0)


@settings(max_examples=300)
@given(recoded_covariates())
@example(RAW_YEAR)
def test_a_recoded_covariate_never_causes_a_separation_error(case):
    # shifting z (and so z^2) codes the same model: the intercept and the z
    # terms absorb the shift, and the separation verdict reads the spread of
    # X beta, which the shift leaves alone.  Nor does the shift stall the
    # line search: its noise threshold covers the rounding of X beta, whose
    # terms beta_j*x_j grow with the shift and cancel.  So whenever the
    # unshifted fit converges, the shifted one does too, and the coefficients
    # the shift leaves alone (b's, and z^2's) agree within 1e-8 of their
    # standard errors: each fit stops within tol = 1e-10 se of its MLE, and
    # the shifted design's rounding added at most 2e-10 se over 900 seeded
    # draws of this recipe
    b, z, y, square, shift = case
    try:
        want = fit(_coded(b, z, y, square))
    except FitError:
        return
    got = fit(_coded(b, z + shift, y, square))
    same = [1, 3] if square else [1]
    se = np.sqrt(np.diag(want.cov))[same]
    assert (np.abs(got.beta[same] - want.beta[same]) <= 1e-8 * se).all()


def test_cholesky_block_fails_on_a_hessian_without_a_factor():
    X, y, idx, max_iter = CHOLESKY_BLOCK
    C = np.vstack([np.bincount(i, minlength=len(y)) for i in idx])
    first, second, third = _newton(plain_design(X, y), C, max_iter=max_iter)
    assert first.iterations == 5
    assert str(second) == "separation: every observation where x2 is 0 has y = 0"
    for got in (third, *_newton(plain_design(X, y), C[2:], max_iter=max_iter)):
        assert str(got) == "negative Hessian is not positive definite"
        assert isinstance(got.__cause__, np.linalg.LinAlgError)


@given(resample_blocks())
@example(FROZEN_BLOCK)
@example(ILL_CONDITIONED_BLOCK)
@example(CHOLESKY_BLOCK)
def test_weighted_fits_match_the_rank_separation_and_irls_oracles(case):
    # each weight row of the batched core, at the default max_iter, against
    # independent oracles on its materialised resample: a rank-deficient
    # design (SVD) is a RankDeficiencyError, a separated one (Konis's LP)
    # some FitError, and any other has an MLE (IRLS), which the fit matches.
    # Where that MLE's linear predictor has a standard deviation beyond 30, the
    # documented heuristic may call it separated; where its negative Hessian is
    # singular to working precision, the Cholesky factor may fail.
    # The bound: the untaken step is below tol * se_j (the stopping rule),
    # which moves each Hessian weight by at most tol * se(x_i beta) relative,
    # and a solve rounds by about cond(cov) * eps; 4 and 16 are slack
    X, y, idx, _ = case
    C = np.vstack([np.bincount(i, minlength=len(y)) for i in idx])
    eps, tol = np.finfo(np.float64).eps, 1e-10  # fit's default tol
    for i, got in zip(idx, _newton(plain_design(X, y), C)):
        Xr, yr = X[i], y[i]
        if svd_rank(Xr) < X.shape[1]:
            assert isinstance(got, RankDeficiencyError), got
            continue
        if lp_separated(Xr, yr):
            assert isinstance(got, FitError), got
            continue
        beta = irls_fit(Xr, yr)
        p = expit(Xr @ beta)
        neg_h = (Xr * (p * (1.0 - p))[:, None]).T @ Xr
        if isinstance(got, SeparationError):
            assert (Xr @ beta).std() > 30.0, got
            continue
        if isinstance(got, FitError) and str(got) == "negative Hessian is not positive definite":
            lam = np.linalg.eigvalsh(neg_h)
            assert lam[0] <= lam[-1] * max(Xr.shape) * eps, (got, lam)
            continue
        assert isinstance(got, lm.FitResult), got
        cov = np.linalg.inv(neg_h)
        rounding = 16.0 * np.linalg.cond(cov) * eps
        se = np.sqrt(np.diag(cov))
        se_eta = np.sqrt(np.einsum("ij,jk,ik->i", Xr, cov, Xr)).max()
        assert (np.abs(got.beta - beta) <= 4 * tol * se + rounding * np.abs(beta).max()).all()
        assert (np.abs(got.cov - cov) <= (4 * tol * se_eta + rounding) * np.abs(cov).max()).all()


def test_cholesky_stands_in_the_identity_for_a_matrix_without_a_factor():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 4, 4))
    stack = A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(4)
    stack[1] = np.diag([1.0, 2.0, -1.0, 3.0])  # indefinite
    L, errors = _cholesky(stack)
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], np.linalg.LinAlgError)
    assert np.array_equal(L[1], np.eye(4))
    for a in (0, 2):
        assert np.array_equal(L[a], np.linalg.cholesky(stack[a]))


def test_a_step_to_a_non_finite_vector_is_a_fit_error(monkeypatch):
    # no natural input was found to reach this verdict: the first step of
    # fit 0 in a block of two is made infinite, and only that fit fails
    X, y, _ = random_problem(4, n=60)
    design = plain_design(X, y)
    solve = logit_mod._cho_solve
    calls = []

    def infinite_first_step(chol, b):
        x = solve(chol, b)
        if not calls:  # the first call solves the steps of iteration 0
            x[0] = np.inf
        calls.append(b)
        return x

    monkeypatch.setattr(logit_mod, "_cho_solve", infinite_first_step)
    failed, other = _newton(design, np.ones((2, len(y))))
    monkeypatch.undo()
    assert type(failed) is FitError and str(failed) == "non-finite coefficient vector"
    solo = fit(design)
    assert other.iterations == solo.iterations
    np.testing.assert_allclose(other.beta, solo.beta, rtol=1e-12)
    np.testing.assert_allclose(other.cov, solo.cov, rtol=1e-10)


@pytest.mark.parametrize("name", ["toy", "random"])
def test_max_iter_boundary_is_the_iteration_count(name, request):
    design = _problem(name, request)
    fr = fit(design)
    exact = fit(design, max_iter=fr.iterations)
    assert exact.beta.tobytes() == fr.beta.tobytes()
    assert exact.iterations == fr.iterations
    with pytest.raises(ConvergenceError):
        fit(design, max_iter=fr.iterations - 1)


@pytest.mark.parametrize("name", ["toy", "random", "corpus15k"])
def test_cov_is_inverse_negative_hessian_at_beta(name, request):
    design = _problem(name, request)
    fr = fit(design)
    expected = np.linalg.inv(-score_and_hessian(fr.beta, design.X, design.y)[1])
    np.testing.assert_allclose(fr.cov, expected, rtol=1e-9,
                               atol=1e-12 * np.abs(fr.cov).max())


# each constructor stores read-only copies: the caller's arrays stay writable,
# and a later write to them leaves the constructed object unchanged
@pytest.mark.parametrize("owner", ["dataset", "design", "fit"])
def test_constructors_store_readonly_copies(toy_fit, owner):
    fr, design = toy_fit
    if owner == "dataset":
        arrays = (np.array([0.5, 1.5, 2.5]),)
        obj = lm.Dataset((lm.dataset.Column("x", "continuous", arrays[0]),))
        stored = (obj.column("x").values,)
    elif owner == "design":
        arrays = (np.array(design.X), np.array(design.y))
        obj = lm.DesignMatrix(*arrays, design.term_map)
        stored = (obj.X, obj.y)
    else:
        arrays = (np.array(fr.beta), np.array(fr.cov))
        obj = dataclasses.replace(fr, beta=arrays[0], cov=arrays[1])
        stored = (obj.beta, obj.cov)
    before = [a.copy() for a in arrays]
    for a in arrays:
        assert a.flags.writeable
        a[...] = 7.0
    for a, b in zip(stored, before):
        assert not a.flags.writeable
        assert np.array_equal(a, b)


def test_model_json_round_trip(toy_fit):
    fr, _ = toy_fit
    text = to_json(fr, "y ~ C(g) + x + x^2")
    parsed = json.loads(text)  # valid JSON
    assert len(parsed["beta"]) == fr.k
    back, formula = from_json(text)
    assert formula == "y ~ C(g) + x + x^2"
    assert np.array_equal(back.beta, fr.beta)       # 17g round-trips exactly
    assert np.array_equal(back.cov, fr.cov)
    assert back.ll == fr.ll and back.ll0 == fr.ll0
    assert back.term_map == fr.term_map


# intercept, a 3-level factor and a continuous variable with its square
ROUND_TRIP_TERMS = TermMap(
    columns=(ColumnRole(None, "intercept"), ColumnRole("g", "indicator", "b"),
             ColumnRole("g", "indicator", "c"), ColumnRole("x", "identity"),
             ColumnRole("x", "square")),
    reference={"g": "a"}, factor_levels={"g": ("a", "b", "c")})


@given(beta=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=5,
                     max_size=5),
       a=st.lists(st.floats(-1e3, 1e3), min_size=25, max_size=25),
       ll=st.floats(-1e6, 0.0), n=st.integers(6, 10**6))
@example(beta=[0.0, 0.0, 0.0, 0.0, -0.0], a=[0.0] * 25, ll=-0.0, n=6)
def test_model_json_round_trip_is_byte_exact(beta, a, ll, n):
    A = np.array(a).reshape(5, 5)
    C = A @ A.T + 1e-3 * np.eye(5)
    cov = (C + C.T) / 2.0  # exactly symmetric, positive definite
    fr = lm.FitResult(beta=np.array(beta), cov=cov, ll=ll, ll0=2.0 * ll, n=n,
                      iterations=7, term_map=ROUND_TRIP_TERMS)
    text = to_json(fr, "y ~ C(g) + x + x^2")
    back, formula = from_json(text)
    assert to_json(back, formula) == text


@pytest.mark.parametrize("field", ["beta", "cov", "ll"])
def test_model_json_refuses_a_non_finite_number(toy_fit, field):
    fr, _ = toy_fit
    bad = dataclasses.replace(fr, **{field: np.full(np.shape(getattr(fr, field)), np.inf)})
    with pytest.raises(ValueError):
        to_json(bad, "y ~ C(g) + x + x^2")


def _mangle(d, field: str):
    k = len(d["beta"])
    cov = np.array(d["cov"])
    if field == "top_level_list":
        return [d]
    if field.endswith("_missing"):
        key = field[:-len("_missing")]
        if key == "reference":
            del d["term_map"]["reference"]
        elif key == "source":
            del d["term_map"]["columns"][1]["source"]
        else:
            del d[key]
        return d
    if field == "short_beta":
        d["beta"] = d["beta"][:-1]
    elif field == "cov_shape":
        d["cov"] = cov[:-1].tolist()
    elif field == "cov_nan":
        d["cov"][1][1] = float("nan")
    elif field == "beta_inf":
        d["beta"][0] = float("inf")
    elif field == "asymmetric":
        d["cov"][0][1] = d["cov"][0][1] * 2.0 + 1.0
    elif field == "diagonal":
        d["cov"][2][2] = -abs(d["cov"][2][2])
    elif field == "indefinite":  # symmetric, positive diagonal, a negative 2 x 2 minor
        d["cov"][0][1] = d["cov"][1][0] = 2.0 * math.sqrt(cov[0, 0] * cov[1, 1])
    elif field == "ragged":
        d["cov"][0] = d["cov"][0][:-1]
    elif field == "ll_null":
        d["ll"] = None
    elif field == "term_map_null":
        d["term_map"] = None
    elif field == "levels_int":
        d["term_map"]["factor_levels"]["g"] = 3
    elif field == "columns_int":
        d["term_map"]["columns"] = list(range(k))
    elif field == "cube":
        d["term_map"]["columns"][-1]["transform"] = "cube"
    elif field == "n_float":
        d["n"] = float(d["n"])
    elif field == "iterations_bool":
        d["iterations"] = True
    elif field == "ll_str":
        d["ll"] = str(d["ll"])
    elif field == "ll0_bool":
        d["ll0"] = False
    elif field == "reference_empty":
        d["term_map"]["reference"] = {}
    elif field == "level_null":
        d["term_map"]["columns"][1]["level"] = None
    elif field == "ll_nan":
        d["ll"] = float("nan")
    elif field == "ll0_inf":
        d["ll0"] = float("inf")
    elif field == "ll_huge":
        d["ll"] = -10**400
    elif field in ("n_negative", "n_zero", "n_k"):
        d["n"] = {"n_negative": -5, "n_zero": 0, "n_k": k}[field]
    elif field == "iterations_negative":
        d["iterations"] = -3
    return d


@pytest.mark.parametrize("field, message", [
    ("short_beta", "beta has shape"),
    ("cov_shape", "cov has shape"), ("cov_nan", "finite"), ("beta_inf", "finite"),
    ("asymmetric", "symmetric"), ("diagonal", "non-positive diagonal"),
    ("indefinite", "not positive definite"),
    ("ragged", None), ("ll_null", "malformed"),
    ("top_level_list", "must be an object"), ("term_map_null", "malformed"),
    ("levels_int", "malformed"), ("columns_int", "malformed"),
    ("cube", "unknown column transform 'cube'"),
    ("n_float", "'n' must be an integer"),
    ("iterations_bool", "'iterations' must be an integer"),
    ("ll_str", "'ll' must be a number"), ("ll0_bool", "'ll0' must be a number"),
    ("reference_empty", "reference levels"), ("level_null", "indicator columns"),
    ("ll_nan", "must be finite"), ("ll0_inf", "must be finite"),
    ("ll_huge", "malformed"), ("n_negative", "n > k"), ("n_zero", "n > k"),
    ("n_k", "n > k"), ("iterations_negative", "iterations >= 0"),
    *((f"{key}_missing", f"^malformed model JSON: missing key '{key}'$")
      for key in ("n", "iterations", "ll", "ll0", "beta", "cov", "term_map",
                  "reference", "source")),
])
def test_model_json_rejects_malformed_fit(toy_fit, field, message):
    fr, _ = toy_fit
    d = _mangle(json.loads(to_json(fr, "y ~ C(g) + x + x^2")), field)
    with pytest.raises(ValueError, match=message):
        from_json(json.dumps(d))
