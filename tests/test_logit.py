import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit

import logitmargins as lm
from logitmargins.formula import ColumnRole, TermMap, substitute_matrix
from logitmargins.logit import (ConvergenceError, FitError, RankDeficiencyError,
                                SeparationError, _newton, _score_hessians, fit, fit_stats,
                                from_json, log_likelihood, predict, score_and_hessian,
                                to_json)
from oracles import fd_gradient, irls_fit
from conftest import plain_design, plain_term_map

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
    x = np.linspace(-2, 2, 30)
    X = np.column_stack([np.ones(30), x])
    y = (x > 0).astype(float)
    with pytest.raises(SeparationError):
        fit(plain_design(X, y))


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


@pytest.mark.parametrize("where, bad", [
    pytest.param("X", np.nan, id="nan"), pytest.param("X", np.inf, id="inf"),
    pytest.param("X", -np.inf, id="-inf"), pytest.param("y", 2.0, id="y=2")])
def test_non_finite_design_is_rejected(where, bad):
    # the design rejects itself when it is built, before any fit reads it
    X, y, _ = random_problem(3)
    if where == "X":
        X[5, 2], message = bad, "design matrix has non-finite values"
    else:
        y[5], message = bad, "response must be 0/1"
    with pytest.raises(lm.FormulaError, match=message):
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

    monkeypatch.setattr("logitmargins.logit._score_hessians", counted)
    fr = fit(design)
    assert fr.iterations > 1
    assert len(calls) == fr.iterations + 1


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


def test_convergence_needs_a_small_score():
    # with tol=1 the likelihood test passes after one step; the score test
    # alone keeps the fit going
    X, y, _ = random_problem(9, n=300, k=5)
    fr = fit(plain_design(X, y), tol=1.0)
    assert fr.iterations > 1
    assert np.abs(score_and_hessian(fr.beta, X, y)[0]).max() < 1e-6


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
# drawn) that converges at iteration 24 with cond(cov) = 1.5e11: fit() on
# its rows reversed moves cov[0, 1] from -43560 to 12493, where max|cov| is
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


@settings(max_examples=300)
@given(resample_blocks())
@example(FROZEN_BLOCK)
@example(ILL_CONDITIONED_BLOCK)
def test_weighted_block_matches_each_materialised_resample(case):
    # each weight row of the batched core fits as fit() does on the copied
    # resample: the same exception (and message, but for a rank failure), or
    # the same iteration count and estimates within 1e-10.  Quasi-separated
    # resamples, whose MLE does not exist, are held to what rounding allows:
    # - one that converges within the budget has cond(cov) of 1e10-1e12, and
    #   any change of summation order, even fit() on the resample's rows
    #   reversed, moves beta and cov by up to ~3e-5 (fits with cond(cov)
    #   below 1e8 agree within 1e-12); rounding moves each entry of such a
    #   cov by up to about cond(cov) * eps * max|cov|, however small the
    #   entry itself;
    # - where the Hessian's smallest eigenvalue reaches ~1e-17, rounding
    #   decides whether its Cholesky factor fails (FitError) or one more
    #   step trips the check on standardized coefficients (SeparationError);
    #   the bootstrap skips both alike.
    X, y, idx, max_iter = case
    C = np.vstack([np.bincount(i, minlength=len(y)) for i in idx])
    for i, got in zip(idx, _newton(plain_design(X, y), C, max_iter=max_iter)):
        try:
            want = fit(plain_design(X[i], y[i]), max_iter=max_iter)
        except (FitError, ValueError) as exc:
            outcomes = {_failure(e) for e in (got, exc)}
            assert len(outcomes) == 1 or outcomes == {
                (FitError, "negative Hessian is not positive definite"),
                (SeparationError, "quasi-complete separation: a standardized "
                                  "coefficient exceeds 30")}, (got, exc)
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
        obj = lm.Dataset("d", (lm.dataset.Column("x", "continuous", arrays[0]),))
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
