import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit

import logitmargins as lm
from logitmargins.formula import ColumnRole, TermMap, substitute_matrix
from logitmargins.logit import (ConvergenceError, FitError, RankDeficiencyError,
                                SeparationError, fit, fit_stats, from_json,
                                log_likelihood, predict, score_and_hessian, to_json)
from oracles import fd_gradient, irls_fit

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
    fr = fit(np.ones((8, 1)), y)
    assert fr.beta[0] == pytest.approx(math.log(0.25 / 0.75), abs=1e-10)
    assert fr.converged


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
        fit(X, y)


def test_redundant_column_raises_with_names(toy_ds):
    design = lm.build_design(toy_ds, lm.parse_formula("y ~ C(g) + x"))
    X = np.column_stack([design.X, design.X[:, 3] * 2.0])
    with pytest.raises(RankDeficiencyError):
        fit(X, design.y)
    # with a term map the offending columns are named
    from logitmargins.formula import ColumnRole, TermMap
    tm = TermMap(
        columns=design.term_map.columns + (ColumnRole("x", "identity"),),
        reference=design.term_map.reference,
        factor_levels=design.term_map.factor_levels)
    with pytest.raises(RankDeficiencyError) as exc:
        fit(X, design.y, term_map=tm)
    assert "x" in " ".join(map(str, exc.value.columns))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_design_is_rejected(bad):
    X, y, _ = random_problem(3)
    X[5, 2] = bad
    with pytest.raises(ValueError, match="design matrix has non-finite values"):
        fit(X, y)


def test_needs_more_rows_than_columns():
    X = np.ones((3, 4))
    with pytest.raises(FitError, match="more observations"):
        fit(X, np.array([1.0, 0, 1]))


def test_ll_trace_nondecreasing(toy_fit, corpus15k_fit):
    for fr in (toy_fit[0], corpus15k_fit[0]):
        diffs = np.diff(fr.ll_trace)
        # allow decreases only at fp resolution of the log-likelihood
        assert (diffs >= -1e-9 * (1 + abs(fr.ll))).all()
        assert fr.ll >= fr.ll0


def test_estimates_invariant_under_row_permutation(toy_fit, toy_ds):
    fr, design = toy_fit
    perm = np.random.default_rng(11).permutation(design.n)
    fr2 = fit(design.X[perm], design.y[perm], term_map=design.term_map)
    assert np.max(np.abs(fr.beta - fr2.beta)) < 1e-8


def test_estimates_invariant_under_rescaling(toy_fit):
    fr, design = toy_fit
    X2 = np.array(design.X)
    X2[:, 3] = X2[:, 3] / 10.0      # x -> x/10
    X2[:, 4] = X2[:, 4] / 100.0     # x^2 -> (x/10)^2
    fr2 = fit(X2, design.y)
    # x/10 scales its coefficient by 10 (and the square's by 100)
    rescaled = fr2.beta * np.array([1.0, 1.0, 1.0, 0.1, 0.01])
    assert np.max(np.abs(rescaled - fr.beta)) < 1e-8


def test_cov_symmetric_positive_definite(toy_fit):
    fr, _ = toy_fit
    assert np.array_equal(fr.cov, fr.cov.T)
    assert (np.linalg.eigvalsh(fr.cov) > 0).all()


def test_fit_stats_null_model():
    y = np.array([1.0, 0, 1, 0, 1, 0, 0, 0, 1, 1])
    fr = fit(np.ones((10, 1)), y)
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


def test_fit_stats_requires_convergence(toy_fit):
    fr, _ = toy_fit
    broken = lm.FitResult(beta=fr.beta.copy(), cov=fr.cov.copy(), ll=fr.ll,
                          ll0=fr.ll0, n=fr.n, k=fr.k, iterations=fr.iterations,
                          converged=False, term_map=fr.term_map)
    with pytest.raises(FitError):
        fit_stats(broken)


def test_predict_basics(toy_fit):
    fr, design = toy_fit
    assert predict(lm.FitResult(beta=np.zeros(1), cov=np.eye(1), ll=0, ll0=0, n=1,
                                k=1, iterations=0, converged=True),
                   np.array([[1.0]]))[0] == 0.5
    with pytest.raises(ValueError, match="width"):
        predict(fr, np.ones((2, design.k + 1)))


def test_predict_spot_value_from_published_intercept():
    fr = lm.FitResult(beta=np.array([-3.961]), cov=np.eye(1), ll=0, ll0=0,
                      n=1, k=1, iterations=0, converged=True)
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
        fit(X, y, max_iter=1)


def _problem(name, request):
    """(X, y) of a random problem, or of the design of a ``<name>_fit`` fixture."""
    if name == "random":
        return random_problem(9, n=300, k=5)[:2]
    design = request.getfixturevalue(f"{name}_fit")[1]
    return design.X, design.y


@pytest.mark.parametrize("name", ["toy", "random"])
def test_one_score_hessian_evaluation_per_iteration(name, request, monkeypatch):
    X, y = _problem(name, request)
    calls = []

    def counted(*args):
        calls.append(1)
        return score_and_hessian(*args)

    monkeypatch.setattr("logitmargins.logit.score_and_hessian", counted)
    fr = fit(X, y)
    assert fr.iterations > 1
    assert len(calls) == fr.iterations + 1


@pytest.mark.parametrize("name", ["toy", "random"])
def test_max_iter_boundary_is_the_iteration_count(name, request):
    X, y = _problem(name, request)
    fr = fit(X, y)
    exact = fit(X, y, max_iter=fr.iterations)
    assert exact.beta.tobytes() == fr.beta.tobytes()
    assert exact.iterations == fr.iterations
    with pytest.raises(ConvergenceError):
        fit(X, y, max_iter=fr.iterations - 1)


@pytest.mark.parametrize("name", ["toy", "random", "corpus15k"])
def test_cov_is_inverse_negative_hessian_at_beta(name, request):
    X, y = _problem(name, request)
    fr = fit(X, y)
    expected = np.linalg.inv(-score_and_hessian(fr.beta, X, y)[1])
    np.testing.assert_allclose(fr.cov, expected, rtol=1e-9,
                               atol=1e-12 * np.abs(fr.cov).max())


def test_model_json_round_trip(toy_fit):
    fr, _ = toy_fit
    text = to_json(fr, "y ~ C(g) + x + x^2")
    parsed = json.loads(text)  # valid JSON
    assert parsed["k"] == fr.k
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
def test_model_json_round_trip_is_byte_exact(beta, a, ll, n):
    A = np.array(a).reshape(5, 5)
    C = A @ A.T + 1e-3 * np.eye(5)
    cov = (C + C.T) / 2.0  # exactly symmetric, positive definite
    fr = lm.FitResult(beta=np.array(beta), cov=cov, ll=ll, ll0=2.0 * ll, n=n, k=5,
                      iterations=7, converged=True, term_map=ROUND_TRIP_TERMS)
    text = to_json(fr, "y ~ C(g) + x + x^2")
    back, formula = from_json(text)
    assert to_json(back, formula) == text


def _mangle(d, field: str):
    k = d["k"]
    cov = np.array(d["cov"])
    if field == "top_level_list":
        return [d]
    if field == "short_beta":
        d["beta"] = d["beta"][:-1]
    elif field == "k":
        d["k"] = k + 1
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
    elif field == "ragged":
        d["cov"][0] = d["cov"][0][:-1]
    elif field == "k_null":
        d["k"] = None
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
    elif field == "converged_str":
        d["converged"] = "no"
    elif field == "converged_int":
        d["converged"] = 1
    elif field == "k_float":
        d["k"] = k + 0.7
    elif field == "k_bool":
        d["k"] = True
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
    ("short_beta", "beta has shape"), ("k", "beta has shape"),
    ("cov_shape", "cov has shape"), ("cov_nan", "finite"), ("beta_inf", "finite"),
    ("asymmetric", "symmetric"), ("diagonal", "non-positive diagonal"),
    ("ragged", None), ("k_null", "malformed"), ("ll_null", "malformed"),
    ("top_level_list", "must be an object"), ("term_map_null", "malformed"),
    ("levels_int", "malformed"), ("columns_int", "malformed"),
    ("cube", "unknown column transform 'cube'"),
    ("converged_str", "'converged' must be a boolean"),
    ("converged_int", "'converged' must be a boolean"),
    ("k_float", "'k' must be an integer"), ("k_bool", "'k' must be an integer"),
    ("n_float", "'n' must be an integer"),
    ("iterations_bool", "'iterations' must be an integer"),
    ("ll_str", "'ll' must be a number"), ("ll0_bool", "'ll0' must be a number"),
    ("reference_empty", "reference levels"), ("level_null", "indicator columns"),
    ("ll_nan", "must be finite"), ("ll0_inf", "must be finite"),
    ("ll_huge", "malformed"), ("n_negative", "n > k"), ("n_zero", "n > k"),
    ("n_k", "n > k"), ("iterations_negative", "iterations >= 0"),
])
def test_model_json_rejects_malformed_fit(toy_fit, field, message):
    fr, _ = toy_fit
    d = _mangle(json.loads(to_json(fr, "y ~ C(g) + x + x^2")), field)
    with pytest.raises(ValueError, match=message):
        from_json(json.dumps(d))
