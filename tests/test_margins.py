import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

import logitmargins as lm
from logitmargins.margins import (MarginsError, aap_continuous_at, aap_factor,
                                  ame_continuous_at, ame_factor, aprv, bootstrap_se,
                                  compute_margins, margins_tsv, mean_design_row, merv,
                                  zstar)
from oracles import ToyModel, fd_gradient
from conftest import kernel_gradient

TOL = 1e-12


def toy_oracle(toy_ds, with_square: bool) -> ToyModel:
    g = toy_ds.column("g")
    raw = {"g": [g.levels[c] for c in g.codes],
           "x": list(toy_ds.column("x").values),
           "z": list(toy_ds.column("z").values)}
    if with_square:
        return ToyModel(factors={"g": ("b", "c")}, continuous={"x": True}, raw=raw)
    return ToyModel(factors={"g": ("b", "c")},
                    continuous={"x": False, "z": False}, raw=raw)


# --- brute-force oracle agreement -------------------------------------------

def test_aap_factor_matches_oracle(toy_fit, toy_ds):
    fr, design = toy_fit
    oracle = toy_oracle(toy_ds, with_square=True)
    for level in ("a", "b", "c"):
        got = aap_factor(fr, design, "g", level).estimate
        assert abs(got - oracle.aap(fr.beta, "g", level)) < TOL


def test_ame_factor_matches_oracle(toy_fit, toy_ds):
    fr, design = toy_fit
    oracle = toy_oracle(toy_ds, with_square=True)
    for level in ("b", "c"):
        got = ame_factor(fr, design, "g", level, "a").estimate
        assert abs(got - oracle.ame(fr.beta, "g", level, "a")) < TOL


def test_aap_continuous_matches_oracle(toy_fit, toy_ds):
    fr, design = toy_fit
    oracle = toy_oracle(toy_ds, with_square=True)
    rows = aap_continuous_at(fr, design, "x", [0.0, 1.0, 2.0])
    for row, v in zip(rows, (0.0, 1.0, 2.0)):
        assert abs(row.estimate - oracle.aap(fr.beta, "x", v)) < TOL


def test_ame_continuous_matches_oracle(toy_fit, toy_ds):
    fr, design = toy_fit
    oracle = toy_oracle(toy_ds, with_square=True)
    rows = ame_continuous_at(fr, design, "x", [0.5, 1.5, 2.5])
    for row, v in zip(rows, (0.5, 1.5, 2.5)):
        assert abs(row.estimate - oracle.ame_derivative(fr.beta, "x", v)) < TOL


def test_aprv_and_merv_match_oracle(toy_fit_bystander, toy_ds):
    fr, design = toy_fit_bystander  # y ~ C(g) + x + z keeps z per-row
    g = toy_ds.column("g")
    oracle = toy_oracle(toy_ds, with_square=False)
    grid = (0.5, 2.0)
    rows = aprv(fr, design, "g", ("a", "b", "c"), "x", grid)
    i = 0
    for level in ("a", "b", "c"):
        for v in grid:
            assert abs(rows[i].estimate - oracle.aprv(fr.beta, "g", level, "x", v)) < TOL
            i += 1
    for level in ("b", "c"):
        got = merv(fr, design, "g", level, "a", "x", grid)
        for row, v in zip(got, grid):
            assert abs(row.estimate - oracle.merv(fr.beta, "g", level, "a", "x", v)) < TOL


def test_apm_mem_match_oracle(toy_fit, toy_ds):
    fr, design = toy_fit
    oracle = toy_oracle(toy_ds, with_square=True)
    for level in ("a", "b", "c"):
        got = aap_factor(fr, design, "g", level, atmeans=True).estimate
        assert abs(got - oracle.apm(fr.beta, "g", level)) < TOL
    got = ame_factor(fr, design, "g", "c", "a", atmeans=True).estimate
    assert abs(got - oracle.mem(fr.beta, "g", "c", "a")) < TOL
    got = aap_continuous_at(fr, design, "x", [1.25], atmeans=True)[0].estimate
    assert abs(got - oracle.apm(fr.beta, "x", 1.25)) < TOL


# --- exact identities and invariants ----------------------------------------

def test_ame_is_exact_aap_difference(toy_fit, corpus2k):
    for fr, design in (toy_fit, corpus2k):
        tm = fr.term_map
        factor = next(iter(tm.factor_levels))
        levels = tm.factor_levels[factor]
        base = levels[0]
        for level in levels[1:]:
            diff = (aap_factor(fr, design, factor, level).estimate
                    - aap_factor(fr, design, factor, base).estimate)
            got = ame_factor(fr, design, factor, level, base).estimate
            assert abs(got - diff) <= TOL


def test_ame_of_level_with_itself_is_zero(toy_fit):
    fr, design = toy_fit
    row = ame_factor(fr, design, "g", "b", "b")
    assert row.estimate == 0.0 and row.se == 0.0


def test_merv_level_equals_base_is_identically_zero(toy_fit):
    fr, design = toy_fit
    rows = merv(fr, design, "g", "a", "a", "x", (0.0, 1.0, 2.0))
    for row in rows:
        assert row.estimate == 0.0
        assert row.se == 0.0
        assert row.z == 0.0 and row.p == 1.0


def test_flat_model_gives_ybar_everywhere(toy_fit):
    # zero coefficients on everything except an intercept at logit(ybar)
    fr, design = toy_fit
    ybar = float(design.y.mean())
    beta = np.zeros(design.k)
    beta[0] = math.log(ybar / (1 - ybar))
    flat = lm.FitResult(beta=beta, cov=np.eye(design.k) * 1e-4, ll=-1.0, ll0=-1.0,
                        n=design.n, k=design.k, iterations=1, converged=True,
                        term_map=design.term_map)
    for level in ("a", "b", "c"):
        assert aap_factor(flat, design, "g", level).estimate == pytest.approx(ybar, abs=1e-12)
    for row in aap_continuous_at(flat, design, "x", [0.0, 5.0, 9.0]):
        assert row.estimate == pytest.approx(ybar, abs=1e-12)


def test_estimates_stay_in_unit_interval(toy_fit, corpus2k):
    for fr, design in (toy_fit, corpus2k):
        tm = fr.term_map
        factor = next(iter(tm.factor_levels))
        for level in tm.factor_levels[factor]:
            r = aap_factor(fr, design, factor, level)
            assert 0.0 < r.estimate < 1.0
            assert r.ci_low <= r.estimate <= r.ci_high


def test_aap_ordering_matches_oracle_ordering(toy_fit, toy_ds):
    fr, design = toy_fit
    oracle = toy_oracle(toy_ds, with_square=True)
    ours = sorted(("a", "b", "c"),
                  key=lambda lv: aap_factor(fr, design, "g", lv).estimate)
    theirs = sorted(("a", "b", "c"), key=lambda lv: oracle.aap(fr.beta, "g", lv))
    assert ours == theirs


def test_ame_curve_not_constant_when_probabilities_vary(toy_fit_bystander):
    # no squared term: the slope is constant in the linear predictor but the
    # derivative of the probability still varies with v through p(1-p)
    fr, design = toy_fit_bystander
    rows = ame_continuous_at(fr, design, "x", [0.0, 1.0, 2.0, 3.0])
    vals = [r.estimate for r in rows]
    assert max(vals) - min(vals) > 1e-6


def test_ame_matches_finite_difference_of_aap_curve(toy_fit):
    fr, design = toy_fit
    h = 1e-4
    for v in (0.6, 1.4, 2.2):
        up = aap_continuous_at(fr, design, "x", [v + h])[0].estimate
        dn = aap_continuous_at(fr, design, "x", [v - h])[0].estimate
        got = ame_continuous_at(fr, design, "x", [v])[0].estimate
        assert abs(got - (up - dn) / (2 * h)) < 1e-6


def test_delta_gradients_match_fd_in_beta(toy_fit):
    fr, design = toy_fit
    tm = fr.term_map

    def rel_check(grad, f):
        fd = fd_gradient(f, fr.beta, h=1e-6)
        denom = max(1e-12, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - fd)) / denom < 1e-6

    Xsub = lm.substitute_matrix(design.X, tm, "g", "b")
    grad = kernel_gradient(fr, design, lm.MarginRequest("aap", "g", levels=("b",)))
    rel_check(grad, lambda b: float(expit(Xsub @ b).mean()))

    grad = kernel_gradient(fr, design, lm.MarginRequest("ame", "x", at=("x", (1.5,))))
    def ame_at(b):
        Xs = lm.substitute_matrix(design.X, tm, "x", 1.5)
        p = expit(Xs @ b)
        slope = b[tm.linear_col("x")] + 2.0 * b[tm.square_col("x")] * 1.5
        return float((p * (1 - p) * slope).mean())
    rel_check(grad, ame_at)

    grad = kernel_gradient(fr, design, lm.MarginRequest("ame", "x"))
    def ame_observed(b):
        p = expit(design.X @ b)
        vals = design.X[:, tm.linear_col("x")]
        slope = b[tm.linear_col("x")] + 2.0 * b[tm.square_col("x")] * vals
        return float((p * (1 - p) * slope).mean())
    rel_check(grad, ame_observed)


def test_substitution_keeps_square_columns_coherent(toy_fit):
    fr, design = toy_fit
    tm = fr.term_map
    for v in (0.0, 2.5, 7.0):
        Xs = lm.substitute_matrix(design.X, tm, "x", v)
        assert np.array_equal(Xs[:, tm.square_col("x")],
                              Xs[:, tm.linear_col("x")] ** 2)
        assert (Xs[:, tm.linear_col("x")] == v).all()


def test_aprv_single_level_consistent_with_aap_curve(toy_fit_bystander):
    fr, design = toy_fit_bystander
    grid = (0.5, 1.0, 1.5)
    via_aprv = aprv(fr, design, "g", ("b",), "x", grid)
    Xb = lm.substitute_matrix(design.X, fr.term_map, "g", "b")
    via_curve = aap_continuous_at(fr, Xb, "x", grid)
    for a, b in zip(via_aprv, via_curve):
        assert a.estimate == pytest.approx(b.estimate, abs=TOL)
        assert a.se == pytest.approx(b.se, abs=TOL)


def test_aprv_memory_stays_blocked(corpus15k_fit):
    # 4 levels x 27 values = 108 scenarios over 15426 rows: evaluated in one
    # piece, each n x S float64 array would take 13 MB
    fr, design = corpus15k_fit
    levels = fr.term_map.factor_levels["univ"]
    grid = tuple(0.5 * i for i in range(27))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rows = aprv(fr, design, "univ", levels, "jif", grid)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(rows) == 108
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# --- at-means specifics ------------------------------------------------------

def test_mean_row_uses_fractional_indicators(toy_fit, toy_ds):
    fr, design = toy_fit
    tm = fr.term_map
    row = mean_design_row(design, tm)
    g = toy_ds.column("g")
    share_b = float(np.mean([g.levels[c] == "b" for c in g.codes]))
    assert row[tm.indicator_col("g", "b")] == pytest.approx(share_b, abs=1e-15)
    m = float(toy_ds.column("x").values.mean())
    assert row[tm.linear_col("x")] == pytest.approx(m, abs=1e-15)
    assert row[tm.square_col("x")] == pytest.approx(m * m, abs=1e-15)


def test_apm_equals_logistic_at_mean_for_linear_model(toy_ds):
    design = lm.build_design(toy_ds, lm.parse_formula("y ~ x"))
    fr = lm.fit(design)
    xbar = float(toy_ds.column("x").values.mean())
    expected = float(expit(fr.beta[0] + fr.beta[1] * xbar))
    got = aap_continuous_at(fr, design, "x", [xbar], atmeans=True)[0].estimate
    assert got == pytest.approx(expected, abs=TOL)


def test_apm_differs_from_aap_on_skewed_data():
    # a heavily skewed bystander covariate stays at observed values in the
    # AAP but collapses to its mean in the APM, opening a Jensen gap
    from logitmargins.dataset import BinaryColumn, ContinuousColumn
    rng = np.random.default_rng(99)
    n = 400
    x = rng.normal(size=n)
    z = np.exp(rng.normal(0.0, 1.3, size=n)) * 2.0
    y = (rng.random(n) < expit(-2.5 + 0.3 * x + 0.8 * z)).astype(float)
    ds = lm.Dataset("skew", (BinaryColumn("y", y), ContinuousColumn("x", x),
                             ContinuousColumn("z", z)))
    design = lm.build_design(ds, lm.parse_formula("y ~ x + z"))
    fr = lm.fit(design)
    v = 0.0
    aap = aap_continuous_at(fr, design, "x", [v])[0].estimate
    apm = aap_continuous_at(fr, design, "x", [v], atmeans=True)[0].estimate
    assert abs(aap - apm) > 0.01


# --- request routing, CIs, formats ------------------------------------------

def test_zstar_values():
    assert zstar(0.95) == 1.959964
    assert zstar(0.9) == pytest.approx(norm.ppf(0.95), rel=1e-12)
    with pytest.raises(MarginsError):
        zstar(1.2)


def test_ci_uses_fixed_critical_value(toy_fit):
    fr, design = toy_fit
    row = aap_factor(fr, design, "g", "b")
    assert row.ci_high - row.estimate == pytest.approx(1.959964 * row.se, rel=1e-12)


def test_compute_margins_routing(toy_fit):
    fr, design = toy_fit
    rows = compute_margins(fr, design, lm.MarginRequest(kind="aap", target="g"))
    assert [r.label for r in rows] == ["AAP g=a", "AAP g=b", "AAP g=c"]
    rows = compute_margins(fr, design, lm.MarginRequest(kind="ame", target="g"))
    assert [r.label for r in rows] == ["AME g=b-a", "AME g=c-a"]
    rows = compute_margins(fr, design, lm.MarginRequest(
        kind="aap", target="g", at=("x", (0.0, 1.0))))
    assert len(rows) == 6 and rows[0].label.startswith("APRV")
    rows = compute_margins(fr, design, lm.MarginRequest(
        kind="merv", target="g", at=("x", (0.0, 1.0))))
    assert [r.label for r in rows][:2] == ["MERV g=b-a", "MERV g=b-a"]
    rows = compute_margins(fr, design, lm.MarginRequest(
        kind="ame", target="x", at=("x", (0.5, 1.5))))
    assert len(rows) == 2
    with pytest.raises(MarginsError):
        compute_margins(fr, design, lm.MarginRequest(kind="aap", target="x"))
    with pytest.raises(MarginsError):
        compute_margins(fr, design, lm.MarginRequest(kind="merv", target="g"))


def test_grid_validation(toy_fit):
    fr, design = toy_fit
    with pytest.raises(MarginsError, match="empty"):
        aap_continuous_at(fr, design, "x", [])
    with pytest.raises(MarginsError, match="ascending"):
        aap_continuous_at(fr, design, "x", [2.0, 1.0])
    with pytest.raises(MarginsError, match="non-finite"):
        aap_continuous_at(fr, design, "x", [0.0, float("inf")])


def test_unknown_variable_and_level(toy_fit):
    fr, design = toy_fit
    with pytest.raises(MarginsError):
        aap_factor(fr, design, "g", "zz")
    with pytest.raises((MarginsError, KeyError)):
        aap_continuous_at(fr, design, "missing", [1.0])


def test_extrapolation_flagged(toy_fit):
    fr, design = toy_fit
    lo = float(design.X[:, fr.term_map.linear_col("x")].min())
    hi = float(design.X[:, fr.term_map.linear_col("x")].max())
    rows = aap_continuous_at(fr, design, "x", [lo - 1.0, lo, hi, hi + 1.0])
    assert [r.extrapolated for r in rows] == [True, False, False, True]


def test_margins_tsv_round_trips_exactly(toy_fit):
    fr, design = toy_fit
    rows = compute_margins(fr, design, lm.MarginRequest(kind="aap", target="g"))
    text = margins_tsv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "label\tat\testimate\tstd_err\tz\tp\tci_low\tci_high"
    cells = lines[1].split("\t")
    assert float(cells[2]) == rows[0].estimate
    assert float(cells[3]) == rows[0].se
    assert cells[1] == ""  # no grid value for a factor AAP


# --- bootstrap ---------------------------------------------------------------

def test_bootstrap_deterministic_and_close_to_delta(corpus2k):
    fr, design = corpus2k
    req = lm.MarginRequest(kind="aap", target="univ")
    a = bootstrap_se(design, req, reps=120, seed=5)
    b = bootstrap_se(design, req, reps=120, seed=5)
    assert [r.se for r in a.rows] == [r.se for r in b.rows]
    c = bootstrap_se(design, req, reps=120, seed=6)
    assert [r.se for r in c.rows] != [r.se for r in a.rows]


def test_bootstrap_needs_100_reps(corpus2k):
    fr, design = corpus2k
    with pytest.raises(MarginsError, match="at least 100"):
        bootstrap_se(design, lm.MarginRequest(kind="aap", target="univ"),
                     reps=50, seed=1)


def test_bootstrap_se_of_constant_margin_is_binomial():
    # outcome independent of x: the AAP at x-bar is just the resampled mean,
    # so its bootstrap sd should track the binomial proportion error
    from logitmargins.dataset import BinaryColumn, ContinuousColumn
    rng = np.random.default_rng(31)
    n = 1500
    x = rng.normal(size=n)
    y = (rng.random(n) < 0.3).astype(float)
    ds = lm.Dataset("flat", (BinaryColumn("y", y), ContinuousColumn("x", x)))
    design = lm.build_design(ds, lm.parse_formula("y ~ x"))
    xbar = float(x.mean())
    res = bootstrap_se(design, lm.MarginRequest(kind="aap", target="x",
                                                at=("x", (xbar,))),
                       reps=400, seed=77)
    ybar = y.mean()
    expected = math.sqrt(ybar * (1 - ybar) / n)
    assert res.rows[0].se == pytest.approx(expected, rel=0.2)


def test_bootstrap_failure_ceiling():
    # a level observed once disappears from ~37% of resamples, so the
    # rank-deficient refits blow past the 10% failure budget
    from logitmargins.dataset import BinaryColumn, CategoricalColumn, ContinuousColumn
    rng = np.random.default_rng(13)
    n = 60
    codes = np.zeros(n, dtype=np.int64)
    codes[0] = 1
    x = rng.normal(size=n)
    y = (rng.random(n) < 0.4).astype(float)
    ds = lm.Dataset("rare", (
        BinaryColumn("y", y),
        CategoricalColumn("g", ("common", "rare"), codes),
        ContinuousColumn("x", x)))
    design = lm.build_design(ds, lm.parse_formula("y ~ C(g) + x"))
    with pytest.raises(MarginsError, match="replicates failed"):
        bootstrap_se(design, lm.MarginRequest(kind="aap", target="g"),
                     reps=100, seed=3)


def test_discrete_change_effect_is_aap_unit_difference(toy_fit):
    fr, design = toy_fit
    for v in (0.5, 1.5):
        got = ame_continuous_at(fr, design, "x", [v], discrete=True)[0]
        up = aap_continuous_at(fr, design, "x", [v + 1.0])[0].estimate
        dn = aap_continuous_at(fr, design, "x", [v])[0].estimate
        assert got.estimate == pytest.approx(up - dn, abs=TOL)
    deriv = ame_continuous_at(fr, design, "x", [0.5])[0].estimate
    unit = ame_continuous_at(fr, design, "x", [0.5], discrete=True)[0].estimate
    assert abs(deriv - unit) > 1e-4  # different estimands


def test_bootstrap_thread_count_does_not_change_results(corpus2k):
    fr, design = corpus2k
    req = lm.MarginRequest(kind="aap", target="univ")
    serial = bootstrap_se(design, req, reps=100, seed=2, workers=1)
    threaded = bootstrap_se(design, req, reps=100, seed=2, workers=4)
    assert [r.se for r in serial.rows] == [r.se for r in threaded.rows]


def test_ci_level_changes_width(toy_fit):
    fr, design = toy_fit
    narrow = aap_factor(fr, design, "g", "b", ci_level=0.5)
    wide = aap_factor(fr, design, "g", "b", ci_level=0.99)
    assert (wide.ci_high - wide.ci_low) > (narrow.ci_high - narrow.ci_low)
    assert narrow.estimate == wide.estimate
