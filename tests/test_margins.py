import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

import logitmargins as lm
from logitmargins.dataset import Column
from logitmargins.formula import substitute_matrix
from logitmargins.logit import _newton
from logitmargins.margins import (MarginsError, _compile, _evaluate, _mean_row,
                                  bootstrap_se, compute_margins, margins_tsv, zstar)
from oracles import ToyModel, fd_gradient
from conftest import BOOT_CORPUS_SEED, BOOT_SEED, kernel_gradient, margin_rows

TOL = 1e-12


def toy_oracle(toy_ds, with_square: bool) -> ToyModel:
    g = toy_ds.column("g")
    raw = {"g": [g.levels[c] for c in g.values],
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
        got, = margin_rows(fr, design, "aap", "g", levels=(level,))
        assert abs(got.estimate - oracle.aap(fr.beta, "g", level)) < TOL


def test_ame_factor_matches_oracle(toy_fit, toy_ds):
    fr, design = toy_fit
    oracle = toy_oracle(toy_ds, with_square=True)
    for level in ("b", "c"):
        got, = margin_rows(fr, design, "ame", "g", levels=(level,), base="a")
        assert abs(got.estimate - oracle.ame(fr.beta, "g", level, "a")) < TOL


def test_aap_continuous_matches_oracle(toy_fit, toy_ds):
    fr, design = toy_fit
    oracle = toy_oracle(toy_ds, with_square=True)
    rows = margin_rows(fr, design, "aap", "x", at=("x", (0.0, 1.0, 2.0)))
    for row, v in zip(rows, (0.0, 1.0, 2.0), strict=True):
        assert abs(row.estimate - oracle.aap(fr.beta, "x", v)) < TOL


def test_ame_continuous_matches_oracle(toy_fit, toy_ds):
    fr, design = toy_fit
    oracle = toy_oracle(toy_ds, with_square=True)
    rows = margin_rows(fr, design, "ame", "x", at=("x", (0.5, 1.5, 2.5)))
    for row, v in zip(rows, (0.5, 1.5, 2.5), strict=True):
        assert abs(row.estimate - oracle.ame_derivative(fr.beta, "x", v)) < TOL


def test_aprv_and_merv_match_oracle(toy_fit_bystander, toy_ds):
    fr, design = toy_fit_bystander  # y ~ C(g) + x + z keeps z per-row
    g = toy_ds.column("g")
    oracle = toy_oracle(toy_ds, with_square=False)
    grid = (0.5, 2.0)
    rows = margin_rows(fr, design, "aprv", "g", levels=("a", "b", "c"), at=("x", grid))
    assert len(rows) == 6
    i = 0
    for level in ("a", "b", "c"):
        for v in grid:
            assert abs(rows[i].estimate - oracle.aprv(fr.beta, "g", level, "x", v)) < TOL
            i += 1
    for level in ("b", "c"):
        got = margin_rows(fr, design, "merv", "g", levels=(level,), base="a",
                          at=("x", grid))
        for row, v in zip(got, grid, strict=True):
            assert abs(row.estimate - oracle.merv(fr.beta, "g", level, "a", "x", v)) < TOL


def test_apm_mem_match_oracle(toy_fit, toy_ds):
    fr, design = toy_fit
    oracle = toy_oracle(toy_ds, with_square=True)
    for level in ("a", "b", "c"):
        got, = margin_rows(fr, design, "apm", "g", levels=(level,))
        assert abs(got.estimate - oracle.apm(fr.beta, "g", level)) < TOL
    got, = margin_rows(fr, design, "mem", "g", levels=("c",), base="a")
    assert abs(got.estimate - oracle.mem(fr.beta, "g", "c", "a")) < TOL
    got, = margin_rows(fr, design, "apm", "x", at=("x", (1.25,)))
    assert abs(got.estimate - oracle.apm(fr.beta, "x", 1.25)) < TOL


# --- exact identities and invariants ----------------------------------------

def test_ame_is_exact_aap_difference(toy_fit, corpus2k):
    for fr, design in (toy_fit, corpus2k):
        tm = fr.term_map
        factor = next(iter(tm.factor_levels))
        levels = tm.factor_levels[factor]
        base = levels[0]
        for level in levels[1:]:
            aap, = margin_rows(fr, design, "aap", factor, levels=(level,))
            aap_base, = margin_rows(fr, design, "aap", factor, levels=(base,))
            diff = aap.estimate - aap_base.estimate
            got, = margin_rows(fr, design, "ame", factor, levels=(level,), base=base)
            assert abs(got.estimate - diff) <= TOL


def test_effect_rejects_level_equal_to_base(toy_fit):
    fr, design = toy_fit
    grid = ("x", (0.0, 1.0, 2.0))
    for kind, at in (("ame", None), ("mem", None), ("merv", grid), ("mem", grid)):
        with pytest.raises(MarginsError, match="base of the contrast"):
            margin_rows(fr, design, kind, "g", levels=("b",), base="b", at=at)
    rows = margin_rows(fr, design, "merv", "g", levels=("b",), base="a", at=grid)
    assert [r.label for r in rows] == ["MERV g=b-a"] * 3


# each request sets a field that no code would read
@pytest.mark.parametrize("kind, target, fields", [
    ("aap", "g", {"base": "zz"}),
    ("aap", "x", {"levels": ("a",), "at": ("x", (1.0,))}),
    ("ame", "x", {"levels": ("a",)}),
    ("ame", "x", {"base": "a"}),
    ("aap", "g", {"discrete": True}),
    ("aprv", "g", {"discrete": True, "at": ("x", (1.0,))}),
    ("aap", "g", {"levels": ("b", "b")}),
    ("ame", "g", {"levels": ()}),
    ("ame", "g", {"levels": ("a",)}),
    ("ame", "g", {"base": ""}),
    ("aap", "g", {"ci_level": 1.0}),
])
def test_request_rejects_a_field_it_would_ignore(toy_fit, kind, target, fields):
    fr, design = toy_fit
    with pytest.raises(MarginsError):
        margin_rows(fr, design, kind, target, **fields)


def test_an_unknown_margin_kind_is_an_error():
    with pytest.raises(MarginsError, match="unknown margin kind 'amee'"):
        lm.MarginRequest("amee", "g")


def _flat_fit(design, cov_scale: float) -> lm.FitResult:
    # zero coefficients on everything except an intercept at logit(ybar)
    ybar = float(design.y.mean())
    beta = np.zeros(design.k)
    beta[0] = math.log(ybar / (1 - ybar))
    return lm.FitResult(beta=beta, cov=np.eye(design.k) * cov_scale, ll=-1.0, ll0=-1.0,
                        n=design.n, iterations=1, term_map=design.term_map)


def test_flat_model_gives_ybar_everywhere(toy_fit):
    fr, design = toy_fit
    ybar = float(design.y.mean())
    flat = _flat_fit(design, 1e-4)
    for row in margin_rows(flat, design, "aap", "g"):
        assert row.estimate == pytest.approx(ybar, abs=1e-12)
    for row in margin_rows(flat, design, "aap", "x", at=("x", (0.0, 5.0, 9.0))):
        assert row.estimate == pytest.approx(ybar, abs=1e-12)


def test_flat_model_effect_is_exactly_zero(toy_fit):
    # every level predicts the same probabilities, so each contrast cancels
    # exactly; with no coefficient uncertainty the SE is 0 and z, p take
    # their zero-SE values
    fr, design = toy_fit
    flat = _flat_fit(design, 0.0)
    rows = [*margin_rows(flat, design, "ame", "g"),
            *margin_rows(flat, design, "merv", "g", at=("x", (0.0, 1.0, 2.0)))]
    assert len(rows) == 8
    for row in rows:
        assert row.estimate == 0.0
        assert row.se == 0.0
        assert row.z == 0.0 and row.p == 1.0


def test_estimates_stay_in_unit_interval(toy_fit, corpus2k):
    for fr, design in (toy_fit, corpus2k):
        tm = fr.term_map
        factor = next(iter(tm.factor_levels))
        for r in margin_rows(fr, design, "aap", factor):
            assert 0.0 < r.estimate < 1.0
            assert r.ci_low <= r.estimate <= r.ci_high


def test_aap_ordering_matches_oracle_ordering(toy_fit, toy_ds):
    fr, design = toy_fit
    oracle = toy_oracle(toy_ds, with_square=True)
    ours = sorted(("a", "b", "c"), key=lambda lv: margin_rows(
        fr, design, "aap", "g", levels=(lv,))[0].estimate)
    theirs = sorted(("a", "b", "c"), key=lambda lv: oracle.aap(fr.beta, "g", lv))
    assert ours == theirs


def test_ame_curve_not_constant_when_probabilities_vary(toy_fit_bystander):
    # no squared term: the slope is constant in the linear predictor but the
    # derivative of the probability still varies with v through p(1-p)
    fr, design = toy_fit_bystander
    rows = margin_rows(fr, design, "ame", "x", at=("x", (0.0, 1.0, 2.0, 3.0)))
    vals = [r.estimate for r in rows]
    assert max(vals) - min(vals) > 1e-6


def test_ame_matches_finite_difference_of_aap_curve(toy_fit):
    fr, design = toy_fit
    h = 1e-4
    for v in (0.6, 1.4, 2.2):
        up = margin_rows(fr, design, "aap", "x", at=("x", (v + h,)))[0].estimate
        dn = margin_rows(fr, design, "aap", "x", at=("x", (v - h,)))[0].estimate
        got = margin_rows(fr, design, "ame", "x", at=("x", (v,)))[0].estimate
        assert abs(got - (up - dn) / (2 * h)) < 1e-6


def test_delta_gradients_match_fd_in_beta(toy_fit):
    fr, design = toy_fit
    tm = fr.term_map

    def rel_check(grad, f):
        fd = fd_gradient(f, fr.beta, h=1e-6)
        denom = max(1e-12, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - fd)) / denom < 1e-6

    Xsub = substitute_matrix(design.X, tm, "g", "b")
    grad = kernel_gradient(fr, design, lm.MarginRequest("aap", "g", levels=("b",)))
    rel_check(grad, lambda b: float(expit(Xsub @ b).mean()))

    grad = kernel_gradient(fr, design, lm.MarginRequest("ame", "x", at=("x", (1.5,))))
    def ame_at(b):
        Xs = substitute_matrix(design.X, tm, "x", 1.5)
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
        Xs = substitute_matrix(design.X, tm, "x", v)
        assert np.array_equal(Xs[:, tm.square_col("x")],
                              Xs[:, tm.linear_col("x")] ** 2)
        assert (Xs[:, tm.linear_col("x")] == v).all()


def test_aprv_single_level_consistent_with_aap_curve(toy_fit_bystander):
    fr, design = toy_fit_bystander
    grid = (0.5, 1.0, 1.5)
    via_aprv = margin_rows(fr, design, "aprv", "g", levels=("b",), at=("x", grid))
    Xb = substitute_matrix(design.X, fr.term_map, "g", "b")
    via_curve = margin_rows(fr, lm.DesignMatrix(Xb, design.y, design.term_map), "aap", "x",
                            at=("x", grid))
    for a, b in zip(via_aprv, via_curve, strict=True):
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
        rows = margin_rows(fr, design, "aprv", "univ", levels=levels, at=("jif", grid))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(rows) == 108
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_a_bootstrap_of_a_long_aprv_grid_stays_blocked(corpus2k):
    # 108 scenarios over 2000 rows for each of a block's 32 replicates: in
    # one piece, each replicates x scenarios x rows array would take 55 MB,
    # and in blocks of 32 scenarios for all 32 replicates at once the
    # bootstrap reached 17.7 MiB of tracemalloc (5.1 MiB as blocked)
    fr, design = corpus2k
    grid = tuple(0.5 * i for i in range(27))
    request = lm.MarginRequest("aprv", "univ", at=("jif", grid))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = bootstrap_se(design, request, reps=200, seed=BOOT_SEED)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(got.rows) == 108
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# --- at-means specifics ------------------------------------------------------

def test_mean_row_uses_fractional_indicators(toy_fit, toy_ds):
    fr, design = toy_fit
    tm = fr.term_map
    row = _mean_row(design.X, tm)
    g = toy_ds.column("g")
    share_b = float(np.mean([g.levels[c] == "b" for c in g.values]))
    assert row[tm.indicator_col("g", "b")] == pytest.approx(share_b, abs=1e-15)
    m = float(toy_ds.column("x").values.mean())
    assert row[tm.linear_col("x")] == pytest.approx(m, abs=1e-15)
    assert row[tm.square_col("x")] == pytest.approx(m * m, abs=1e-15)


def test_apm_equals_logistic_at_mean_for_linear_model(toy_ds):
    design = lm.build_design(toy_ds, lm.parse_formula("y ~ x"))
    fr = lm.fit(design)
    xbar = float(toy_ds.column("x").values.mean())
    expected = float(expit(fr.beta[0] + fr.beta[1] * xbar))
    got = margin_rows(fr, design, "apm", "x", at=("x", (xbar,)))[0].estimate
    assert got == pytest.approx(expected, abs=TOL)


def test_apm_differs_from_aap_on_skewed_data():
    # a heavily skewed bystander covariate stays at observed values in the
    # AAP but collapses to its mean in the APM, opening a Jensen gap
    rng = np.random.default_rng(99)
    n = 400
    x = rng.normal(size=n)
    z = np.exp(rng.normal(0.0, 1.3, size=n)) * 2.0
    y = (rng.random(n) < expit(-2.5 + 0.3 * x + 0.8 * z)).astype(float)
    ds = lm.Dataset((Column("y", "binary", y), Column("x", "continuous", x),
                     Column("z", "continuous", z)))
    design = lm.build_design(ds, lm.parse_formula("y ~ x + z"))
    fr = lm.fit(design)
    v = 0.0
    aap = margin_rows(fr, design, "aap", "x", at=("x", (v,)))[0].estimate
    apm = margin_rows(fr, design, "apm", "x", at=("x", (v,)))[0].estimate
    assert abs(aap - apm) > 0.01


# --- request routing, CIs, formats ------------------------------------------

def test_zstar_values():
    assert zstar(0.95) == 1.959964
    assert zstar(0.9) == pytest.approx(norm.ppf(0.95), rel=1e-12)
    with pytest.raises(MarginsError):
        zstar(1.2)


def test_ci_uses_fixed_critical_value(toy_fit):
    fr, design = toy_fit
    row, = margin_rows(fr, design, "aap", "g", levels=("b",))
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
        kind="mem", target="g", at=("x", (0.0, 1.0))))
    assert [r.label for r in rows] == ["MEM g=b-a"] * 2 + ["MEM g=c-a"] * 2
    rows = compute_margins(fr, design, lm.MarginRequest(
        kind="ame", target="x", at=("x", (0.5, 1.5))))
    assert len(rows) == 2
    for kind, label in (("ame", "AME x (observed)"), ("mem", "MEM x")):
        rows = compute_margins(fr, design, lm.MarginRequest(kind=kind, target="x"))
        assert [r.label for r in rows] == [label]
    with pytest.raises(MarginsError):
        compute_margins(fr, design, lm.MarginRequest(kind="aap", target="x"))
    with pytest.raises(MarginsError):
        compute_margins(fr, design, lm.MarginRequest(kind="merv", target="g"))


@pytest.mark.parametrize("kind, target, at", [("aap", "univ", None), ("ame", "jif", None),
                                              ("aap", "jif", ("jif", (0.0, 1.0))),
                                              ("apm", "univ", None)])
def test_a_design_with_no_rows_is_a_margins_error(corpus15k_fit, kind, target, at):
    fr, design = corpus15k_fit
    empty = lm.DesignMatrix(design.X[:0], design.y[:0], design.term_map)
    with pytest.raises(MarginsError, match="^the design has no rows"):
        margin_rows(fr, empty, kind, target, at=at)


def test_grid_validation(toy_fit):
    fr, design = toy_fit
    with pytest.raises(MarginsError, match="empty"):
        margin_rows(fr, design, "aap", "x", at=("x", ()))
    with pytest.raises(MarginsError, match="ascending"):
        margin_rows(fr, design, "aap", "x", at=("x", (2.0, 1.0)))
    with pytest.raises(MarginsError, match="non-finite"):
        margin_rows(fr, design, "aap", "x", at=("x", (0.0, float("inf"))))


def test_unknown_variable_and_level(toy_fit):
    fr, design = toy_fit
    with pytest.raises(MarginsError):
        margin_rows(fr, design, "aap", "g", levels=("zz",))
    with pytest.raises((MarginsError, KeyError)):
        margin_rows(fr, design, "aap", "missing", at=("missing", (1.0,)))


def test_extrapolation_flagged(toy_fit):
    fr, design = toy_fit
    lo = float(design.X[:, fr.term_map.linear_col("x")].min())
    hi = float(design.X[:, fr.term_map.linear_col("x")].max())
    rows = margin_rows(fr, design, "aap", "x", at=("x", (lo - 1.0, lo, hi, hi + 1.0)))
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


def test_a_fit_is_refused_with_a_design_of_another_term_map(corpus2k):
    # the design of another reference level gave AAPs of 0.0527 and 0.1689
    # for 0.0812 and 0.2410, and the narrower design a numpy shape error
    fr, design = corpus2k
    cfg = lm.default_config(2000, BOOT_CORPUS_SEED)
    ds, spec = lm.generate(cfg), lm.parse_formula(cfg.formula)
    request = lm.MarginRequest("aap", "jif", at=("jif", (0.0, 5.0)))
    for other in (lm.build_design(ds, spec, reference={"univ": "univ3"}),
                  lm.build_design(ds, lm.parse_formula("top10 ~ C(univ) + jif"))):
        with pytest.raises(MarginsError, match="term map"):
            compute_margins(fr, other, request)
    rows = compute_margins(fr, design, request)
    assert [round(r.estimate, 4) for r in rows] == [0.0812, 0.2410]


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
    rng = np.random.default_rng(31)
    n = 1500
    x = rng.normal(size=n)
    y = (rng.random(n) < 0.3).astype(float)
    ds = lm.Dataset((Column("y", "binary", y), Column("x", "continuous", x)))
    design = lm.build_design(ds, lm.parse_formula("y ~ x"))
    xbar = float(x.mean())
    res = bootstrap_se(design, lm.MarginRequest(kind="aap", target="x",
                                                at=("x", (xbar,))),
                       reps=400, seed=77)
    ybar = y.mean()
    expected = math.sqrt(ybar * (1 - ybar) / n)
    assert res.rows[0].se == pytest.approx(expected, rel=0.2)


def test_bootstrap_failure_ceiling():
    # a level held by two rows, one of each outcome, has a full-sample MLE;
    # 19 of these 100 resamples miss it (rank deficient) and in 40 more its
    # drawn rows share one outcome (separated), past the 10% failure budget
    rng = np.random.default_rng(13)
    n = 60
    codes = np.zeros(n, dtype=np.int64)
    codes[:2] = 1
    x = rng.normal(size=n)
    y = (rng.random(n) < 0.4).astype(float)
    y[:2] = (1.0, 0.0)
    ds = lm.Dataset((
        Column("y", "binary", y),
        Column("g", "categorical", codes, ("common", "rare")),
        Column("x", "continuous", x)))
    design = lm.build_design(ds, lm.parse_formula("y ~ C(g) + x"))
    with pytest.raises(MarginsError, match="replicates failed"):
        bootstrap_se(design, lm.MarginRequest(kind="aap", target="g"),
                     reps=100, seed=3)


def test_bootstrap_refits_refuse_each_resample_with_an_all_0_level():
    # in 11 of these 200 resamples no univ2 row has a top-10% paper: the
    # exact count calls each separated before it iterates, and the bootstrap
    # skips it like any failed refit (see the ceiling tests).  Without the
    # count they converged after 23 iterations to beta(univ2) near -21 with
    # standard errors above 1e4
    separated = (8, 11, 24, 28, 47, 77, 81, 127, 192, 196, 199)
    cfg = lm.default_config(2000, 2)
    design = lm.build_design(lm.generate(cfg), lm.parse_formula(cfg.formula))
    C = np.vstack([np.bincount(np.random.default_rng(child).integers(0, design.n, design.n),
                               minlength=design.n)
                   for child in np.random.SeedSequence(BOOT_SEED).spawn(200)])
    outcomes = [r for b0 in range(0, 200, 16) for r in _newton(design, C[b0:b0 + 16])]
    failed = {b: str(r) for b, r in enumerate(outcomes) if isinstance(r, lm.FitError)}
    assert failed == dict.fromkeys(
        separated, "separation: every observation where univ=univ2 is 1 has y = 0")
    assert max(r.iterations for r in outcomes if isinstance(r, lm.FitResult)) <= 8


def test_discrete_change_effect_is_aap_unit_difference(toy_fit):
    fr, design = toy_fit
    for v in (0.5, 1.5):
        got, = margin_rows(fr, design, "ame", "x", at=("x", (v,)), discrete=True)
        up = margin_rows(fr, design, "aap", "x", at=("x", (v + 1.0,)))[0].estimate
        dn = margin_rows(fr, design, "aap", "x", at=("x", (v,)))[0].estimate
        assert got.estimate == pytest.approx(up - dn, abs=TOL)
    deriv, = margin_rows(fr, design, "ame", "x", at=("x", (0.5,)))
    unit, = margin_rows(fr, design, "ame", "x", at=("x", (0.5,)), discrete=True)
    assert abs(deriv.estimate - unit.estimate) > 1e-4  # different estimands


def test_bootstrap_skips_failed_replicates_under_the_ceiling():
    # a level seen in 8 of 60 rows, 4 of each outcome, has a full-sample MLE;
    # in 5 of these 100 resamples its drawn rows share one outcome: those
    # separated refits are counted and skipped, and the SEs come from the
    # surviving replicates of the documented stream
    rng = np.random.default_rng(0)
    n = 60
    codes = np.zeros(n, dtype=np.int64)
    codes[:8] = 1
    x = rng.normal(size=n)
    y = (rng.random(n) < 0.4).astype(float)
    y[:8] = (1.0, 0.0) * 4
    ds = lm.Dataset((
        Column("y", "binary", y),
        Column("g", "categorical", codes, ("common", "rare")),
        Column("x", "continuous", x)))
    design = lm.build_design(ds, lm.parse_formula("y ~ C(g) + x"))
    req = lm.MarginRequest(kind="aap", target="g")
    got = bootstrap_se(design, req, reps=100, seed=0)
    est = []
    for child in np.random.SeedSequence(0).spawn(100):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        resample = lm.DesignMatrix(design.X[idx], design.y[idx], design.term_map)
        try:
            rf = lm.fit(resample)
        except lm.FitError:
            continue
        est.append(_evaluate(_compile(resample, req), rf.beta)[0])
    assert 0 < got.failures <= 10 and got.failures == 100 - len(est)
    # the weighted refits agree with these resample refits up to rounding
    np.testing.assert_allclose([r.se for r in got.rows], np.std(est, axis=0, ddof=1),
                               rtol=1e-12, atol=0)


# every kind goes through the same weighted evaluation: row means, or the
# row of sample means
@pytest.mark.parametrize("req", [
    lm.MarginRequest("aap", "univ"), lm.MarginRequest("mem", "univ"),
    lm.MarginRequest("apm", "univ"), lm.MarginRequest("mem", "jif", at=("jif", (1.0, 5.0))),
], ids=["aap-univ", "mem-univ", "apm-univ", "mem-jif-at"])
def test_bootstrap_follows_documented_resample_stream(corpus2k, monkeypatch, req):
    # replicate b refits on default_rng(child_b).integers(0, n, size=n) over
    # SeedSequence(seed).spawn(reps), in spawn order; bench/oracle.py relies on it
    fr, design = corpus2k
    blocks = []

    def recorded(design, C, **kwargs):
        blocks.append(C.copy())
        return _newton(design, C, **kwargs)

    monkeypatch.setattr("logitmargins.margins._newton", recorded)
    got = bootstrap_se(design, req, reps=100, seed=2)
    est, counts = [], []
    for child in np.random.SeedSequence(2).spawn(100):
        idx = np.random.default_rng(child).integers(0, design.n, size=design.n)
        counts.append(np.bincount(idx, minlength=design.n))
        resample = lm.DesignMatrix(design.X[idx], design.y[idx], design.term_map)
        rf = lm.fit(resample)
        est.append(_evaluate(_compile(resample, req), rf.beta)[0])
    # the refits see the replicates' row counts in spawn order, 32 at a time
    assert [len(b) for b in blocks] == [32] * 3 + [4]
    assert np.array_equal(np.vstack(blocks), np.vstack(counts))
    assert got.failures == 0 and got.replicates == 100
    np.testing.assert_allclose([r.se for r in got.rows], np.std(est, axis=0, ddof=1),
                               rtol=1e-12, atol=0)


def test_negative_variance_is_an_error_beyond_rounding(toy_fit):
    fr, design = toy_fit
    req = lm.MarginRequest("aap", "g", levels=("b",))
    _, G = _evaluate(_compile(design, req), fr.beta)
    g = G[:, 0]
    # cov - t g g' has variance (1 - t) g' cov g along g
    unit = np.outer(g, g) * (g @ fr.cov @ g) / (g @ g) ** 2
    indefinite = dataclasses.replace(fr, cov=fr.cov - 2.0 * unit)
    with pytest.raises(MarginsError, match="'AAP g=b' has delta-method variance -"):
        compute_margins(indefinite, design, req)
    # at t = 1 the variance is 0 up to rounding: an SE of (about) 0, no error
    singular = dataclasses.replace(fr, cov=fr.cov - unit)
    row, = compute_margins(singular, design, req)
    assert row.se < 1e-6 * math.sqrt(g @ fr.cov @ g)


def test_offset_keeps_the_digits_of_the_columns_a_scenario_keeps(corpus15k_fit):
    # with beta(jif) = 1e15, AAP jif at 0 is the mean prediction from the other
    # columns; an offset X@b - X[:, C]@b[C] cancels their term (0.0823 for 0.0768)
    fr, design = corpus15k_fit
    C = [fr.term_map.linear_col("jif"), fr.term_map.square_col("jif")]
    beta = np.array(fr.beta)
    beta[C[0]] = 1e15
    row, = margin_rows(dataclasses.replace(fr, beta=beta), design, "aap", "jif",
                       at=("jif", (0.0,)))
    rest = np.setdiff1d(np.arange(fr.k), C)
    assert row.estimate == pytest.approx(expit(design.X[:, rest] @ beta[rest]).mean(),
                                         rel=1e-12)


def test_ci_level_changes_width(toy_fit):
    fr, design = toy_fit
    narrow, = margin_rows(fr, design, "aap", "g", levels=("b",), ci_level=0.5)
    wide, = margin_rows(fr, design, "aap", "g", levels=("b",), ci_level=0.99)
    assert (wide.ci_high - wide.ci_low) > (narrow.ci_high - narrow.ci_low)
    assert narrow.estimate == wide.estimate
