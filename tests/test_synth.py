import numpy as np
import pytest

import logitmargins as lm
from logitmargins.synth import SynthError, default_config, generate, load_coefficients

from conftest import CORPUS_SEED


def test_zero_rows_rejected():
    with pytest.raises(SynthError, match="positive"):
        generate(default_config(0, 1))


def test_same_seed_gives_identical_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    lm.to_csv(generate(default_config(700, 123)), a)
    lm.to_csv(generate(default_config(700, 123)), b)
    assert a.read_bytes() == b.read_bytes()
    lm.to_csv(generate(default_config(700, 124)), tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() != a.read_bytes()


def test_generator_reference_vectors():
    # the uniform source is PCG64 behind numpy's Generator; these pinned
    # outputs freeze the algorithm so reimplementations can match exactly
    gen = np.random.Generator(np.random.PCG64(42))
    assert [int(v) for v in gen.integers(0, 2 ** 63, 4)] == [
        7138484576005690180, 4047939128787533792,
        7919168045412322066, 6432084778622665798]
    gen = np.random.Generator(np.random.PCG64(42))
    assert gen.random(4).tolist() == [
        0.7739560485559633, 0.4388784397520523,
        0.8585979199113825, 0.6973680290593639]


def test_first_rows_frozen():
    ds = generate(default_config(5, 42))
    univ = ds.column("univ")
    assert [univ.levels[c] for c in univ.values] == [
        "univ4", "univ3", "univ4", "univ4", "univ2"]
    jif = ds.column("jif")
    assert jif.values[0] == pytest.approx(1.3161169306607599, abs=1e-12)


def test_invalid_probabilities_rejected():
    cfg = default_config(10, 1)
    bad = lm.SynthConfig(
        n=10, seed=1, formula=cfg.formula,
        factors={**cfg.factors, "univ": {"univ1": 0.6, "univ2": 0.6,
                                         "univ3": -0.1, "univ4": -0.1}},
        continuous=cfg.continuous, true_beta=cfg.true_beta)
    with pytest.raises(SynthError, match="invalid probabilities"):
        generate(bad)


def test_true_beta_keys_must_match_model():
    cfg = default_config(50, 1)
    bad = lm.SynthConfig(n=50, seed=1, formula=cfg.formula, factors=cfg.factors,
                         continuous=cfg.continuous,
                         true_beta={**cfg.true_beta, "bogus": 1.0})
    with pytest.raises(SynthError, match="unexpected"):
        generate(bad)


def test_factor_shares_converge_to_targets():
    ds = generate(default_config(1_000_000, 2))
    for var, targets in (("univ", {"univ1": 0.074, "univ2": 0.033,
                                   "univ3": 0.554, "univ4": 0.339}),
                         ("subject", {"engtech": 0.114, "medhealth": 0.107,
                                      "natsci": 0.779})):
        col = ds.column(var)
        for level, target in targets.items():
            share = float(np.mean(col.values == col.levels.index(level)))
            assert abs(share - target) <= 0.002, (var, level, share)


def test_clamp_ranges_respected():
    ds = generate(default_config(30_000, 3))
    jif = ds.column("jif").values
    assert jif.min() >= 0.4 and jif.max() <= 54.3
    years = ds.column("years").values
    assert years.min() >= 1 and years.max() <= 31
    assert np.array_equal(years, np.round(years))
    authors = ds.column("authors").values
    assert authors.min() >= 1 and authors.max() <= 23
    assert np.array_equal(authors, np.round(authors))
    pages = ds.column("pages").values
    assert pages.min() >= 1 and pages.max() <= 160
    assert np.array_equal(pages, np.round(pages))


def test_outcome_share_near_target(corpus15k):
    # target 20.7%; the frozen corpus realizes 22.07%
    _, ds = corpus15k
    ybar = float(ds.column("top10").values.mean())
    assert abs(ybar - 0.207) <= 0.02
    assert ybar == pytest.approx(0.22066, abs=5e-4)


def test_continuous_moments_roughly_match():
    ds = generate(default_config(200_000, 4))
    jif = ds.column("jif").values
    assert jif.mean() == pytest.approx(4.5, abs=0.15)
    assert jif.std(ddof=1) == pytest.approx(5.8, abs=0.6)  # clamping trims the tail
    pages = ds.column("pages").values
    assert pages.mean() == pytest.approx(7.7, abs=0.3)
    authors = ds.column("authors").values
    assert authors.mean() == pytest.approx(4.2, abs=0.2)


def test_null_dgp_lr_chi2_matches_df():
    # with all slopes zero, 2(ll - ll0) is chi-squared with df = k-1
    base = default_config(800, 0)
    null_beta = {k: 0.0 for k in base.true_beta}
    null_beta["intercept"] = -1.0
    stats = []
    for seed in range(60):
        cfg = lm.SynthConfig(n=800, seed=seed, formula=base.formula,
                             factors=base.factors, continuous=base.continuous,
                             true_beta=null_beta)
        ds = generate(cfg)
        design = lm.build_design(ds, lm.parse_formula(cfg.formula))
        fr = lm.fit(design)
        stats.append(lm.fit_stats(fr).lr_chi2)
    mean_lr = float(np.mean(stats))
    # mean of chi2(14) is 14; MC sd over 60 draws is sqrt(2*14/60) ~ 0.68
    assert abs(mean_lr - 14.0) <= 2.5, mean_lr


def test_correlated_mode_shifts_university_means():
    cfg = default_config(60_000, 5, correlated=True)
    ds = generate(cfg)
    univ = ds.column("univ")
    jif = ds.column("jif").values
    means = {lv: float(jif[univ.values == univ.levels.index(lv)].mean())
             for lv in univ.levels}
    assert means["univ1"] > means["univ4"] > means["univ3"]
    assert means["univ3"] == pytest.approx(3.2, abs=0.15)
    assert jif.mean() == pytest.approx(4.5, abs=0.2)


def test_load_coefficients_bundled_and_path(tmp_path):
    formula, beta = load_coefficients("table2_model3.json")
    assert formula.startswith("top10 ~")
    assert beta["jif"] == 0.308 and beta["pages^2"] == -0.000519
    p = tmp_path / "alt.json"
    p.write_text('{"formula": "y ~ x", "coefficients": {"intercept": 0, "x": 1}}')
    formula2, beta2 = load_coefficients(str(p))
    assert formula2 == "y ~ x" and beta2["x"] == 1.0
    with pytest.raises(SynthError, match="no coefficient file"):
        load_coefficients("missing.json")


def test_generate_is_pure(corpus15k):
    cfg, ds = corpus15k
    again = generate(cfg)
    assert again == ds
