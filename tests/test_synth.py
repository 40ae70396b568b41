import dataclasses

import numpy as np
import pytest

import logitmargins as lm
from logitmargins.synth import SynthError, default_config, generate, load_coefficients

from conftest import CORPUS_SEED


def test_zero_rows_rejected():
    with pytest.raises(SynthError, match="positive"):
        generate(default_config(0, 1))


def test_corpus_size_is_checked_against_the_machine_memory(monkeypatch):
    # with 1 MiB of memory reported, 2000 rows of 8 columns (128 kB) are drawn
    # and 20000 (1.28 MB) are refused
    sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr("logitmargins.synth.os.sysconf", sysconf.__getitem__)
    assert generate(default_config(2000, 1)).n_rows == 2000
    with pytest.raises(SynthError, match=r"^corpus size 20000 needs 1\.28e\+06 bytes for its "
                                         r"8 columns, more than the 1\.05e\+06 bytes"):
        generate(default_config(20000, 1))


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("sysconf", [{"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": -1}.__getitem__,
                                     _unknown_name], ids=["indeterminate", "unknown-name"])
def test_a_memory_that_cannot_be_read_sets_no_bound(sysconf, monkeypatch):
    monkeypatch.setattr("logitmargins.synth.os.sysconf", sysconf)
    assert generate(default_config(100, 1)).n_rows == 100


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


SMALL = default_config(50, 1)


@pytest.mark.parametrize("make, message", [
    (lambda: lm.ContinuousSpec("gamma"), "unknown family 'gamma'"),
    (lambda: lm.ContinuousSpec("uniform_int"),
     "uniform_int needs bounds lo <= hi, finite for uniform_int, got lo=-inf, hi=inf"),
    (lambda: lm.ContinuousSpec("uniform_int", lo=5, hi=1), "got lo=5, hi=1"),
    (lambda: lm.ContinuousSpec("lognormal", mean=4.0, sd=1.0, lo=float("nan")),
     "lognormal needs bounds lo <= hi, finite for uniform_int, got lo=nan"),
    (lambda: lm.ContinuousSpec("lognormal", mean=0.0, sd=1.0), "finite, positive mean and sd"),
    (lambda: lm.ContinuousSpec("lognormal", mean=4.0, sd=float("nan")),
     "finite, positive mean and sd"),
    (lambda: lm.ContinuousSpec("lognormal", mean=4.0, sd=1.0, by_level=("univ", {"univ1": 0.0})),
     "finite, positive mean and sd"),
    (lambda: generate(dataclasses.replace(SMALL, factors={
        **SMALL.factors, "subject": {"engtech": 0.5, "medhealth": 0.4, "natsci": 0.0}})),
     "probabilities for factor 'subject' sum to 0.9, not 1"),
    (lambda: generate(dataclasses.replace(SMALL, continuous={
        **SMALL.continuous,
        "jif": lm.ContinuousSpec("lognormal", mean=4.5, sd=5.8, by_level=("nope", {}))})),
     "by_level factor 'nope' is not a configured factor"),
    (lambda: generate(dataclasses.replace(SMALL, true_beta={
        **SMALL.true_beta, "jif": float("inf")})),
     "non-finite coefficient for 'jif'"),
], ids=["family", "unbounded-uniform", "reversed-bounds", "nan-bound", "zero-mean", "nan-sd",
        "zero-level-mean", "probabilities", "by-level-factor", "coefficient"])
def test_an_invalid_generator_setting_is_a_synth_error(make, message):
    with pytest.raises(SynthError, match=message):
        make()


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


@pytest.mark.parametrize("text, message", [
    ("not json", "is not JSON"),
    ("[1, 2]", "must be an object"),
    ('{"x": 1}', "must be an object"),
    ('{"formula": "y ~ x"}', "must be an object"),
    ('{"coefficients": {"x": 1}}', "must be an object"),
    ('{"formula": "y ~ x", "coefficients": {"intercept": 0, "x": "1"}}',
     "coefficient 'x' is not a number"),
    ('{"formula": "y ~ x", "coefficients": {"intercept": 0, "x": true}}',
     "coefficient 'x' is not a number"),
])
def test_malformed_coefficient_file_is_named(tmp_path, text, message):
    p = tmp_path / "bad.json"
    p.write_text(text)
    with pytest.raises(SynthError, match=message) as exc:
        load_coefficients(str(p))
    assert str(p) in str(exc.value)


def test_generate_is_pure(corpus15k):
    cfg, ds = corpus15k
    again = generate(cfg)
    assert again == ds
