"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 8's pseudo-R2 window is documented as unattainable under the
bundled generator (independent covariates reproduce the coefficients but
explain more variance than the original study's data did); its test states
the criterion faithfully and is expected to fail.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import logitmargins as lm
from logitmargins.formula import ColumnRole, TermMap, substitute_matrix
from logitmargins.logit import log_likelihood, score_and_hessian
from oracles import ToyModel, fd_gradient
from conftest import (BOOT_SEED, CORPUS_SEED, kernel_gradient, margin_rows, plain_design,
                      plain_term_map, toy_dataset)

MODEL3 = ("top10 ~ C(univ) + C(subject) + C(doctype) + jif + jif^2 + years "
          "+ authors + pages + pages^2")
SCHEMA = ("top10:binary,univ:categorical[univ1|univ2|univ3|univ4],"
          "subject:categorical[engtech|medhealth|natsci],"
          "doctype:categorical[article|note|proceedings|review],"
          "jif:continuous,years:continuous,authors:continuous,pages:continuous")
REFS = ["--ref", "univ=univ1", "--ref", "subject=engtech", "--ref", "doctype=article"]


def report(num: int, desc: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}{tail}",
          flush=True)


def run_cli(*args, cwd=None):
    # -W error: a warning fails the call, as filterwarnings does in-process
    return subprocess.run([sys.executable, "-W", "error", "-m", "logitmargins", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_c01_ame_equals_aap_difference(toy_fit, corpus2k, corpus15k_fit):
    worst = 0.0
    for fr, design in (toy_fit, corpus2k, corpus15k_fit):
        tm = fr.term_map
        for factor, levels in tm.factor_levels.items():
            base = levels[0]
            for level in levels[1:]:
                aap, = margin_rows(fr, design, "aap", factor, levels=(level,))
                aap_base, = margin_rows(fr, design, "aap", factor, levels=(base,))
                diff = aap.estimate - aap_base.estimate
                got, = margin_rows(fr, design, "ame", factor, levels=(level,), base=base)
                worst = max(worst, abs(got.estimate - diff))
    ok = worst <= 1e-12
    report(1, "AME equals AAP difference to 1e-12", ok, f"worst {worst:.2e}")
    assert ok


def _ame_zero(b_lin: float, b_sq: float, lo: float, hi: float) -> float:
    tm = TermMap(columns=(ColumnRole(None, "intercept"),
                          ColumnRole("v", "identity"), ColumnRole("v", "square")),
                 reference={}, factor_levels={})
    grid_x = np.linspace(1.0, 40.0, 7)
    design = lm.DesignMatrix(np.column_stack([np.ones(7), grid_x, grid_x ** 2]),
                             np.zeros(7), tm)
    fr = lm.FitResult(beta=np.array([-2.0, b_lin, b_sq]), cov=np.eye(3), ll=-1.0,
                      ll0=-2.0, n=7, iterations=1, term_map=tm)

    def ame(v: float) -> float:
        return margin_rows(fr, design, "ame", "v", at=("v", (v,)))[0].estimate

    a, b = lo, hi
    fa = ame(a)
    for _ in range(80):
        m = 0.5 * (a + b)
        if (fa > 0) == (ame(m) > 0):
            a, fa = m, ame(m)
        else:
            b = m
    return 0.5 * (a + b)


def test_c02_turning_points_from_coefficients_alone():
    pages_zero = _ame_zero(0.0878, -0.000519, 60.0, 110.0)
    jif_zero = _ame_zero(0.308, -0.00502, 20.0, 40.0)
    ok_pages = abs(pages_zero - 84.6) <= 0.05
    ok_jif = abs(jif_zero - 30.68) <= 0.05
    report(2, "AME zero crossings at 84.6 and 30.68 (+-0.05)",
           ok_pages and ok_jif, f"pages {pages_zero:.4f}, jif {jif_zero:.4f}")
    assert ok_pages and ok_jif


def test_c03_predicted_probability_spot_value():
    fr = lm.FitResult(beta=np.array([-3.961]), cov=np.eye(1), ll=0.0, ll0=0.0,
                      n=1, iterations=0, term_map=plain_term_map(1))
    p = float(lm.predict(fr, np.array([[1.0]]))[0])
    ok = abs(p - 0.01869) <= 1e-5
    report(3, "logistic(-3.961) = 0.01869 +- 1e-5", ok, f"got {p:.6f}")
    assert ok


def test_c04_mean_fitted_probability_equals_ybar():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(50, 5001))
        k = int(rng.integers(2, 7))
        X = np.column_stack([np.ones(n), rng.normal(0, 1.5, size=(n, k - 1))])
        beta = rng.normal(0, 0.8, size=k)
        y = (rng.random(n) < expit(X @ beta)).astype(float)
        fr = lm.fit(plain_design(X, y))
        worst = max(worst, abs(float(expit(X @ fr.beta).mean()) - float(y.mean())))
    ok = worst <= 1e-8
    report(4, "mean fitted probability equals ybar to 1e-8 (20 datasets)",
           ok, f"worst {worst:.2e}")
    assert ok


def test_c05_gradient_oracles(toy_fit):
    rng = np.random.default_rng(55)
    X = np.column_stack([np.ones(20), rng.normal(size=(20, 3))])
    beta = rng.normal(scale=0.6, size=4)
    y = (rng.random(20) < expit(X @ beta)).astype(float)

    score, H = score_and_hessian(beta, X, y)
    fd = fd_gradient(lambda b: log_likelihood(b, X, y), beta, h=1e-6)
    score_err = float(np.max(np.abs(score - fd)))
    ok_score = score_err < 1e-6

    hess_err = 0.0
    h = 1e-6
    for j in range(4):
        up, dn = beta.copy(), beta.copy()
        up[j] += h
        dn[j] -= h
        col = (score_and_hessian(up, X, y)[0]
               - score_and_hessian(dn, X, y)[0]) / (2 * h)
        hess_err = max(hess_err, float(np.max(
            np.abs(col - H[:, j]) / np.maximum(np.abs(H[:, j]), 1.0))))
    ok_hess = hess_err < 1e-5

    fr, design = toy_fit
    tm = fr.term_map
    margin_err = 0.0

    Xsub = substitute_matrix(design.X, tm, "g", "c")
    grad = kernel_gradient(fr, design, lm.MarginRequest("aap", "g", levels=("c",)))
    fd = fd_gradient(lambda b: float(expit(Xsub @ b).mean()), fr.beta)
    margin_err = max(margin_err,
                     float(np.max(np.abs(grad - fd))) / float(np.max(np.abs(grad))))

    for v in (0.8, 2.4):
        grad = kernel_gradient(fr, design, lm.MarginRequest("ame", "x", at=("x", (v,))))

        def ame_est(b, v=v):
            Xs = substitute_matrix(design.X, tm, "x", v)
            p = expit(Xs @ b)
            slope = b[tm.linear_col("x")] + 2.0 * b[tm.square_col("x")] * v
            return float((p * (1 - p) * slope).mean())

        fd = fd_gradient(ame_est, fr.beta)
        margin_err = max(margin_err,
                         float(np.max(np.abs(grad - fd))) / float(np.max(np.abs(grad))))
    ok_margin = margin_err < 1e-6

    ok = ok_score and ok_hess and ok_margin
    report(5, "score/Hessian/margin gradients match finite differences", ok,
           f"score {score_err:.1e}, hessian {hess_err:.1e}, margins {margin_err:.1e}")
    assert ok


def test_c06_brute_force_margins_oracle(toy_fit, toy_fit_bystander):
    toy_ds = toy_dataset()
    g = toy_ds.column("g")
    raw = {"g": [g.levels[c] for c in g.values],
           "x": list(toy_ds.column("x").values),
           "z": list(toy_ds.column("z").values)}
    worst = 0.0

    fr, design = toy_fit  # y ~ C(g) + x + x^2
    oracle = ToyModel(factors={"g": ("b", "c")}, continuous={"x": True}, raw=raw)
    for level in ("a", "b", "c"):
        worst = max(worst, abs(
            margin_rows(fr, design, "aap", "g", levels=(level,))[0].estimate
            - oracle.aap(fr.beta, "g", level)))
        worst = max(worst, abs(
            margin_rows(fr, design, "apm", "g", levels=(level,))[0].estimate
            - oracle.apm(fr.beta, "g", level)))
    for level in ("b", "c"):
        worst = max(worst, abs(
            margin_rows(fr, design, "ame", "g", levels=(level,), base="a")[0].estimate
            - oracle.ame(fr.beta, "g", level, "a")))
        worst = max(worst, abs(
            margin_rows(fr, design, "mem", "g", levels=(level,), base="a")[0].estimate
            - oracle.mem(fr.beta, "g", level, "a")))
    for v in (0.0, 1.0, 2.0):
        worst = max(worst, abs(
            margin_rows(fr, design, "aap", "x", at=("x", (v,)))[0].estimate
            - oracle.aap(fr.beta, "x", v)))
        worst = max(worst, abs(
            margin_rows(fr, design, "ame", "x", at=("x", (v,)))[0].estimate
            - oracle.ame_derivative(fr.beta, "x", v)))

    fr2, design2 = toy_fit_bystander  # y ~ C(g) + x + z
    oracle2 = ToyModel(factors={"g": ("b", "c")},
                       continuous={"x": False, "z": False}, raw=raw)
    grid = (0.5, 2.0)
    rows = margin_rows(fr2, design2, "aprv", "g", levels=("a", "b", "c"), at=("x", grid))
    i = 0
    for level in ("a", "b", "c"):
        for v in grid:
            worst = max(worst, abs(rows[i].estimate
                                   - oracle2.aprv(fr2.beta, "g", level, "x", v)))
            i += 1
    for level in ("b", "c"):
        merv = margin_rows(fr2, design2, "merv", "g", levels=(level,), base="a",
                           at=("x", grid))
        for row, v in zip(merv, grid, strict=True):
            worst = max(worst, abs(row.estimate
                                   - oracle2.merv(fr2.beta, "g", level, "a", "x", v)))

    ok = worst <= 1e-12
    report(6, "AAP/AME/APRV/MERV/APM match the naive loop to 1e-12", ok,
           f"worst {worst:.2e}")
    assert ok


def test_c07_bootstrap_agrees_with_delta(corpus2k):
    fr, design = corpus2k
    worst = 0.0
    for kind in ("aap", "ame"):
        req = lm.MarginRequest(kind=kind, target="univ")
        delta_rows = lm.compute_margins(fr, design, req)
        boot = lm.bootstrap_se(design, req, reps=500, seed=BOOT_SEED)
        for d, b in zip(delta_rows, boot.rows):
            worst = max(worst, abs(b.se - d.se) / d.se)
    ok = worst <= 0.15
    report(7, "bootstrap SEs within 15% of delta-method SEs", ok,
           f"worst {100 * worst:.1f}%")
    assert ok


def test_c08_simulation_recovery(corpus15k, corpus15k_fit):
    cfg, _ = corpus15k
    fr, design = corpus15k_fit
    se = np.sqrt(np.diag(fr.cov))
    true = np.array([cfg.true_beta[lb] for lb in design.term_map.labels])
    zdev = np.abs((fr.beta - true) / se)
    ok_coef = bool((zdev <= 3.0).all())
    r2 = lm.fit_stats(fr).pseudo_r2
    ok_r2 = abs(r2 - 0.148) <= 0.03
    report(8, "coefficients recovered within 3 SEs", ok_coef,
           f"max |z| {zdev.max():.2f}")
    report(8, "pseudo-R2 within 0.148 +- 0.03", ok_r2,
           f"got {r2:.4f}; independent-covariate corpora land near 0.196 "
           "for every seed, so this window cannot be met by this generator")
    assert ok_coef
    assert ok_r2, (f"pseudo-R2 {r2:.4f} outside [0.118, 0.178]: the generator "
                   "reproduces the coefficients but not the original data's "
                   "noise level; see decisions ledger")


def _load_series(path: Path):
    out = {}
    for line in path.read_text().strip().splitlines()[1:]:
        series, at, est, lo, hi = line.split(",")
        out.setdefault(series, []).append((float(at), float(est)))
    return {k: ([a for a, _ in v], [e for _, e in v]) for k, v in out.items()}


def test_c09_figure_analogues(tmp_path):
    ws = tmp_path
    r = run_cli("synth", "--n", "15426", "--seed", str(CORPUS_SEED),
                "--correlated", "--out", str(ws / "c.csv"))
    assert r.returncode == 0, r.stderr
    r = run_cli("fit", "--data", str(ws / "c.csv"), "--model", MODEL3,
                "--schema", SCHEMA, *REFS, "--out", str(ws / "m.json"))
    assert r.returncode == 0, r.stderr

    def margins(*args):
        res = run_cli("margins", "--model", str(ws / "m.json"),
                      "--data", str(ws / "c.csv"), *args)
        assert res.returncode == 0, res.stderr

    margins("--at", "jif=0:35:1", "--plot", str(ws / "f1.svg"))
    margins("--at", "pages=1:120:1", "--plot", str(ws / "f3.svg"))
    margins("--over", "C(univ)", "--at", "jif=0:13:0.5", "--plot", str(ws / "f5.svg"))
    margins("--over", "C(univ)", "--at", "pages=1:25:1", "--plot", str(ws / "f7.svg"))

    checks = []

    # rising-then-flattening impact-factor curve
    (_, est1), = _load_series(ws / "f1.svg.csv").values()
    d1 = np.diff(est1)
    checks.append(("jif curve rises through 25", bool((d1[:25] > 0).all())))
    checks.append(("jif curve flattens at the top",
                   float(np.mean(d1[-5:])) < 0.2 * float(np.mean(d1[:5]))))

    # document length: rises, then turns over inside the grid (the fitted
    # turning point scatters around 85 because the squared coefficient is small)
    (_, est3), = _load_series(ws / "f3.svg.csv").values()
    d3 = np.diff(est3)
    checks.append(("pages curve rises through 70", bool((d3[:70] > 0).all())))
    checks.append(("pages curve declines by 120", est3[-1] < max(est3)))
    checks.append(("pages curve peaks inside the grid",
                   65 <= 1 + int(np.argmax(est3)) <= 115))

    # university gap widens with the impact factor (about 4pp at 0, growing
    # several-fold toward the top of the grid)
    s5 = _load_series(ws / "f5.svg.csv")
    gap5 = np.array(s5["APRV univ=univ3"][1]) - np.array(s5["APRV univ=univ1"][1])
    checks.append(("univ3 above univ1 at all jif values", bool((gap5 > 0).all())))
    checks.append(("gap near 4pp at jif 0", 0.005 <= gap5[0] <= 0.10))
    checks.append(("gap widens through jif 10", bool((np.diff(gap5)[:20] > 0).all())))
    checks.append(("gap at 13 well above the gap at 0", gap5[-1] > 2.5 * gap5[0]))

    # and with document length
    s7 = _load_series(ws / "f7.svg.csv")
    gap7 = np.array(s7["APRV univ=univ3"][1]) - np.array(s7["APRV univ=univ1"][1])
    checks.append(("univ3 above univ1 at all page counts", bool((gap7 > 0).all())))
    checks.append(("gap wider at 25 pages than at 1", gap7[-1] > gap7[0]))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(name for name, flag in checks if not flag) or "all shape checks"
    report(9, "figure-shaped outputs show the documented patterns", ok, detail)
    assert ok, [name for name, flag in checks if not flag]


def test_c10_byte_identical_outputs(tmp_path):
    r = run_cli("synth", "--n", "2500", "--seed", "11", "--out", str(tmp_path / "d.csv"))
    assert r.returncode == 0, r.stderr
    r = run_cli("fit", "--data", str(tmp_path / "d.csv"), "--model", MODEL3,
                "--schema", SCHEMA, *REFS, "--out", str(tmp_path / "m.json"))
    assert r.returncode == 0, r.stderr
    outs = []
    for name in ("r1", "r2"):
        sub = tmp_path / name
        sub.mkdir()
        r = run_cli("synth", "--n", "800", "--seed", "3", "--out", str(sub / "s.csv"))
        assert r.returncode == 0
        r = run_cli("margins", "--model", str(tmp_path / "m.json"),
                    "--data", str(tmp_path / "d.csv"),
                    "--over", "C(univ)", "--at", "jif=0:13:0.5",
                    "--plot", str(sub / "p.svg"), "--table", str(sub / "t.tsv"),
                    "--vce", "bootstrap", "--reps", "100", "--seed", "21")
        assert r.returncode == 0, r.stderr
        outs.append(sub)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("s.csv", "p.svg", "p.svg.csv", "t.tsv"))
    report(10, "identical flags and seed give byte-identical outputs", same)
    assert same
