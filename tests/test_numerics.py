"""Property tests: the numpy-only numerics of the fit and margins against scipy.

``logit.expit``, ``logit.two_sided_p``, ``margins.zstar`` and the rank check
replaced scipy routines on the import path; scipy, still a dependency, is the
reference here.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st
from scipy.special import expit as scipy_expit, ndtr, ndtri

from logitmargins.logit import RankDeficiencyError, _check_rank, expit, two_sided_p
from logitmargins.margins import zstar
from conftest import plain_term_map

SPECIAL_X = (0.0, 30.0, -30.0, 700.0, -700.0, 745.0, -745.0, 800.0, -800.0)


def ulp_distance(a, b) -> np.ndarray:
    """Units in the last place between non-negative float64 arrays."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return np.abs(a.view(np.int64) - b.view(np.int64))


@given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=50))
@example(list(SPECIAL_X))
def test_expit_within_4_ulp_of_scipy_in_place(xs):
    x = np.array(xs)
    expected = scipy_expit(x)
    out = x.copy()
    got = expit(out, out=out)
    assert got is out
    assert ulp_distance(got, expected).max() <= 4
    assert ulp_distance(expit(x), expected).max() <= 4


@pytest.mark.parametrize("x", SPECIAL_X)
def test_expit_scalar(x):
    assert ulp_distance(expit(np.float64(x)), scipy_expit(x)) <= 4


# beyond |z| = 37.5 both p-values are subnormal and lose relative precision
@given(st.lists(st.floats(-37.0, 37.0), min_size=1, max_size=50))
def test_two_sided_p_matches_ndtr(zs):
    z = np.array(zs)
    np.testing.assert_allclose(two_sided_p(z), 2.0 * ndtr(-np.abs(z)), rtol=1e-12, atol=0)


def test_two_sided_p_special_values():
    np.testing.assert_array_equal(two_sided_p(np.array([0.0, np.inf, -np.inf])),
                                  [1.0, 0.0, 0.0])
    assert two_sided_p(np.zeros((2, 3))).shape == (2, 3)


# statistics.NormalDist and scipy's ndtri are each within 4 ulp of the exact
# quantile over levels 0.01-0.999999; at 0.9 they are 3 ulp apart
@pytest.mark.parametrize("level", [0.8, 0.9, 0.99, 0.999])
def test_zstar_matches_ndtri(level):
    assert ulp_distance(zstar(level), ndtri(0.5 + level / 2.0)) <= 4


def scipy_dependent_columns(X: np.ndarray) -> list[int]:
    """The dependent columns as named by a pivoted QR's diagonal."""
    n, k = X.shape
    _, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int((diag > diag.max() * max(n, k) * np.finfo(np.float64).eps).sum())
    return sorted(int(j) for j in piv[rank:])


@st.composite
def deficient_designs(draw):
    """Integer-valued designs with 1-3 columns that are exact combinations."""
    k_free = draw(st.integers(2, 6))
    n_dep = draw(st.integers(1, 3))
    n = draw(st.integers(k_free + n_dep + 3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = [np.ones(n), *rng.integers(-9, 10, size=(k_free - 1, n)).astype(np.float64)]
    for _ in range(n_dep):
        i, j = rng.choice(len(cols), size=2, replace=False)
        a, b = rng.integers(-3, 4, size=2)
        dep = a * cols[i] + b * cols[j]
        if not dep.any():
            dep = cols[i] + cols[j]
        cols.insert(int(rng.integers(0, len(cols) + 1)), dep)
    return np.column_stack(cols), n_dep


@given(deficient_designs())
def test_rank_check_names_the_scipy_pivoted_qr_columns(case):
    X, n_dep = case
    tm = plain_term_map(X.shape[1])
    with pytest.raises(RankDeficiencyError) as exc:
        _check_rank(X, tm)
    named = [tm.labels.index(c) for c in exc.value.columns]
    assert named == scipy_dependent_columns(X)
    assert len(named) >= n_dep


@given(st.integers(1, 8), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_rank_check_passes_full_rank_designs(k, extra_rows, seed):
    rng = np.random.default_rng(seed)
    n = k + extra_rows
    X = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 4, size=k)
    X[:, 0] = 1.0
    _check_rank(X, plain_term_map(k))
