"""Property tests: the counterfactual kernel against the loop oracles.

Each example is a random small design with a 3-4 level factor ``g``, a
continuous ``x`` with a linked square and a bystander ``z``, plus one margin
request of any kind.  Coefficients and covariance are drawn directly rather
than fitted: the margin computation never needs them to be a maximum of the
likelihood, and every draw is then usable.  A last property draws requests
with any fields at all: each is rejected, or reads every field it sets.
Another runs requests of more than 16 scenarios at several block widths,
and one gives extreme coefficients, grids and covariances: each request is
rejected with a MarginsError, or gives finite rows.
"""

import dataclasses
import itertools
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, strategies as st

import logitmargins as lm
from logitmargins import margins
from logitmargins.dataset import Column
from logitmargins.margins import (MarginRequest, MarginsError, _compile, _evaluate,
                                  compute_margins)
from oracles import ToyModel, fd_gradient

LEVELS = ("a", "b", "c", "d")
GRID_POINTS = tuple(-3.0 + 0.5 * i for i in range(15))
GRIDS = st.lists(st.sampled_from(GRID_POINTS), min_size=1, max_size=3,
                 unique=True).map(lambda grid: tuple(sorted(grid)))
RTOL = 1e-9
ATOL = 1e-13  # effects can sit near zero, where a relative bound means nothing
IDENTITY_TOL = 1e-12
# every route through compute_margins: (kind, target, with an `at` grid)
SHAPES = (
    ("aap", "g", False), ("ame", "g", False), ("apm", "g", False), ("mem", "g", False),
    ("aprv", "g", True), ("merv", "g", True), ("apm", "g", True), ("mem", "g", True),
    ("aap", "x", True), ("apm", "x", True), ("ame", "x", True), ("ame", "x", False),
    ("mem", "x", True), ("mem", "x", False),
)


def toy_fit(n_levels: int, n: int, seed: int):
    """A toy fit of n rows and an n_levels factor drawn from ``seed``, its
    design and its loop oracle."""
    levels = LEVELS[:n_levels]
    rng = np.random.default_rng(seed)
    # every level observed at least once
    codes = np.concatenate([np.arange(n_levels),
                            rng.integers(0, n_levels, n - n_levels)]).astype(np.int64)
    x = rng.uniform(-2.0, 3.0, n)
    z = rng.normal(size=n)
    y = (rng.random(n) < 0.5).astype(np.float64)
    ds = lm.Dataset("prop", (Column("y", "binary", y),
                             Column("g", "categorical", codes, levels),
                             Column("x", "continuous", x), Column("z", "continuous", z)))
    design = lm.build_design(ds, lm.parse_formula("y ~ C(g) + x + x^2 + z"))
    k = design.k
    beta = rng.normal(scale=0.8, size=k)
    beta[design.term_map.square_col("x")] *= 0.3
    A = rng.normal(scale=0.1, size=(k, k))
    cov = A @ A.T + 1e-3 * np.eye(k)
    fr = lm.FitResult(beta=beta, cov=cov, ll=-1.0, ll0=-1.0, n=n, iterations=1,
                      term_map=design.term_map)
    oracle = ToyModel(factors={"g": levels[1:]}, continuous={"x": True, "z": False},
                      raw={"g": [levels[c] for c in codes], "x": list(x), "z": list(z)})
    return fr, design, oracle


@st.composite
def toy_fits(draw):
    """A random toy fit, its design and its loop oracle."""
    n_levels = draw(st.integers(3, 4))
    n = draw(st.integers(n_levels + 4, 24))
    return toy_fit(n_levels, n, draw(st.integers(0, 2**32 - 1)))


@st.composite
def cases(draw):
    """A toy fit and a valid request of one of the SHAPES, setting only the
    fields that shape reads."""
    fr, design, oracle = draw(toy_fits())
    levels = fr.term_map.factor_levels["g"]
    kind, target, with_grid = draw(st.sampled_from(SHAPES))
    effect = kind in ("ame", "mem", "merv")
    fields = {}
    if with_grid:
        fields["at"] = ("x", draw(GRIDS))
    if target == "g":
        if effect:
            fields["base"] = draw(st.none() | st.sampled_from(levels))
        chosen = [lv for lv in levels if not effect or lv != (fields["base"] or levels[0])]
        fields["levels"] = draw(st.none() | st.lists(
            st.sampled_from(chosen), min_size=1, max_size=3, unique=True).map(tuple))
    elif effect:
        fields["discrete"] = draw(st.booleans())
    return fr, design, oracle, MarginRequest(kind=kind, target=target, **fields)


def oracle_rows(oracle: ToyModel, beta, request: MarginRequest, levels) -> list[float]:
    """The request's rows, in output order, from the loop oracles."""
    atmeans = request.kind in ("apm", "mem")
    effect = request.kind in ("ame", "mem", "merv")
    if request.target == "g":
        chosen = request.levels or levels
        points = request.at[1] if request.at else (None,)

        def pred(level, v):
            over = {"g": level} if v is None else {"g": level, "x": v}
            if atmeans:
                return oracle.apm_at(beta, over)
            if v is None:
                return oracle.aap(beta, "g", level)
            return oracle.aprv(beta, "g", level, "x", v)

        if not effect:
            return [pred(level, v) for level in chosen for v in points]
        base = request.base or levels[0]
        if atmeans:
            return [pred(level, v) - pred(base, v)
                    for level in chosen if level != base for v in points]
        if request.at is None:
            return [oracle.ame(beta, "g", level, base) for level in chosen if level != base]
        return [oracle.merv(beta, "g", level, base, "x", v)
                for level in chosen if level != base for v in points]

    points = request.at[1] if request.at else (None,)
    if not effect:
        if atmeans:
            return [oracle.apm(beta, "x", v) for v in points]
        return [oracle.aap(beta, "x", v) for v in points]
    if request.discrete:
        unit = oracle.mem_unit if atmeans else oracle.ame_unit
        return [unit(beta, "x", v) for v in points]
    if atmeans:
        return [oracle.mem_derivative(beta, "x", v) for v in points]
    if request.at is None:
        return [oracle.ame_observed(beta, "x")]
    return [oracle.ame_derivative(beta, "x", v) for v in points]


def prediction_pairs(request: MarginRequest, levels):
    """For an effect with an exact prediction difference: the prediction
    request and, per effect row, the (plus, minus) rows of its output."""
    at = request.at
    kind = {"ame": "aap", "mem": "apm", "merv": "aprv"}[request.kind]
    if request.target == "g":
        chosen = request.levels or levels
        base = request.base or levels[0]
        points = at[1] if at else (None,)
        pred = MarginRequest(kind=kind, target="g", levels=tuple(levels), at=at)
        width = len(points)
        pairs = [(levels.index(level) * width + j, levels.index(base) * width + j)
                 for level in chosen if level != base for j in range(width)]
        return pred, pairs
    if not request.discrete or at is None:
        return None, []  # derivatives and per-row shifts have no such identity
    grid = tuple(sorted(set(at[1]) | {v + 1.0 for v in at[1]}))
    pred = MarginRequest(kind=kind, target="x", at=("x", grid))
    return pred, [(grid.index(v + 1.0), grid.index(v)) for v in at[1]]


@given(cases())
def test_kernel_matches_loop_oracles(case):
    fr, design, oracle, request = case
    levels = fr.term_map.factor_levels["g"]
    rows = compute_margins(fr, design, request)
    want = oracle_rows(oracle, fr.beta, request, levels)
    assert len(rows) == len(want)
    for row, w in zip(rows, want):
        assert np.isclose(row.estimate, w, rtol=RTOL, atol=ATOL), (row.label, row.estimate, w)


@given(cases())
def test_effects_are_exact_prediction_differences(case):
    fr, design, _, request = case
    if request.kind not in ("ame", "mem", "merv"):
        return
    pred, pairs = prediction_pairs(request, fr.term_map.factor_levels["g"])
    if pred is None:
        return
    effects = compute_margins(fr, design, request)
    preds = compute_margins(fr, design, pred)
    assert len(effects) == len(pairs)
    for row, (plus, minus) in zip(effects, pairs):
        diff = preds[plus].estimate - preds[minus].estimate
        assert abs(row.estimate - diff) <= IDENTITY_TOL


# a second-order difference at h = 1e-6 missed this case's gradients by a
# relative 1.5e-6, from rounding alone
@example((*toy_fit(4, 15, 389), MarginRequest("aprv", "g", at=("x", (-3.0, 4.0)))))
@given(cases())
def test_kernel_gradients_match_finite_differences(case):
    fr, design, _, request = case
    plan = _compile(fr, design, request)
    _, grad = _evaluate(plan, fr.beta)
    for r in range(grad.shape[1]):
        fd = fd_gradient(lambda b: _evaluate(plan, b)[0][r], fr.beta)
        scale = max(1e-12, float(np.max(np.abs(grad[:, r]))))
        assert np.max(np.abs(grad[:, r] - fd)) / scale < 1e-6


# requests over a long grid: aprv and merv by g make 27-60 scenarios, more
# than one block of 16; aap and ame of x make 9-15, split at widths 1 and 5
LONG_GRID_SHAPES = (("aprv", "g"), ("merv", "g"), ("aap", "x"), ("ame", "x"))


@given(toy_fits(), st.sampled_from(LONG_GRID_SHAPES),
       st.lists(st.sampled_from(GRID_POINTS), min_size=9, max_size=15, unique=True),
       st.data())
def test_estimates_do_not_depend_on_the_scenario_block(fit_case, shape, grid, data):
    fr, design, _ = fit_case
    request = MarginRequest(*shape, at=("x", tuple(sorted(grid))))
    plan = _compile(fr, design, request)
    counts = np.array(data.draw(st.lists(st.integers(0, 3), min_size=design.n,
                                         max_size=design.n), label="weights"), dtype=float)
    results = []
    for width in (1, 5, 16):
        with patch.object(margins, "_BLOCK_COLUMNS", width):
            est, grad = _evaluate(plan, fr.beta)
            weighted, _ = _evaluate(plan, fr.beta, weights=counts)
            se = [row.se for row in compute_margins(fr, design, request)]
        results.append((est, weighted, grad, np.array(se)))
    est, weighted, grad, se = results[-1]
    for other in results[:-1]:
        # each scenario's mean is a row sum, whatever block the row sits in
        assert other[0].tobytes() == est.tobytes()
        assert other[1].tobytes() == weighted.tobytes()
        # relative to the largest entry: a gradient entry can cancel to near 0
        np.testing.assert_allclose(other[2], grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(grad).max())
        np.testing.assert_allclose(other[3], se, rtol=1e-12, atol=1e-12 * se.max())


DEFAULTS = {"levels": None, "base": None, "at": None, "ci_level": 0.95, "discrete": False}
# any value of each request field, valid or not
FIELD_VALUES = {
    "kind": st.sampled_from(("aap", "ame", "apm", "mem", "aprv", "merv")),
    "target": st.sampled_from(("g", "x", "z")),
    "levels": st.none() | st.lists(st.sampled_from(LEVELS + ("zz",)), max_size=3).map(tuple),
    "base": st.none() | st.sampled_from(LEVELS + ("zz", "")),
    "at": st.none() | st.tuples(st.sampled_from(("x", "z", "g")), GRIDS),
    "ci_level": st.sampled_from((0.95, 0.5, 0.99, 1.0)),
    "discrete": st.booleans(),
}


def other_values(name: str, levels) -> list:
    """Explicit values of an optional field to swap into a valid request."""
    if name == "levels":
        return [p for r in (1, 2) for p in itertools.permutations(levels, r)]
    if name == "base":
        return list(levels)
    if name == "at":
        return [(var, grid) for var in ("x", "z") for grid in ((0.0,), (0.5, 1.0))]
    if name == "ci_level":
        return [0.5, 0.9, 0.95, 0.99]
    return [False, True]


def rows_or_none(fr, design, fields):
    """The request's rows, or None when it is rejected with a MarginsError."""
    try:
        return compute_margins(fr, design, MarginRequest(**fields))
    except MarginsError:
        return None


@given(cases(), st.data())
def test_a_request_is_rejected_or_reads_every_field_it_sets(case, data):
    fr, design, _, request = case
    # any subset of a valid request's fields, up to all of them, drawn anew
    names = data.draw(st.sets(st.sampled_from(tuple(FIELD_VALUES))), label="redrawn")
    fields = {name: getattr(request, name) for name in FIELD_VALUES}
    fields.update({name: data.draw(FIELD_VALUES[name], label=name) for name in sorted(names)})
    rows = rows_or_none(fr, design, fields)
    if rows is None:
        return
    for name, value in fields.items():
        if name not in DEFAULTS or value == DEFAULTS[name]:
            continue
        for other in other_values(name, fr.term_map.factor_levels["g"]):
            if other != value:
                changed = rows_or_none(fr, design, {**fields, name: other})
                assert changed is None or changed != rows, (name, value, other)


# extreme but finite inputs: grid values whose square may overflow,
# coefficients up to 1e300 and covariances that may be indefinite
EXTREME_GRIDS = st.lists(st.sampled_from((-1e200, -1e150, -1e10, -3.0, 0.0, 2.5, 1e10, 1e150,
                                          1e200)), min_size=1, max_size=3, unique=True)


@given(toy_fits(), st.sampled_from(SHAPES), EXTREME_GRIDS, st.integers(0, 300),
       st.sampled_from((0.0, 1e-3, 1.0, 1e6)), st.integers(0, 2**32 - 1))
def test_a_margin_is_an_error_or_finite(fit_case, shape, grid, scale, shrink, seed):
    fr, design, _ = fit_case
    kind, target, with_grid = shape
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(design.k, design.k))
    fr = dataclasses.replace(fr, beta=fr.beta * 10.0 ** scale,
                             cov=A @ A.T - shrink * np.eye(design.k))
    at = ("x", tuple(sorted(grid))) if with_grid else None
    try:
        rows = compute_margins(fr, design, MarginRequest(kind, target, at=at))
    except MarginsError:
        return
    for row in rows:
        assert np.isfinite([row.estimate, row.se, row.p, row.ci_low, row.ci_high]).all(), row
        assert not np.isnan(row.z), row
