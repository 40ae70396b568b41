import numpy as np
import pytest
from hypothesis import given, strategies as st

import logitmargins as lm
from logitmargins.dataset import Column
from logitmargins.formula import (IDENTITY, INDICATOR, SQUARE, ColumnRole, FormulaError,
                                  ModelSpec, Term, build_design, parse_formula,
                                  substitute_matrix)
from oracles import ToyModel


def test_parse_basic():
    spec = parse_formula("top10 ~ C(univ) + jif + jif^2")
    assert spec.response == "top10"
    assert spec.terms == (Term("univ", INDICATOR), Term("jif", IDENTITY),
                          Term("jif", SQUARE))


def test_term_rejects_unknown_transform():
    with pytest.raises(FormulaError, match="unknown term transform 'intercept'"):
        Term("x", "intercept")


TERM_TOKENS = {INDICATOR: ("C", "(", "{}", ")"), IDENTITY: ("{}",), SQUARE: ("{}", "^", "2")}


def render(terms, space) -> tuple[str, list[int]]:
    """``y ~ t1 + t2 ...`` with ``space`` drawing the whitespace before each
    token, and the offset where each term starts."""
    text, starts = space() + "y" + space() + "~", []
    for i, t in enumerate(terms):
        if i:
            text += space() + "+"
        for j, tok in enumerate(TERM_TOKENS[t.transform]):
            text += space()
            if j == 0:
                starts.append(len(text))
            text += tok.format(t.var)
    return text + space(), starts


# the terms one variable may bring; a square always comes with its linear term
SHAPES = ((INDICATOR,), (IDENTITY,), (IDENTITY, SQUARE), (INDICATOR, IDENTITY, SQUARE))


@st.composite
def term_lists(draw):
    """1-6 distinct terms in any order, each square with its linear term."""
    names = draw(st.lists(st.sampled_from(["a", "jif", "x_2", "_p"]), min_size=1,
                          max_size=4, unique=True))
    terms = [Term(v, tr) for v in names for tr in draw(st.sampled_from(SHAPES))]
    return draw(st.permutations(terms[:6]))


@given(terms=term_lists(), data=st.data())
def test_parse_returns_the_rendered_terms(terms, data):
    # guards the one-class Term: every transform parses back to itself, and a
    # square without its linear term is rejected at the square's position
    space = lambda: data.draw(st.text(" \t\n", max_size=2))  # noqa: E731
    text, _ = render(terms, space)
    assert parse_formula(text) == ModelSpec("y", tuple(terms))
    for t in terms:
        if t.transform == SQUARE:
            rest = [u for u in terms if u != Term(t.var, IDENTITY)]
            text, starts = render(rest, space)
            with pytest.raises(FormulaError, match="no bare") as exc:
                parse_formula(text)
            assert exc.value.position == starts[rest.index(t)]


def test_parse_whitespace_insignificant():
    a = parse_formula("y~C(g)+x+x^2")
    b = parse_formula("  y  ~  C( g )  +  x  + x ^ 2 ")
    assert a == b


def test_square_without_base_rejected():
    with pytest.raises(FormulaError, match="no bare"):
        parse_formula("top10 ~ jif^2")


def test_unsupported_exponent():
    with pytest.raises(FormulaError, match="unsupported exponent"):
        parse_formula("y ~ x + x^3")


def test_response_reuse_rejected():
    with pytest.raises(FormulaError, match="reused"):
        parse_formula("y ~ x + y")


def test_duplicate_term_rejected():
    with pytest.raises(FormulaError, match="duplicate"):
        parse_formula("y ~ x + x")


def test_syntax_error_carries_position():
    with pytest.raises(FormulaError) as exc:
        parse_formula("y ~ x + + z")
    assert exc.value.position == 8
    with pytest.raises(FormulaError) as exc:
        parse_formula("y ~ x ? z")
    assert exc.value.position == 6


def test_full_model_has_15_columns(corpus15k):
    cfg, ds = corpus15k
    spec = parse_formula(cfg.formula)
    assert len(spec.terms) == 9
    design = build_design(ds, spec)
    assert design.k == 15  # 1 + 3 + 2 + 3 + 6


def test_dummy_coding_and_squares(toy_ds):
    design = build_design(toy_ds, parse_formula("y ~ C(g) + x + x^2"))
    tm = design.term_map
    assert tm.labels == ("intercept", "g=b", "g=c", "x", "x^2")
    assert tm.reference["g"] == "a"
    # row 2 has g=c, x=2.0
    assert design.X[2].tolist() == [1.0, 0.0, 1.0, 2.0, 4.0]
    assert (design.X[:, 0] == 1.0).all()
    # per factor at most one indicator active
    assert (design.X[:, 1] + design.X[:, 2] <= 1.0).all()


def test_reference_override(toy_ds):
    design = build_design(toy_ds, parse_formula("y ~ C(g) + x"),
                          reference={"g": "c"})
    assert design.term_map.reference["g"] == "c"
    assert design.term_map.labels == ("intercept", "g=a", "g=b", "x")


@pytest.mark.parametrize("var", ["nope", "x", ""])
def test_reference_for_non_factor_rejected(toy_ds, var):
    with pytest.raises(FormulaError, match="not a factor term"):
        build_design(toy_ds, parse_formula("y ~ C(g) + x"), reference={var: "a"})


def test_level_order_override(toy_ds, tmp_path):
    # the level order comes from the schema, and its first level is the reference
    lm.to_csv(toy_ds, tmp_path / "toy.csv")
    ds = lm.load_csv(tmp_path / "toy.csv", [
        ("y", "binary"), lm.ColumnSpec("g", "categorical", levels=("c", "b", "a")),
        ("x", "continuous")])
    design = build_design(ds, parse_formula("y ~ C(g) + x"))
    assert design.term_map.labels == ("intercept", "g=b", "g=a", "x")
    assert design.term_map.reference["g"] == "c"


def test_stored_model_on_data_with_an_unseen_level(toy_fit, toy_ds, tmp_path):
    # re-applying a stored model pins its level order through the schema, so a
    # level the model never saw is an error, never coded as the reference
    fr, _ = toy_fit
    lm.to_csv(toy_ds, tmp_path / "toy.csv")
    lines = (tmp_path / "toy.csv").read_text().splitlines()
    lines[1] = lines[1].replace(",a,", ",d,")
    (tmp_path / "new.csv").write_text("\n".join(lines) + "\n")
    schema = [("y", "binary"),
              lm.ColumnSpec("g", "categorical", levels=fr.term_map.factor_levels["g"]),
              ("x", "continuous")]
    spec = parse_formula("y ~ C(g) + x + x^2")
    same = build_design(lm.load_csv(tmp_path / "toy.csv", schema), spec,
                        reference=fr.term_map.reference)
    assert same.term_map == fr.term_map
    with pytest.raises(lm.DataError, match="unknown level 'd' for categorical column 'g'"):
        build_design(lm.load_csv(tmp_path / "new.csv", schema), spec,
                     reference=fr.term_map.reference)


def test_build_design_errors(toy_ds):
    with pytest.raises(lm.DataError, match="no column"):
        build_design(toy_ds, parse_formula("y ~ nope"))
    with pytest.raises(FormulaError, match="requires a categorical"):
        build_design(toy_ds, parse_formula("y ~ C(x)"))
    with pytest.raises(FormulaError, match="wrapped in C"):
        build_design(toy_ds, parse_formula("y ~ g"))
    # three declared levels, one observed: the check counts observed levels
    single = lm.Dataset((toy_ds.column("y"), toy_ds.column("x"),
                         Column("g", "categorical", np.zeros(16, np.int64),
                                ("a", "b", "c"))))
    with pytest.raises(FormulaError, match="fewer than 2"):
        build_design(single, parse_formula("y ~ C(g) + x"))


def _with_binary_b(ds):
    return lm.Dataset((ds.column("y"), Column("b", "binary", ds.column("y").values)))


@pytest.mark.parametrize("make, message", [
    (lambda ds: parse_formula("y ~ x z"), r"expected '\+' or end of formula at position 6"),
    (lambda ds: build_design(ds, parse_formula("x ~ C(g)")),
     "response 'x' must be a binary column"),
    (lambda ds: build_design(ds, parse_formula("y ~ C(g)"), reference={"g": "zz"}),
     "reference level 'zz' unknown for 'g'"),
    (lambda ds: build_design(_with_binary_b(ds), parse_formula("y ~ b + b^2")),
     "squared term needs a continuous column, got binary"),
    (lambda ds: lm.TermMap(columns=(ColumnRole("x", IDENTITY),), reference={},
                           factor_levels={}), "column 0 must be the intercept"),
    (lambda ds: lm.DesignMatrix(X=np.ones((3, 2)), y=np.ones(2), term_map=build_design(
        ds, parse_formula("y ~ x")).term_map), "design shapes disagree"),
], ids=["syntax", "response", "reference", "square", "intercept", "shapes"])
def test_a_malformed_formula_term_map_or_design_is_named(toy_ds, make, message):
    with pytest.raises(FormulaError, match=message):
        make(toy_ds)


def test_overflowing_square_is_named():
    def design(x, formula):
        ds = lm.Dataset((Column("y", "binary", np.array([1.0, 0.0, 1.0])),
                         Column("x", "continuous", np.array([1.0, x, 2.0]))))
        return build_design(ds, parse_formula(formula))

    # the design names the first column beyond its bound: x^2 of 1e100, or x
    # of 1e200 before its square, which overflows to inf; pyproject turns the
    # overflow warning into an error, so this also checks that it is silenced
    for x, formula, column in ((1e100, "y ~ x + x^2", r"x\^2"), (1e200, "y ~ x + x^2", "x"),
                               (1e200, "y ~ x", "x")):
        with pytest.raises(FormulaError, match=rf"^design column {column} holds 1e\+200: "):
            design(x, formula)
    assert design(1e100, "y ~ x").X[1, 1] == 1e100


def test_substitute_factor(toy_ds):
    design = build_design(toy_ds, parse_formula("y ~ C(g) + x + x^2"))
    tm = design.term_map
    row = design.X[1]  # g=b
    out = substitute_matrix(row, tm, "g", "a")
    assert out[1] == 0.0 and out[2] == 0.0          # reference: all indicators 0
    assert out[3] == row[3] and out[4] == row[4]    # x columns untouched
    assert substitute_matrix(row, tm, "g", "c").tolist()[1:3] == [0.0, 1.0]


def test_substitute_linked_square(toy_ds):
    design = build_design(toy_ds, parse_formula("y ~ C(g) + x + x^2"))
    out = substitute_matrix(design.X[0], design.term_map, "x", 10.0)
    assert out[3] == 10.0 and out[4] == 100.0
    assert out[1] == design.X[0][1] and out[2] == design.X[0][2]


def test_substitute_round_trip(toy_ds):
    design = build_design(toy_ds, parse_formula("y ~ C(g) + x + x^2"))
    tm = design.term_map
    row = design.X[5]
    moved = substitute_matrix(row, tm, "x", 42.0)
    back = substitute_matrix(moved, tm, "x", float(row[3]))
    assert np.array_equal(back, row)
    lv = "c" if row[2] == 1.0 else ("b" if row[1] == 1.0 else "a")
    back = substitute_matrix(substitute_matrix(row, tm, "g", "a"), tm, "g", lv)
    assert np.array_equal(back, row)


def test_substitute_contract_errors(toy_ds):
    design = build_design(toy_ds, parse_formula("y ~ C(g) + x"))
    tm = design.term_map
    with pytest.raises(KeyError):
        substitute_matrix(design.X[0], tm, "z", 1.0)
    with pytest.raises(KeyError):
        substitute_matrix(design.X[0], tm, "g", "unknown")
    with pytest.raises(ValueError):
        substitute_matrix(design.X[0], tm, "x", float("nan"))


def test_substitute_matrix_matches_rowwise(toy_ds):
    design = build_design(toy_ds, parse_formula("y ~ C(g) + x + x^2"))
    tm = design.term_map
    full = substitute_matrix(design.X, tm, "x", 3.5)
    for i in range(design.n):
        assert np.array_equal(full[i], substitute_matrix(design.X[i], tm, "x", 3.5))


def test_design_matches_naive_row_evaluator(toy_ds):
    design = build_design(toy_ds, parse_formula("y ~ C(g) + x + x^2"))
    g = toy_ds.column("g")
    oracle = ToyModel(
        factors={"g": ("b", "c")},
        continuous={"x": True},
        raw={"g": [g.levels[c] for c in g.values],
             "x": list(toy_ds.column("x").values)},
    )
    for i in range(design.n):
        assert design.X[i].tolist() == oracle.row(i, {})


def test_term_map_serialization_round_trip(toy_ds):
    design = build_design(toy_ds, parse_formula("y ~ C(g) + x + x^2"))
    tm = design.term_map
    back = lm.TermMap.from_dict(tm.to_dict())
    assert back == tm


def _bad_layout(d: dict, case: str) -> dict:
    cols = d["columns"]  # intercept, g=b, g=c, x, x^2
    if case == "reference_empty":
        d["reference"] = {}
    elif case == "reference_unknown":
        d["reference"]["g"] = "z"
    elif case == "reference_stray":
        d["reference"]["x"] = "a"
    elif case == "level_null":
        cols[1]["level"] = None
    elif case == "levels_reordered":
        cols[1]["level"], cols[2]["level"] = "c", "b"
    elif case == "indicator_missing":
        del cols[2]
    elif case == "indicator_of_non_factor":
        cols.append({"source": "x", "transform": "indicator", "level": "b"})
    elif case == "square_without_linear":
        del cols[3]
    return d


@pytest.mark.parametrize("case, message", [
    ("reference_empty", "name exactly the factors"),
    ("reference_unknown", "reference level 'z' of factor 'g'"),
    ("reference_stray", "name exactly the factors"),
    ("level_null", "indicator columns of factor 'g'"),
    ("levels_reordered", "indicator columns of factor 'g'"),
    ("indicator_missing", "indicator columns of factor 'g'"),
    ("indicator_of_non_factor", "belongs to no factor"),
    ("square_without_linear", "has no linear column"),
])
def test_term_map_rejects_inconsistent_layout(toy_ds, case, message):
    tm = build_design(toy_ds, parse_formula("y ~ C(g) + x + x^2")).term_map
    with pytest.raises(FormulaError, match=message):
        lm.TermMap.from_dict(_bad_layout(tm.to_dict(), case))


def test_term_map_lookups(toy_ds):
    tm = build_design(toy_ds, parse_formula("y ~ C(g) + x + x^2 + z")).term_map
    assert [tm.indicator_col("g", lv) for lv in "abc"] == [None, 1, 2]
    assert (tm.linear_col("x"), tm.square_col("x")) == (3, 4)
    assert (tm.linear_col("z"), tm.square_col("z")) == (5, None)
    assert tm.indicator_col("x", "b") is None
    with pytest.raises(KeyError):
        tm.linear_col("g")
    # the lookup dict stays out of equality, repr and the serialized form
    assert lm.TermMap.from_dict(tm.to_dict()) == tm
    assert "_index" not in repr(tm) and "_index" not in tm.to_dict()


def test_unknown_column_transform_rejected(toy_ds):
    with pytest.raises(FormulaError, match="unknown column transform 'cube'"):
        ColumnRole("x", "cube")
    d = build_design(toy_ds, parse_formula("y ~ x + x^2")).term_map.to_dict()
    d["columns"][-1]["transform"] = "cube"
    with pytest.raises(FormulaError, match="unknown column transform"):
        lm.TermMap.from_dict(d)
