import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import logitmargins as lm
from logitmargins.dataset import KINDS, Column, DataError

SCHEMA = [("top10", "binary"), ("univ", "categorical"), ("jif", "continuous")]


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_clean_file(tmp_path):
    p = write(tmp_path, "top10,univ,jif\n1,u1,2.5\n0,u2,1.0\n0,u1,4.0\n")
    ds = lm.load_csv(p, SCHEMA)
    assert ds.n_rows == 3
    assert ds.n_dropped == 0
    assert ds.column("univ").levels == ("u1", "u2")


def test_listwise_deletion(tmp_path):
    p = write(tmp_path, "top10,univ,jif\n1,u1,2.5\n0,u2,\n0,u1,NA\n1,u2,4.0\n")
    ds = lm.load_csv(p, SCHEMA)
    assert ds.n_rows == 2
    assert ds.n_dropped == 2


def test_invalid_binary_value(tmp_path):
    p = write(tmp_path, "top10,univ,jif\n2,u1,2.5\n")
    with pytest.raises(DataError, match="invalid binary"):
        lm.load_csv(p, SCHEMA)


def test_non_numeric_continuous(tmp_path):
    p = write(tmp_path, "top10,univ,jif\n1,u1,oops\n")
    with pytest.raises(DataError, match="non-numeric"):
        lm.load_csv(p, SCHEMA)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        lm.load_csv(tmp_path / "gone.csv", SCHEMA)


def test_header_must_cover_schema(tmp_path):
    p = write(tmp_path, "top10,jif\n1,2.0\n")
    with pytest.raises(DataError, match="missing column"):
        lm.load_csv(p, SCHEMA)


def test_empty_after_filtering(tmp_path):
    p = write(tmp_path, "top10,univ,jif\n1,u1,\n")
    with pytest.raises(DataError, match="no rows left"):
        lm.load_csv(p, SCHEMA)


def test_declared_levels_pin_order_and_reject_unknown(tmp_path):
    p = write(tmp_path, "top10,univ,jif\n1,u2,2.0\n0,u1,3.0\n")
    spec = [("top10", "binary"),
            lm.ColumnSpec("univ", "categorical", levels=("u1", "u2")),
            ("jif", "continuous")]
    ds = lm.load_csv(p, spec)
    assert ds.column("univ").levels == ("u1", "u2")
    bad = [("top10", "binary"),
           lm.ColumnSpec("univ", "categorical", levels=("u1",)),
           ("jif", "continuous")]
    with pytest.raises(DataError, match="unknown level"):
        lm.load_csv(p, bad)


def test_summarize_binary_percentage():
    ds = lm.Dataset("b", (Column("y", "binary", np.array([1, 0, 0, 0, 1.0])),))
    row = lm.summarize(ds).rows[0]
    assert row.value == pytest.approx(40.0)


def test_summarize_continuous_moments():
    ds = lm.Dataset("c", (Column("x", "continuous", np.array([1.0, 2.0, 3.0])),))
    row = lm.summarize(ds).rows[0]
    assert (row.value, row.sd, row.vmin, row.vmax) == (2.0, 1.0, 1.0, 3.0)


def test_summarize_single_row_has_no_sd():
    ds = lm.Dataset("c", (Column("x", "continuous", np.array([4.2])),))
    assert lm.summarize(ds).rows[0].sd is None


def test_categorical_percentages_sum_to_100(toy_ds):
    table = lm.summarize(toy_ds)
    shares = [r.value for r in table.rows if r.variable == "g"]
    assert sum(shares) == pytest.approx(100.0, abs=0.1)


def test_summarize_permutation_invariant(toy_ds, tmp_path):
    perm = np.random.default_rng(5).permutation(toy_ds.n_rows)
    cols = [Column(c.name, c.kind, c.values[perm].copy(), c.levels)
            for c in toy_ds.columns]
    shuffled = lm.Dataset("toy", tuple(cols))
    a = lm.summarize(toy_ds).rows
    b = lm.summarize(shuffled).rows
    for ra, rb in zip(a, b):
        assert ra.variable == rb.variable and ra.level == rb.level
        assert ra.value == pytest.approx(rb.value, abs=1e-12)


def test_csv_round_trip(toy_ds, tmp_path):
    p = tmp_path / "rt.csv"
    lm.to_csv(toy_ds, p)
    back = lm.load_csv(p, lm.schema_of(toy_ds), name="toy")
    assert back == toy_ds


# level tokens survive the CSV unchanged: no surrounding blanks, never a
# missing token; commas and quotes exercise the writer's quoting
LEVEL = st.text(alphabet='ab ,"', min_size=1, max_size=4).filter(
    lambda t: t == t.strip())


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 8))
    kinds = draw(st.permutations(KINDS)) + draw(st.lists(st.sampled_from(KINDS),
                                                         max_size=2))
    cols = []
    for j, kind in enumerate(kinds):
        if kind == "categorical":
            pool = draw(st.lists(LEVEL, min_size=1, max_size=3, unique=True))
            tokens = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            levels = tuple(dict.fromkeys(tokens))  # first-appearance order
            codes = np.array([levels.index(t) for t in tokens], dtype=np.int64)
            cols.append(Column(f"c{j}", kind, codes, levels))
        else:
            values = (st.sampled_from((0.0, 1.0)) if kind == "binary"
                      else st.floats(allow_nan=False, allow_infinity=False))
            cols.append(Column(f"c{j}", kind, np.array(
                draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)))
    return lm.Dataset("prop", tuple(cols))


@given(ds=datasets())
def test_csv_round_trip_any_dataset(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        lm.to_csv(ds, path)
        assert lm.load_csv(path, lm.schema_of(ds), name="prop") == ds


@pytest.mark.parametrize("kind, values, levels, message", [
    ("interval", [1.0], None, "unknown column kind"),
    ("continuous", [1.0], ("a",), "levels given for non-categorical"),
    ("binary", [1.0], ("a",), "levels given for non-categorical"),
    ("categorical", [0], ("a", "a"), "duplicate levels"),
    ("categorical", [0], None, "missing or duplicate levels"),
    ("categorical", [0, 2], ("a", "b"), "codes out of range"),
    ("categorical", [-1], ("a", "b"), "codes out of range"),
    ("categorical", [0.0, 1.0], ("a", "b"), "must be integers"),
    ("binary", [0.0, 0.5], None, "other than 0/1"),
    ("binary", [float("nan")], None, "other than 0/1"),
])
def test_invalid_column_raises(kind, values, levels, message):
    with pytest.raises(DataError, match=message):
        Column("c", kind, np.array(values), levels)


def test_sniff_schema(tmp_path):
    p = write(tmp_path, "y,g,x\n1,u1,2.5\n0,u2,1\n1,u1,NA\n")
    kinds = {s.name: s.kind for s in lm.sniff_schema(p)}
    assert kinds == {"y": "binary", "g": "categorical", "x": "continuous"}


def test_synthetic_university_shares_near_targets(corpus15k):
    # generator targets: 7.4 / 3.3 / 55.4 / 33.9 percent
    _, ds = corpus15k
    univ = ds.column("univ")
    targets = {"univ1": 7.4, "univ2": 3.3, "univ3": 55.4, "univ4": 33.9}
    for level, pct in targets.items():
        share = 100.0 * np.mean(univ.values == univ.levels.index(level))
        assert abs(share - pct) <= 1.5, (level, share)
