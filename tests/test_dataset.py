import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import logitmargins as lm
from logitmargins.dataset import KINDS, Column, DataError
from oracles import load_csv_rowwise, sniff_kinds_rowwise

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
    ds = lm.Dataset((Column("y", "binary", np.array([1, 0, 0, 0, 1.0])),))
    row = lm.summarize(ds)[0]
    assert row.value == pytest.approx(40.0)


def test_summarize_continuous_moments():
    ds = lm.Dataset((Column("x", "continuous", np.array([1.0, 2.0, 3.0])),))
    row = lm.summarize(ds)[0]
    assert (row.value, row.sd, row.vmin, row.vmax) == (2.0, 1.0, 1.0, 3.0)


def test_summarize_single_row_has_no_sd():
    ds = lm.Dataset((Column("x", "continuous", np.array([4.2])),))
    assert lm.summarize(ds)[0].sd is None


def test_categorical_percentages_sum_to_100(toy_ds):
    shares = [r.value for r in lm.summarize(toy_ds) if r.variable == "g"]
    assert sum(shares) == pytest.approx(100.0, abs=0.1)


def test_summarize_permutation_invariant(toy_ds, tmp_path):
    perm = np.random.default_rng(5).permutation(toy_ds.n_rows)
    cols = [Column(c.name, c.kind, c.values[perm].copy(), c.levels)
            for c in toy_ds.columns]
    shuffled = lm.Dataset(tuple(cols))
    a = lm.summarize(toy_ds)
    b = lm.summarize(shuffled)
    for ra, rb in zip(a, b):
        assert ra.variable == rb.variable and ra.level == rb.level
        assert ra.value == pytest.approx(rb.value, abs=1e-12)


def test_csv_round_trip(toy_ds, tmp_path):
    p = tmp_path / "rt.csv"
    lm.to_csv(toy_ds, p)
    back = lm.load_csv(p, lm.schema_of(toy_ds))
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
    return lm.Dataset(tuple(cols))


@given(ds=datasets())
def test_csv_round_trip_any_dataset(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        lm.to_csv(ds, path)
        assert lm.load_csv(path, lm.schema_of(ds)) == ds


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
    ("categorical", [0, 1], ("a", "b\rc"), "level 'b\\\\rc' of column 'c' holds a carriage"),
])
def test_invalid_column_raises(kind, values, levels, message):
    with pytest.raises(DataError, match=message):
        Column("c", kind, np.array(values), levels)


@pytest.mark.parametrize("columns, message", [
    ((Column("x", "continuous", np.ones(2)), Column("x", "binary", np.ones(2))),
     "column names are not unique"),
    ((Column("x", "continuous", np.ones(2)), Column("z", "continuous", np.ones(3))),
     r"ragged columns: lengths \[2, 3\]"),
    ((Column("x", "continuous", np.ones(0)),), "cannot summarize an empty dataset"),
], ids=["duplicate-names", "ragged", "empty"])
def test_an_invalid_dataset_or_summary_raises(columns, message):
    with pytest.raises(DataError, match=message):
        lm.summarize(lm.Dataset(columns))


# cells that exercise padding, both missing tokens, quoting, float() syntax,
# non-finite and non-numeric values and binaries out of range
CELL = st.sampled_from(["0", "1", " 1 ", "2", "-0", "2.5", " 1e3", "1_0", "inf", "nan",
                        "", " ", "NA", " NA", "na", "a", "b", " a", "a b", "x,y",
                        '"q"', "oops"])


@st.composite
def messy_csv(draw):
    """CSV text with blank lines, short and long rows and an optional BOM, and
    a schema over its header names plus one name it may lack."""
    # names are distinct as written; "x" and " x " collide once stripped
    header = draw(st.lists(st.sampled_from(("y", "g", "x", " x ", "")), min_size=1,
                           max_size=5, unique=True))
    rows = draw(st.lists(st.lists(CELL, min_size=len(header) - 1, max_size=len(header) + 1),
                         max_size=8))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if draw(st.booleans()):
            out.write("\n")
        writer.writerow(row or [""])
    stripped = sorted({h.strip() for h in header})
    names = draw(st.lists(st.sampled_from(stripped), min_size=1, max_size=3,
                          unique=True)) + draw(st.sampled_from([[]] * 9 + [["z"]]))
    schema = []
    for name in names:
        kind = draw(st.sampled_from(KINDS))
        levels = None
        if kind == "categorical" and draw(st.booleans()):
            levels = tuple(draw(st.lists(st.sampled_from(["a", "b", "a b", "x,y", "0"]),
                                         min_size=1, max_size=3, unique=True)))
        schema.append(lm.ColumnSpec(name, kind, levels))
    return draw(st.sampled_from(["", "\ufeff"])) + out.getvalue(), schema


def outcome(load, path, schema):
    try:
        ds = load(path, schema)
    except DataError as exc:
        return str(exc)
    return ds, ds.n_dropped


def sniffed(sniff, path):
    try:
        return sniff(path)
    except DataError as exc:
        return str(exc)


# most drawn files end in an error, so more examples reach a loaded dataset
@settings(max_examples=500)
@given(case=messy_csv())
def test_load_and_sniff_match_the_rowwise_reference(case):
    text, schema = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert outcome(lm.load_csv, path, schema) == outcome(load_csv_rowwise, path, schema)
        assert sniffed(lambda p: [s.kind for s in lm.sniff_schema(p)], path) \
            == sniffed(sniff_kinds_rowwise, path)


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_text("y,g,x\n1,u1,2.5\n0,u2,1\n", encoding="utf-8-sig")
    assert [s.name for s in lm.sniff_schema(p)] == ["y", "g", "x"]
    assert lm.load_csv(p, [("y", "binary")]).column("y").values.tolist() == [1.0, 0.0]


def test_sniff_schema(tmp_path):
    p = write(tmp_path, "y,g,x\n1,u1,2.5\n0,u2,1\n1,u1,NA\n")
    kinds = {s.name: s.kind for s in lm.sniff_schema(p)}
    assert kinds == {"y": "binary", "g": "categorical", "x": "continuous"}


def test_a_cell_beyond_the_header_is_an_error_unless_empty(tmp_path):
    # row 5 has a third cell under a two-name header; it used to be dropped unread
    rows = [f"{i % 2},{i}.5" for i in range(200)]
    rows[4] += ",7.5"
    p = write(tmp_path, "y,x\n" + "\n".join(rows) + "\n")
    message = "data row 5 has a cell '7.5' beyond the header's 2 columns"
    for read in (lambda p: lm.load_csv(p, [("y", "binary"), ("x", "continuous")]),
                 lm.sniff_schema):
        with pytest.raises(DataError, match=message):
            read(p)
    # a trailing delimiter, or a padded empty cell, is no cell
    rows[4] = "0,4.5, ,"
    rows[9] += ","
    p = write(tmp_path, "y,x\n" + "\n".join(rows) + "\n")
    assert lm.load_csv(p, [("y", "binary"), ("x", "continuous")]).n_rows == 200
    assert [s.kind for s in lm.sniff_schema(p)] == ["binary", "continuous"]


def test_synthetic_university_shares_near_targets(corpus15k):
    # generator targets: 7.4 / 3.3 / 55.4 / 33.9 percent
    _, ds = corpus15k
    univ = ds.column("univ")
    targets = {"univ1": 7.4, "univ2": 3.3, "univ3": 55.4, "univ4": 33.9}
    for level, pct in targets.items():
        share = 100.0 * np.mean(univ.values == univ.levels.index(level))
        assert abs(share - pct) <= 1.5, (level, share)
