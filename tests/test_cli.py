import json
import subprocess
import sys

import numpy as np
import pytest

import logitmargins as lm

MODEL3 = ("top10 ~ C(univ) + C(subject) + C(doctype) + jif + jif^2 + years "
          "+ authors + pages + pages^2")
MODEL1 = "top10 ~ C(univ)"
REFS = ["--ref", "univ=univ1", "--ref", "subject=engtech", "--ref", "doctype=article"]
# pins level order so the dummy coding does not depend on row order
SCHEMA = ("top10:binary,univ:categorical[univ1|univ2|univ3|univ4],"
          "subject:categorical[engtech|medhealth|natsci],"
          "doctype:categorical[article|note|proceedings|review],"
          "jif:continuous,years:continuous,authors:continuous,pages:continuous")


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "logitmargins", *args],
                          capture_output=True, text=True, **kwargs)


def cap_address_space():
    # a grid built by mistake then fails fast with a MemoryError instead of
    # allocating tens of GB
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus plus a fitted model JSON, shared by the CLI tests."""
    ws = tmp_path_factory.mktemp("cli")
    r = run_cli("synth", "--n", "3000", "--seed", "42", "--out", str(ws / "s.csv"))
    assert r.returncode == 0, r.stderr
    r = run_cli("fit", "--data", str(ws / "s.csv"), "--model", MODEL3, *REFS,
                "--schema", SCHEMA, "--out", str(ws / "m.json"))
    assert r.returncode == 0, r.stderr
    return ws


def test_synth_rejects_zero_rows(tmp_path):
    r = run_cli("synth", "--n", "0", "--seed", "1", "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 1
    assert "positive" in r.stderr


def test_synth_then_summarize_matches_targets(workspace):
    r = run_cli("summarize", "--data", str(workspace / "s.csv"))
    assert r.returncode == 0
    out = r.stdout
    # marginal targets: univ1 7.4, univ3 55.4, artifacts of the generator
    def pct(name):
        line = next(l for l in out.splitlines() if l.startswith(name))
        return float(line.split("%")[0].split()[-1])
    assert abs(pct("univ=univ1") - 7.4) <= 1.5
    assert abs(pct("univ=univ3") - 55.4) <= 2.0
    assert abs(pct("top10") - 20.7) <= 3.0


def test_summarize_single_row_prints_dash_for_sd(tmp_path):
    (tmp_path / "one.csv").write_text("y,x\n1,3.5\n")
    r = run_cli("summarize", "--data", str(tmp_path / "one.csv"))
    assert r.returncode == 0
    line = next(l for l in r.stdout.splitlines() if l.startswith("x"))
    assert "—" in line


def test_fit_baseline_model_prints_table(workspace):
    r = run_cli("fit", "--data", str(workspace / "s.csv"), "--model", MODEL1,
                "--ref", "univ=univ1")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert any(l.startswith("intercept") for l in lines)
    for level in ("univ2", "univ3", "univ4"):
        assert any(l.startswith(f"univ={level}") for l in lines)
    assert not any(l.startswith("univ=univ1") for l in lines)  # reference omitted
    for footer in ("N", "pseudo R2", "AIC", "BIC", "chi2", "D.F."):
        assert any(l.startswith(footer) for l in lines), footer
    assert "* p < 0.05, ** p < 0.01, *** p < 0.001" in r.stdout


def test_fit_reference_override_changes_parameterization(workspace):
    r = run_cli("fit", "--data", str(workspace / "s.csv"), "--model", MODEL1,
                "--ref", "univ=univ3")
    assert r.returncode == 0
    assert "univ=univ1" in r.stdout
    assert not any(l.startswith("univ=univ3") for l in r.stdout.splitlines())


def test_bad_formula_exits_2_with_caret(workspace):
    r = run_cli("fit", "--data", str(workspace / "s.csv"),
                "--model", "top10 ~ jif + + pages")
    assert r.returncode == 2
    err_lines = r.stderr.splitlines()
    assert any("position" in l for l in err_lines)
    caret = err_lines[-1]
    assert caret.strip() == "^"
    # the caret column matches the reported position
    formula_line = err_lines[-2]
    assert formula_line[caret.index("^")] == "+"


def test_model_json_has_17_digit_numbers(workspace):
    text = (workspace / "m.json").read_text()
    d = json.loads(text)
    assert d["k"] == 15 and d["converged"] is True
    assert set(d) == {"formula", "term_map", "beta", "cov", "ll", "ll0", "n", "k",
                      "converged", "iterations"}
    # every float round-trips exactly through the printed representation
    fr, _ = lm.from_json(text)
    assert lm.to_json(fr, d["formula"]) == text


def test_margins_discrete_block_layout(workspace):
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), "--aap", "C(univ)",
                "--table", str(workspace / "block.tsv"))
    assert r.returncode == 0, r.stderr
    rows = (workspace / "block.tsv").read_text().strip().splitlines()
    assert rows[0].split("\t") == ["label", "at", "estimate", "std_err", "z", "p",
                                   "ci_low", "ci_high"]
    labels = [row.split("\t")[0] for row in rows[1:]]
    assert labels[:4] == ["AAP univ=univ1", "AAP univ=univ2", "AAP univ=univ3",
                          "AAP univ=univ4"]
    assert labels[4:] == ["AME univ=univ2-univ1", "AME univ=univ3-univ1",
                          "AME univ=univ4-univ1"]


def test_margins_curve_grid_and_plot(workspace):
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), "--at", "jif=0:35:1",
                "--plot", str(workspace / "f1.svg"),
                "--table", str(workspace / "f1.tsv"))
    assert r.returncode == 0, r.stderr
    tsv = (workspace / "f1.tsv").read_text().strip().splitlines()
    assert len(tsv) == 37  # header + 36 grid points
    svg = (workspace / "f1.svg").read_text()
    assert svg.startswith("<svg") and "polygon" in svg
    csv_rows = (workspace / "f1.svg.csv").read_text().strip().splitlines()
    assert csv_rows[0] == "series,at,estimate,ci_low,ci_high"
    assert len(csv_rows) == 37
    # companion CSV numbers equal the TSV numbers exactly
    for tsv_row, csv_row in zip(tsv[1:], csv_rows[1:]):
        t = tsv_row.split("\t")
        c = csv_row.split(",")
        assert float(c[1]) == float(t[1])
        assert float(c[2]) == float(t[2])
        assert float(c[3]) == float(t[6]) and float(c[4]) == float(t[7])


def test_margins_bare_at_uses_default_grid(workspace, tmp_path):
    # `--at jif` without a range is the documented jif=0:35:1 grid
    tables = []
    for i, at in enumerate(("jif", "jif=0:35:1")):
        out = tmp_path / f"{i}.tsv"
        r = run_cli("margins", "--model", str(workspace / "m.json"),
                    "--data", str(workspace / "s.csv"), "--at", at, "--table", str(out))
        assert r.returncode == 0, r.stderr
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_margins_aprv_four_curves(workspace):
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), "--over", "C(univ)",
                "--at", "jif=0:13:0.5", "--table", str(workspace / "f5.tsv"))
    assert r.returncode == 0, r.stderr
    rows = (workspace / "f5.tsv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4 * 27
    labels = {row.split("\t")[0] for row in rows}
    assert labels == {f"APRV univ=univ{i}" for i in (1, 2, 3, 4)}


def test_margins_dydx_and_atmeans(workspace):
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), "--at", "pages=1:25:1",
                "--dydx")
    assert r.returncode == 0
    assert "AME pages" in r.stdout
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), "--aap", "C(univ)", "--atmeans")
    assert r.returncode == 0
    assert "APM univ=univ1" in r.stdout and "MEM univ=univ2-univ1" in r.stdout


def test_margins_extrapolation_warning(workspace):
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), "--at", "jif=0:80:20")
    assert r.returncode == 0
    assert "outside the observed range" in r.stderr


def test_margins_invalid_combinations(workspace):
    base = ["margins", "--model", str(workspace / "m.json"),
            "--data", str(workspace / "s.csv")]
    r = run_cli(*base, "--aap", "C(univ)", "--ame", "C(univ)")
    assert r.returncode == 1 and "mutually exclusive" in r.stderr
    r = run_cli(*base, "--over", "C(univ)")
    assert r.returncode == 1 and "--at" in r.stderr
    r = run_cli(*base, "--aap", "jif")
    assert r.returncode == 1
    r = run_cli(*base)
    assert r.returncode == 1 and "nothing requested" in r.stderr


# a ,BASE is honoured on a factor's effects and rejected where nothing uses it
@pytest.mark.parametrize("flags, expected", [
    pytest.param(["--aap", "C(univ),univ2"],
                 ["AAP univ=univ1", "AAP univ=univ2", "AAP univ=univ3", "AAP univ=univ4",
                  "AME univ=univ1-univ2", "AME univ=univ3-univ2", "AME univ=univ4-univ2"],
                 id="aap-factor-base"),
    pytest.param(["--aap", "jif,3", "--at", "jif=0:1:1"], "takes no base or discrete",
                 id="aap-continuous-base"),
    pytest.param(["--ame", "jif,3"], "apply to a factor target", id="ame-continuous-base"),
    pytest.param(["--over", "C(univ),univ2", "--at", "jif=0:1:1"],
                 "takes no base or discrete", id="over-base-without-dydx"),
])
def test_margins_base_level(workspace, tmp_path, flags, expected):
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), *flags,
                "--table", str(tmp_path / "t.tsv"))
    if isinstance(expected, list):
        assert r.returncode == 0, r.stderr
        rows = (tmp_path / "t.tsv").read_text().strip().splitlines()[1:]
        assert [row.split("\t")[0] for row in rows] == expected
    else:
        lines = r.stderr.splitlines()
        assert r.returncode == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
        assert expected in lines[0]


# each flag here would be ignored by the request it modifies
@pytest.mark.parametrize("flags", [
    ["--aap", "C(univ)", "--discrete"],
    ["--ame", "C(univ)", "--discrete"],
    ["--at", "jif=0:1:1", "--discrete"],
    ["--aap", "jif", "--at", "jif=0:1:1", "--discrete"],
    ["--over", "C(univ)", "--at", "jif=0:1:1", "--discrete"],
    ["--over", "C(univ)", "--at", "jif=0:1:1", "--atmeans", "--discrete"],
    ["--aap", "C(univ)", "--dydx"],
    ["--ame", "C(univ)", "--dydx"],
    ["--ame", "jif", "--at", "jif=0:1:1", "--dydx"],
], ids=" ".join)
def test_margins_rejects_an_ignored_flag(workspace, flags):
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), *flags)
    lines = r.stderr.splitlines()
    assert r.returncode == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr


def test_margins_rejects_a_level_the_model_never_saw(workspace, tmp_path):
    # the data load through the model's level order, so an extra level is an
    # error; it is never coded as the reference
    text = (workspace / "s.csv").read_text().splitlines()
    header = text[0].split(",").index("univ")
    row = text[1].split(",")
    row[header] = "univ5"
    (tmp_path / "new.csv").write_text("\n".join([text[0], ",".join(row), *text[2:]]) + "\n")
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(tmp_path / "new.csv"), "--aap", "C(univ)")
    lines = r.stderr.splitlines()
    assert r.returncode == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    assert "unknown level 'univ5'" in lines[0]


def test_margins_bootstrap_runs(workspace):
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), "--ame", "C(univ)",
                "--vce", "bootstrap", "--reps", "100", "--seed", "9",
                "--table", str(workspace / "boot.tsv"))
    assert r.returncode == 0, r.stderr
    rows = (workspace / "boot.tsv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3
    assert all(float(row.split("\t")[3]) > 0 for row in rows)


def test_outputs_byte_identical_across_runs(workspace, tmp_path):
    outs = []
    for d in ("r1", "r2"):
        sub = tmp_path / d
        sub.mkdir()
        r = run_cli("margins", "--model", str(workspace / "m.json"),
                    "--data", str(workspace / "s.csv"), "--over", "C(univ)",
                    "--at", "jif=0:13:0.5", "--plot", str(sub / "p.svg"),
                    "--table", str(sub / "t.tsv"),
                    "--vce", "bootstrap", "--reps", "100", "--seed", "4")
        assert r.returncode == 0, r.stderr
        outs.append(sub)
    for name in ("p.svg", "p.svg.csv", "t.tsv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_unwritable_output_exits_nonzero(workspace, tmp_path):
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), "--aap", "C(univ)",
                "--table", str(tmp_path / "no" / "dir" / "t.tsv"))
    assert r.returncode == 1


def test_missing_model_file(workspace):
    r = run_cli("margins", "--model", str(workspace / "nope.json"),
                "--data", str(workspace / "s.csv"), "--aap", "C(univ)")
    assert r.returncode == 1
    assert "cannot read model" in r.stderr


def test_malformed_model_json_exits_1(workspace, tmp_path):
    d = json.loads((workspace / "m.json").read_text())
    d["cov"][0][1] = d["cov"][0][1] + 1.0  # no longer symmetric
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    r = run_cli("margins", "--model", str(bad), "--data", str(workspace / "s.csv"),
                "--aap", "C(univ)")
    assert r.returncode == 1
    assert "cannot read model" in r.stderr and "symmetric" in r.stderr


# a field of the wrong type or an impossible value, a term map whose columns
# disagree with its factors, and a term map that loads but differs from the
# one its formula builds on the data, each give one error line
@pytest.mark.parametrize("case", ["k_null", "renamed_column", "converged_str",
                                  "reference_empty", "level_null", "n_negative"])
def test_mistyped_model_json_exits_1(workspace, tmp_path, case):
    d = json.loads((workspace / "m.json").read_text())
    if case == "k_null":
        d["k"] = None
    elif case == "converged_str":
        d["converged"] = "no"
    elif case == "reference_empty":
        d["term_map"]["reference"] = {}
    elif case == "level_null":
        d["term_map"]["columns"][1]["level"] = None
    elif case == "n_negative":
        d["n"] = -5
    else:
        d["term_map"]["columns"][-1]["source"] = "jif"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    r = run_cli("margins", "--model", str(bad), "--data", str(workspace / "s.csv"),
                "--aap", "C(univ)")
    lines = r.stderr.splitlines()
    assert r.returncode == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr


# each malformed fit flag: one error line, exit 1, never a traceback
@pytest.mark.parametrize("flag, value", [
    pytest.param("--schema", SCHEMA.replace("univ4]", "univ4"), id="unterminated-levels"),
    pytest.param("--schema", SCHEMA.replace("jif:continuous", "jif"), id="no-kind"),
    pytest.param("--schema", SCHEMA.replace("jif:continuous", "jif:interval"),
                 id="unknown-kind"),
    pytest.param("--ref", "univ", id="no-equals"),
    pytest.param("--ref", "univ=univ9", id="unknown-level"),
    pytest.param("--ref", "nope=univ1", id="unknown-variable"),
    pytest.param("--ref", "=univ1", id="empty-variable"),
])
def test_malformed_fit_flag_exits_1(workspace, flag, value):
    flags = {"--schema": SCHEMA, "--ref": "univ=univ1", flag: value}
    r = run_cli("fit", "--data", str(workspace / "s.csv"), "--model", MODEL3,
                *(x for item in flags.items() for x in item))
    lines = r.stderr.splitlines()
    assert r.returncode == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr


def test_unknown_grid_variable_exits_1(workspace):
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), "--at", "foo=0:2:1")
    assert r.returncode == 1
    assert "'foo' is not a continuous variable" in r.stderr


# the last grid would have 1e9 points, above cli.MAX_GRID_POINTS
@pytest.mark.parametrize("at", ["jif=a:b:c", "jif=0:1e400:1", "jif=nan:1:1", "jif=0:1e9:1"])
def test_malformed_grid_range_exits_1(workspace, at):
    r = run_cli("margins", "--model", str(workspace / "m.json"),
                "--data", str(workspace / "s.csv"), "--at", at,
                preexec_fn=cap_address_space, timeout=120)
    lines = r.stderr.splitlines()
    assert r.returncode == 1
    assert len(lines) == 1 and lines[0].startswith("error: --at range"), r.stderr


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of the import time, and the package needs only
    # the normal cdf and quantile; concurrent.futures has no user, and
    # statistics (with decimal and fractions) is only for non-95% levels
    modules = ["scipy.stats", "concurrent.futures", "statistics"]
    code = f"import sys, logitmargins; print([m for m in {modules} if m in sys.modules])"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_fit_and_margins_never_import_scipy(workspace, tmp_path):
    # scipy.linalg and scipy.special cost most of a CLI call's import time;
    # only the synth generator and the naming of dependent columns use scipy.
    # numpy.ma (about 13 ms of import) has no user either
    script = f"""
import sys
import logitmargins
from logitmargins import cli
def heavy(m):
    return m in ("scipy", "numpy.ma") or m.startswith(("scipy.", "numpy.ma."))
loaded = [m for m in sys.modules if heavy(m)]
assert not loaded, ("after import", loaded)
assert cli.main(["fit", "--data", {str(workspace / "s.csv")!r}, "--model", {MODEL3!r},
                 *{REFS!r}, "--schema", {SCHEMA!r},
                 "--out", {str(tmp_path / "m.json")!r}]) == 0
assert cli.main(["margins", "--model", {str(tmp_path / "m.json")!r},
                 "--data", {str(workspace / "s.csv")!r}, "--aap", "C(univ)"]) == 0
loaded = [m for m in sys.modules if heavy(m)]
assert not loaded, ("after fit and margins", loaded)
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "AAP univ=univ1" in r.stdout, r.stdout
