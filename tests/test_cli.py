import csv
import json
import os
import subprocess
import sys
from xml.etree import ElementTree

import numpy as np
import pytest

import logitmargins as lm
from conftest import year_probe
from logitmargins import cli

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
    # -W error: a warning fails the call, as filterwarnings does in-process
    return subprocess.run([sys.executable, "-W", "error", "-m", "logitmargins", *args],
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


def outputs_at_1_and_2_threads(tmp_path, data, fit_flags, requests) -> list:
    """The bytes of ``fit`` and of each ``margins`` request's table, at
    ``OPENBLAS_NUM_THREADS`` 1 and 2."""
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        model = tmp_path / f"m{threads}.json"
        r = run_cli("fit", "--data", data, *fit_flags, "--out", str(model), env=env)
        assert r.returncode == 0, r.stderr
        files = [model]
        for name, flags in requests.items():
            table = tmp_path / f"{name}{threads}.tsv"
            r = run_cli("margins", "--model", str(model), "--data", data, *flags,
                        "--table", str(table), env=env)
            assert r.returncode == 0, r.stderr
            files.append(table)
        outputs.append([f.read_bytes() for f in files])
    return outputs


def test_outputs_do_not_depend_on_the_blas_thread_count(workspace, tmp_path):
    # every product summed over the data rows has an output of at most 16 x 16,
    # where OpenBLAS gave the same bits at 1 and 2 threads on every design tried
    requests = {"aap": ["--aap", "C(univ)"],
                "over": ["--over", "C(univ)", "--at", "jif=0:13:0.5"],
                "boot": ["--aap", "C(univ)", "--vce", "bootstrap", "--reps", "100",
                         "--seed", "21"]}
    outputs = outputs_at_1_and_2_threads(
        tmp_path, str(workspace / "s.csv"), ["--model", MODEL3, *REFS, "--schema", SCHEMA],
        requests)
    assert outputs[0] == outputs[1]


def test_outputs_of_a_wide_model_do_not_depend_on_the_blas_thread_count(tmp_path):
    # k = 22: the Hessian, score and margin gradients span several 16 x 16 tiles
    n, n_cont = 3000, 12
    rng = np.random.default_rng(5)
    f, g = rng.integers(0, 6, n), rng.integers(0, 4, n)
    x = rng.normal(size=(n, n_cont))
    eta = -0.5 + 0.3 * (f == 2) - 0.2 * g + x @ rng.normal(scale=0.3, size=n_cont)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    names = [f"x{j}" for j in range(1, n_cont + 1)]
    lines = [",".join(["y", "f", "g", *names])]
    lines += [",".join([str(y[i]), f"f{f[i]}", f"g{g[i]}", *map(repr, x[i].tolist())])
              for i in range(n)]
    data = tmp_path / "wide.csv"
    data.write_text("\n".join(lines) + "\n")
    model = "y ~ C(f) + C(g) + " + " + ".join(names) + " + x1^2"
    schema = ",".join(["y:binary", "f:categorical[f0|f1|f2|f3|f4|f5]",
                       "g:categorical[g0|g1|g2|g3]", *(f"{v}:continuous" for v in names)])
    requests = {"over": ["--over", "C(f)", "--at", "x1=-2:2:0.25"],
                "boot": ["--aap", "C(f)", "--vce", "bootstrap", "--reps", "100",
                         "--seed", "21"]}
    outputs = outputs_at_1_and_2_threads(
        tmp_path, str(data), ["--model", model, "--schema", schema], requests)
    assert len(json.loads(outputs[0][0])["beta"]) == 22
    assert outputs[0] == outputs[1]


def test_outputs_of_a_long_design_do_not_depend_on_the_blas_thread_count(tmp_path):
    # n = 40000: OpenBLAS splits a long sum between threads, so every product
    # summed over the data rows adds its partials over chunks of at most 8192
    n, n_cont = 40000, 11
    rng = np.random.default_rng(8)
    x = rng.normal(size=(n, n_cont))
    eta = 0.2 + x @ rng.normal(scale=0.3, size=n_cont)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    names = [f"x{j}" for j in range(1, n_cont + 1)]
    data = tmp_path / "long.csv"
    np.savetxt(data, np.column_stack([y, x]), fmt="%.17g", delimiter=",",
               header=",".join(["y", *names]), comments="")
    schema = ",".join(["y:binary", *(f"{v}:continuous" for v in names)])
    outputs = outputs_at_1_and_2_threads(
        tmp_path, str(data), ["--model", "y ~ " + " + ".join(names), "--schema", schema],
        {"ame": ["--ame", "x1"]})
    assert len(json.loads(outputs[0][0])["beta"]) == 12
    assert outputs[0] == outputs[1]


def test_synth_rejects_zero_rows(tmp_path):
    r = run_cli("synth", "--n", "0", "--seed", "1", "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 1
    assert "positive" in r.stderr


def test_synth_refuses_a_corpus_beyond_the_machine_memory(tmp_path):
    # 1e14 rows of 8 columns need 6.4e15 bytes: refused before anything is
    # drawn; the capped address space turns an attempt into a MemoryError
    r = run_cli("synth", "--n", "100000000000000", "--seed", "1",
                "--out", str(tmp_path / "x.csv"), preexec_fn=cap_address_space)
    assert r.returncode == 1 and r.stdout == ""
    line, = r.stderr.splitlines()
    assert line.startswith("error: corpus size 100000000000000 needs 6.4e+15 bytes for its "
                           "8 columns, more than the "), line
    assert not (tmp_path / "x.csv").exists()


def test_a_fit_beyond_the_capped_memory_is_one_error_line(tmp_path):
    # 400 levels give k = 400 and 80200 column products of 8000 rows, 4.8 GiB:
    # the design (26 MB) is built, the products cannot be under the 2 GiB cap
    rows = "".join(f"{(i // 400) % 2},l{i % 400}\n" for i in range(8000))
    (tmp_path / "wide.csv").write_text("y,g\n" + rows)
    r = run_cli("fit", "--data", str(tmp_path / "wide.csv"), "--model", "y ~ C(g)",
                "--out", str(tmp_path / "m.json"), preexec_fn=cap_address_space)
    assert r.returncode == 1 and "Traceback" not in r.stderr
    line, = r.stderr.splitlines()
    assert line.startswith("error: Unable to allocate "), line
    assert not (tmp_path / "m.json").exists()


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
    assert len(d["beta"]) == 15
    assert set(d) == {"formula", "term_map", "beta", "cov", "ll", "ll0", "n", "iterations"}
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


def test_plot_csv_quotes_a_label_with_a_comma(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.normal(size=200)
    g = np.where(rng.random(200) < 0.5, "a,1", "b")
    y = (rng.random(200) < 1.0 / (1.0 + np.exp(-x))).astype(int)
    with open(tmp_path / "d.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([("y", "g", "x"), *zip(y, g, x)])
    model = tmp_path / "m.json"
    r = run_cli("fit", "--data", str(tmp_path / "d.csv"), "--model", "y ~ C(g) + x",
                "--out", str(model))
    assert r.returncode == 0, r.stderr
    r = run_cli("margins", "--model", str(model), "--data", str(tmp_path / "d.csv"),
                "--over", "C(g)", "--at", "x=0:1:1", "--plot", str(tmp_path / "p.svg"),
                "--table", str(tmp_path / "t.tsv"))
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "p.svg.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == 5 for row in rows)
    labels = [line.split("\t")[0] for line in (tmp_path / "t.tsv").read_text().splitlines()]
    assert [row[0] for row in rows[1:]] == labels[1:]
    assert any("a,1" in label for label in labels)


def test_plot_of_a_label_with_a_control_character_is_well_formed_xml(tmp_path):
    # XML 1.0 cannot carry U+0001, not even escaped: the SVG writes U+FFFD,
    # and the companion CSV keeps the exact label
    rng = np.random.default_rng(5)
    x = rng.normal(size=200)
    g = np.where(rng.random(200) < 0.5, "a\x01b", "c")
    y = (rng.random(200) < 1.0 / (1.0 + np.exp(-x))).astype(int)
    with open(tmp_path / "d.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([("y", "g", "x"), *zip(y, g, x)])
    model = tmp_path / "m.json"
    r = run_cli("fit", "--data", str(tmp_path / "d.csv"), "--model", "y ~ C(g) + x",
                "--out", str(model))
    assert r.returncode == 0, r.stderr
    r = run_cli("margins", "--model", str(model), "--data", str(tmp_path / "d.csv"),
                "--over", "C(g)", "--at", "x=-1:1:0.5", "--plot", str(tmp_path / "p.svg"))
    assert r.returncode == 0, r.stderr
    text = "".join(ElementTree.parse(tmp_path / "p.svg").getroot().itertext())
    assert "a\ufffdb" in text and "\x01" not in text
    with open(tmp_path / "p.svg.csv", newline="", encoding="utf-8") as fh:
        assert any(row[0].endswith("=a\x01b") for row in csv.reader(fh))


def test_table_quotes_a_label_with_a_tab_or_a_quote(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.normal(size=300)
    g = np.array(["a", "b\tc", 'd"e'])[np.arange(300) % 3]
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(-x))).astype(int)
    with open(tmp_path / "d.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([("y", "g", "x"), *zip(y, g, x)])
    model = tmp_path / "m.json"
    r = run_cli("fit", "--data", str(tmp_path / "d.csv"), "--model", "y ~ C(g) + x",
                "--out", str(model))
    assert r.returncode == 0, r.stderr
    r = run_cli("margins", "--model", str(model), "--data", str(tmp_path / "d.csv"),
                "--aap", "C(g)", "--table", str(tmp_path / "t.tsv"))
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "t.tsv", newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    assert all(len(row) == 8 for row in rows)
    assert [row[0] for row in rows[1:]] == [
        "AAP g=a", "AAP g=b\tc", 'AAP g=d"e', "AME g=b\tc-a", 'AME g=d"e-a']


@pytest.mark.parametrize("flag", ["--ame", "--aap", "--over"])
def test_a_factor_target_on_a_continuous_variable_exits_1(workspace, capsys, flag):
    # C(jif) was ignored by --ame, which printed jif's continuous AME
    grid = ["--at", "jif=0:1:1"] if flag == "--over" else []
    code = cli.main(["margins", "--model", str(workspace / "m.json"),
                     "--data", str(workspace / "s.csv"), flag, "C(jif)", *grid])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: 'C(jif)': 'jif' is not a factor of the model"]


def test_a_level_holding_a_carriage_return_is_refused_before_any_output(tmp_path, capsys):
    # csv.writer quotes a line feed but not a bare carriage return, so a
    # margins TSV or plot CSV row labelled with such a level would split in
    # two: the column holding it is refused, whether fit or margins loads it
    rng = np.random.default_rng(4)
    x = rng.normal(size=300)
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(-x))).astype(int)
    for name, levels in (("clean", ["a", "b", "c"]), ("cr", ["a", "b\rc", "c"])):
        with open(tmp_path / f"{name}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([("y", "g", "x"),
                                      *zip(y, np.array(levels)[np.arange(300) % 3], x)])
    message = ["error: level 'b\\rc' of column 'g' holds a carriage return"]
    assert cli.main(["fit", "--data", str(tmp_path / "cr.csv"), "--model", "y ~ C(g) + x",
                     "--out", str(tmp_path / "no.json")]) == 1
    assert capsys.readouterr().err.splitlines() == message
    assert cli.main(["fit", "--data", str(tmp_path / "clean.csv"), "--model", "y ~ C(g) + x",
                     "--out", str(tmp_path / "m.json")]) == 0
    model = json.loads((tmp_path / "m.json").read_text())  # a model that knows the level
    model["term_map"] = json.loads(json.dumps(model["term_map"]).replace('"b"', '"b\\rc"'))
    (tmp_path / "m.json").write_text(json.dumps(model))
    capsys.readouterr()
    outputs = [tmp_path / name for name in ("t.tsv", "p.svg", "p.svg.csv")]
    assert cli.main(["margins", "--model", str(tmp_path / "m.json"),
                     "--data", str(tmp_path / "cr.csv"), "--over", "C(g)", "--at", "x=0:1:1",
                     "--table", str(outputs[0]), "--plot", str(outputs[1])]) == 1
    assert capsys.readouterr().err.splitlines() == message
    assert not any(path.exists() for path in outputs)


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
    out = tmp_path / "no" / "dir" / "m.json"
    r = run_cli("fit", "--data", str(workspace / "s.csv"), "--model", MODEL1, "--out", str(out))
    assert r.returncode == 1
    assert r.stderr.splitlines() == [f"error: [Errno 2] No such file or directory: '{out}'"]


def test_fit_reads_a_csv_with_a_byte_order_mark(workspace, tmp_path):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (workspace / "s.csv").read_bytes())
    runs = [run_cli("fit", "--data", str(p), "--model", MODEL1)
            for p in (workspace / "s.csv", bom)]
    assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


def test_header_names_are_stripped(tmp_path):
    padded, plain = tmp_path / "padded.csv", tmp_path / "plain.csv"
    rows = "".join(f"{i % 2},{(i * 7) % 5 - 2.0}\n" for i in range(12))
    padded.write_text("y, x \n" + rows, encoding="utf-8")
    plain.write_text("y,x\n" + rows, encoding="utf-8")
    runs = [run_cli("fit", "--data", str(p), "--model", "y ~ x") for p in (plain, padded)]
    assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = run_cli("summarize", "--data", str(padded)).stdout.splitlines()
    assert [line.split()[0] for line in lines[1:3]] == ["y", "x"]
    assert lines[2].startswith("x ")


@pytest.mark.parametrize("command", ["fit", "summarize"])
def test_repeated_header_name_exits_1(tmp_path, command):
    dup = tmp_path / "dup.csv"
    dup.write_text("y,x,x\n1,0.5,2\n0,1.5,1\n1,2.5,0\n0,0.5,3\n", encoding="utf-8")
    flags = ["--model", "y ~ x"] if command == "fit" else []
    r = run_cli(command, "--data", str(dup), *flags)
    assert r.returncode == 1
    assert r.stderr.splitlines() == [f"error: {dup}: column names are not unique"], r.stderr


@pytest.mark.parametrize("command", ["fit", "margins", "summarize"])
def test_undecodable_csv_exits_1(workspace, tmp_path, command):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"top10,univ\n1,univ1\n0,caf\xe9\n")
    flags = {"fit": ["--model", MODEL1],
             "margins": ["--model", str(workspace / "m.json"), "--aap", "C(univ)"],
             "summarize": []}[command]
    r = run_cli(command, "--data", str(bad), *flags)
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {bad}:"), r.stderr


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


def test_indefinite_model_cov_exits_1(workspace, tmp_path):
    # symmetric with a positive diagonal, but a negative 2 x 2 minor: its
    # delta-method variances could be negative
    d = json.loads((workspace / "m.json").read_text())
    d["cov"][0][1] = d["cov"][1][0] = 2.0 * (d["cov"][0][0] * d["cov"][1][1]) ** 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    r = run_cli("margins", "--model", str(bad), "--data", str(workspace / "s.csv"),
                "--ame", "C(univ)")
    assert r.returncode == 1
    assert r.stderr.splitlines() == [
        f"error: cannot read model JSON {bad}: cov is not positive definite"], r.stderr


# a field of the wrong type or an impossible value, a term map whose columns
# disagree with its factors, and a term map that loads but differs from the
# one its formula builds on the data, each give one error line
@pytest.mark.parametrize("case", ["renamed_column", "reference_empty", "level_null",
                                  "n_negative"])
def test_mistyped_model_json_exits_1(workspace, tmp_path, case):
    d = json.loads((workspace / "m.json").read_text())
    if case == "reference_empty":
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


# the formula of a model file must parse and build the file's term map on the
# data; the bootstrap, which takes no fit from the file, relies on these checks
@pytest.mark.parametrize("vce", ["delta", "bootstrap"])
def test_model_formula_that_does_not_parse_exits_2_with_caret(workspace, tmp_path, vce):
    d = json.loads((workspace / "m.json").read_text())
    d["formula"] = d["formula"].replace("C(doctype) + jif", "C(doctype) + + jif")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    r = run_cli("margins", "--model", str(bad), "--data", str(workspace / "s.csv"),
                "--aap", "C(univ)", "--vce", vce)
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert lines[0] == "error: expected 'ident' at position 44", r.stderr
    assert lines[1] == f"  {d['formula']}" and lines[2] == "  " + " " * 44 + "^"


@pytest.mark.parametrize("vce", ["delta", "bootstrap"])
def test_model_formula_that_does_not_build_its_term_map_exits_1(workspace, tmp_path, vce):
    d = json.loads((workspace / "m.json").read_text())
    d["formula"] = d["formula"].replace(" + pages^2", "")
    bad = tmp_path / "mismatch.json"
    bad.write_text(json.dumps(d))
    r = run_cli("margins", "--model", str(bad), "--data", str(workspace / "s.csv"),
                "--aap", "C(univ)", "--vce", vce)
    assert r.returncode == 1
    assert r.stderr.splitlines() == [
        f"error: the term map in {bad} does not match its formula"], r.stderr


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


def test_grid_value_whose_square_overflows_exits_1(workspace):
    base = ["margins", "--model", str(workspace / "m.json"),
            "--data", str(workspace / "s.csv")]
    r = run_cli(*base, "--aap", "jif", "--at", "jif=1e200:1e200:1")
    assert r.returncode == 1
    assert r.stderr.splitlines() == [
        "error: squared term jif^2 overflows: some grid value |jif| exceeds 1.341e+154"]
    # a square that stays finite saturates p(1-p) to 0: an effect of 0 with SE 0
    r = run_cli(*base, "--ame", "jif", "--at", "jif=1e150:1e150:1")
    assert r.returncode == 0, r.stderr
    assert "RuntimeWarning" not in r.stderr
    row, = [line for line in r.stdout.splitlines() if line.startswith("AME jif")]
    assert row.split()[2:5] == ["1e+150", "0", "0"], row


def write_model_with_coefficients(workspace, path, **beta):
    """The workspace model with the given linear coefficients and cov = I."""
    d = json.loads((workspace / "m.json").read_text())
    for var, b in beta.items():
        d["beta"][[c["source"] == var and c["transform"] == "identity"
                   for c in d["term_map"]["columns"]].index(True)] = b
    d["cov"] = np.eye(len(d["beta"])).tolist()
    path.write_text(json.dumps(d))


@pytest.mark.parametrize("plot", [False, True], ids=["table", "plot"])
def test_overflowing_coefficient_exits_1(workspace, tmp_path, plot):
    # the offset's years and authors terms overflow to inf and -inf, whose
    # sum is nan: an error, never rows of nan with SE 0 or a plot of them
    write_model_with_coefficients(workspace, tmp_path / "big.json",
                                  years=1e307, authors=-1e307)
    outputs = ["--table", str(tmp_path / "t.tsv")]
    if plot:
        outputs += ["--plot", str(tmp_path / "p.svg")]
    r = run_cli("margins", "--model", str(tmp_path / "big.json"),
                "--data", str(workspace / "s.csv"), "--aap", "jif", "--at", "jif=0:2:1",
                *outputs)
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.splitlines() == ["error: margin row 'AAP jif' at 0 is not finite: "
                                     "the coefficients or grid values are too large"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


def test_saturating_coefficient_gives_saturated_rows(workspace, tmp_path):
    # beta(jif) = 1e307 enters no sum but jif's own term: at jif = 0 the
    # prediction is that of the other columns, and at jif = 1 and 2 every
    # p is 1, so the rows are 1 with SE 0
    write_model_with_coefficients(workspace, tmp_path / "big.json", jif=1e307)
    r = run_cli("margins", "--model", str(tmp_path / "big.json"),
                "--data", str(workspace / "s.csv"), "--aap", "jif", "--at", "jif=0:2:1",
                "--table", str(tmp_path / "t.tsv"))
    assert r.returncode == 0, r.stderr
    rows = [line.split("\t") for line in (tmp_path / "t.tsv").read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["0", "1", "2"]
    assert 0.0 < float(rows[0][2]) < 1.0 and float(rows[0][3]) > 0.0
    assert [row[2:4] for row in rows[1:]] == [["1", "0"], ["1", "0"]]


def test_huge_covariate_is_one_rank_error_line(tmp_path):
    # with an intercept, x of order 1e160 is numerically dependent on it; no
    # column moment is computed for a fit the rank check has already failed
    x = np.random.default_rng(1).normal(size=40) * 1e160
    rows = [f"{i % 2},{v!r}" for i, v in enumerate(x.tolist())]
    (tmp_path / "huge.csv").write_text("y,x\n" + "\n".join(rows) + "\n")
    r = run_cli("fit", "--data", str(tmp_path / "huge.csv"), "--model", "y ~ x")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.splitlines() == [
        "error: design matrix is rank deficient; dependent columns: intercept"]


def test_overflowing_column_products_are_one_rank_error_line(tmp_path):
    # x and z of order 1e155: x*z, x^2 and z^2 overflow, so the Gram screen
    # sees a non-finite Gram (with no warning) and the rank check decides
    rng = np.random.default_rng(1)
    x, z = rng.normal(size=(2, 40)) * 1e155
    rows = [f"{i % 2},{a!r},{b!r}" for i, (a, b) in enumerate(zip(x.tolist(), z.tolist()))]
    (tmp_path / "huge.csv").write_text("y,x,z\n" + "\n".join(rows) + "\n")
    r = run_cli("fit", "--data", str(tmp_path / "huge.csv"), "--model", "y ~ x + z")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.splitlines() == [
        "error: design matrix is rank deficient; dependent columns: intercept"]


def test_a_raw_year_and_its_square_fit(tmp_path):
    # year in 1980-2010 and year^2 (sd near 3.6e4) exited 1 with "a
    # standardized coefficient exceeds 30"; the separation check reads the
    # spread of X beta, which the coding of year does not change
    x, year, y = year_probe(2000)
    rows = [f"{int(a)},{int(b)},{int(c)}" for a, b, c in zip(y, x, year)]
    (tmp_path / "years.csv").write_text("y,x,year\n" + "\n".join(rows) + "\n")
    r = run_cli("fit", "--data", str(tmp_path / "years.csv"), "--model",
                "y ~ x + year + year^2", "--out", str(tmp_path / "m.json"))
    assert r.returncode == 0 and r.stderr == "", r.stderr
    assert json.loads((tmp_path / "m.json").read_text())["n"] == 2000


# a numeric flag outside its range is rejected before any work is done
@pytest.mark.parametrize("command, flags, message", [
    pytest.param("margins", ["--aap", "C(univ)", "--vce", "bootstrap", "--reps", "100",
                             "--seed", "-1"],
                 "bootstrap seed must be non-negative, got -1", id="bootstrap-seed"),
    pytest.param("synth", ["--n", "10", "--seed", "-1"],
                 "seed must be non-negative, got -1", id="synth-seed"),
    pytest.param("fit", ["--tol", "nan"], "tol must be finite and positive, got nan",
                 id="tol-nan"),
    pytest.param("fit", ["--tol", "-1"], "tol must be finite and positive, got -1.0",
                 id="tol-negative"),
    pytest.param("fit", ["--max-iter", "-3"], "max_iter must be non-negative, got -3",
                 id="max-iter-negative"),
])
def test_out_of_range_number_exits_1(workspace, tmp_path, command, flags, message):
    inputs = {"margins": ["--model", str(workspace / "m.json"),
                          "--data", str(workspace / "s.csv")],
              "synth": ["--out", str(tmp_path / "x.csv")],
              "fit": ["--data", str(workspace / "s.csv"), "--model", MODEL1]}
    r = run_cli(command, *inputs[command], *flags)
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


def test_plot_without_a_grid_exits_1_before_any_output(workspace, tmp_path):
    # a flag rule: checked before the model or the data are read
    for model in (workspace / "m.json", tmp_path / "missing.json"):
        r = run_cli("margins", "--model", str(model), "--data", str(workspace / "s.csv"),
                    "--aap", "C(univ)", "--plot", str(tmp_path / "p.svg"),
                    "--table", str(tmp_path / "t.tsv"))
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.splitlines() == ["error: --plot requires margins over an --at grid"]
        assert list(tmp_path.iterdir()) == []


# the logistic MLE does not exist when y takes one value: the intercept would
# run off without bound, so the exact count refuses the fit before iterating
@pytest.mark.parametrize("outcome", ["1", "0"])
def test_single_outcome_response_exits_1(tmp_path, outcome):
    rows = [f"{outcome},{x}" for x in (0.1, 0.5, 0.9, 1.3, 2.0, 2.2, 3.1, 4.0)]
    (tmp_path / "one.csv").write_text("y,x\n" + "\n".join(rows) + "\n")
    r = run_cli("fit", "--data", str(tmp_path / "one.csv"), "--model", "y ~ x",
                "--out", str(tmp_path / "m.json"))
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.splitlines() == [f"error: separation: every observation has y = {outcome}"]
    assert not (tmp_path / "m.json").exists()


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of the import time, and the package needs only
    # the normal cdf and quantile; concurrent.futures has no user, and
    # statistics (with decimal and fractions) is only for non-95% levels
    modules = ["scipy.stats", "concurrent.futures", "statistics"]
    code = f"import sys, logitmargins; print([m for m in {modules} if m in sys.modules])"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_import_leaves_importlib_resources_unloaded():
    # only synth's bundled-file fallback reads package data; -S keeps site
    # from loading the module through a .pth file, so numpy and the package
    # are put on the path by hand
    paths = [os.path.dirname(os.path.dirname(m.__file__)) for m in (lm, np)]
    code = (f"import sys; sys.path[:0] = {paths!r}; import logitmargins; "
            "print('importlib.resources' in sys.modules)")
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_fit_and_margins_never_import_scipy(workspace, tmp_path):
    # scipy.linalg and scipy.special cost most of a CLI call's import time;
    # only the synth generator and the naming of dependent columns use scipy.
    # scipy.optimize serves only the tests' separation oracle: a separated
    # fit stays without it too.  numpy.ma (about 13 ms of import) has no user
    # either
    (tmp_path / "sep.csv").write_text("y,g\n" + "1,a\n0,a\n1,b\n1,b\n1,b\n")
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
assert cli.main(["fit", "--data", {str(tmp_path / "sep.csv")!r}, "--model", "y ~ C(g)"]) == 1
loaded = [m for m in sys.modules if heavy(m)]
assert not loaded, ("after fit and margins", loaded)
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "AAP univ=univ1" in r.stdout, r.stdout
    assert "error: separation: every observation where g=b is 1 has y = 1" in r.stderr


# main() is the one place that turns these into one `error:` line and exit 1
BOUNDARY = ("DataError", "FormulaError", "FitError", "MarginsError", "SynthError", "OSError")
VALID = {"fit": ["--data", "{data}", "--model", MODEL1],
         "margins": ["--model", "{model}", "--data", "{data}", "--aap", "C(univ)"],
         "summarize": ["--data", "{data}"],
         "synth": ["--n", "10", "--seed", "1", "--out", "{tmp}/x.csv"]}
# a real input that fails with the class, where one exists, and its message
REAL = {
    ("fit", "DataError"): (["--data", "{big}", "--model", "y ~ x + x^2"],
                           "squared term x^2 overflows: some |x| exceeds 1.341e+154"),
    ("fit", "FormulaError"): (["--data", "{data}", "--model", MODEL1, "--ref", "nope=univ1"],
                              "reference level given for 'nope'"),
    ("fit", "FitError"): (["--data", "{separated}", "--model", "y ~ x"], "separation"),
    ("fit", "OSError"): (["--data", "{data}", "--model", MODEL1, "--out", "{missing}"],
                         "No such file"),
    ("margins", "DataError"): (["--model", "{model}", "--data", "{missing}", "--aap",
                                "C(univ)"], "cannot read"),
    ("margins", "FormulaError"): (["--model", "{model}", "--data", "{univ1}", "--aap",
                                   "C(univ)"], "fewer than 2 observed levels"),
    ("margins", "MarginsError"): (["--model", "{model}", "--data", "{data}", "--at",
                                   "foo=0:2:1"], "'foo' is not a continuous variable"),
    ("margins", "OSError"): (VALID["margins"] + ["--table", "{missing}"], "No such file"),
    ("summarize", "DataError"): (["--data", "{missing}"], "cannot read"),
    ("synth", "FormulaError"): (["--coeffs", "{formula}"] + VALID["synth"], "position 7"),
    ("synth", "SynthError"): (["--coeffs", "{notjson}"] + VALID["synth"], "is not JSON"),
    ("synth", "OSError"): (["--n", "10", "--seed", "1", "--out", "{missing}"], "No such file"),
}
# otherwise the binding each command resolves by name raises it
PATCHED = {"fit": "logitmargins.cli.build_design", "margins": "logitmargins.cli.build_design",
           "summarize": "logitmargins.dataset.summarize", "synth": "logitmargins.synth.generate"}


@pytest.mark.parametrize("error", BOUNDARY)
@pytest.mark.parametrize("command", list(VALID))
def test_each_library_error_is_one_error_line(workspace, tmp_path, monkeypatch, capsys,
                                              command, error):
    csv = workspace / "s.csv"
    header, *rows = csv.read_text().splitlines(keepends=True)
    paths = {"data": csv, "model": workspace / "m.json", "tmp": tmp_path,
             "missing": tmp_path / "no" / "such", "big": tmp_path / "big.csv",
             "separated": tmp_path / "sep.csv", "univ1": tmp_path / "univ1.csv",
             "formula": tmp_path / "formula.json", "notjson": tmp_path / "notjson.json"}
    paths["big"].write_text("y,x\n1,1e200\n0,1\n1,2\n0,3\n")
    paths["separated"].write_text("y,x\n0,1\n0,2\n1,3\n1,4\n")
    paths["univ1"].write_text(header + "".join(r for r in rows if ",univ1," in r))
    paths["formula"].write_text('{"formula": "y ~ x +", "coefficients": {}}')
    paths["notjson"].write_text("not json")
    if (command, error) in REAL:
        flags, message = REAL[command, error]
    else:
        cls = OSError if error == "OSError" else getattr(lm, error)

        def fail(*args, **kwargs):
            raise cls("injected")

        monkeypatch.setattr(PATCHED[command], fail)
        flags, message = VALID[command], "injected"
    code = cli.main([command, *(f.format(**paths) for f in flags)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines

