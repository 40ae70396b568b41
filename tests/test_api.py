"""The public surface: exported names and CLI options.

Adding or removing a name or a flag changes one line here.
"""

import pytest

import logitmargins as lm
from logitmargins import cli

PUBLIC = [
    "BootstrapResult", "ColumnSpec", "ContinuousSpec", "ConvergenceError", "DataError",
    "Dataset", "DesignMatrix", "FitError", "FitResult", "FitStats", "FormulaError",
    "MarginRequest", "MarginRow", "MarginsError", "ModelSpec", "RankDeficiencyError",
    "RecoveryReport", "SeparationError", "SummaryTable", "SynthConfig", "SynthError",
    "TermMap", "__version__", "bootstrap_se", "build_design", "compute_margins",
    "default_config", "filter_levels", "fit", "fit_stats", "from_json", "generate",
    "load_coefficients", "load_csv", "log_likelihood", "margins_tsv", "parse_formula",
    "predict", "recover", "schema_of", "score_and_hessian", "sniff_schema", "summarize",
    "to_csv", "to_json", "zstar",
]

OPTIONS = {
    "fit": ["--data", "--max-iter", "--model", "--out", "--ref", "--schema", "--tol"],
    "margins": ["--aap", "--ame", "--at", "--atmeans", "--ci", "--data", "--discrete",
                "--dydx", "--model", "--over", "--plot", "--reps", "--seed", "--table",
                "--vce"],
    "summarize": ["--data", "--schema"],
    "synth": ["--coeffs", "--correlated", "--n", "--out", "--seed"],
}


def test_public_names():
    assert sorted(lm.__all__) == PUBLIC
    for name in lm.__all__:
        assert getattr(lm, name) is not None, name


def test_cli_options():
    sub, = (a for a in cli.build_parser()._actions if a.choices)
    got = {name: sorted(s for a in p._actions for s in a.option_strings
                        if s not in ("-h", "--help"))
           for name, p in sub.choices.items()}
    assert got == OPTIONS


def test_margins_schema_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["margins", "--model", "m.json", "--data", "d.csv",
                                       "--schema", "y:binary"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --schema" in capsys.readouterr().err
