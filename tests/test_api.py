"""The public surface: exported names and CLI options.

Adding or removing a name or a flag changes one line here.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import logitmargins as lm
from logitmargins import cli
from logitmargins.dataset import Column

PUBLIC = [
    "BootstrapResult", "ColumnSpec", "ContinuousSpec", "ConvergenceError", "DataError",
    "Dataset", "DesignMatrix", "FitError", "FitResult", "FitStats", "FormulaError",
    "MarginRequest", "MarginRow", "MarginsError", "ModelSpec", "RankDeficiencyError",
    "SeparationError", "SummaryTable", "SynthConfig", "SynthError",
    "TermMap", "__version__", "bootstrap_se", "build_design", "compute_margins",
    "default_config", "fit", "fit_stats", "from_json", "generate",
    "load_coefficients", "load_csv", "log_likelihood", "margins_tsv", "parse_formula",
    "predict", "schema_of", "score_and_hessian", "sniff_schema", "summarize",
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


def test_frozen_bench_hooks_resolve():
    # bench/ is frozen between benchmark versions, so a rename of a binding it
    # wraps or a keyword it passes fails here instead of inside bench/run.py
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_tracer", root / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _, _ in tracer.BINDINGS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert "workers" in inspect.signature(lm.bootstrap_se).parameters
    assert hasattr(Column, "codes")
