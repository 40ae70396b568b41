"""The public surface: exported names and CLI options.

Adding or removing a name or a flag changes one line here.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
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


# every fit and every margin is of a design; a FitResult stores each fact once
# (its k is len(beta), and a fit that did not converge raises instead)
SIGNATURES = {
    lm.fit: "(design: 'DesignMatrix', *, max_iter: 'int' = 100, tol: 'float' = 1e-10)"
            " -> 'FitResult'",
    lm.compute_margins: "(fr: 'FitResult', design: 'DesignMatrix', request: 'MarginRequest')"
                        " -> 'list[MarginRow]'",
    lm.bootstrap_se: "(design: 'DesignMatrix', request: 'MarginRequest', reps: 'int', "
                     "seed: 'int', *, workers: 'Optional[int]' = None) -> 'BootstrapResult'",
}
FIT_FIELDS = ["beta", "cov", "ll", "ll0", "n", "iterations", "term_map", "ll_trace"]


def test_call_forms():
    for f, signature in SIGNATURES.items():
        assert str(inspect.signature(f)) == signature, f.__name__
    assert [f.name for f in dataclasses.fields(lm.FitResult)] == FIT_FIELDS


def test_model_json_with_k_and_converged_loads_to_the_same_fit(toy_fit):
    # a file in the earlier format, which also stored k and converged: both
    # keys are ignored
    fr, _ = toy_fit
    path = Path(__file__).parent / "data" / "toy_model_with_k_and_converged.json"
    back, formula = lm.from_json(path.read_text())
    assert np.array_equal(back.beta, fr.beta) and np.array_equal(back.cov, fr.cov)
    assert ((back.ll, back.ll0, back.n, back.iterations, back.term_map)
            == (fr.ll, fr.ll0, fr.n, fr.iterations, fr.term_map))
    assert lm.to_json(back, formula) == lm.to_json(fr, "y ~ C(g) + x + x^2")


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
