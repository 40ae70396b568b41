"""The public surface: exported names and CLI options.

Adding or removing a name or a flag changes one line here.
"""

import ast
import dataclasses
import importlib.util
import inspect
import json
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
    "SeparationError", "SynthConfig", "SynthError",
    "TermMap", "__version__", "bootstrap_se", "build_design", "compute_margins",
    "default_config", "fit", "fit_stats", "from_json", "generate",
    "load_coefficients", "load_csv", "margins_tsv", "parse_formula",
    "predict", "schema_of", "sniff_schema", "summarize",
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


def test_model_json_with_k_and_converged_loads_to_the_same_fit():
    # a file in the earlier format, which also stored k and converged: both
    # keys are ignored, so it loads to the fit of the same JSON without them
    text = (Path(__file__).parent / "data" / "toy_model_with_k_and_converged.json").read_text()
    d = json.loads(text)
    assert d.pop("k") == 5 and d.pop("converged") is True
    back, formula = lm.from_json(text)
    want, want_formula = lm.from_json(json.dumps(d))
    assert np.array_equal(back.beta, want.beta) and np.array_equal(back.cov, want.cov)
    assert ((back.ll, back.ll0, back.n, back.iterations, back.term_map)
            == (want.ll, want.ll0, want.n, want.iterations, want.term_map))
    assert lm.to_json(back, formula) == lm.to_json(want, want_formula)


def test_margins_schema_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["margins", "--model", "m.json", "--data", "d.csv",
                                       "--schema", "y:binary"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --schema" in capsys.readouterr().err


# bench/tracer.py wraps margins.substitute_matrix, a binding margins never reads
UNREAD_IMPORTS = {("margins", "substitute_matrix")}


def test_every_module_level_import_is_read():
    unread = []
    for path in sorted(Path(lm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read.update(lm.__all__)
        unread += [(path.stem, name) for name in bound
                   if name not in read and (path.stem, name) not in UNREAD_IMPORTS]
    assert unread == []


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
