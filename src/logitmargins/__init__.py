"""Binary logit models with adjusted predictions and marginal effects."""

from .dataset import (ColumnSpec, DataError, Dataset, load_csv, schema_of,
                      sniff_schema, summarize, to_csv)
from .formula import (DesignMatrix, FormulaError, ModelSpec, TermMap, build_design,
                      parse_formula)
from .logit import (ConvergenceError, FitError, FitResult, FitStats,
                    RankDeficiencyError, SeparationError, fit, fit_stats,
                    from_json, predict, to_json)
from .margins import (BootstrapResult, MarginRequest, MarginRow, MarginsError,
                      bootstrap_se, compute_margins, margins_tsv, zstar)

__version__ = "0.1.0"

__all__ = [
    "ColumnSpec", "DataError", "Dataset", "load_csv", "schema_of",
    "sniff_schema", "summarize", "to_csv",
    "DesignMatrix", "FormulaError", "ModelSpec", "TermMap", "build_design",
    "parse_formula",
    "ConvergenceError", "FitError", "FitResult", "FitStats",
    "RankDeficiencyError", "SeparationError", "fit", "fit_stats",
    "from_json", "predict", "to_json",
    "BootstrapResult", "MarginRequest", "MarginRow", "MarginsError",
    "bootstrap_se", "compute_margins", "margins_tsv", "zstar",
    "ContinuousSpec", "SynthConfig", "SynthError", "default_config",
    "generate", "load_coefficients",
    "__version__",
]


# the generator's names, imported on first use: fit and margins never need it
_SYNTH = ("ContinuousSpec", "SynthConfig", "SynthError", "default_config", "generate",
          "load_coefficients")


def __getattr__(name):
    if name in _SYNTH:
        from . import synth
        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
