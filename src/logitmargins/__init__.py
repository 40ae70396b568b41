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
from .synth import (ContinuousSpec, SynthConfig, SynthError, default_config,
                    generate, load_coefficients)

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
