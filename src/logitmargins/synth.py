"""Synthetic publication corpora with known coefficients.

Covariates are drawn to match configured marginal distributions and the
binary response is Bernoulli with probability logistic(x . beta) for a
configured true coefficient vector, so a refit can be checked against the
truth.  Generation is a pure function of the config: a PCG64 stream
(a named, portable 64-bit generator whose reference outputs are pinned in
the test suite) supplies uniform variates only, which are mapped through
inverse CDFs.  Draw order is fixed: one uniform block per factor in
declared order, then one per continuous variable in declared order, then
one block for the response.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Column, DataError, Dataset
from .formula import build_design, parse_formula
from .logit import expit

DEFAULT_COEFFS = "table2_model3.json"


class SynthError(DataError):
    """Invalid generator configuration."""


@dataclass(frozen=True)
class ContinuousSpec:
    """Marginal distribution of one continuous variable.

    ``lognormal`` is moment-matched to (mean, sd) before clamping to
    [lo, hi]; ``uniform_int`` draws integers uniformly on [lo, hi].  With
    ``integer`` set, draws are rounded before clamping.  ``by_level``
    optionally shifts the mean per level of a factor (holding the
    coefficient of variation fixed), for corpora with correlated covariates.
    Construction raises :class:`SynthError` unless lo <= hi (both finite
    integers for ``uniform_int``) and a ``lognormal``'s sd and means are
    finite and positive.
    """

    family: str
    mean: float = 0.0
    sd: float = 0.0
    lo: float = -np.inf
    hi: float = np.inf
    integer: bool = False
    by_level: Optional[tuple[str, dict[str, float]]] = None

    def __post_init__(self):
        if self.family not in ("lognormal", "uniform_int"):
            raise SynthError(f"unknown family {self.family!r}")
        # a NaN bound is not ordered; uniform_int draws one of hi - lo + 1 integers
        if not (self.lo <= self.hi and (self.family == "lognormal"
                                        or np.isfinite(self.hi - self.lo))):
            raise SynthError(f"{self.family} needs bounds lo <= hi, finite for uniform_int, "
                             f"got lo={self.lo}, hi={self.hi}")
        if self.family == "uniform_int" and not (float(self.lo).is_integer()
                                                 and float(self.hi).is_integer()):
            raise SynthError(f"uniform_int needs integer bounds, got lo={self.lo}, hi={self.hi}")
        if self.family == "lognormal":
            _lognormal_params(self.mean, self.sd)
            for m in (self.by_level[1].values() if self.by_level else ()):
                _lognormal_params(m, self.sd / self.mean * m)


@dataclass(frozen=True)
class SynthConfig:
    n: int
    seed: int
    formula: str
    factors: dict[str, dict[str, float]]
    continuous: dict[str, ContinuousSpec]
    true_beta: dict[str, float]


def _lognormal_params(mean: float, sd: float) -> tuple[float, float]:
    if not (0 < mean < np.inf and 0 < sd < np.inf):
        raise SynthError(f"lognormal needs a finite, positive mean and sd, got {mean}, {sd}")
    sigma2 = np.log1p((sd * sd) / (mean * mean))
    mu = np.log(mean) - sigma2 / 2.0
    return mu, float(np.sqrt(sigma2))


def _validate(cfg: SynthConfig):
    if cfg.n <= 0:
        raise SynthError(f"corpus size must be positive, got {cfg.n}")
    # each column holds n 8-byte values (doubles, or int64 factor codes); a
    # corpus whose columns alone exceed the machine's memory is refused
    # before anything is drawn.  Where the memory cannot be read (no
    # os.sysconf, an unknown name, or -1 for indeterminate) there is no bound
    columns = 1 + len(cfg.factors) + len(cfg.continuous)
    try:
        memory = max(os.sysconf("SC_PAGE_SIZE"), 0) * max(os.sysconf("SC_PHYS_PAGES"), 0)
    except (AttributeError, ValueError, OSError):
        memory = 0
    if memory > 0 and 8 * cfg.n * columns > memory:
        raise SynthError(f"corpus size {cfg.n} needs {8 * cfg.n * columns:.3g} bytes for its "
                         f"{columns} columns, more than the {memory:.3g} bytes of this "
                         "machine's memory")
    if cfg.seed < 0:
        raise SynthError(f"seed must be non-negative, got {cfg.seed}")
    for var, probs in cfg.factors.items():
        vals = np.array(list(probs.values()), dtype=np.float64)
        if (vals < 0).any() or not np.isfinite(vals).all():
            raise SynthError(f"invalid probabilities for factor {var!r}")
        if abs(vals.sum() - 1.0) > 1e-9:
            raise SynthError(f"probabilities for factor {var!r} sum to "
                             f"{float(vals.sum())!r}, not 1")
    for key, b in cfg.true_beta.items():
        if not np.isfinite(b):
            raise SynthError(f"non-finite coefficient for {key!r}")


def _draw_factor(rng, probs: dict[str, float], n: int) -> tuple[tuple[str, ...], np.ndarray]:
    levels = tuple(probs.keys())
    cum = np.cumsum(np.array([probs[lv] for lv in levels], dtype=np.float64))
    cum[-1] = 1.0
    u = rng.random(n)
    codes = np.searchsorted(cum, u, side="right").astype(np.int64)
    return levels, codes


def _draw_continuous(rng, spec: ContinuousSpec, n: int,
                     factor_codes: dict[str, tuple[tuple[str, ...], np.ndarray]]) -> np.ndarray:
    from scipy.special import ndtri  # keeps scipy off the fit/margins import path
    u = rng.random(n)
    if spec.family == "uniform_int":
        lo, hi = int(spec.lo), int(spec.hi)
        return np.floor(u * (hi - lo + 1)).astype(np.float64) + lo
    if spec.by_level is None:
        mu, sg = _lognormal_params(spec.mean, spec.sd)
        x = np.exp(mu + sg * ndtri(u))
    else:
        fvar, means = spec.by_level
        if fvar not in factor_codes:
            raise SynthError(f"by_level factor {fvar!r} is not a configured factor")
        levels, codes = factor_codes[fvar]
        cv = spec.sd / spec.mean
        x = np.empty(n, dtype=np.float64)
        for code, level in enumerate(levels):
            m = means.get(level, spec.mean)
            mu, sg = _lognormal_params(m, cv * m)
            mask = codes == code
            x[mask] = np.exp(mu + sg * ndtri(u[mask]))
    if spec.integer:
        x = np.round(x)
    return np.clip(x, spec.lo, spec.hi)


def generate(cfg: SynthConfig) -> Dataset:
    """Generate a corpus; deterministic given the config (seed included)."""
    _validate(cfg)
    spec = parse_formula(cfg.formula)
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n

    factor_cols: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}
    for var, probs in cfg.factors.items():
        factor_cols[var] = _draw_factor(rng, probs, n)
    cont_cols: dict[str, np.ndarray] = {}
    for var, cspec in cfg.continuous.items():
        cont_cols[var] = _draw_continuous(rng, cspec, n, factor_cols)

    columns = [Column(spec.response, "binary", np.zeros(n))]
    for var, (levels, codes) in factor_cols.items():
        columns.append(Column(var, "categorical", codes, levels))
    for var, vals in cont_cols.items():
        columns.append(Column(var, "continuous", vals))
    shell = Dataset(tuple(columns))

    design = build_design(shell, spec)
    labels = design.term_map.labels
    missing = [lb for lb in labels if lb not in cfg.true_beta]
    extra = [key for key in cfg.true_beta if key not in labels]
    if missing or extra:
        raise SynthError(f"true_beta keys do not match the model: "
                         f"missing {missing}, unexpected {extra}")
    beta = np.array([cfg.true_beta[lb] for lb in labels], dtype=np.float64)
    p = expit(design.X @ beta)
    y = (rng.random(n) < p).astype(np.float64)

    return Dataset((Column(spec.response, "binary", y), *columns[1:]))


def load_coefficients(path_or_name: str) -> tuple[str, dict[str, float]]:
    """Load a coefficient file: a path, or the name of a bundled resource.

    The file is a JSON object ``{"formula": str, "coefficients": {label:
    number}}``; anything else raises :class:`SynthError` naming the file.
    """
    try:
        with open(path_or_name, "rb") as fh:
            raw = fh.read()
    except OSError:
        from importlib import resources  # only this fallback needs it
        ref = resources.files("logitmargins").joinpath("data", path_or_name)
        try:
            raw = ref.read_bytes()
        except OSError:
            raise SynthError(f"no coefficient file {path_or_name!r} on disk or bundled") \
                from None
    try:
        d = json.loads(raw)
    except ValueError as exc:
        raise SynthError(f"coefficient file {path_or_name!r} is not JSON: {exc}") from None
    if not (isinstance(d, dict) and isinstance(d.get("formula"), str)
            and isinstance(d.get("coefficients"), dict)):
        raise SynthError(f"coefficient file {path_or_name!r} must be an object with a "
                         "\"formula\" string and a \"coefficients\" object")
    coefficients = d["coefficients"]
    for label, v in coefficients.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SynthError(f"coefficient file {path_or_name!r}: coefficient {label!r} "
                             f"is not a number, got {v!r}")
    return d["formula"], {k: float(v) for k, v in coefficients.items()}


# university shares 7.4/3.3/55.4/33.9, subjects 11.4/10.7/77.9, document types
# 82.9/4.3/9.7/3.2 (the last set totals 100.1 as published, so it is normalized)
_UNIV = {"univ1": 0.074, "univ2": 0.033, "univ3": 0.554, "univ4": 0.339}
_SUBJECT = {"engtech": 0.114, "medhealth": 0.107, "natsci": 0.779}
_DOCTYPE = {"article": 0.829 / 1.001, "note": 0.043 / 1.001,
            "proceedings": 0.097 / 1.001, "review": 0.032 / 1.001}

# per-university journal-impact means for the correlated mode; univ2/univ4 are
# set so the share-weighted mean stays at 4.5
_JIF_BY_UNIV = {"univ1": 8.4, "univ2": 5.66, "univ3": 3.2, "univ4": 5.66}


def default_config(n: int, seed: int, *, correlated: bool = False,
                   coeffs: str = DEFAULT_COEFFS) -> SynthConfig:
    """Ready-to-run configuration using the bundled default coefficients."""
    formula, true_beta = load_coefficients(coeffs)
    jif = ContinuousSpec("lognormal", mean=4.5, sd=5.8, lo=0.4, hi=54.3,
                         by_level=("univ", dict(_JIF_BY_UNIV)) if correlated else None)
    return SynthConfig(
        n=n, seed=seed, formula=formula,
        factors={"univ": dict(_UNIV), "subject": dict(_SUBJECT),
                 "doctype": dict(_DOCTYPE)},
        continuous={
            "jif": jif,
            "years": ContinuousSpec("uniform_int", lo=1, hi=31),
            "authors": ContinuousSpec("lognormal", mean=4.2, sd=2.4, lo=1, hi=23,
                                      integer=True),
            "pages": ContinuousSpec("lognormal", mean=7.7, sd=6.1, lo=1, hi=160,
                                    integer=True),
        },
        true_beta=true_beta,
    )
