import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import logitmargins as lm
from logitmargins.formula import ColumnRole
from logitmargins.margins import MarginRequest, _compile, _evaluate, compute_margins

DATA_DIR = Path(__file__).parent / "data"

# frozen seeds; realized values are asserted in the tests that use them
CORPUS_SEED = 7        # n=15426 default corpus: ybar 0.2207, max |z-dev| 1.35
BOOT_CORPUS_SEED = 61  # n=2000 corpus for bootstrap cross-checks
BOOT_SEED = 1101

# property tests are derandomized and stay within a few seconds.  Their draws
# are the same for the same set of loaded modules, not for every selection of
# test files: Hypothesis (6.155) mixes literal constants from every local
# module in sys.modules into its choices (_get_local_constants in
# hypothesis/internal/conjecture/providers.py), so running one file can draw
# other examples than the full suite.  A case that must run is pinned with
# @example.
settings.register_profile("repro", derandomize=True, max_examples=100, deadline=None,
                          database=None, print_blob=True)
settings.load_profile("repro")


def plain_term_map(k: int) -> lm.TermMap:
    """The term map of an intercept and k - 1 plain columns named x1, x2, ..."""
    return lm.TermMap(columns=(ColumnRole(None, "intercept"),
                               *(ColumnRole(f"x{j}", "identity") for j in range(1, k))),
                      reference={}, factor_levels={})


def plain_design(X, y) -> lm.DesignMatrix:
    """``X`` and ``y`` as a design whose first column is the intercept and
    whose others are plain columns x1, x2, ..."""
    return lm.DesignMatrix(X, y, plain_term_map(X.shape[1]))


def margin_rows(fr, design, kind: str, target: str, **fields) -> list:
    """The delta-method rows of ``MarginRequest(kind, target, **fields)``."""
    return compute_margins(fr, design, MarginRequest(kind, target, **fields))


def kernel_gradient(fr, design, request) -> np.ndarray:
    """Delta-method gradient of a request's first row, from the margin kernel."""
    _, grad = _evaluate(_compile(design, request), fr.beta)
    return grad[:, 0]


def toy_dataset() -> lm.Dataset:
    """16 rows, one 3-level factor, one squared continuous, one plain."""
    from logitmargins.dataset import Column
    g = ["a", "b", "c", "a", "b", "c", "a", "b", "c", "a", "b", "c", "a", "b", "a", "c"]
    x = [0.5, 1.0, 2.0, 3.0, 1.5, 0.8, 2.5, 0.2, 1.1, 2.2, 0.9, 1.7, 3.1, 0.4, 1.9, 2.8]
    z = [1.0, -1.0, 0.5, 2.0, 0.0, 1.5, -0.5, 1.0, 2.5, 0.3, -1.2, 0.8, 1.1, 2.2, -0.7, 0.6]
    y = [0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1]
    levels = ("a", "b", "c")
    codes = np.array([levels.index(v) for v in g], dtype=np.int64)
    return lm.Dataset((
        Column("y", "binary", np.array(y, dtype=np.float64)),
        Column("g", "categorical", codes, levels),
        Column("x", "continuous", np.array(x)),
        Column("z", "continuous", np.array(z)),
    ))


@pytest.fixture(scope="session")
def toy_ds():
    return toy_dataset()


@pytest.fixture(scope="session")
def toy_fit(toy_ds):
    """y ~ C(g) + x + x^2 (k=5), with its design."""
    design = lm.build_design(toy_ds, lm.parse_formula("y ~ C(g) + x + x^2"))
    return lm.fit(design), design


@pytest.fixture(scope="session")
def toy_fit_bystander(toy_ds):
    """y ~ C(g) + x + z (k=5): substitutions leave z at observed values."""
    design = lm.build_design(toy_ds, lm.parse_formula("y ~ C(g) + x + z"))
    return lm.fit(design), design


@pytest.fixture(scope="session")
def corpus15k():
    cfg = lm.default_config(15426, CORPUS_SEED)
    return cfg, lm.generate(cfg)


@pytest.fixture(scope="session")
def corpus15k_fit(corpus15k):
    cfg, ds = corpus15k
    design = lm.build_design(ds, lm.parse_formula(cfg.formula))
    return lm.fit(design), design


@pytest.fixture(scope="session")
def corpus2k():
    cfg = lm.default_config(2000, BOOT_CORPUS_SEED)
    ds = lm.generate(cfg)
    design = lm.build_design(ds, lm.parse_formula(cfg.formula))
    return lm.fit(design), design
