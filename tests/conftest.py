import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import logitmargins as lm
from logitmargins.margins import MarginRequest, _compile, _evaluate, compute_margins

DATA_DIR = Path(__file__).parent / "data"

# frozen seeds; realized values are asserted in the tests that use them
CORPUS_SEED = 7        # n=15426 default corpus: ybar 0.2207, max |z-dev| 1.35
BOOT_CORPUS_SEED = 61  # n=2000 corpus for bootstrap cross-checks
BOOT_SEED = 1101

# property tests draw the same examples on every run and stay within a few
# seconds, so the suite remains reproducible
settings.register_profile("repro", derandomize=True, max_examples=100, deadline=None,
                          database=None, print_blob=True)
settings.load_profile("repro")


def margin_rows(fr, design, kind: str, target: str, **fields) -> list:
    """The delta-method rows of ``MarginRequest(kind, target, **fields)``."""
    return compute_margins(fr, design, MarginRequest(kind, target, **fields))


def kernel_gradient(fr, design, request) -> np.ndarray:
    """Delta-method gradient of a request's first row, from the margin kernel."""
    _, grad = _evaluate(_compile(fr, design, request), fr.beta)
    return grad[:, 0]


def toy_dataset() -> lm.Dataset:
    """16 rows, one 3-level factor, one squared continuous, one plain."""
    from logitmargins.dataset import (BinaryColumn, CategoricalColumn,
                                      ContinuousColumn)
    g = ["a", "b", "c", "a", "b", "c", "a", "b", "c", "a", "b", "c", "a", "b", "a", "c"]
    x = [0.5, 1.0, 2.0, 3.0, 1.5, 0.8, 2.5, 0.2, 1.1, 2.2, 0.9, 1.7, 3.1, 0.4, 1.9, 2.8]
    z = [1.0, -1.0, 0.5, 2.0, 0.0, 1.5, -0.5, 1.0, 2.5, 0.3, -1.2, 0.8, 1.1, 2.2, -0.7, 0.6]
    y = [0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1]
    levels = ("a", "b", "c")
    codes = np.array([levels.index(v) for v in g], dtype=np.int64)
    return lm.Dataset(name="toy", columns=(
        BinaryColumn("y", np.array(y, dtype=np.float64)),
        CategoricalColumn("g", levels, codes),
        ContinuousColumn("x", np.array(x)),
        ContinuousColumn("z", np.array(z)),
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
