"""What each workload runs: corpus sizes, CLI argument lists and library passes.

Shared by ``run.py``, which needs the CLI argument lists and the
corpus parameters, and the in-process child (``child.py``), which runs the
library passes.
"""

from __future__ import annotations

WORKLOADS = ("cli-paper", "lib-margins", "lib-bootstrap")

PAPER_N = 15426
BOOT_N = 2000
# corpus seeds used by the tests; --seed overrides them
DEFAULT_SEED = {"cli-paper": 7, "lib-margins": 7, "lib-bootstrap": 61}
CORPUS_N = {"cli-paper": PAPER_N, "lib-margins": PAPER_N, "lib-bootstrap": BOOT_N}

BOOT_REPS = 200
BOOT_SEED = 1101

FORMULA = ("top10 ~ C(univ) + C(subject) + C(doctype) + jif + jif^2 + years "
           "+ authors + pages + pages^2")

# the CLI builds its grids as lo + i*step; these match 0:35:1 and 0:13:0.5
GRID_JIF = tuple(0.0 + i * 1.0 for i in range(36))
GRID_JIF_BY_LEVEL = tuple(0.0 + i * 0.5 for i in range(27))

# CLI calls of one cli-paper pass: (name, argv, files the call writes); "{d}"
# stands for the directory that holds the corpus and the outputs
CLI_CALLS = (
    ("fit", ["fit", "--data", "{d}/corpus.csv", "--model", FORMULA,
             "--out", "{d}/model.json"],
     ("model.json",)),
    ("aap_univ", ["margins", "--model", "{d}/model.json", "--data", "{d}/corpus.csv",
                  "--aap", "C(univ)", "--table", "{d}/aap_univ.tsv"],
     ("aap_univ.tsv",)),
    ("aap_jif", ["margins", "--model", "{d}/model.json", "--data", "{d}/corpus.csv",
                 "--aap", "jif", "--at", "jif=0:35:1", "--plot", "{d}/aap_jif.svg",
                 "--table", "{d}/aap_jif.tsv"],
     ("aap_jif.tsv", "aap_jif.svg", "aap_jif.svg.csv")),
    ("aprv", ["margins", "--model", "{d}/model.json", "--data", "{d}/corpus.csv",
              "--over", "C(univ)", "--at", "jif=0:13:0.5", "--plot", "{d}/aprv.svg",
              "--table", "{d}/aprv.tsv"],
     ("aprv.tsv", "aprv.svg", "aprv.svg.csv")),
)


def cli_argv(argv, directory) -> list[str]:
    """A CLI argument list with its files placed in ``directory``."""
    return [a.replace("{d}", str(directory)) for a in argv]


def corpus(workload: str, seed: int):
    """The workload's synthetic corpus (a ``Dataset``) for ``seed``."""
    import logitmargins as lm
    cfg = lm.default_config(CORPUS_N[workload], seed)
    if cfg.formula != FORMULA:
        raise RuntimeError(f"bundled formula changed: {cfg.formula!r}")
    return lm.generate(cfg)


def margin_battery():
    """The paper's margin battery as (name, request) pairs, in output order."""
    from logitmargins.margins import MarginRequest as R
    return (
        ("aap_univ", R("aap", "univ")),
        ("ame_univ", R("ame", "univ")),
        ("apm_univ", R("apm", "univ")),
        ("mem_univ", R("mem", "univ")),
        ("aap_jif", R("aap", "jif", at=("jif", GRID_JIF))),
        ("ame_jif", R("ame", "jif", at=("jif", GRID_JIF))),
        ("ame_jif_observed", R("ame", "jif")),
        ("aprv", R("aprv", "univ", at=("jif", GRID_JIF_BY_LEVEL))),
        ("merv", R("merv", "univ", at=("jif", GRID_JIF_BY_LEVEL))),
    )


def boot_request():
    from logitmargins.margins import MarginRequest
    return MarginRequest("ame", "univ")
