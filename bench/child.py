"""In-process side of a workload: import, passes, and the traced passes.

Started by ``run.py`` one process at a time, with the thread environment
``run.py`` chose.  Writes one JSON document to ``--out``:

* ``import_s``: wall time of ``import logitmargins`` in this fresh interpreter;
* ``blas``: the thread counts the loaded OpenBLAS libraries report;
* ``passes``: one entry per pass with its wall time, its tracer mode, any
  error, and a digest of everything it produced (the first pass also carries
  the outputs themselves, for the correctness check in ``run.py``);
* in ``trace`` mode, per-pass span aggregates and allocation peaks; the raw
  spans go to ``spans.json`` beside ``--out``.

Modes: ``probe`` (the import only), ``plain`` (a warm-up, then passes for
``--seconds``), ``once`` (a single cold pass, for the default-thread
diagnostic) and ``trace`` (a warm-up, then untraced and traced passes
alternating for ``--seconds``, then one allocation-tracking pass).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

MIN_PASSES = 3


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library mapped into this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


class LibMargins:
    """build_design, fit, fit_stats, the margin battery and margins_tsv."""

    def __init__(self, seed: int, workdir: Path):
        import workloads
        self.ds = workloads.corpus("lib-margins", seed)
        self.battery = workloads.margin_battery()

    def run(self):
        from logitmargins import formula, logit, margins
        from workloads import FORMULA
        design = formula.build_design(self.ds, formula.parse_formula(FORMULA))
        fr = logit.fit(design)
        stats = logit.fit_stats(fr)
        rows = []
        for _, request in self.battery:
            rows.extend(margins.compute_margins(fr, design, request))
        return margins.margins_tsv(rows), fr.beta.tolist(), stats.se.tolist()

    @staticmethod
    def summary(result):
        tsv, beta, se = result
        out = {"tsv": tsv, "beta": beta, "se": se}
        return out, digest(tsv, json.dumps(beta), json.dumps(se))


class LibBootstrap:
    """bootstrap_se of the AME of univ on the n=2000 corpus."""

    def __init__(self, seed: int, workdir: Path):
        import workloads
        from logitmargins import formula
        ds = workloads.corpus("lib-bootstrap", seed)
        self.design = formula.build_design(ds, formula.parse_formula(workloads.FORMULA))
        self.request = workloads.boot_request()

    def run(self):
        from logitmargins import margins
        from workloads import BOOT_REPS, BOOT_SEED
        return margins.bootstrap_se(self.design, self.request, BOOT_REPS, BOOT_SEED,
                                    workers=1)

    @staticmethod
    def summary(result):
        from logitmargins import margins
        tsv = margins.margins_tsv(result.rows)
        out = {"tsv": tsv, "replicates": result.replicates, "failures": result.failures}
        return out, digest(tsv, str(result.replicates), str(result.failures))


class CliInProcess:
    """The cli-paper pass through ``cli.main(argv)`` in this process; the
    ``run.py`` has already written the corpus CSV into ``workdir``."""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir

    def run(self):
        from logitmargins import cli
        from workloads import CLI_CALLS, cli_argv
        codes = {}
        with open(os.devnull, "w", encoding="utf-8") as null, \
                contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
            for name, argv, _ in CLI_CALLS:
                codes[name] = cli.main(cli_argv(argv, self.workdir))
        return codes

    def summary(self, codes):
        from workloads import CLI_CALLS
        files = {}
        for _, _, outputs in CLI_CALLS:
            for fname in outputs:
                path = self.workdir / fname
                files[fname] = digest(path.read_text(encoding="utf-8")) \
                    if path.exists() else None
                path.unlink(missing_ok=True)
        out = {"codes": codes, "files": files}
        return out, digest(json.dumps(out, sort_keys=True))


RUNNERS = {"lib-margins": LibMargins, "lib-bootstrap": LibBootstrap,
           "cli-paper": CliInProcess}


def one_pass(runner, tracer, mode, keep_output: bool) -> dict:
    """Run and time one pass with the tracer in ``mode`` (None, "spans" or
    "alloc"); a pass that raises is recorded with its traceback."""
    if tracer is not None:
        tracer.mode = mode
    if mode == "alloc":
        tracemalloc.start()
    error, result = None, None
    start = time.perf_counter()
    try:
        result = runner.run()
    except Exception:  # run.py counts a failed pass; it is not fatal here
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    if mode == "alloc":
        tracemalloc.stop()
    if tracer is not None:
        tracer.mode = None
    entry = {"wall_s": wall, "mode": mode, "error": error}
    if error is None:
        out, entry["digest"] = runner.summary(result)
        if keep_output:
            entry["output"] = out
    return entry


def run_passes(args) -> dict:
    """The passes of one workload in ``args.mode``; see the module docstring."""
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, aggregate
        tracer = Tracer()
        tracer.install()
    runner = RUNNERS[args.workload](args.seed, Path(args.workdir))
    if args.mode == "once":
        return {"passes": [one_pass(runner, tracer, None, True)]}

    report = {"warmup_s": one_pass(runner, tracer, None, False)["wall_s"]}
    passes, spans = [], []
    begin = time.perf_counter()
    mode = None
    while True:
        counts = [sum(p["mode"] == m for p in passes) for m in (None, "spans")]
        enough = counts[0] >= MIN_PASSES and (tracer is None or counts[1] >= MIN_PASSES)
        if enough and time.perf_counter() - begin >= args.seconds:
            break
        passes.append(one_pass(runner, tracer, mode, not passes))
        if mode == "spans":
            spans.append(tracer.take())
            passes[-1]["aggregate"] = aggregate(spans[-1])
        if tracer is not None:
            mode = None if mode else "spans"
    if tracer is not None:
        passes.append(one_pass(runner, tracer, "alloc", False))
        report["alloc_peak_mb"] = {name: peak / 2**20
                                   for name, peak in tracer.alloc_peak.items()}
        tracer.dump(Path(args.out).with_name("spans.json"), spans)
    report["passes"] = passes
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("probe", "plain", "once", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workdir")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    import logitmargins  # noqa: F401  (the import is what is timed)
    report = {"import_s": time.perf_counter() - start, "blas": blas_threads()}
    if args.mode != "probe":
        report.update(run_passes(args))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
