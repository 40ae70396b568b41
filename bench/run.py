"""Benchmark runner for logitmargins.

    python3 bench/run.py --workload {cli-paper,lib-margins,lib-bootstrap}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  This process is the single load generator: it runs one child
process at a time in a closed loop, every child pinned to
``OPENBLAS_NUM_THREADS=1`` and ``MARGINS_THREADS=1``.  Inputs come from the
bundled synthetic-corpus generator, seeded by ``--seed``.  Every output is
checked against the independent results of ``oracle.py`` (and, at the
default seeds, against the committed ``reference.json``), and every pass
must reproduce the first pass byte for byte.

With ``--trace 0`` it reports the end-to-end metrics (``setup_s``,
``wall_s``, ``peak_rss_mb``); with ``--trace 1`` the per-layer metrics from
a separate traced run.  Every metric is printed as ``name value unit``, then
the last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed / attempted`` is the error rate.  Details, the
environment and the raw samples go to ``.bench_out/<workload>-<mode>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PINNED = {"OPENBLAS_NUM_THREADS": "1", "MARGINS_THREADS": "1"}
# variables OpenBLAS reads for its thread count; removed for the diagnostic
# pass so it runs at the library default
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

PROBES = 3        # fresh-interpreter imports per run, for setup_s
SYNTH_REPEATS = 5
MIN_PASSES = 3
CHILD_TIMEOUT = 170

RTOL = 1e-6       # against the oracle and the reference: fits converge to ~1e-10
ATOL = 1e-10
IDENTITY_TOL = 1e-12  # an effect against the difference of its predictions

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

KINDS = ("aap", "ame", "apm", "mem", "aprv", "merv")
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.fit.s", "s"),
    ("cli.margins.s", "s"),
    ("dataset.load_csv.s", "s"),
    ("dataset.load_csv.calls", "count"),
    ("dataset.load_csv.rows", "count"),
    ("formula.parse_formula.s", "s"),
    ("formula.parse_formula.calls", "count"),
    ("formula.build_design.s", "s"),
    ("formula.build_design.calls", "count"),
    ("formula.substitute_matrix.s", "s"),
    ("formula.substitute_matrix.calls", "count"),
    ("formula.substitute_matrix.bytes_copied", "bytes"),
    ("logit.fit.s", "s"),
    ("logit.fit.calls", "count"),
    ("logit.fit.iterations", "count"),
    ("logit.fit.other_s", "s"),
    ("logit.fit.alloc_peak_mb", "MB"),
    ("logit.score_and_hessian.s", "s"),
    ("logit.score_and_hessian.calls", "count"),
    ("logit.log_likelihood.s", "s"),
    ("logit.log_likelihood.calls", "count"),
    ("logit.fit_stats.s", "s"),
    ("logit.to_json.s", "s"),
    ("logit.from_json.s", "s"),
    *((f"margins.compute_margins.{k}.{m}", u) for k in KINDS
      for m, u in (("s", "s"), ("rows", "count"), ("alloc_peak_mb", "MB"))),
    ("margins.bootstrap_se.s", "s"),
    ("margins.bootstrap.s_per_replicate", "s"),
    ("margins.bootstrap.replicates", "count"),
    ("margins.bootstrap.failed", "count"),
    ("margins.bootstrap.kept_ratio", "ratio"),
    ("margins.margins_tsv.s", "s"),
    ("svgplot.render.s", "s"),
    ("svgplot.render.bytes", "bytes"),
    ("synth.generate.s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("diag.default_threads.wall_s", "s"),
    ("diag.default_threads.ratio", "ratio"),
)

# per-layer metric -> span aggregate it is read from ("self_s" is self time,
# "incl_s" includes the children)
FROM_SPANS = {
    "dataset.load_csv.s": "dataset.load_csv.self_s",
    "dataset.load_csv.calls": "dataset.load_csv.calls",
    "dataset.load_csv.rows": "dataset.load_csv.rows",
    "formula.parse_formula.s": "formula.parse_formula.self_s",
    "formula.parse_formula.calls": "formula.parse_formula.calls",
    "formula.build_design.s": "formula.build_design.self_s",
    "formula.build_design.calls": "formula.build_design.calls",
    "formula.substitute_matrix.s": "formula.substitute_matrix.self_s",
    "formula.substitute_matrix.calls": "formula.substitute_matrix.calls",
    "formula.substitute_matrix.bytes_copied": "formula.substitute_matrix.bytes_copied",
    "logit.fit.s": "logit.fit.incl_s",
    "logit.fit.calls": "logit.fit.calls",
    "logit.fit.iterations": "logit.fit.iterations",
    "logit.fit.other_s": "logit.fit.self_s",
    "logit.score_and_hessian.s": "logit.score_and_hessian.self_s",
    "logit.score_and_hessian.calls": "logit.score_and_hessian.calls",
    "logit.log_likelihood.s": "logit.log_likelihood.self_s",
    "logit.log_likelihood.calls": "logit.log_likelihood.calls",
    "logit.fit_stats.s": "logit.fit_stats.self_s",
    "logit.to_json.s": "logit.to_json.self_s",
    "logit.from_json.s": "logit.from_json.self_s",
    **{f"margins.compute_margins.{k}.s": f"margins.compute_margins.{k}.self_s"
       for k in KINDS},
    **{f"margins.compute_margins.{k}.rows": f"margins.compute_margins.{k}.rows"
       for k in KINDS},
    "margins.bootstrap_se.s": "margins.bootstrap_se.self_s",
    "margins.bootstrap.replicates": "margins.bootstrap_se.replicates",
    "margins.bootstrap.failed": "margins.bootstrap_se.failed",
    "margins.margins_tsv.s": "margins.margins_tsv.self_s",
    "svgplot.render.s": "svgplot.render.self_s",
    "svgplot.render.bytes": "svgplot.render.bytes",
}

Row = namedtuple("Row", "label at est se z p lo hi")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, a crashed child)."""


# ---------------------------------------------------------------- processes

def child_env(pinned: bool = True) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    if pinned:
        env.update(PINNED)
    else:
        for var in BLAS_THREAD_VARS:
            env.pop(var, None)
        env["MARGINS_THREADS"] = PINNED["MARGINS_THREADS"]
    return env


def run_child(mode: str, workdir: Path, env: dict, **opts) -> dict:
    """Run ``child.py`` in ``mode`` to completion and return its report."""
    out = workdir / f"child-{mode}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--mode", mode, "--out", str(out),
           "--workdir", str(workdir)]
    for key, value in opts.items():
        cmd += [f"--{key}", str(value)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"child {mode} exited {proc.returncode}:\n{proc.stderr}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def cli_pass(workdir: Path, env: dict) -> dict:
    """One cli-paper pass: four fresh ``python -m logitmargins`` processes.
    Returns each call's wall time, exit code, stderr and output digests."""
    from child import digest
    from workloads import CLI_CALLS, cli_argv
    calls = {}
    for name, argv, outputs in CLI_CALLS:
        for fname in outputs:
            (workdir / fname).unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "logitmargins", *cli_argv(argv, workdir)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT)
        wall = time.perf_counter() - start
        files = {f: digest((workdir / f).read_text(encoding="utf-8"))
                 if (workdir / f).exists() else None for f in outputs}
        calls[name] = {"wall_s": wall, "code": proc.returncode,
                       "stderr": proc.stderr[-2000:], "files": files}
    return calls


# ------------------------------------------------------------------ checks

def parse_tsv(text: str) -> list[Row]:
    lines = text.rstrip("\n").split("\n")
    if lines[0].split("\t") != ["label", "at", "estimate", "std_err", "z", "p",
                                "ci_low", "ci_high"]:
        raise ValueError(f"unexpected TSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != len(Row._fields):
            raise ValueError(f"malformed TSV line {line!r}")
        label, at, *nums = fields
        rows.append(Row(label, float(at) if at else None, *map(float, nums)))
    return rows


def close(a: float, b: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def row_problems(got: list[Row], want) -> list[str]:
    """Compare rows with expected (label, at, estimate, se) tuples, and check
    each row's z, p and interval against its own estimate and se."""
    from oracle import Z95
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    problems = []
    for r, (label, at, est, se) in zip(got, want):
        where = f"{label} at {at}"
        if r.label != label or (r.at is None) != (at is None) or (
                at is not None and abs(r.at - at) > 1e-12):
            problems.append(f"row {r.label!r} at {r.at}, expected {where}")
            continue
        if not close(r.est, est):
            problems.append(f"{where}: estimate {r.est!r}, expected {est!r}")
        if not close(r.se, se):
            problems.append(f"{where}: se {r.se!r}, expected {se!r}")
        if r.se > 0:
            z = r.est / r.se
            if not close(r.z, z, 1e-9, 0.0):
                problems.append(f"{where}: z {r.z!r} is not estimate/se {z!r}")
            if not close(r.p, math.erfc(abs(z) / math.sqrt(2.0)), RTOL, 1e-300):
                problems.append(f"{where}: p {r.p!r} does not match z")
        if not (close(r.lo, r.est - Z95 * r.se, 1e-9, 1e-15)
                and close(r.hi, r.est + Z95 * r.se, 1e-9, 1e-15)):
            problems.append(f"{where}: interval is not estimate -+ {Z95} se")
    return problems


EFFECT_OF = {"AME": "AAP", "MEM": "APM", "MERV": "APRV"}


def identity_problems(rows: list[Row], lookup: list[Row]) -> list[str]:
    """Each factor effect must equal the difference of its two predictions,
    when both predictions are among ``lookup``."""
    pred = {(r.label, r.at): r.est for r in lookup}
    problems = []
    for r in rows:
        prefix, _, rest = r.label.partition(" ")
        if prefix not in EFFECT_OF or "=" not in rest:
            continue
        var, _, pair = rest.partition("=")
        level, _, ref = pair.partition("-")
        a = pred.get((f"{EFFECT_OF[prefix]} {var}={level}", r.at))
        b = pred.get((f"{EFFECT_OF[prefix]} {var}={ref}", r.at))
        if a is not None and b is not None and abs(r.est - (a - b)) > IDENTITY_TOL:
            problems.append(f"{r.label} at {r.at}: {r.est!r} != {a!r} - {b!r}")
    return problems


def vector_problems(name: str, got, want) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: length {len(got)}, expected {len(want)}"]
    return [f"{name}[{j}] = {g!r}, expected {w!r}"
            for j, (g, w) in enumerate(zip(got, want)) if not close(g, w, RTOL, 1e-9)]


class Ledger:
    """Operations attempted and failed, with the reasons for failures.

    The first pass of an operation is checked against the oracle
    (:meth:`record`); later passes are compared with the first
    (:meth:`repeat`) and fail as well when the first one failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, bool] = {}

    def record(self, op: str, problems: list[str]):
        self.first.setdefault(op, bool(problems))
        self._count(op, problems, bool(problems))

    def repeat(self, op: str, problems: list[str]):
        self._count(op, problems, bool(problems) or self.first.get(op, False))

    def _count(self, op: str, problems: list[str], failed: bool):
        self.attempted += 1
        self.failed += failed
        self.problems.extend(f"{op}: {p}" for p in problems[:5])


# ---------------------------------------------------------------- expected

def expected(workload: str, model):
    """Expected rows per operation from the oracle, and for the bootstrap the
    expected number of failed replicates (otherwise None)."""
    import oracle as o
    from workloads import (BOOT_REPS, BOOT_SEED, GRID_JIF, GRID_JIF_BY_LEVEL,
                           margin_battery)
    if workload == "cli-paper":
        return {"aap_univ": o.factor_predictions(model, "univ")
                + o.factor_effects(model, "univ"),
                "aap_jif": o.grid_predictions(model, "jif", GRID_JIF),
                "aprv": o.representative_predictions(model, "univ", "jif",
                                                     GRID_JIF_BY_LEVEL)}, None
    if workload == "lib-margins":
        rows = {"aap_univ": lambda: o.factor_predictions(model, "univ"),
                "ame_univ": lambda: o.factor_effects(model, "univ"),
                "apm_univ": lambda: o.factor_predictions(model, "univ", atmeans=True),
                "mem_univ": lambda: o.factor_effects(model, "univ", atmeans=True),
                "aap_jif": lambda: o.grid_predictions(model, "jif", GRID_JIF),
                "ame_jif": lambda: o.grid_slopes(model, "jif", GRID_JIF),
                "ame_jif_observed": lambda: o.observed_slope(model, "jif"),
                "aprv": lambda: o.representative_predictions(model, "univ", "jif",
                                                             GRID_JIF_BY_LEVEL),
                "merv": lambda: o.representative_effects(model, "univ", "jif",
                                                         GRID_JIF_BY_LEVEL)}
        # the battery's order is the order of the rows in its table
        return {name: rows[name]() for name, _ in margin_battery()}, None
    ses, failures = o.bootstrap_se(model, "univ", BOOT_REPS, BOOT_SEED)
    rows = [(label, at, est, float(se))
            for (label, at, est, _), se in zip(o.factor_effects(model, "univ"), ses)]
    return {"bootstrap": rows}, failures


def reference_for(workload: str, seed: int):
    """Committed rows for the workload's default corpus seed, else None."""
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh).get(workload)
    if ref is None or ref["seed"] != seed:
        return None
    return {op: [tuple(r) for r in rows] for op, rows in ref["rows"].items()}


def table_problems(got, want, reference, lookup) -> list[str]:
    problems = row_problems(got, want)
    if reference is not None:
        problems += [f"reference: {p}" for p in row_problems(got, reference)]
    return problems + identity_problems(got, lookup)


def as_record(rows: list[Row]) -> list:
    return [[r.label, r.at, r.est, r.se] for r in rows]


# --------------------------------------------------------------- workloads

def check_cli_first(ledger, record, workdir, model, want, reference, codes):
    """Check the files of the first cli-paper pass against the oracle."""
    from workloads import CLI_CALLS
    texts = {f: (workdir / f).read_text(encoding="utf-8")
             for _, _, outputs in CLI_CALLS for f in outputs if (workdir / f).exists()}
    problems = [] if codes["fit"] == 0 else [f"exit code {codes['fit']}"]
    try:
        doc = json.loads(texts["model.json"])
        problems += vector_problems("beta", doc["beta"], model.beta.tolist())
        problems += vector_problems("cov diagonal",
                                    [row[j] for j, row in enumerate(doc["cov"])],
                                    model.cov.diagonal().tolist())
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        problems.append(f"model.json unreadable: {exc!r}")
    ledger.record("fit", problems)
    for op in ("aap_univ", "aap_jif", "aprv"):
        problems = [] if codes[op] == 0 else [f"exit code {codes[op]}"]
        if op != "aap_univ" and f"{op}.svg" not in texts:
            problems.append("no plot written")
        try:
            got = parse_tsv(texts[f"{op}.tsv"])
        except (KeyError, ValueError) as exc:
            problems.append(f"table unreadable: {exc!r}")
        else:
            problems += table_problems(got, want[op], reference and reference[op], got)
            record[op] = as_record(got)
        ledger.record(op, problems)


def check_cli_repeat(ledger, first: dict, codes: dict, files: dict):
    """A later pass: same exit codes and byte-identical files as the first."""
    from workloads import CLI_CALLS
    for name, _, outputs in CLI_CALLS:
        problems = [] if codes.get(name) == 0 else [f"exit code {codes.get(name)}"]
        problems += [f"{f} differs from the first pass" for f in outputs
                     if files.get(f) is None or files[f] != first[f]]
        ledger.repeat(name, problems)


def run_cli_paper(args, workdir, model, want, reference, ledger, record) -> dict:
    """Subprocess passes (two in the traced run), then, when tracing, the
    default-thread diagnostic pass and the in-process traced passes."""
    from child import digest
    from workloads import CLI_CALLS
    env = child_env()
    walls, fit_walls, margins_walls = [], [], []
    first_files = None
    begin = time.perf_counter()
    while len(walls) < (2 if args.trace else MIN_PASSES) or (
            not args.trace and time.perf_counter() - begin < args.seconds):
        calls = cli_pass(workdir, env)
        walls.append(sum(c["wall_s"] for c in calls.values()))
        fit_walls.append(calls["fit"]["wall_s"])
        margins_walls.append(walls[-1] - calls["fit"]["wall_s"])
        codes = {n: c["code"] for n, c in calls.items()}
        files = {f: d for c in calls.values() for f, d in c["files"].items()}
        ledger.problems += [f"{n} stderr: {c['stderr']}" for n, c in calls.items()
                            if c["code"] != 0]
        if first_files is None:
            first_files = files
            check_cli_first(ledger, record, workdir, model, want, reference, codes)
        else:
            check_cli_repeat(ledger, first_files, codes, files)
    out = {"walls": walls, "cli.fit.s": statistics.median(fit_walls),
           "cli.margins.s": statistics.median(margins_walls)}
    if not args.trace:
        return out

    calls = cli_pass(workdir, child_env(pinned=False))
    out["diag_wall_s"] = sum(c["wall_s"] for c in calls.values())
    out["diag_ratio"] = out["diag_wall_s"] / statistics.median(walls)
    check_cli_repeat(ledger, first_files, {n: c["code"] for n, c in calls.items()},
                     {f: d for c in calls.values() for f, d in c["files"].items()})

    report = run_child("trace", workdir, env, workload=args.workload, seed=args.seed,
                       seconds=args.seconds)
    # an in-process pass must exit 0 and write exactly the subprocess files
    same = digest(json.dumps({"codes": {n: 0 for n, _, _ in CLI_CALLS},
                              "files": first_files}, sort_keys=True))
    for p in report["passes"]:
        problems = [p["error"]] if p["error"] is not None else (
            [] if p["digest"] == same else ["in-process pass differs from the CLI"])
        for name, _, _ in CLI_CALLS:
            ledger.repeat(name, problems)
    out["child"] = report
    return out


def check_lib_first(ledger, record, output, model, want, failures, reference):
    """Check the outputs of the first library pass against the oracle."""
    try:
        rows = parse_tsv(output["tsv"])
    except ValueError as exc:
        for op in want:
            ledger.record(op, [f"table unreadable: {exc!r}"])
        return
    if failures is not None:
        from workloads import BOOT_REPS
        problems = []
        if output["replicates"] != BOOT_REPS:
            problems.append(f"{output['replicates']} replicates, expected {BOOT_REPS}")
        if output["failures"] != failures:
            problems.append(f"{output['failures']} failed replicates, expected {failures}")
        problems += table_problems(rows, want["bootstrap"],
                                   reference and reference["bootstrap"], rows)
        ledger.record("bootstrap", problems)
        record["bootstrap"] = as_record(rows)
        return
    fit_problems = vector_problems("beta", output["beta"], model.beta.tolist())
    fit_problems += vector_problems("se", output["se"],
                                    [math.sqrt(v) for v in model.cov.diagonal()])
    total = sum(len(expect) for expect in want.values())
    if len(rows) != total:
        fit_problems.append(f"{len(rows)} rows in the table, expected {total}")
    start = 0
    for op, expect in want.items():
        got = rows[start:start + len(expect)]
        start += len(expect)
        ledger.record(op, fit_problems + table_problems(
            got, expect, reference and reference[op], rows))
        record[op] = as_record(got)


def run_lib(args, workdir, model, want, failures, reference, ledger, record) -> dict:
    """One child runs the passes; when tracing, a second child runs the
    default-thread diagnostic pass."""
    report = run_child("trace" if args.trace else "plain", workdir, child_env(),
                       workload=args.workload, seed=args.seed, seconds=args.seconds)
    passes = report["passes"]
    if args.trace:
        diag = run_child("once", workdir, child_env(pinned=False),
                         workload=args.workload, seed=args.seed, seconds=0)
        passes = passes + diag["passes"]
    first = None
    for p in passes:
        if p["error"] is not None:
            ledger.problems.append(p["error"])
            problems = [p["error"].strip().splitlines()[-1]]
        elif first is None:
            first = p
            check_lib_first(ledger, record, p["output"], model, want, failures,
                            reference)
            continue
        else:
            problems = [] if p["digest"] == first["digest"] else [
                "output differs from the first pass"]
        for op in want:
            ledger.repeat(op, problems)
    out = {"walls": [p["wall_s"] for p in report["passes"] if p["mode"] is None],
           "child": report}
    if args.trace:
        out["diag_wall_s"] = diag["passes"][0]["wall_s"]
        out["diag_ratio"] = out["diag_wall_s"] / report["warmup_s"]
        out["diag_blas"] = diag["blas"]
    return out


# ------------------------------------------------------------------ metrics

def per_layer(out: dict, setup_samples, synth_s) -> dict:
    child = out["child"]
    passes = child["passes"]
    traced = [p["aggregate"] for p in passes if p["mode"] == "spans"]
    untraced = [p["wall_s"] for p in passes if p["mode"] is None]

    def med(key):
        return statistics.median(a.get(key, 0.0) for a in traced)

    values = {name: med(key) for name, key in FROM_SPANS.items()}
    values["cli.import_s"] = statistics.median(setup_samples)
    values["cli.fit.s"] = out.get("cli.fit.s", 0.0)
    values["cli.margins.s"] = out.get("cli.margins.s", 0.0)
    reps = values["margins.bootstrap.replicates"]
    values["margins.bootstrap.s_per_replicate"] = (
        med("margins.bootstrap_se.incl_s") / reps if reps else 0.0)
    values["margins.bootstrap.kept_ratio"] = (
        (reps - values["margins.bootstrap.failed"]) / reps if reps else 0.0)
    alloc = child.get("alloc_peak_mb", {})
    values["logit.fit.alloc_peak_mb"] = alloc.get("logit.fit", 0.0)
    for k in KINDS:
        values[f"margins.compute_margins.{k}.alloc_peak_mb"] = alloc.get(
            f"margins.compute_margins.{k}", 0.0)
    values["synth.generate.s"] = synth_s
    values["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in passes if p["mode"] == "spans")
        / statistics.median(untraced))
    values["diag.default_threads.wall_s"] = out["diag_wall_s"]
    values["diag.default_threads.ratio"] = out["diag_ratio"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def cpu_ticks():
    """(all, steal) clock ticks of the machine's CPUs so far, from /proc/stat;
    None where that file does not exist."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except OSError:
        return None
    return sum(ticks), ticks[7]


def cpu_model() -> str:
    """CPU model from py-cpuinfo, cached in the output directory because the
    lookup takes about a second."""
    cache = OUT / "cpu_model.txt"
    if cache.exists():
        return cache.read_text(encoding="utf-8")
    try:
        import cpuinfo
        cpu = cpuinfo.get_cpu_info().get("brand_raw", "unknown")
    except ImportError:
        cpu = platform.processor() or "unknown"
    cache.write_text(cpu, encoding="utf-8")
    return cpu


def environment(blas: dict, diag_blas=None) -> dict:
    import numpy
    import scipy
    cpu = cpu_model()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or "unknown"
    env = {**PINNED, "blas_threads": blas, "cpu": cpu, "nproc": os.cpu_count(),
           "affinity_cpus": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "commit": commit}
    if diag_blas is not None:
        env["blas_threads_default"] = diag_blas
    return env


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    import workloads as wl
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, help="corpus seed (default: the tests' corpus)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="how long the timed passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = wl.DEFAULT_SEED[args.workload]
    if not (SRC / "logitmargins" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)  # before numpy is loaded in this process
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"{args.workload}-{'trace' if args.trace else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    env = child_env()
    probes = [run_child("probe", workdir, env) for _ in range(PROBES)]
    setup_samples = [p["import_s"] for p in probes]

    import oracle
    from logitmargins import dataset
    synth_walls = []
    for _ in range(SYNTH_REPEATS):
        start = time.perf_counter()
        ds = wl.corpus(args.workload, args.seed)
        synth_walls.append(time.perf_counter() - start)
    if args.workload == "cli-paper":
        dataset.to_csv(ds, workdir / "corpus.csv")
        raw = oracle.raw_from_csv(workdir / "corpus.csv")
    else:
        raw = oracle.raw_from_dataset(ds)
    model = oracle.Model(raw)
    want, failures = expected(args.workload, model)
    reference = reference_for(args.workload, args.seed)

    ledger, record = Ledger(), {}
    ticks_before = cpu_ticks()
    if args.workload == "cli-paper":
        out = run_cli_paper(args, workdir, model, want, reference, ledger, record)
    else:
        out = run_lib(args, workdir, model, want, failures, reference, ledger, record)
        setup_samples.append(out["child"]["import_s"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    ticks_after = cpu_ticks()

    if args.trace:
        metrics = per_layer(out, setup_samples, statistics.median(synth_walls))
    else:
        values = {"setup_s": statistics.median(setup_samples),
                  "wall_s": statistics.median(out["walls"]),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    env_info = environment(probes[0]["blas"], out.get("diag_blas"))
    if ticks_before is not None and ticks_after is not None:
        # time the hypervisor gave to other guests while the workload ran; on
        # a shared host it accounts for part of the run-to-run spread
        env_info["host_steal_share"] = ((ticks_after[1] - ticks_before[1])
                                        / max(1, ticks_after[0] - ticks_before[0]))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_info, "result": result,
              "setup_samples": setup_samples, "synth_walls": synth_walls,
              "walls": out["walls"], "peak_rss_mb": peak_rss_mb, "rows": record,
              "problems": ledger.problems, "child": out.get("child")}
    with open(workdir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for problem in ledger.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(env_info, sort_keys=True))
    print(f"error_rate {ledger.failed / ledger.attempted:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
