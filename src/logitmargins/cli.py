"""Command-line interface: fit, margins, summarize, synth.

See README for the flag grammar.  All file outputs are deterministic given
identical flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Optional

import numpy as np

from . import dataset as ds_mod
from . import logit as logit_mod
from . import margins as mg
from .dataset import ColumnSpec, DataError
from .formula import INDICATOR, FormulaError, build_design, parse_formula
from .svgplot import PlotSpec, Series, render


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _caret(text: str, exc: FormulaError) -> None:
    _err(str(exc))
    if exc.position is not None:
        print(f"  {text}", file=sys.stderr)
        print("  " + " " * exc.position + "^", file=sys.stderr)


def _parse_schema_arg(text: str) -> list[ColumnSpec]:
    """Parse 'name:kind,name:kind[lev1|lev2],...' into column specs."""
    specs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        levels = None
        if "[" in part:
            part, _, rest = part.partition("[")
            if not rest.endswith("]"):
                raise DataError(f"unterminated level list in schema near {part!r}")
            levels = tuple(rest[:-1].split("|"))
        name, sep, kind = part.partition(":")
        if not sep:
            raise DataError(f"schema entry {part!r} needs name:kind")
        specs.append(ColumnSpec(name.strip(), kind.strip(), levels=levels))
    return specs


def _schema_from_formula(spec, levels=None) -> list[ColumnSpec]:
    """The columns a formula reads; ``levels`` pins the level order of its factors."""
    out = [ColumnSpec(spec.response, "binary")]
    seen = {spec.response}
    for term in spec.terms:
        if term.var in seen:
            continue
        seen.add(term.var)
        if term.transform == INDICATOR:
            out.append(ColumnSpec(term.var, "categorical", (levels or {}).get(term.var)))
        else:
            out.append(ColumnSpec(term.var, "continuous"))
    return out


def _load_data(path, schema):
    ds = ds_mod.load_csv(path, schema)
    if ds.n_dropped:
        print(f"note: dropped {ds.n_dropped} row(s) with missing values",
              file=sys.stderr)
    return ds


def _parse_refs(values) -> dict[str, str]:
    refs = {}
    for v in values or ():
        var, sep, level = v.partition("=")
        if not sep:
            raise DataError(f"--ref needs VAR=LEVEL, got {v!r}")
        refs[var.strip()] = level.strip()
    return refs


def _stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def cmd_fit(args) -> int:
    try:
        spec = parse_formula(args.model)
    except FormulaError as exc:
        _caret(args.model, exc)
        return 2
    schema = _parse_schema_arg(args.schema) if args.schema else _schema_from_formula(spec)
    ds = _load_data(args.data, schema)
    design = build_design(ds, spec, reference=_parse_refs(args.ref))
    fr = logit_mod.fit(design, max_iter=args.max_iter, tol=args.tol)
    stats = logit_mod.fit_stats(fr)

    labels = design.term_map.labels
    width = max(len(l) for l in labels) + 2
    print(f"{'term':<{width}}{'coef':>12}  {'(z)':>9}")
    for j, label in enumerate(labels):
        coef = f"{fr.beta[j]:.4g}{_stars(stats.p[j])}"
        print(f"{label:<{width}}{coef:>12}  ({stats.z[j]:.2f})")
    print("-" * (width + 24))
    print(f"{'N':<{width}}{fr.n:>12}")
    print(f"{'pseudo R2':<{width}}{stats.pseudo_r2:>12.3f}")
    print(f"{'AIC':<{width}}{stats.aic:>12.1f}")
    print(f"{'BIC':<{width}}{stats.bic:>12.1f}")
    print(f"{'chi2':<{width}}{stats.lr_chi2:>12.1f}")
    print(f"{'D.F.':<{width}}{stats.df:>12}")
    print("* p < 0.05, ** p < 0.01, *** p < 0.001")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(logit_mod.to_json(fr, args.model))
    return 0


def _parse_target(text: str) -> tuple[str, bool, Optional[str]]:
    """'C(univ),u2' -> (univ, True, 'u2'); 'jif' -> (jif, False, None)."""
    body, sep, base = (part.strip() for part in text.partition(","))
    is_factor = body.startswith(("C(", "c("))
    if is_factor:
        if not body.endswith(")"):
            raise mg.MarginsError(f"{text!r}: expected C(VAR) or C(VAR),BASE")
        body = body[2:-1].strip()
    return body, is_factor, base if sep else None


# conventional grids for the corpus variables; any explicit range overrides
DEFAULT_GRIDS = {"jif": (0.0, 35.0, 1.0), "pages": (1.0, 120.0, 1.0)}
MAX_GRID_POINTS = 10_000  # the paper's grids have 27-36 points


def _parse_at(text: str) -> tuple[str, tuple[float, ...]]:
    var, sep, rng = text.partition("=")
    var = var.strip()
    if not sep:
        if var in DEFAULT_GRIDS:
            lo, hi, step = DEFAULT_GRIDS[var]
        else:
            raise mg.MarginsError(f"--at needs VAR=LO:HI:STEP "
                                  f"(no default grid for {var!r})")
    else:
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise mg.MarginsError(f"--at range must be LO:HI:STEP, got {rng!r}")
        try:
            lo, hi, step = (float(p) for p in pieces)
        except ValueError:
            raise mg.MarginsError(f"--at range must be numbers LO:HI:STEP, "
                                  f"got {rng!r}") from None
    if not np.isfinite((lo, hi, step)).all():
        raise mg.MarginsError(f"--at range must be finite, got {rng!r}")
    if step <= 0 or hi < lo:
        raise mg.MarginsError(f"bad --at range {rng!r}")
    # count the points before building the grid; inf when hi - lo overflows
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise mg.MarginsError(f"--at range {rng!r} has more than "
                              f"{MAX_GRID_POINTS} points")
    grid = tuple(lo + i * step for i in range(int(span) + 1))
    return var, grid


def _build_requests(args, factors) -> list[mg.MarginRequest]:
    """Translate margins flags into requests on a model whose factors are
    ``factors``; a ``C(VAR)`` target must name one of them, and the requests
    reject the fields they would ignore; see README for the valid
    combinations."""
    if sum(1 for f in (args.aap, args.ame, args.over) if f) > 1:
        raise mg.MarginsError("--aap, --ame and --over are mutually exclusive")
    if args.dydx and (args.aap or args.ame):
        raise mg.MarginsError("--dydx applies only to --over and a bare --at")
    at = _parse_at(args.at) if args.at else None

    def request(pred: bool, var: str, base: Optional[str] = None) -> mg.MarginRequest:
        kind = ("apm" if pred else "mem") if args.atmeans else ("aap" if pred else "ame")
        return mg.MarginRequest(kind=kind, target=var, base=base, at=at,
                                ci_level=args.ci, discrete=args.discrete)

    target = args.aap or args.ame or args.over
    if target is None:
        if at is None:
            raise mg.MarginsError("nothing requested: use --aap, --ame, --at, or --over")
        return [request(not args.dydx, at[0])]
    var, is_factor, base = _parse_target(target)
    if is_factor and var not in factors:
        raise mg.MarginsError(f"{target!r}: {var!r} is not a factor of the model")
    if args.over:
        if not is_factor:
            raise mg.MarginsError("--over takes a factor, e.g. --over C(univ)")
        if at is None:
            raise mg.MarginsError("--over requires an --at grid")
        return [request(not args.dydx, var, base)]
    if is_factor and at is not None:
        raise mg.MarginsError("use --over C(...) --at ... for curves over a factor's levels")
    if args.aap and is_factor:
        return [request(True, var), request(False, var, base)]
    return [request(bool(args.aap), var, base)]


def _human_margins(rows, ci: float) -> str:
    width = max(len(r.label) for r in rows) + 2
    lines = [f"{'':<{width}}{'at':>8}{'estimate':>10}{'std err':>10}"
             f"{'z':>9}{'p':>8}  [{100 * ci:g}% CI]"]
    for r in rows:
        at = "" if r.at_value is None else f"{r.at_value:g}"
        lines.append(
            f"{r.label:<{width}}{at:>8}{r.estimate:>10.4g}{r.se:>10.4g}"
            f"{r.z:>9.2f}{r.p:>8.3f}  [{r.ci_low:.4g}, {r.ci_high:.4g}]"
            + ("  (extrapolated)" if r.extrapolated else ""))
    return "\n".join(lines)


def _plot_rows(rows, path, requests) -> None:
    predictions = all(req.kind in ("aap", "apm", "aprv") for req in requests)
    by_label: dict[str, list] = {}
    for r in rows:
        by_label.setdefault(r.label, []).append(r)
    series = tuple(
        Series(name=label,
               x=tuple(r.at_value for r in rs),
               estimate=tuple(r.estimate for r in rs),
               low=tuple(r.ci_low for r in rs),
               high=tuple(r.ci_high for r in rs))
        for label, rs in by_label.items())
    spec = PlotSpec(x_label=requests[0].at[0],
                    y_label="adjusted prediction" if predictions else "marginal effect",
                    series=series,
                    y_range=(0.0, 1.0) if predictions else None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(spec))
    with open(f"{path}.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("series", "at", "estimate", "ci_low", "ci_high"))
        for label, rs in by_label.items():
            for r in rs:
                numbers = (r.at_value, r.estimate, r.ci_low, r.ci_high)
                writer.writerow([label, *(f"{v:.17g}" for v in numbers)])


def cmd_margins(args) -> int:
    if args.plot and not args.at:  # the one flag rule checked before any file is read
        raise mg.MarginsError("--plot requires margins over an --at grid")
    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            fr, formula_text = logit_mod.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read model JSON {args.model}: {exc}") from None
    requests = _build_requests(args, fr.term_map.factor_levels)
    try:
        spec = parse_formula(formula_text)
    except FormulaError as exc:
        _caret(formula_text, exc)
        return 2
    # the stored level order pins the dummy coding; an unseen level is an error
    ds = _load_data(args.data, _schema_from_formula(spec, fr.term_map.factor_levels))
    design = build_design(ds, spec, reference=fr.term_map.reference)
    if design.term_map != fr.term_map:
        raise FormulaError(f"the term map in {args.model} does not match its formula")
    rows = []
    if args.vce == "bootstrap":  # the requests share one resample and refit loop
        for res in mg._bootstrap(design, requests, args.reps, args.seed):
            rows.extend(res.rows)
            if res.failures:
                print(f"note: {res.failures}/{res.replicates} bootstrap "
                      "replicates failed and were skipped", file=sys.stderr)
    else:
        for req in requests:
            rows.extend(mg.compute_margins(fr, design, req))

    flagged = [r for r in rows if r.extrapolated]
    if flagged:
        uniq = sorted({r.at_value for r in flagged})
        vals = ", ".join(f"{v:g}" for v in uniq[:8])
        more = "" if len(uniq) <= 8 else f" (+{len(uniq) - 8} more)"
        print(f"warning: {len(flagged)} row(s) evaluated outside the observed "
              f"range at {vals}{more}", file=sys.stderr)

    print(_human_margins(rows, args.ci))
    if args.table:
        with open(args.table, "w", encoding="utf-8") as fh:
            fh.write(mg.margins_tsv(rows))
    if args.plot:
        _plot_rows(rows, args.plot, requests)
    return 0


def cmd_summarize(args) -> int:
    ds = _load_data(args.data, _parse_schema_arg(args.schema) if args.schema
                    else ds_mod.sniff_schema(args.data))
    print(f"{'variable':<28}{'%/mean':>10}{'sd':>10}{'min':>10}{'max':>10}")
    for row in ds_mod.summarize(ds):
        name = row.variable if row.level is None else f"{row.variable}={row.level}"
        col = ds.column(row.variable)
        if col.kind == "continuous":
            value = f"{row.value:.4g}"
        else:
            value = f"{row.value:.1f}%"
        sd = "—" if row.sd is None else f"{row.sd:.4g}"
        print(f"{name:<28}{value:>10}{sd:>10}{row.vmin:>10.4g}{row.vmax:>10.4g}")
    print(f"n = {ds.n_rows}")
    return 0


def cmd_synth(args) -> int:
    from . import synth as synth_mod  # the one command that needs the generator
    cfg = synth_mod.default_config(args.n, args.seed, correlated=args.correlated,
                                   coeffs=synth_mod.DEFAULT_COEFFS if args.coeffs is None
                                   else args.coeffs)
    ds = synth_mod.generate(cfg)
    ds_mod.to_csv(ds, args.out)
    print(f"wrote {ds.n_rows} rows to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="logitmargins",
                                 description="Binary logit models with adjusted "
                                             "predictions and marginal effects.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a logit model and write model JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="formula, e.g. 'y ~ C(g) + x + x^2'")
    p.add_argument("--schema", help="name:kind[,...] override for column typing")
    p.add_argument("--ref", action="append", metavar="VAR=LEVEL",
                   help="reference level override (repeatable)")
    p.add_argument("--out", help="path for the model JSON")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="stop when the next Newton step is below TOL standard errors "
                        "in every coefficient (default 1e-10)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("margins", help="adjusted predictions and marginal effects")
    p.add_argument("--model", required=True, help="model JSON from `fit`")
    p.add_argument("--data", required=True)
    p.add_argument("--aap", metavar="TARGET", help="adjusted predictions: C(factor) "
                   "for a discrete block, or a continuous var with --at")
    p.add_argument("--ame", metavar="TARGET[,BASE]", help="marginal effects")
    p.add_argument("--at", metavar="VAR=LO:HI:STEP", help="grid of representative "
                   f"values, at most {MAX_GRID_POINTS} points")
    p.add_argument("--over", metavar="C(FACTOR)[,BASE]",
                   help="one curve per factor level over the --at grid")
    p.add_argument("--dydx", action="store_true",
                   help="effects instead of predictions for --over and a bare --at")
    p.add_argument("--discrete", action="store_true",
                   help="unit-change continuous effects instead of derivatives")
    p.add_argument("--atmeans", action="store_true",
                   help="evaluate at a single row of sample means")
    p.add_argument("--vce", choices=("delta", "bootstrap"), default="delta")
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ci", type=float, default=0.95)
    p.add_argument("--plot", metavar="OUT.svg")
    p.add_argument("--table", metavar="OUT.tsv")
    p.set_defaults(func=cmd_margins)

    p = sub.add_parser("summarize", help="descriptive table for a CSV file")
    p.add_argument("--data", required=True)
    p.add_argument("--schema")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("synth", help="generate a synthetic corpus CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--coeffs", help="coefficient JSON (path or bundled name; default: "
                                    "the bundled model)")
    p.add_argument("--correlated", action="store_true",
                   help="shift journal-impact means per university")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    return ap


def main(argv=None) -> int:
    """Run one command.  Exit status 0 on success; 1 with one ``error:`` line
    for a library error, an unreadable or unwritable file, or running out of
    memory; 2 for a usage or formula syntax error."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, FormulaError, logit_mod.FitError, mg.MarginsError, OSError,
            MemoryError) as exc:  # a SynthError is a DataError
        _err(str(exc) or "out of memory")  # numpy's MemoryError names the array
        return 1


if __name__ == "__main__":
    sys.exit(main())
