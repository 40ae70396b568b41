"""Span tracing installed from outside the package.

Each public function of interest is wrapped where its consumer looks it up
(the ``cli`` module binds ``build_design``, ``parse_formula`` and ``render``
by name; ``margins`` binds ``fit`` and ``substitute_matrix`` by name; the
rest are reached through module attributes).  A wrapper records one span
(name, start, end, parent) plus a few counts taken from its arguments or
result.  Spans stay in memory until :meth:`Tracer.dump`.

The same wrappers can instead record ``tracemalloc`` peaks for ``fit`` and
each ``compute_margins`` kind; that mode is run on its own pass because
allocation tracking distorts every timing it overlaps.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict

from logitmargins import cli, dataset, formula, logit, margins, svgplot


def _kind(rows) -> str:
    # the effective margin kind is the label prefix: an `aap` request on a
    # factor with an `at` grid is routed to APRV, for example
    return rows[0].label.split(" ", 1)[0].lower() if rows else "empty"


def _counts_substitute(args, kwargs, result):
    n, k = result.shape
    return {"bytes_copied": n * k * 8}


def _counts_load_csv(args, kwargs, result):
    return {"rows": result.n_rows}


def _counts_fit(args, kwargs, result):
    return {"iterations": result.iterations}


def _counts_bootstrap(args, kwargs, result):
    return {"replicates": result.replicates, "failed": result.failures}


def _counts_render(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _counts_margins(args, kwargs, result):
    return {"rows": len(result), "kind": _kind(result)}


# (module, attribute, span name, count extractor); one entry per binding a
# consumer resolves at call time
BINDINGS = (
    (dataset, "load_csv", "dataset.load_csv", _counts_load_csv),
    (formula, "parse_formula", "formula.parse_formula", None),
    (cli, "parse_formula", "formula.parse_formula", None),
    (formula, "build_design", "formula.build_design", None),
    (cli, "build_design", "formula.build_design", None),
    (formula, "substitute_matrix", "formula.substitute_matrix", _counts_substitute),
    (margins, "substitute_matrix", "formula.substitute_matrix", _counts_substitute),
    (logit, "fit", "logit.fit", _counts_fit),
    (margins, "fit", "logit.fit", _counts_fit),
    (logit, "score_and_hessian", "logit.score_and_hessian", None),
    (logit, "log_likelihood", "logit.log_likelihood", None),
    (logit, "fit_stats", "logit.fit_stats", None),
    (logit, "to_json", "logit.to_json", None),
    (logit, "from_json", "logit.from_json", None),
    (margins, "compute_margins", "margins.compute_margins", _counts_margins),
    (margins, "bootstrap_se", "margins.bootstrap_se", _counts_bootstrap),
    (margins, "margins_tsv", "margins.margins_tsv", None),
    (svgplot, "render", "svgplot.render", _counts_render),
    (cli, "render", "svgplot.render", _counts_render),
)

# spans whose allocation peak is recorded in the allocation pass; they never
# nest inside one another, so resetting the peak on entry is safe
ALLOC_SPANS = ("logit.fit", "margins.compute_margins")


class Tracer:
    """Collects spans while ``mode`` is ``"spans"`` and allocation peaks while
    it is ``"alloc"``; wrappers are transparent when ``mode`` is ``None``."""

    def __init__(self):
        self.mode = None
        self.spans: list[dict] = []
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def install(self):
        """Replace every binding in :data:`BINDINGS` with its wrapper, for the
        rest of the process."""
        for module, attr, name, counts in BINDINGS:
            setattr(module, attr, self._wrap(name, getattr(module, attr), counts))

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.mode == "spans":
                return self._span(name, fn, counts, args, kwargs)
            if self.mode == "alloc" and name in ALLOC_SPANS:
                return self._alloc(name, fn, args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn, counts, args, kwargs):
        span = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            span.update(counts(args, kwargs, result))
        return result

    def _alloc(self, name, fn, args, kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
        if name == "margins.compute_margins":
            name = f"{name}.{_kind(result)}"
        self.alloc_peak[name] = max(self.alloc_peak[name], peak)
        return result

    def take(self) -> list[dict]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def dump(path, passes: list[list[dict]]):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"passes": passes}, fh)


def aggregate(spans: list[dict]) -> dict[str, float]:
    """Per-name totals over one pass: inclusive and self seconds, calls, and
    summed counts.  Self time is a span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s, covered in zip(spans, child_time):
        name = s["name"]
        if name == "margins.compute_margins":
            name = f"{name}.{s['kind']}"
        dur = s["end"] - s["start"]
        out[f"{name}.incl_s"] += dur
        out[f"{name}.self_s"] += dur - covered
        out[f"{name}.calls"] += 1
        for key, value in s.items():
            if key not in ("name", "parent", "start", "end", "kind"):
                out[f"{name}.{key}"] += value
    return dict(out)
