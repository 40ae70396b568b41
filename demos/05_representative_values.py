"""Predictions and effects at representative values: factor curves over a grid.

Averages can hide how a contrast changes across the range of another
variable.  Here each university's adjusted prediction is traced over
journal-impact values (APRV), and the university-3-versus-1 contrast (MERV)
shows a modest gap at low impact growing severalfold at higher impact.
"""

from pathlib import Path

import logitmargins as lm
from logitmargins.svgplot import PlotSpec, Series, render

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

FORMULA = ("top10 ~ C(univ) + C(subject) + C(doctype) + jif + jif^2 + years "
           "+ authors + pages + pages^2")

ds = lm.generate(lm.default_config(n=15426, seed=7, correlated=True))
design = lm.build_design(ds, lm.parse_formula(FORMULA))
fr = lm.fit(design)

grid = tuple(0.5 * i for i in range(27))  # 0 .. 13
levels = fr.term_map.factor_levels["univ"]
rows = lm.compute_margins(fr, design,
                          lm.MarginRequest(kind="aprv", target="univ", at=("jif", grid)))

series = []
for level in levels:
    mine = [r for r in rows if r.label.endswith(f"={level}")]
    series.append(Series(name=level,
                         x=tuple(r.at_value for r in mine),
                         estimate=tuple(r.estimate for r in mine),
                         low=tuple(r.ci_low for r in mine),
                         high=tuple(r.ci_high for r in mine)))
(OUT / "aprv_univ_jif.svg").write_text(
    render(PlotSpec("jif", "adjusted prediction", tuple(series), y_range=(0, 1))))
print("wrote", OUT / "aprv_univ_jif.svg")

contrast = lm.compute_margins(fr, design, lm.MarginRequest(
    kind="merv", target="univ", levels=("univ3",), base="univ1", at=("jif", grid)))
print("\nuniv3 - univ1 contrast over journal impact:")
for r in contrast[::6]:
    print(f"  jif {r.at_value:>4.1f}: {r.estimate:+.4f} "
          f"[{r.ci_low:+.4f}, {r.ci_high:+.4f}]")
first, last = contrast[0], contrast[-1]
print(f"\ngap grows from {100 * first.estimate:.1f}pp at jif 0 "
      f"to {100 * last.estimate:.1f}pp at jif 13.")
