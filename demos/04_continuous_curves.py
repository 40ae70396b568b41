"""Prediction and effect curves for continuous variables, with SVG output.

With squared terms in the model a single number cannot summarize the effect
of journal impact or document length, so the AAP is traced over a grid of
representative values and its derivative (the AME) alongside.  The sign
change of the AME locates the point where extra pages start to hurt.
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


def save_plot(rows, path, y_label, predictions):
    series = Series(name=rows[0].label,
                    x=tuple(r.at_value for r in rows),
                    estimate=tuple(r.estimate for r in rows),
                    low=tuple(r.ci_low for r in rows),
                    high=tuple(r.ci_high for r in rows))
    spec = PlotSpec(x_label=rows[0].label.split()[-1], y_label=y_label,
                    series=(series,), y_range=(0, 1) if predictions else None)
    path.write_text(render(spec))
    print(f"  wrote {path}")


def curve(kind, var, grid):
    return lm.compute_margins(fr, design,
                              lm.MarginRequest(kind=kind, target=var, at=(var, grid)))


jif_grid = tuple(range(0, 36))
aap_jif = curve("aap", "jif", jif_grid)
print("adjusted predictions over journal impact:")
for r in aap_jif[::7]:
    print(f"  jif {r.at_value:>4.0f}: {r.estimate:.3f} [{r.ci_low:.3f}, {r.ci_high:.3f}]")
save_plot(aap_jif, OUT / "aap_jif.svg", "adjusted prediction", True)

ame_jif = curve("ame", "jif", jif_grid)
save_plot(ame_jif, OUT / "ame_jif.svg", "marginal effect", False)

pages_grid = tuple(range(1, 121))
aap_pages = curve("aap", "pages", pages_grid)
ame_pages = curve("ame", "pages", pages_grid)
save_plot(aap_pages, OUT / "aap_pages.svg", "adjusted prediction", True)
save_plot(ame_pages, OUT / "ame_pages.svg", "marginal effect", False)

sign_flip = next(r.at_value for r in ame_pages if r.estimate < 0)
print(f"\nthe fitted page-length effect turns negative at about "
      f"{sign_flip:.0f} pages;")
tp = -fr.beta[design.term_map.linear_col('pages')] / (
    2 * fr.beta[design.term_map.square_col('pages')])
print(f"the exact zero of the fitted slope is at {tp:.1f} pages "
      "(grid points beyond the observed range carry an extrapolation flag).")
