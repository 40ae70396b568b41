"""Average adjusted predictions and marginal effects for factors.

Coefficients and odds ratios are hard to read as magnitudes.  The AAP for a
university answers: if every publication in the corpus had come from that
university, other things as observed, what share would be highly cited?
The AME is the difference between two such counterfactual shares, and the
delta method supplies its standard error.
"""

import logitmargins as lm

FORMULA = ("top10 ~ C(univ) + C(subject) + C(doctype) + jif + jif^2 + years "
           "+ authors + pages + pages^2")

ds = lm.generate(lm.default_config(n=15426, seed=7, correlated=True))
design = lm.build_design(ds, lm.parse_formula(FORMULA))
fr = lm.fit(design)


def show(rows):
    for r in rows:
        print(f"  {r.label:<24}{r.estimate:>9.4f}  se {r.se:.4f}  "
              f"z {r.z:>6.2f}  [{r.ci_low:.3f}, {r.ci_high:.3f}]")


for var in ("univ", "subject", "doctype"):
    print(f"\n--- {var} ---")
    show(lm.compute_margins(fr, design, lm.MarginRequest(kind="aap", target=var)))
    show(lm.compute_margins(fr, design, lm.MarginRequest(kind="ame", target=var)))

print("\nThe at-means variants evaluate a single synthetic publication whose"
      "\ncovariates are sample means (fractional university shares and all);"
      "\nthey usually land close to the averaged versions but are not the"
      "\nsame estimand:")
aap, = lm.compute_margins(fr, design,
                          lm.MarginRequest(kind="aap", target="univ", levels=("univ3",)))
apm, = lm.compute_margins(fr, design,
                          lm.MarginRequest(kind="apm", target="univ", levels=("univ3",)))
print(f"  AAP univ3 = {aap.estimate:.4f}   APM univ3 = {apm.estimate:.4f}")
