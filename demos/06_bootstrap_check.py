"""Cross-check delta-method standard errors with a row bootstrap.

The delta method linearizes the margin in the coefficients; the bootstrap
refits the whole pipeline on resampled rows.  On a healthy problem the two
agree within a few percent, which is a useful end-to-end audit of both the
gradients and the resampling machinery.  The replicates run in one loop,
each from its own child seed spawned from the master seed, so the comparison
is exactly reproducible.
"""

import logitmargins as lm

FORMULA = ("top10 ~ C(univ) + C(subject) + C(doctype) + jif + jif^2 + years "
           "+ authors + pages + pages^2")

ds = lm.generate(lm.default_config(n=2000, seed=61))
design = lm.build_design(ds, lm.parse_formula(FORMULA))
fr = lm.fit(design)

for kind in ("aap", "ame"):
    req = lm.MarginRequest(kind=kind, target="univ")
    delta_rows = lm.compute_margins(fr, design, req)
    boot = lm.bootstrap_se(design, req, reps=500, seed=1101)
    print(f"\n{kind.upper()} rows (delta vs bootstrap se):")
    for d, b in zip(delta_rows, boot.rows):
        rel = abs(b.se - d.se) / d.se
        print(f"  {d.label:<24} delta {d.se:.5f}   boot {b.se:.5f}   "
              f"rel diff {100 * rel:4.1f}%")
    if boot.failures:
        print(f"  ({boot.failures} replicate refits failed and were skipped)")
