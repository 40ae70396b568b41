"""Generate a synthetic publication corpus and describe it.

The bundled generator draws university, subject-area, and document-type
shares, journal impact factors, publication ages, author counts, and page
counts from fixed marginal distributions, then assigns each publication a
highly-cited indicator from a logit model with known coefficients.  Because
the truth is known, every downstream estimate in the other demos can be
sanity-checked against it.
"""

import numpy as np

import logitmargins as lm

cfg = lm.default_config(n=15426, seed=7)
ds = lm.generate(cfg)

print(f"corpus: {ds.n_rows} publications, columns {', '.join(ds.names)}")
print(f"share highly cited: {ds.column('top10').values.mean():.3f}\n")

print(f"{'variable':<24}{'%/mean':>10}{'sd':>9}{'min':>8}{'max':>8}")
for row in lm.summarize(ds):
    name = row.variable if row.level is None else f"{row.variable}={row.level}"
    kind = ds.column(row.variable).kind
    value = f"{row.value:.4g}" if kind == "continuous" else f"{row.value:.1f}%"
    sd = "" if row.sd is None else f"{row.sd:.3g}"
    print(f"{name:<24}{value:>10}{sd:>9}{row.vmin:>8.3g}{row.vmax:>8.3g}")

print("\nThe same corpus is reproducible from its seed:")
again = lm.generate(cfg)
print("identical on regeneration:", again == ds)
