"""Smoke test: the narrative demos run and write their plots.

``06_bootstrap_check.py`` is left out: it takes seconds and repeats the
bootstrap acceptance check.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).parent.parent / "demos"
SCRIPTS = ("01_generate_and_describe.py", "02_fit_models.py", "03_discrete_margins.py",
           "04_continuous_curves.py", "05_representative_values.py")
SVGS = ("aap_jif.svg", "ame_jif.svg", "aap_pages.svg", "ame_pages.svg",
        "aprv_univ_jif.svg")


def test_demos_run_and_write_their_plots(tmp_path):
    for name in SCRIPTS:
        shutil.copy(DEMOS / name, tmp_path / name)
    paths = (str(DEMOS.parent / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for name in SCRIPTS:
        r = subprocess.run([sys.executable, name], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, f"{name}:\n{r.stderr}"
    for svg in SVGS:
        assert (tmp_path / "out" / svg).read_text().startswith("<svg"), svg
