"""The demos run end to end: each exits 0 and prints its walkthrough.

Demo 03 (integration diagnostics) takes about 15 s on 2 cores, so it is
left out of this suite; run it with
``python3 demos/03_rolling_and_drifting.py``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_jacobi_defect_tour.py",
                                  "02_routes_cross_check.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
