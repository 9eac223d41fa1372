"""The demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", ["02_landau_levels.py", "04_error_orders.py"])
def test_oracle_demo_runs(demo):
    _run(demo)


# 05 drives spectrum_via_GGdag end to end; 07 fits with oracle.log_slope
@pytest.mark.parametrize("demo", ["01_hofstadter_butterfly.py",
                                  "03_block_diagonalization.py",
                                  "05_two_band_coupling.py",
                                  "06_almost_mathieu.py",
                                  "07_remainder_orders.py"])
def test_demo_runs(demo):
    _run(demo)
