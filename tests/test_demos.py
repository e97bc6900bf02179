"""Smoke tests: the narrated demos run to completion against this psdk, and
the sample config loads.

`averaging_from_data` is left out: it simulates 2000-point data sets for
about half a minute and is run by hand (`python3 demos/averaging_from_data.py`).
"""

import subprocess
import sys
from pathlib import Path

import pytest

from psdk.experiments import load_config

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["geometry_tour", "expansion_orders", "distributed_pca",
                                  "averaging_under_intrinsic_noise"])
def test_demo_runs(demo, child_env, tmp_path):
    proc = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")], cwd=tmp_path,
                          env=child_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_sample_config_loads():
    cfg = load_config("dpca", path=DEMOS / "sample.cfg")
    assert (cfg.p, cfg.K, cfg.M_grid, cfg.index_mode, cfg.threads) == (
        50, 5, (20,), "find_index_machine1", 4)
