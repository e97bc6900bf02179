"""Smoke tests: the narrated demos and every `python` block of README.md run
to completion against this psdk, and the sample config loads."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from psdk.experiments import load_config

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           flags=re.M | re.S)


@pytest.mark.parametrize("demo", ["geometry_tour", "expansion_orders", "distributed_pca",
                                  "averaging_under_intrinsic_noise", "averaging_from_data"])
def test_demo_runs(demo, child_env, tmp_path):
    proc = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")], cwd=tmp_path,
                          env=child_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_sample_config_loads():
    cfg = load_config("dpca", path=DEMOS / "sample.cfg")
    assert (cfg.p, cfg.K, cfg.M_grid, cfg.index_mode, cfg.threads) == (
        50, 5, (20,), "find_index_machine1", 4)


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", range(len(README_BLOCKS)))
def test_readme_block_runs(block):
    """Each fenced python block of README.md runs on its own, in a fresh namespace."""
    exec(compile(README_BLOCKS[block], f"README.md python block {block}", "exec"), {})
