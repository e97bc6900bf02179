"""Reference outputs: every experiment on a tiny fixed config.

`tests/reference/<name>.csv` is what `python -m psdk <experiment> --config
tests/reference/<name>.cfg` wrote before the experiment runners were
collapsed onto one skeleton. Every column but `error` must match exactly;
`error` goes through LAPACK and BLAS, whose roundoff differs between builds,
so it is compared within ERROR_RTOL. The number of Karcher retries and skips
logged on stderr must match too; `intrinsic_retry_skip` exercises both. Each
progress line on stderr must count the config's `repetitions`, also where two
sweeps of `extrinsic_avg` meet at one (M, sigma_sq) point.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psdk.cli import main
from psdk.experiments import CSV_HEADER, parse_config_file

REFERENCE = Path(__file__).parent / "reference"
ERROR_RTOL = 1e-6

# (config name, Karcher retries, Karcher skips)
CASES = [
    ("intrinsic_avg", 0, 0),
    ("dpca", 0, 0),
    ("extrinsic_avg", 0, 0),
    ("perturb_order", 0, 0),
    ("intrinsic_retry_skip", 1, 1),
]


def _read(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("name, retries, skips", CASES)
def test_reference_output(name, retries, skips, tmp_path, capsys):
    cfg = REFERENCE / f"{name}.cfg"
    command = parse_config_file(cfg)["experiment"].replace("_", "-")
    out = tmp_path / "out.csv"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 0, err
    assert err.count(" retried with rows ") == retries
    assert err.count(" skipped: ") == skips
    counts = re.findall(r": (\d+) repetitions in ", err)
    assert counts and {int(c) for c in counts} == {int(parse_config_file(cfg)["repetitions"])}
    _assert_matches_reference(out, name)


def test_a_fresh_cli_process_writes_the_reference(tmp_path, blas_free_env):
    """`python -m psdk` in a new interpreter, where the CLI loads OpenBLAS
    at one thread before numpy, writes the reference; dpca forks its pool."""
    out = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, "-m", "psdk", "dpca", "--config",
                           str(REFERENCE / "dpca.cfg"), "--out", str(out)],
                          cwd=tmp_path, env=blas_free_env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    _assert_matches_reference(out, "dpca")


def _assert_matches_reference(out, name):
    """The CSV at `out` is `name`'s reference: every column but `error`
    exactly, `error` within ERROR_RTOL."""
    header, rows = _read(out)
    ref_header, ref_rows = _read(REFERENCE / f"{name}.csv")
    assert header == ref_header == CSV_HEADER
    assert len(rows) == len(ref_rows)
    col = CSV_HEADER.split(",").index("error")
    for row, ref in zip(rows, ref_rows):
        assert row[:col] + row[col + 1:] == ref[:col] + ref[col + 1:]
    np.testing.assert_allclose([float(r[col]) for r in rows],
                               [float(r[col]) for r in ref_rows], rtol=ERROR_RTOL)


def test_stderr_does_not_depend_on_the_worker_count(tmp_path, capsys):
    cfg = str(REFERENCE / "intrinsic_retry_skip.cfg")
    errs = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"threads{threads}.csv"
        code = main(["intrinsic-avg", "--config", cfg, "--threads", threads,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0, err
        errs.append(re.sub(r" in \d+\.\ds$", "", err, flags=re.M))
    assert " retried with rows " in errs[0] and " skipped: " in errs[0]
    assert errs[1] == errs[0]
    assert errs[2] == errs[0]
