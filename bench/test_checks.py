"""The output checks reject corrupted CSVs.

For every workload, runs the CLI once on the workload's config, shows that
the checks accept the CSV it wrote, then feeds them three corrupted copies
and shows that each is rejected: one error value scaled by 10, one row
dropped, and the method labels of one job's first two records swapped. For
the two workloads with an independent recomputation it also shows that a
0.1% change to a recomputed row is caught.

Run from the root of a source checkout:

    python3 bench/test_checks.py        (or: python3 -m pytest bench)
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEED = 11


def _cli_csv(workload, tmp):
    """CSV text of one CLI run of `workload`; BLAS pinned, as speed is not measured."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    out = os.path.join(tmp, workload + ".csv")
    subprocess.run(
        [sys.executable, "-m", "psdk", WORKLOADS[workload],
         "--config", os.path.join(HERE, "workloads", workload + ".cfg"),
         "--seed", str(SEED), "--out", out],
        env=env, check=True, capture_output=True, timeout=300)
    with open(out, encoding="utf-8", newline="") as fh:
        return fh.read()


def _edit(text, fn):
    lines = text.split("\n")
    header, rows = lines[0], [line.split(",") for line in lines[1:-1]]
    fn(rows)
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


def _job_rows(cfg, which):
    """Row positions (0-based, header excluded) of the job at layout index `which`."""
    layout = checks.expected_layout(cfg)
    start = sum(len(labels) for _, labels in layout[:which])
    return list(range(start, start + len(layout[which][1])))


def corruptions(cfg, text):
    """The three corrupted copies of a valid CSV, by name."""
    last = _job_rows(cfg, -1)
    first = _job_rows(cfg, 0)

    def scale(rows):
        rows[last[0]][9] = repr(10.0 * float(rows[last[0]][9]))

    def drop(rows):
        del rows[len(rows) // 2]

    def swap(rows):
        a, b = rows[first[0]], rows[first[1]]
        a[1], b[1] = b[1], a[1]

    return {"scaled": _edit(text, scale), "dropped": _edit(text, drop),
            "swapped": _edit(text, swap)}


def _recomputed_job(cfg):
    """Layout index of the first job the checks recompute."""
    rep = SEED % cfg["repetitions"]
    for i, (key, _) in enumerate(checks.expected_layout(cfg)):
        if key[-1] == rep:
            return i
    raise AssertionError("no recomputed job")


def check_workload(workload, tmp):
    cfg = checks.parse_config(os.path.join(HERE, "workloads", workload + ".cfg"))
    text = _cli_csv(workload, tmp)
    clean = checks.check_csv(cfg, text, SEED)
    assert clean.ok, f"{workload}: clean CSV rejected: {clean.failed} {clean.problems}"
    for name, bad in corruptions(cfg, text).items():
        report = checks.check_csv(cfg, bad, SEED)
        assert not report.ok, f"{workload}: {name} CSV accepted"
    if cfg["experiment"] in ("intrinsic_avg", "dpca"):
        # "full" is the first dpca record; "karcher" the first intrinsic one.
        row = _job_rows(cfg, _recomputed_job(cfg))[0]

        def nudge(rows):
            rows[row][9] = repr(1.001 * float(rows[row][9]))

        report = checks.check_csv(cfg, _edit(text, nudge), SEED)
        assert report.failed, f"{workload}: 0.1% change to a recomputed row accepted"


def test_intrinsic_karcher():
    with tempfile.TemporaryDirectory() as tmp:
        check_workload("intrinsic-karcher", tmp)


def test_dpca_machines():
    with tempfile.TemporaryDirectory() as tmp:
        check_workload("dpca-machines", tmp)


def test_extrinsic_data():
    with tempfile.TemporaryDirectory() as tmp:
        check_workload("extrinsic-data", tmp)


def test_perturb_small():
    with tempfile.TemporaryDirectory() as tmp:
        check_workload("perturb-small", tmp)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp_dir:
        for name in WORKLOADS:
            check_workload(name, tmp_dir)
            print(f"ok - {name}: clean CSV accepted, corrupted copies rejected")
