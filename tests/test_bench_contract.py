"""The names the benchmark's tracer patches must exist in psdk.

`bench/trace_child.py` wraps the functions listed in its TRACED table, and
`experiments._run_ordered` and `experiments.RUNNERS`, by name; a rename or a
deletion there, or a `_run_ordered` that no longer takes `(worker, jobs,
threads)` positionally, would crash `bench/run.py --trace 1`. The tracer is
loaded from its file, unchanged, so this test follows the table as it is
edited. `bench/checks.py` regenerates random draws through `psdk.models`
calls with positional arguments, which must keep binding. The tracer and
the checker also iterate over the samplers' stacked factors; a test runs
both uses on a stack. Two tests run the CLI under the tracer and the
checker's own self-test, `bench/test_checks.py`, as they are.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_CHILD = ROOT / "bench" / "trace_child.py"


def _trace_child():
    spec = importlib.util.spec_from_file_location("bench_trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_table():
    return _trace_child().TRACED


def test_traced_names_exist_in_psdk():
    missing = [
        f"{modname}.{name}"
        for modname, names in _traced_table().items()
        for name in names
        if not callable(getattr(importlib.import_module(modname), name, None))
    ]
    assert not missing, f"bench/trace_child.py traces names psdk lacks: {missing}"


def test_experiment_hooks_exist():
    from psdk import experiments

    assert callable(experiments._run_ordered)
    # the tracer calls _run_ordered(worker, jobs, threads) positionally
    inspect.signature(experiments._run_ordered).bind("worker", "jobs", "threads")
    assert isinstance(experiments.RUNNERS, dict) and experiments.RUNNERS
    assert all(callable(runner) for runner in experiments.RUNNERS.values())


def test_checker_calls_bind_to_psdk_models():
    """The positional calls `bench/checks.py` makes into psdk.models."""
    from psdk import models

    calls = [
        (models.gaussian_svd_signal, ("p", "k", "rng")),
        (models.intrinsic_samples, ("signal", "sigma", "count", "rng")),
        (models.spiked_covariance, ("p", "k", "rng")),
        (models.gaussian_samples, ("cov", "n", "rng")),
        (models.derive_stream_id, (0, "pi", "rep")),
        (models.derive_stream_id, (2, "gi", "rep", "machine")),
        (models.RngStream, ("seed", "stream_id")),
    ]
    for fn, args in calls:
        inspect.signature(fn).bind(*args)


def test_tracer_and_checker_read_a_stack_of_samples():
    """`trace_child` lists karcher_mean's argument and sizes it as M p x p
    inputs; `bench/checks.py` forms `[s.matrix for s in samples]`."""
    import numpy as np

    from psdk import manifold, models

    p, k, count = 12, 3, 7
    signal = models.gaussian_svd_signal(p, k, models.RngStream(0, 0))
    samples = models.intrinsic_samples(signal, 0.5, count, models.RngStream(0, 1))
    tracer = _trace_child().Tracer()
    traced = tracer.wrap("manifold.karcher_mean", manifold.karcher_mean)
    mean = traced(samples)
    assert np.array_equal(mean.entries, manifold.karcher_mean(samples).entries)
    [span] = tracer.spans
    assert span[1] == "manifold.karcher_mean" and span[7] is None
    assert span[6] == 8 * count * p * p
    mats = [s.matrix for s in samples]
    assert len(mats) == count and all(m.shape == (p, p) for m in mats)


def test_the_cli_runs_under_the_tracer(tmp_path, child_env):
    """`trace_child` rewrites RUNNERS' entries before the CLI builds its
    parser and runs; the traced run exits 0 and records its runner span."""
    spans = tmp_path / "spans.json"
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(spans), "--", "perturb-order",
         "--config", str(ROOT / "tests" / "reference" / "perturb_order.cfg"), "--out", str(out)],
        env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = [span[1] for span in json.loads(spans.read_text())["spans"]]
    assert names and "experiments.runner" in names
    assert out.read_text().startswith("experiment,")


def test_the_checker_self_test_passes(child_env):
    """`bench/test_checks.py`, run unchanged from the repository root, accepts
    each workload's clean CSV and rejects its corrupted copies."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "test_checks.py")],
        cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sum(line.startswith("ok - ") for line in proc.stdout.splitlines()) == 4, proc.stdout
