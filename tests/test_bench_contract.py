"""The names the benchmark's tracer patches must exist in psdk.

`bench/trace_child.py` wraps the functions listed in its TRACED table, and
`experiments._run_ordered` and `experiments.RUNNERS`, by name; a rename or a
deletion there, or a `_run_ordered` that no longer takes `(worker, jobs,
threads)` positionally, would crash `bench/run.py --trace 1`. The tracer is
loaded from its file, unchanged, so this test follows the table as it is
edited.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"


def _traced_table():
    spec = importlib.util.spec_from_file_location("bench_trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


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
