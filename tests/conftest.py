import os
from pathlib import Path

import pytest

import psdk


@pytest.fixture
def child_env():
    """Environment for a Python child process that imports this same psdk.

    A relative PYTHONPATH entry such as `src` does not resolve from the
    child's working directory, so the import root of the package loaded
    here goes first; inherited entries and all other variables pass through.
    """
    env = dict(os.environ)
    root = str(Path(psdk.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + inherited if inherited else "")
    return env


@pytest.fixture
def blas_free_env(child_env):
    """`child_env` without the BLAS thread variables, so that a child sees
    OpenBLAS's own default thread count, as a user's shell does."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        child_env.pop(name, None)
    return child_env


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running, or exited but not
    reaped: forked experiment workers and subprocesses must end with it."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")
