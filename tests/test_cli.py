import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

import psdk
from psdk import experiments, models
from psdk.cli import build_parser, main
from psdk.experiments import CSV_HEADER


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TINY_DPCA = (
    "p = 12\nK = 2\nM_grid = 3\nn_grid = 60, 120\nrepetitions = 3\n"
    "index_mode = canonical\n"
)
TINY_PERTURB = "p = 8\nK = 3\nrepetitions = 2\n"


def test_perturb_order_run(tmp_path, capsys):
    out = tmp_path / "orders.csv"
    code = main(["perturb-order", "--config", _cfg(tmp_path, TINY_PERTURB),
                 "--out", str(out), "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 4 * 3
    assert "remainder slope" in captured.out
    assert f"wrote {len(lines) - 1} records to {out}" in captured.out


def test_a_config_file_p_without_p_grid_is_the_intrinsic_p(tmp_path, capsys):
    """A file that sets p but not p_grid runs intrinsic_avg at that p alone,
    not at the default p grid (100, 200, 300, 400)."""
    out = tmp_path / "intrinsic.csv"
    cfg = _cfg(tmp_path, "p = 12\nK = 2\nM_grid = 3\nrepetitions = 1\n")
    code = main(["intrinsic-avg", "--config", cfg, "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert rows and {row[CSV_HEADER.split(",").index("p")] for row in rows} == {"12"}


def test_dpca_run_is_byte_reproducible(tmp_path, capsys):
    cfg = _cfg(tmp_path, TINY_DPCA)
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "3")):
        out = tmp_path / name
        code = main(["dpca", "--config", cfg, "--out", str(out),
                     "--seed", "11", "--threads", threads])
        assert code == 0, capsys.readouterr().err
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    assert outs[0].decode().count("\n") == 1 + 2 * 3 * 4


def _blas_count_after(run):
    """Set numpy's BLAS to 2 threads, call run() and return its result with
    the count it left; the prior count is restored after."""
    control = experiments._blas_threads()
    if control is None:
        pytest.skip("numpy loads no scipy-openblas thread control")
    get, put = control
    prior = get()
    put(2)
    try:
        return run(), get()
    finally:
        put(prior)


def test_cli_leaves_blas_pinned(tmp_path, capsys):
    code, after = _blas_count_after(lambda: main(
        ["perturb-order", "--config", _cfg(tmp_path, TINY_PERTURB),
         "--out", str(tmp_path / "o.csv"), "--threads", "2"]))
    assert code == 0, capsys.readouterr().err
    assert after == 1


def test_selftest_leaves_blas_pinned(capsys):
    """The selftest forks a threads=2 run; pinned before it, the CLI has no
    prior counts to restore, so no BLAS thread pool restarts after it."""
    code, after = _blas_count_after(lambda: main(["selftest"]))
    assert code == 0, capsys.readouterr().out
    assert after == 1


def test_default_output_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["perturb-order", "--config", _cfg(tmp_path, TINY_PERTURB)])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "perturb_order.csv").exists()


def test_selftest_command(capsys):
    code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert captured.out.count("ok - ") == 5


def test_summary_survives_grid_point_without_karcher_rows(tmp_path, capsys):
    # at M=30 the only Karcher mean is skipped; the slope fit must use M=60 alone
    out = tmp_path / "o.csv"
    cfg = _cfg(tmp_path, "p = 20\np_grid = 20\nK = 5\nsigma_sq = 4.0\n"
               "M_grid = 30, 60\nrepetitions = 1\n")
    code = main(["intrinsic-avg", "--config", cfg, "--out", str(out), "--seed", "5"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err.count(" karcher skipped: ") == 1
    assert f"wrote 3 records to {out}" in captured.out
    assert out.read_text().count("\n") == 1 + 3


# A fresh interpreter runs all four experiments through cli.main, then fails
# on any scipy module it loaded.
_SCIPY_FREE_CHILD = """
import sys
import psdk.cli
runs = [("intrinsic-avg", "p = 8\\np_grid = 8\\nK = 2\\nM_grid = 3\\nrepetitions = 1\\n"),
        ("dpca", "p = 8\\nK = 2\\nM_grid = 3\\nn_grid = 40\\nrepetitions = 2\\nthreads = 2\\n"),
        ("extrinsic-avg", "p = 8\\nK = 2\\nM_grid = 3\\nsigma_grid = 0.2\\nM_fixed = 3\\n"
                          "n_inner = 40\\nrepetitions = 1\\n"),
        ("perturb-order", "p = 8\\nK = 3\\nrepetitions = 1\\n")]
for i, (command, text) in enumerate(runs):
    with open(f"{i}.cfg", "w") as fh:
        fh.write(text)
    code = psdk.cli.main([command, "--config", f"{i}.cfg", "--out", f"{i}.csv"])
    assert code == 0, (command, code)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"psdk loaded scipy: {loaded}"
"""


def test_cli_runs_all_experiments_without_scipy(tmp_path, child_env):
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_CHILD], cwd=tmp_path,
                          env=child_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _child_json(code, cwd, env):
    """Run `code` in a fresh interpreter and return the JSON it prints last."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LAZY_PACKAGE_CHILD = """
import json, sys
import psdk
loaded, listed = "numpy" in sys.modules, dir(psdk)
names = {}
exec("from psdk import *", names)
print(json.dumps({"numpy": loaded, "dir": listed,
                  "star": sorted(n for n in names if n != "__builtins__"),
                  "models": psdk.models is sys.modules["psdk.models"],
                  "linalg": psdk.linalg is sys.modules["psdk.linalg"]}))
"""


def test_import_psdk_loads_no_numpy(tmp_path, blas_free_env):
    """The package imports its submodules, and with them numpy, on first use;
    `dir`, star imports and submodule attributes still see every name."""
    got = _child_json(_LAZY_PACKAGE_CHILD, tmp_path, blas_free_env)
    assert got["numpy"] is False
    assert set(psdk.__all__) <= set(got["dir"])
    assert got["star"] == sorted(psdk.__all__)
    assert got["models"] and got["linalg"]


_NO_MASKED_ARRAYS_CHILD = """
import json, sys
from psdk.cli import main
codes = [main([command, "--config", cfg, "--out", "out.csv"])
         for command, cfg in (("perturb-order", "perturb.cfg"), ("dpca", "dpca.cfg"))]
print(json.dumps({"codes": codes, "ma": "numpy.ma" in sys.modules}))
"""


def test_a_cli_run_loads_no_masked_arrays(tmp_path, blas_free_env):
    """The summaries' medians do not go through `np.median`, whose NaN check
    imports numpy.ma."""
    _cfg(tmp_path, TINY_PERTURB, "perturb.cfg")
    _cfg(tmp_path, TINY_DPCA, "dpca.cfg")
    got = _child_json(_NO_MASKED_ARRAYS_CHILD, tmp_path, blas_free_env)
    assert got == {"codes": [0, 0], "ma": False}


def test_closed_stdout_exits_quietly_after_the_csv(tmp_path, blas_free_env):
    """A reader that closes standard output before the summary is printed
    (`psdk ... | head`) gets the CSV written, no traceback and exit 141."""
    out = tmp_path / "orders.csv"
    proc = subprocess.Popen(
        [sys.executable, "-m", "psdk", "perturb-order", "--config",
         _cfg(tmp_path, TINY_PERTURB), "--out", str(out)],
        cwd=tmp_path, env=blas_free_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=300) == 141, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert out.read_text().startswith(CSV_HEADER)


def test_every_public_name_is_its_submodules_object():
    for name in psdk.__all__:
        module = importlib.import_module(f"psdk.{psdk._SOURCE[name]}")
        assert getattr(psdk, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        psdk.nope


_CLI_LOAD_CHILD = """
import json, os
import psdk.cli
import numpy as np
from psdk import experiments
control = experiments._blas_threads()
a = np.ones((300, 300))
a @ a
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"control": control is not None,
                  "count": control[0]() if control else None, "tasks": tasks}))
"""


def test_cli_loads_blas_single_threaded(tmp_path, blas_free_env):
    """Imported before numpy, the CLI has OpenBLAS load at one thread, so a
    BLAS product starts no worker thread: the process keeps its one thread."""
    got = _child_json(_CLI_LOAD_CHILD, tmp_path, blas_free_env)
    if not got["control"]:
        pytest.skip("numpy loads no scipy-openblas thread control")
    assert got["count"] == 1
    if got["tasks"] is None:
        pytest.skip("no /proc/self/task to count the process's threads")
    assert got["tasks"] == 1


_NUMPY_FIRST_CHILD = """
import json, os, sys
import numpy
import psdk.cli
from psdk import experiments
control = experiments._blas_threads()
if control is None:
    print(json.dumps({"control": False}))
    sys.exit()
get = control[0]
seen = []
run_ordered = experiments._run_ordered

def spy(worker, jobs, threads):
    seen.append(get())
    return run_ordered(worker, jobs, threads)

experiments._run_ordered = spy
with open("run.cfg", "w") as fh:
    fh.write("p = 8\\nK = 3\\nrepetitions = 1\\n")
code = psdk.cli.main(["perturb-order", "--config", "run.cfg", "--out", "o.csv"])
print(json.dumps({"control": True, "code": code, "seen": seen, "after": get(),
                  "env": "OPENBLAS_NUM_THREADS" in os.environ}))
"""


def test_cli_pins_blas_when_numpy_loaded_first(tmp_path, blas_free_env):
    """A caller that loaded numpy before psdk.cli keeps its environment, and
    `main` still runs the experiment at one BLAS thread and leaves it there."""
    got = _child_json(_NUMPY_FIRST_CHILD, tmp_path, blas_free_env)
    if not got["control"]:
        pytest.skip("numpy loads no scipy-openblas thread control")
    assert got["code"] == 0
    assert got["env"] is False
    assert got["seen"] == [1] and got["after"] == 1


def test_parser_offers_one_command_per_runner():
    """The subcommands are the experiments.RUNNERS keys with "-" for "_", in
    its order, then selftest; each keeps its help text as its description."""
    [commands] = [a for a in build_parser()._actions if a.dest == "command"]
    names = [name.replace("_", "-") for name in experiments.RUNNERS] + ["selftest"]
    assert list(commands.choices) == names == [
        "intrinsic-avg", "dpca", "extrinsic-avg", "perturb-order", "selftest"]
    helps = {a.dest: a.help for a in commands._choices_actions}
    assert helps == {
        "intrinsic-avg": "average log-factor-noise samples (Karcher vs Euclidean)",
        "dpca": "one-shot distributed PCA over an (M, n) grid",
        "extrinsic-avg": "average data-observed factor-noise samples",
        "perturb-order": "remainder decay of the first-order expansions",
        "selftest": "run the fast internal consistency battery",
    }
    assert all(commands.choices[name].description == text for name, text in helps.items())


# ---------------------------------------------------------------------------
# exit code 1: configuration problems


def test_unknown_command(capsys):
    assert main(["transmogrify"]) == 1
    assert "psdk: error:" in capsys.readouterr().err


def test_unknown_flag(capsys):
    assert main(["dpca", "--turbo"]) == 1
    assert "psdk: error:" in capsys.readouterr().err


def test_missing_command(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_bad_config_value(tmp_path, capsys):
    code = main(["dpca", "--config", _cfg(tmp_path, "threads = 0\n" + TINY_DPCA)])
    assert code == 1
    assert "threads must be positive" in capsys.readouterr().err


def test_nan_noise_level_is_a_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "p = 8\nK = 2\nM_grid = 3\nsigma_sq = nan\n")
    code = main(["intrinsic-avg", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert "sigma_sq must be finite and nonnegative" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["dpca", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "psdk: error:" in capsys.readouterr().err


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "o.csv"
    code = main(["perturb-order", "--config", _cfg(tmp_path, TINY_PERTURB),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[-1].startswith(f"psdk: error: cannot write {out}:")
    assert "Traceback" not in err


@pytest.mark.parametrize("out", ["missing/o.csv", "."], ids=["missing_directory", "directory"])
def test_unwritable_output_fails_before_the_run(tmp_path, capsys, out):
    out = tmp_path / out
    before = sorted(tmp_path.rglob("*"))
    code = main(["dpca", "--quick", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "[psdk]" not in err
    assert err.startswith(f"psdk: error: cannot write {out}: [Errno ")
    assert sorted(tmp_path.rglob("*")) == before


def test_write_failure_after_the_run_is_a_config_error(tmp_path, capsys, monkeypatch):
    def refuse(records, path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(experiments, "write_csv", refuse)
    out = tmp_path / "o.csv"
    code = main(["perturb-order", "--config", _cfg(tmp_path, TINY_PERTURB), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[-1].startswith(f"psdk: error: cannot write {out}: [Errno 13]")


def test_config_experiment_mismatch_warns_and_wins(tmp_path, capsys):
    out = tmp_path / "o.csv"
    cfg = _cfg(tmp_path, "experiment = dpca\n" + TINY_PERTURB)
    code = main(["perturb-order", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "command line selects 'perturb_order'" in captured.err
    assert out.read_text().split("\n")[1].startswith("perturb_order,")


@pytest.mark.parametrize("command, text, message", [
    ("dpca", "p = 12\nK = 3\nM_grid = 4\nn_grid = 2\n", "n_grid entry 2 smaller than K=3"),
    ("extrinsic-avg", "p = 12\nK = 3\nM_grid = 4\nn_inner = 2\n",
     "extrinsic_avg needs n_inner >= K"),
])
def test_too_few_points_for_rank_k_is_a_config_error(tmp_path, capsys, command, text, message):
    """Fewer points than K give every sample covariance a zero K-th
    eigenvalue; such a config is refused when it loads, before any run."""
    out = tmp_path / "o.csv"
    code = main([command, "--config", _cfg(tmp_path, text), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"psdk: error: {message}\n"
    assert not out.exists()


def test_dpca_with_a_noise_level_is_a_config_error(tmp_path, capsys):
    """dpca's noise is the spiked covariance's fixed ridge: a sigma_sq other
    than 0 would label every row with a noise level that did not produce it."""
    out = tmp_path / "o.csv"
    code = main(["dpca", "--config", _cfg(tmp_path, "sigma_sq = 5\n" + TINY_DPCA),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "psdk: error: dpca needs sigma_sq = 0: its noise is the spiked covariance's fixed ridge\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit code 2: numerical failures


def _machines_see_nothing(monkeypatch):
    """Every machine's sample covariance is 0, as if it observed no signal:
    no positive eigenvalue to summarize."""
    monkeypatch.setattr(models, "_sample_covariances",
                        lambda cov, n, rngs: np.zeros((len(rngs),) + cov.shape))


def test_numerical_failure_names_grid_point(tmp_path, capsys, monkeypatch):
    _machines_see_nothing(monkeypatch)
    cfg = _cfg(
        tmp_path,
        "p = 8\nK = 3\nM_grid = 2\nn_grid = 4\nrepetitions = 1\n"
        "index_mode = canonical\n",
    )
    code = main(["dpca", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert "psdk: numerical failure:" in captured.err
    assert "grid point M=2, n=4" in captured.err


def test_failed_run_writes_no_csv(tmp_path, capsys, monkeypatch):
    _machines_see_nothing(monkeypatch)
    out = tmp_path / "o.csv"
    cfg = _cfg(
        tmp_path,
        "p = 8\nK = 3\nM_grid = 2\nn_grid = 4\nrepetitions = 1\n"
        "index_mode = canonical\n",
    )
    assert main(["dpca", "--config", cfg, "--out", str(out)]) == 2
    capsys.readouterr()
    assert not out.exists()
