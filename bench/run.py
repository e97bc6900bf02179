"""Benchmark of the psdk experiment CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a checked-in config under bench/workloads/. A run starts
`python -m psdk <experiment> --config <workload> --seed N --threads T --out
<csv>` one invocation after another until S seconds have passed, always
finishing the invocation in flight. Every invocation runs the same jobs, so
each run attempts whole rounds of them. Before the first invocation and
after each one, it times a fresh interpreter that imports psdk.cli (at
least SETUP_MIN of them in all).

The children import psdk from ./src and run with the BLAS thread variables
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS) removed from their
environment, so they see the library defaults a user sees; the values removed
are recorded with the result.

--trace 0 reports the end-to-end metrics: run_s (wall time of one CLI
invocation) and cpu_s (user + system time of the CLI process and all its
threads, from os.wait4), each the mean over the run's invocations;
peak_rss_mb (the CLI process's maximum resident set size) and setup_s (wall
time of `python -c "import psdk.cli"`), each the median.

--trace 1 first runs one invocation under bench/trace_child.py, which times
the calls into each psdk layer from outside the program, then the untimed
loop as above, and reports the per-layer metrics plus the tracing overhead
(traced run_s minus the untraced run_s).

After the timed part, every CSV is checked (bench/checks.py); repeated
invocations with one seed must write byte-identical CSVs. The last line of
standard output is the JSON result; the full record, with the environment,
is written to .bench_out/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = {
    "intrinsic-karcher": "intrinsic-avg",
    "dpca-machines": "dpca",
    "extrinsic-data": "extrinsic-avg",
    "perturb-small": "perturb-order",
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN = 5
CHILD_TIMEOUT_S = 120


def child_env():
    """The caller's environment without BLAS thread variables, psdk from ./src."""
    env = dict(os.environ)
    removed = {name: env.pop(name, None) for name in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env, removed


def run_child(argv, env, stdout_path, stderr_path):
    """Run one child to its end; returns (exit code, wall s, cpu s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(removed, threads, seed):
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return None
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_thread_vars_removed": removed,
        "threads": threads,
        "seed": seed,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans

SELF_TIMES = {
    "experiments.write_csv_s": "experiments.write_csv",
    "models.intrinsic_samples_s": "models.intrinsic_samples",
    "models.extrinsic_samples_s": "models.extrinsic_samples",
    "models.gaussian_samples_s": "models.gaussian_samples",
    "models.sample_cov_s": "models.sample_cov",
    "models.factor_noise_samples_s": "models.factor_noise_samples",
    "manifold.karcher_mean_s": "manifold.karcher_mean",
    "manifold.membership_s": "manifold.membership",
    "linalg.eigh_topk_s": "linalg.eigh_topk",
    "linalg.reduced_cholesky_s": "linalg.reduced_cholesky",
    "linalg.lq_givens_s": "linalg.lq_givens",
    "linalg.projector_distance_s": "linalg.projector_distance",
    "dpca.summarize_covariance_s": "dpca.summarize_covariance",
    "dpca.find_index_s": "dpca.find_index",
    "dpca.lrc_dpca_s": "dpca.lrc_dpca",
    "dpca.full_pca_s": "dpca.full_pca",
    "dpca.dpca_fan_s": "dpca.dpca_fan",
    "dpca.dpca_bw_s": "dpca.dpca_bw",
    "dpca.euclid_rankk_mean_s": "dpca.euclid_rankk_mean",
    "perturbation.karcher_factor_first_order_s": "perturbation.karcher_factor_first_order",
    "perturbation.lq_first_order_s": "perturbation.lq_first_order",
}
CALLS = {
    "models.gaussian_samples_calls": "models.gaussian_samples",
    "manifold.karcher_mean_calls": "manifold.karcher_mean",
    "manifold.membership_calls": "manifold.membership",
    "linalg.eigh_topk_calls": "linalg.eigh_topk",
    "linalg.reduced_cholesky_calls": "linalg.reduced_cholesky",
    "dpca.find_index_calls": "dpca.find_index",
}
# A tail percentile needs at least ten samples beyond it.
P90_MIN_CALLS = 100


def layer_metrics(spans, threads, stderr_text):
    """Per-layer metrics: self times (s), counts, shares and per-call percentiles."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, _, start, end, parent, thread, _, _ in spans:
        if parent is not None and by_id[parent][5] == thread:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    inclusive = defaultdict(list)
    calls = Counter()
    extra = Counter()
    errors = Counter()
    for sid, name, start, end, _, _, ext, err in spans:
        self_time[name] += (end - start) - child_time[sid]
        inclusive[name].append(end - start)
        calls[name] += 1
        extra[name] += ext
        errors[name] += err is not None

    def p50_ms(name):
        return 1e3 * statistics.median(inclusive[name]) if inclusive[name] else 0.0

    runner_s = sum(inclusive["experiments.runner"])
    karcher = inclusive["manifold.karcher_mean"]
    metrics = {
        "experiments.runner_s": (runner_s, "s"),
        "experiments.jobs": (calls["experiments.job"], "count"),
        "experiments.busy_share": (
            sum(inclusive["experiments.job"]) / (threads * runner_s) if runner_s else 0.0,
            "ratio"),
        "experiments.karcher_retries": (stderr_text.count(" retried with rows "), "count"),
        "experiments.karcher_skips": (stderr_text.count(" skipped: "), "count"),
        "models.normal_draws": (extra["models.gaussian_samples"], "count"),
        "manifold.karcher_mean_failures": (errors["manifold.karcher_mean"], "count"),
        "manifold.karcher_mean_p50_ms": (p50_ms("manifold.karcher_mean"), "ms"),
        "manifold.karcher_mean_p90_ms": (
            1e3 * statistics.quantiles(karcher, n=10)[-1]
            if len(karcher) >= P90_MIN_CALLS else 0.0, "ms"),
        "manifold.karcher_input_mb": (extra["manifold.karcher_mean"] / 1e6, "MB"),
        "dpca.lrc_dpca_p50_ms": (p50_ms("dpca.lrc_dpca"), "ms"),
    }
    for metric, name in SELF_TIMES.items():
        metrics[metric] = (self_time[name], "s")
    for metric, name in CALLS.items():
        metrics[metric] = (calls[name], "count")
    return metrics


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(SRC, "psdk", "cli.py")):
        print(f"bench: no psdk source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    config = os.path.join(HERE, "workloads", args.workload + ".cfg")
    # checks.parse_config would load numpy here; it must not run before the
    # timed part, so read the one value needed by hand.
    with open(config, encoding="utf-8") as fh:
        threads = next(int(line.split("=")[1]) for line in fh
                       if line.split("=")[0].strip() == "threads")

    env, removed = child_env()
    work = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, config, threads, env, removed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, config, threads, env, removed, work):
    def path(name):
        return os.path.join(work, name)

    setup = []

    def time_setup():
        rc, wall, _, _ = run_child(
            [sys.executable, "-c", "import psdk.cli; print(psdk.cli.__file__)"],
            env, path("setup.out"), path("setup.err"))
        with open(path("setup.out"), encoding="utf-8") as fh:
            imported = fh.read().strip()
        if rc != 0 or not os.path.realpath(imported).startswith(os.path.realpath(SRC)):
            print(f"bench: importing psdk.cli from {SRC} failed (exit {rc}, got "
                  f"{imported!r})", file=sys.stderr)
            return False
        setup.append(wall)
        return True

    if not time_setup():
        return 2

    def cli_args(csv):
        return [WORKLOADS[args.workload], "--config", config, "--seed", str(args.seed),
                "--threads", str(threads), "--out", csv]

    traced = None
    if args.trace:
        csv = path("traced.csv")
        rc, wall, _, _ = run_child(
            [sys.executable, os.path.join(HERE, "trace_child.py"), path("spans.json"),
             "--"] + cli_args(csv), env, path("traced.out"), path("traced.err"))
        traced = {"rc": rc, "run_s": wall, "csv": csv}

    # Setup samples are spread over the run, one after each invocation, so
    # that their median does not hang on the host's speed at one moment.
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        csv = path(f"run{len(runs)}.csv")
        rc, wall, cpu, rss = run_child(
            [sys.executable, "-m", "psdk"] + cli_args(csv), env,
            path("run.out"), path("run.err"))
        runs.append({"rc": rc, "run_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                     "csv": csv})
        if not time_setup():
            return 2
    while len(setup) < SETUP_MIN:
        if not time_setup():
            return 2

    # Nothing below is timed: pin this process's own BLAS before numpy loads.
    for name in BLAS_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, SRC)
    import checks

    cfg = checks.parse_config(config)
    invocations = ([traced] if traced else []) + runs
    jobs_per_run = len(checks.expected_layout(cfg))
    failed, problems, reasons = 0, [], Counter()
    first = None
    for inv in invocations:
        text = None
        if inv["rc"] == 0 and os.path.exists(inv["csv"]):
            with open(inv["csv"], encoding="utf-8", newline="") as fh:
                text = fh.read()
        if text is None:
            failed += jobs_per_run
            reasons[f"CLI exited with code {inv['rc']}"] += jobs_per_run
            continue
        if first is None:
            first = (text, checks.check_csv(cfg, text, args.seed))
            report = first[1]
            problems.extend(report.problems)
        elif text == first[0]:
            report = first[1]
        else:
            report = checks.check_csv(cfg, text, args.seed, recompute=False)
            problems.extend(report.problems)
            for key, rows in report.rows.items():
                if rows != first[1].rows.get(key):
                    report.failed.setdefault(
                        key, "records differ from an earlier run with the same seed")
        failed += len(report.failed)
        reasons.update(report.failed.values())

    if args.trace:
        spans = []
        if os.path.exists(path("spans.json")):
            with open(path("spans.json"), encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
        with open(path("traced.err"), encoding="utf-8") as fh:
            stderr_text = fh.read()
        metrics = layer_metrics(spans, threads, stderr_text)
        untraced = statistics.fmean(r["run_s"] for r in runs)
        metrics["trace.overhead_s"] = (traced["run_s"] - untraced, "s")
        metrics["trace.spans"] = (len(spans), "count")
    else:
        # Per-invocation times on a shared 2-core host are often bimodal, and a
        # median of a handful of them jumps between the modes from run to
        # run; the mean over the run's invocations is the steadier figure.
        metrics = {
            "run_s": (statistics.fmean(r["run_s"] for r in runs), "s"),
            "cpu_s": (statistics.fmean(r["cpu_s"] for r in runs), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    result = {
        "correct": not problems,
        "attempted": jobs_per_run * len(invocations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(removed, threads, args.seed),
        "setup_s": setup,
        "invocations": [{k: v for k, v in inv.items() if k != "csv"}
                        for inv in invocations],
        "failure_reasons": dict(reasons),
        "problems": problems,
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in problems + [f"failed: {n} x {why}" for why, n in reasons.items()]:
        print(f"bench: {line}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
