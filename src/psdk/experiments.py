"""Seeded experiment drivers with deterministic CSV output.

Four experiments exercise the library end to end: intrinsic_avg, dpca,
extrinsic_avg and perturb_order. Each is defined once, beside its plan
(`_define`), and its runner's docstring says what it measures.

Every repetition owns an RngStream derived from (master_seed, packed labels),
so reruns with the same config are bit-identical regardless of the worker
count. Records are written in job-submission order. The wall_time_ms CSV
column is fixed at 0 to keep output byte-reproducible; measured timings go
to stderr instead.
"""

import contextlib
import ctypes
import functools
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Callable, NamedTuple, get_args, get_origin

import numpy as np

from . import dpca as dpca_mod
from . import manifold, models, perturbation
from .exceptions import (
    ConfigError,
    InsufficientPointsError,
    NotInManifoldError,
    PsdkError,
)
from .linalg import (
    CholFactor,
    IndexSet,
    anchor,
    eigh_topk,
    lq_givens,
    projector_distance,
)
from .models import RngStream, derive_stream_id

INDEX_MODES = ("canonical", "find_index_oracle", "find_index_machine1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; every field maps to one config-file key,
    parsed as the field's annotated type (`_coerce`)."""

    experiment: str
    p: int = 100
    K: int = 5
    sigma_sq: float = 1.0
    p_grid: tuple[int, ...] = ()
    M_grid: tuple[int, ...] = ()
    n_grid: tuple[int, ...] = ()
    sigma_grid: tuple[float, ...] = ()
    M_fixed: int = 400
    eps_grid: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    n_inner: int = 2000
    repetitions: int = 20
    master_seed: int = 0
    index_mode: str = "canonical"
    output_path: str = ""
    threads: int = 1

    def validate(self):
        """Check each field's range, whatever the experiment, then what the
        experiment needs (`_Experiment`); returns self."""
        spec = _EXPERIMENTS.get(self.experiment)
        if spec is None:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}, expected one of {tuple(RUNNERS)}"
            )
        if self.p < 1 or not 1 <= self.K <= self.p:
            raise ConfigError(f"need 1 <= K <= p, got K={self.K}, p={self.p}")
        if not (math.isfinite(self.sigma_sq) and self.sigma_sq >= 0):
            raise ConfigError(f"sigma_sq must be finite and nonnegative, got {self.sigma_sq}")
        if not 1 <= self.repetitions < models.STREAM_BASE:
            raise ConfigError(f"repetitions out of range: {self.repetitions}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.threads < 1:
            raise ConfigError(f"threads must be positive, got {self.threads}")
        if self.index_mode not in INDEX_MODES:
            raise ConfigError(
                f"unknown index_mode {self.index_mode!r}, expected one of {INDEX_MODES}"
            )
        for name in ("p_grid", "M_grid", "n_grid"):
            grid = getattr(self, name)
            if any(int(v) < 1 for v in grid):
                raise ConfigError(f"{name} entries must be positive, got {grid}")
        # a rank-K estimate needs p >= K, and n >= K points
        for name in ("p_grid", "n_grid"):
            for size in getattr(self, name):
                if size < self.K:
                    raise ConfigError(f"{name} entry {size} smaller than K={self.K}")
        if any(m >= models.STREAM_BASE for m in self.M_grid):
            raise ConfigError(f"machine counts must stay below {models.STREAM_BASE}")
        if not 1 <= self.M_fixed < models.STREAM_BASE:
            raise ConfigError(f"M_fixed out of range: {self.M_fixed}")
        if self.n_inner < 1:
            raise ConfigError(f"n_inner must be positive, got {self.n_inner}")
        if not all(math.isfinite(s) and s >= 0 for s in self.sigma_grid):
            raise ConfigError(
                f"sigma_grid entries must be finite and nonnegative: {self.sigma_grid}")
        if not all(math.isfinite(e) and e > 0 for e in self.eps_grid):
            raise ConfigError(f"eps_grid entries must be finite and positive: {self.eps_grid}")
        if self.index_mode == "find_index_machine1" and not spec.machines:
            owners = ", ".join(name for name, e in _EXPERIMENTS.items() if e.machines)
            raise ConfigError(f"index_mode find_index_machine1 needs machines ({owners} only)")
        for holds, message in spec.needs:
            if not holds(self):
                raise ConfigError(message)
        return self


def default_config(experiment, quick=False):
    """The experiment's full-scale defaults; `quick` shrinks them to desk scale."""
    spec = _EXPERIMENTS.get(experiment)
    if spec is None:
        raise ConfigError(f"unknown experiment {experiment!r}")
    return ExperimentConfig(experiment, **{**spec.defaults, **(spec.quick if quick else {})})


# ---------------------------------------------------------------------------
# config files

def parse_config_file(path):
    """Read a flat `key = value` file; '#' starts a comment, blanks ignored.
    Text that is not UTF-8, or a key set twice (naming both lines), is a ConfigError."""
    values, linenos = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in linenos:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} set again, first set on line {linenos[key]}")
        values[key], linenos[key] = val.strip(), lineno
    return values


def _coerce(key, text):
    """`text` as the type of the ExperimentConfig field `key`; a tuple field
    takes comma-separated entries."""
    kind = next((f.type for f in fields(ExperimentConfig) if f.name == key), None)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        if get_origin(kind) is tuple:
            entry = get_args(kind)[0]
            return tuple(entry(tok) for tok in text.split(",") if tok.strip())
        return kind(text)
    except ValueError:
        raise ConfigError(f"cannot parse value {text!r} for key {key!r}") from None


def load_config(experiment, path=None, quick=False, overrides=None):
    """Defaults for `experiment`, then config-file values, then CLI overrides."""
    cfg = default_config(experiment, quick=quick)
    if path is not None:
        entries = parse_config_file(path)
        if "p" in entries:  # the file's p is the p grid unless the file sets one
            entries = {"p_grid": "", **entries}
        for key, text in entries.items():
            if key == "experiment":
                if text != experiment:
                    print(
                        f"psdk: config file names experiment {text!r}; the "
                        f"command line selects {experiment!r} and wins",
                        file=sys.stderr,
                    )
                continue
            cfg = replace(cfg, **{key: _coerce(key, text)})
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg = replace(cfg, **{key: value})
    return cfg.validate()


# ---------------------------------------------------------------------------
# records and CSV output

@dataclass(frozen=True)
class RunRecord:
    """One method evaluation at one grid point in one repetition."""

    experiment: str
    method: str
    p: int
    K: int
    M: int
    n: int
    sigma_sq: float
    repetition: int
    seed: int
    error: float
    wall_time_ms: float = 0.0


# One CSV column per RunRecord field, in field order: ints as str(int(v)),
# floats with 17 significant digits. A column is formatted whole through
# builtin maps; a Python call per cell would nearly double render_csv's time.
CSV_HEADER = ",".join(f.name for f in fields(RunRecord))
_COLUMN_FORMATS = {
    int: lambda col: map(str, map(int, col)),
    float: lambda col: map(format, map(float, col), itertools.repeat(".17g")),
    str: lambda col: col,
}
_CSV_COLUMNS = tuple((attrgetter(f.name), _COLUMN_FORMATS[f.type]) for f in fields(RunRecord))


def render_csv(records):
    """Serialize records; floats carry 17 significant digits, newline is \\n."""
    records = list(records)
    columns = [fmt(map(get, records)) for get, fmt in _CSV_COLUMNS]
    return "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"


def write_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_csv(records))


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of log(y) against log(x), with the number of points
    that survived filtering."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int


def slope_fit(points):
    """Log-log OLS fit of a list of (x, y) points.

    Pairs with a nonpositive or non-finite coordinate are dropped before
    taking logs. Raises InsufficientPointsError when fewer than two points
    (with distinct x) survive.
    """
    points = list(points)
    if not points:
        raise InsufficientPointsError("no points to fit")
    xs = np.asarray([q[0] for q in points], dtype=float)
    ys = np.asarray([q[1] for q in points], dtype=float)
    fit = _slope_fits(xs[None], ys[None])
    if np.isnan(fit.slope[0]):
        raise InsufficientPointsError(
            f"need >= 2 positive points with distinct x, got {fit.n_points[0]}"
        )
    return SlopeFit(float(fit.slope[0]), float(fit.intercept[0]),
                    float(fit.r_squared[0]), int(fit.n_points[0]))


def _slope_fits(xs, ys):
    """`slope_fit` of every curve of a stack at once: x and y arrays (C, n),
    one curve per row, give a SlopeFit of arrays (C,). A point with a
    nonpositive or non-finite coordinate is left out (NaN pads short curves);
    a curve left with fewer than two distinct x gets NaN for its fit."""
    keep = (xs > 0) & (ys > 0) & np.isfinite(xs) & np.isfinite(ys)
    count = keep.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lx, ly = np.log(np.where(keep, xs, 1.0)), np.log(np.where(keep, ys, 1.0))
        mean_x = np.sum(lx * keep, axis=-1) / count
        mean_y = np.sum(ly * keep, axis=-1) / count
        dx = (lx - mean_x[:, None]) * keep
        dy = (ly - mean_y[:, None]) * keep
        slope = np.sum(dx * dy, axis=-1) / np.sum(dx * dx, axis=-1)
        intercept = mean_y - slope * mean_x
        resid = (ly - (slope[:, None] * lx + intercept[:, None])) * keep
        ss_tot = np.sum(dy * dy, axis=-1)
        r2 = np.where(ss_tot == 0.0, 1.0, 1.0 - np.sum(resid * resid, axis=-1) / ss_tot)
    spread = (np.max(np.where(keep, xs, -np.inf), axis=-1)
              > np.min(np.where(keep, xs, np.inf), axis=-1))
    nan = np.where(spread, 0.0, np.nan)
    return SlopeFit(slope + nan, intercept + nan, r2 + nan, count)


# ---------------------------------------------------------------------------
# runner plumbing

class _Job(NamedTuple):
    """One unit of work: a progress group, a label for logs and errors, the
    arguments of the experiment's work function, and the number of
    repetitions it covers, which the progress line counts."""

    group: str
    where: str
    args: tuple
    repetitions: int = 1


def _stream(cfg, *parts):
    return RngStream(cfg.master_seed, derive_stream_id(*parts))


# The (worker, jobs) of the parallel run in flight. It is set before the pool
# forks, so children inherit the work closures and receive only job indices.
_FORKED_RUN = None


def _forked_job(index):
    worker, jobs = _FORKED_RUN
    return worker(jobs[index])


def _usable_cpus():
    """The number of CPUs this process may run on, looked up now."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_ordered(worker, jobs, threads):
    """`worker(job)` for every job, returned in submission order.

    With `threads` > 1, up to `threads` forked worker processes share the
    jobs, but never more than the CPUs this process may use; the worker's
    results and exceptions must pickle. Fork, not spawn: the worker is a
    closure over the plan's state, which does not pickle. Without the fork
    start method, or with one worker, CPU or job, the jobs run here,
    serially.
    """
    global _FORKED_RUN
    workers = min(threads, len(jobs), _usable_cpus())
    if workers <= 1:
        return [worker(job) for job in jobs]
    # Imported here: serial runs, the common CLI case, never load the pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return [worker(job) for job in jobs]
    _FORKED_RUN = (worker, jobs)
    try:
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            return list(pool.map(_forked_job, range(len(jobs))))
    finally:
        _FORKED_RUN = None


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or None
    where numpy's extension module or its scipy-openblas symbols are
    missing."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _blas_set(count):
    """Set numpy's BLAS thread count and return the prior one (None without
    a thread control). An equal count is left alone: any set restarts the
    library's thread pool (after a fork too), whose threads then spin for a
    while before they sleep; OpenBLAS loaded at one thread, as the CLI
    loads it, has no pool, and pinning it to one changes nothing."""
    control = _blas_threads()
    if control is None:
        return None
    get, put = control
    prior = get()
    if prior != count:
        put(count)
    return prior


def pin_blas():
    """Pin numpy's OpenBLAS to one thread for the rest of the process; a
    no-op where its thread control is not found, or where OpenBLAS loaded
    at one thread (`psdk.cli` sets that before numpy loads). The CLI's
    fallback for callers that loaded numpy first."""
    _blas_set(1)


@contextlib.contextmanager
def _blas_pinned():
    """One BLAS thread while the block runs, the prior count after.

    Jobs are many small numpy calls; BLAS threads beside them, or beside
    each forked worker, only oversubscribe the cores. A pool forked inside
    the block inherits the pin. Library callers, whose `import psdk` leaves
    numpy's thread count alone, get their prior count back; after a forked
    run that set restarts the BLAS thread pool. The CLI loads OpenBLAS at
    one thread, or calls `pin_blas` first, so its runs have nothing to
    restore.
    """
    prior = _blas_set(1)
    try:
        yield
    finally:
        if prior is not None:
            _blas_set(prior)


def _log(msg):
    print(f"[psdk] {msg}", file=sys.stderr)


def _runner(experiment):
    """Runner skeleton shared by every experiment, as a decorator over its plan.

    The plan maps a checked config to `(jobs, work)`. The decorated runner
    `(cfg, progress=False) -> records` validates `cfg` and its experiment
    name, and then, with BLAS pinned to one thread (`_blas_pinned`), plans
    and runs `work(notes, *job.args)` for every job through `_run_ordered`.
    It prefixes any PsdkError with the job's `where` and returns the records
    in job order. Each job appends its retry and skip lines to its own
    `notes` list; they go to stderr after the run, in job order, prefixed
    with the job's `where`. With `progress`, the measured time per job group
    follows. The runner's `experiment` attribute names it.
    """

    def decorate(plan):
        @functools.wraps(plan)
        def run(cfg, progress=False):
            cfg.validate()
            if cfg.experiment != experiment:
                raise ConfigError(f"config is for {cfg.experiment!r}, not {experiment}")
            with _blas_pinned():
                jobs, work = plan(cfg)

                def worker(job):
                    tick = time.perf_counter()
                    notes = []
                    try:
                        recs = work(notes, *job.args)
                    except PsdkError as err:
                        raise type(err)(f"{job.where}: {err}") from err
                    return recs, notes, time.perf_counter() - tick

                results = _run_ordered(worker, jobs, cfg.threads)
            records = []
            elapsed = {}
            for job, (recs, notes, secs) in zip(jobs, results):
                records.extend(recs)
                for note in notes:
                    _log(f"{job.where}: {note}")
                done, count = elapsed.get(job.group, (0.0, 0))
                elapsed[job.group] = (done + secs, count + job.repetitions)
            if progress:
                for group, (secs, count) in elapsed.items():
                    _log(f"{experiment} {group}: {count} repetitions in {secs:.1f}s")
            return records

        run.experiment = experiment
        return run

    return decorate


class _Experiment(NamedTuple):
    """One experiment: CLI help, the full-scale config fields that differ
    from ExperimentConfig's, their `--quick` overrides, summary lines after
    the record count, what its config needs beyond each field's range as
    (holds(cfg), message) pairs, and whether it runs machines."""

    help: str
    defaults: dict
    quick: dict
    summary: Callable
    needs: tuple
    machines: bool = False


# Name -> _Experiment and name -> runner, in the CLI's command order.
_EXPERIMENTS = {}
RUNNERS = {}


def _define(name, **definition):
    """Register the decorated plan as experiment `name`; returns its runner."""

    def register(plan):
        _EXPERIMENTS[name] = _Experiment(**definition)
        RUNNERS[name] = _runner(name)(plan)
        return RUNNERS[name]

    return register


def _frame_rows(frame):
    """`find_index` rows of F @ F.T for a p x K frame F, from the thin SVD of F
    (its left singular vectors and squared singular values are the eigenpairs)."""
    left, sing, _ = np.linalg.svd(frame, full_matrices=False)
    return dpca_mod.find_index(left, sing**2)


def _aggregate_or_skip(aggregate, index_set, reselect, cfg, notes, method):
    """The retry/skip policy for a Karcher aggregation; None means skipped.

    Calls `aggregate(index_set)`. If its NotInManifoldError names an
    `element` and the config does not pin canonical rows, `reselect(element)`
    picks rows from that sample by the rule that picked the first rows, and
    the aggregation runs once more, noting "retried with rows" in `notes`.
    Without an element or new rows, or on a second failure, notes "skipped:"
    with the last error.
    """
    try:
        return aggregate(index_set)
    except NotInManifoldError as err:
        last = err
    if cfg.index_mode != "canonical" and last.element is not None:
        try:
            alt = reselect(last.element)
        except NotInManifoldError:
            alt = index_set  # no admissible rows
        if alt != index_set:
            try:
                result = aggregate(alt)
                notes.append(f"{method} retried with rows {tuple(alt)}")
                return result
            except NotInManifoldError as err:
                last = err
    notes.append(f"{method} skipped: {last}")
    return None


def _signal(cfg, p, stream):
    """A Gaussian-SVD signal factor, anchored at its own find_index rows in oracle mode."""
    sig = models.gaussian_svd_signal(p, cfg.K, stream)
    if cfg.index_mode == "find_index_oracle":
        sig = anchor(sig.entries, _frame_rows(sig.entries))
    return sig


def _mean_rows(cfg, notes, samples, truth, row):
    """Karcher (under the retry policy) and Euclid rows of a stack of factor
    samples, each scored by the Frobenius distance of its matrix to that of
    the signal factor `truth`; `row` carries every other column."""

    def aggregate(index_set):
        if index_set == samples.index_set:
            return manifold.karcher_mean(samples)
        return manifold.karcher_mean(anchor(samples.entries, index_set))

    karcher = _aggregate_or_skip(aggregate, samples.index_set,
                                 lambda m: _frame_rows(samples.entries[m]), cfg, notes, "karcher")
    means = [] if karcher is None else [("karcher", karcher)]
    means.append(("euclid", dpca_mod.euclid_rankk_mean(samples)))
    return [replace(row, method=method, error=projector_distance(mean.entries, truth.entries))
            for method, mean in means]


# ---------------------------------------------------------------------------
# summaries

def _median(values):
    """The median of a nonempty sequence of floats, as `np.median` gives it
    (NaN if any value is NaN), by a plain sort: `np.median` checks for NaN
    through numpy.ma, which it imports on first use."""
    ordered = np.sort(np.asarray(values, dtype=float))
    if np.isnan(ordered[-1]):
        return math.nan
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def _mean_median(records, key_fn):
    groups = {}
    for rec in records:
        groups.setdefault(key_fn(rec), []).append(rec.error)
    return {key: (float(np.mean(errs)), _median(errs)) for key, errs in sorted(groups.items())}


def _slope_line(stats, points, head):
    """`head` and the log-log slope of the mean errors at `points`.

    `points` pairs each x with its `stats` key; keys without records (every
    row skipped there) drop out. Returns None when no fit is possible.
    """
    points = [(x, stats[key][0]) for x, key in points if key in stats]
    try:
        fit = slope_fit(points)
    except InsufficientPointsError:
        return None
    return f"{head} = {fit.slope:.3f} (r2={fit.r_squared:.3f})"


def summarize_records(cfg, records):
    """Human-readable per-grid-point stats and log-log slope fits."""
    lines = [f"{cfg.experiment}: {len(records)} records"]
    lines += _EXPERIMENTS[cfg.experiment].summary(cfg, records)
    return "\n".join(line for line in lines if line is not None)


# ---------------------------------------------------------------------------
# experiments: each one's summary, then its plan under its definition

def _summarize_intrinsic(cfg, records):
    stats = _mean_median(records, lambda r: (r.p, r.method, r.M))
    lines = [_slope_line(stats, [(m, (p, method, m)) for m in cfg.M_grid],
                         f"  p={p} method={method}: slope of mean error vs M")
             for (p, method) in sorted({(r.p, r.method) for r in records})]
    lines.append("  p M method mean median")
    for (p, method, m), (mean, med) in stats.items():
        lines.append(f"  {p} {m} {method} {mean:.6g} {med:.6g}")
    return lines


@_define("intrinsic_avg", help="average log-factor-noise samples (Karcher vs Euclidean)",
         defaults=dict(p_grid=(100, 200, 300, 400), M_grid=tuple(range(30, 271, 30))),
         quick=dict(p=50, p_grid=(50,)), summary=_summarize_intrinsic,
         needs=((lambda c: c.M_grid, "intrinsic_avg needs a nonempty M_grid"),))
def run_intrinsic(cfg):
    """Karcher vs Euclidean averaging under log-factor noise.

    For each p in the p grid and each repetition, draws a fresh signal; for
    each M in the M grid, draws M samples and records the Frobenius error of
    the Karcher mean ("karcher") and of the best rank-K approximation of the
    arithmetic mean ("euclid"). A Karcher mean that fails membership (heavy
    noise can push an anchor pivot below threshold) follows
    `_aggregate_or_skip`; the Euclidean row is recorded either way.
    """
    p_grid = cfg.p_grid or (cfg.p,)
    sigma = math.sqrt(cfg.sigma_sq)
    signals = {
        (pi, rep): _signal(cfg, p, _stream(cfg, 0, pi, rep))
        for pi, p in enumerate(p_grid)
        for rep in range(cfg.repetitions)
    }
    jobs = [
        _Job(f"p={p} M={m_count}",
             f"{cfg.experiment} grid point p={p}, M={m_count}, repetition {rep}",
             (pi, p, mi, m_count, rep))
        for pi, p in enumerate(p_grid)
        for mi, m_count in enumerate(cfg.M_grid)
        for rep in range(cfg.repetitions)
    ]

    def work(notes, pi, p, mi, m_count, rep):
        sig = signals[(pi, rep)]
        stream = _stream(cfg, 1, pi, mi, rep)
        samples = models.intrinsic_samples(sig, sigma, m_count, stream)
        row = RunRecord(cfg.experiment, "", p, cfg.K, m_count, 0, cfg.sigma_sq,
                        rep, stream.stream_id, 0.0)
        return _mean_rows(cfg, notes, samples, sig, row)

    return jobs, work


def _summarize_dpca(cfg, records):
    stats = _mean_median(records, lambda r: (r.M, r.n, r.method))
    methods = sorted({r.method for r in records})
    lines = [_slope_line(stats, [(n, (m_count, n, method)) for n in cfg.n_grid],
                         f"  M={m_count} method={method}: slope vs n")
             for m_count in cfg.M_grid for method in methods]
    lines += [_slope_line(stats, [(m_count, (m_count, n, method)) for m_count in cfg.M_grid],
                          f"  n={n} method={method}: slope vs M")
              for n in cfg.n_grid for method in methods]
    lines.append("  M n method mean median")
    for (m_count, n, method), (mean, med) in stats.items():
        lines.append(f"  {m_count} {n} {method} {mean:.6g} {med:.6g}")
    return lines


@_define("dpca", help="one-shot distributed PCA over an (M, n) grid",
         defaults=dict(sigma_sq=0.0, M_grid=(50,), n_grid=(500, 1000, 1500, 2000, 2500),
                       repetitions=100, index_mode="find_index_machine1"),
         quick=dict(p=50, M_grid=(20,), n_grid=(500, 1000, 2000), repetitions=20),
         summary=_summarize_dpca, machines=True,
         needs=((lambda c: c.M_grid and c.n_grid, "dpca needs nonempty M_grid and n_grid"),
                (lambda c: c.sigma_sq == 0,
                 "dpca needs sigma_sq = 0: its noise is the spiked covariance's fixed ridge")))
def run_dpca(cfg):
    """One-shot distributed PCA over an (M, n) grid on spiked-covariance data.

    One population covariance is drawn per run. Per repetition and grid
    point, M machines each observe n Gaussian samples from their own
    streams, as the sample covariances of data that is never formed
    (`models._sample_covariances`). The four aggregators run on the same
    draws and are scored by projector distance to the true leading
    eigenspace. A Karcher aggregation that fails membership follows
    `_aggregate_or_skip`, with rows reselected from the first offending
    machine's eigenpairs by `find_index`, as machine 1's were; the other
    methods still report.
    """
    cov, basis = models.spiked_covariance(cfg.p, cfg.K, _stream(cfg, 0, 0, 0))
    oracle_idx = None
    if cfg.index_mode == "find_index_oracle":
        pair = eigh_topk(cov, cfg.K)
        oracle_idx = dpca_mod.find_index(pair.vectors, pair.values)
    grid = [(m_count, n) for m_count in cfg.M_grid for n in cfg.n_grid]
    jobs = [
        _Job(f"M={m_count} n={n}",
             f"{cfg.experiment} grid point M={m_count}, n={n}, repetition {rep}",
             (gi, m_count, n, rep))
        for gi, (m_count, n) in enumerate(grid)
        for rep in range(cfg.repetitions)
    ]

    def work(notes, gi, m_count, n, rep):
        covs = models._sample_covariances(
            cov, n, [_stream(cfg, 2, gi, rep, m) for m in range(m_count)])
        summaries = dpca_mod.summarize_covariance(covs, cfg.K)
        if cfg.index_mode == "canonical":
            idx = IndexSet.canonical(cfg.K)
        elif cfg.index_mode == "find_index_oracle":
            idx = oracle_idx
        else:
            idx = dpca_mod.find_index(summaries.vectors[0], summaries.values[0])

        results = [dpca_mod.full_pca(covs, cfg.K)]
        lrc = _aggregate_or_skip(
            lambda rows: dpca_mod.lrc_dpca(summaries, rows), idx,
            lambda m: dpca_mod.find_index(summaries.vectors[m], summaries.values[m]),
            cfg, notes, "lrc",
        )
        if lrc is not None:
            results.append(lrc)
        results += [dpca_mod.dpca_fan(summaries), dpca_mod.dpca_bw(summaries)]
        row = RunRecord(cfg.experiment, "", cfg.p, cfg.K, m_count, n, cfg.sigma_sq, rep,
                        derive_stream_id(2, gi, rep, 0), 0.0)
        return [replace(row, method=res.method, error=projector_distance(res.basis, basis))
                for res in results]

    return jobs, work


def _summarize_extrinsic(cfg, records):
    stats = _mean_median(records, lambda r: (r.M, r.sigma_sq, r.method))
    lines = ["  M sigma_sq method mean median"]
    for (m_count, s2, method), (mean, med) in stats.items():
        lines.append(f"  {m_count} {s2:g} {method} {mean:.6g} {med:.6g}")
    for (m_count, s2) in sorted({(r.M, r.sigma_sq) for r in records}):
        karcher, euclid = (stats.get((m_count, s2, m)) for m in ("karcher", "euclid"))
        if karcher and euclid and euclid[0] > 0:
            lines.append(f"  M={m_count} sigma_sq={s2:g}: karcher/euclid mean ratio = "
                         f"{karcher[0] / euclid[0]:.3f}")
    return lines


@_define("extrinsic_avg", help="average data-observed factor-noise samples",
         defaults=dict(sigma_sq=0.5, M_grid=tuple(range(100, 1001, 100)),
                       sigma_grid=tuple(round(0.1 * i, 10) for i in range(8))),
         quick=dict(p=50, M_grid=(100, 400, 1000), sigma_grid=(0.0, 0.7)),
         summary=_summarize_extrinsic,
         needs=((lambda c: c.M_grid or c.sigma_grid, "extrinsic_avg needs M_grid or sigma_grid"),
                # a covariance of n_inner < K points has rank n_inner < K
                (lambda c: c.n_inner >= c.K, "extrinsic_avg needs n_inner >= K")))
def run_extrinsic(cfg):
    """Karcher vs Euclidean averaging of data-observed factor-noise samples.

    Two sweeps share one run: the M grid at the configured sigma_sq, then
    the sigma grid at M_fixed. Error is the Frobenius distance between each
    mean and the repetition's signal; failed Karcher means follow the same
    retry/skip policy as intrinsic_avg.
    """
    grid = [("M", m_count, cfg.sigma_sq) for m_count in cfg.M_grid]
    grid += [("sigma_sq", cfg.M_fixed, s2) for s2 in cfg.sigma_grid]
    signals = [_signal(cfg, cfg.p, _stream(cfg, 0, rep, 0))
               for rep in range(cfg.repetitions)]
    jobs = [
        _Job(f"{sweep} sweep M={m_count} sigma_sq={s2}",
             f"{cfg.experiment} grid point M={m_count}, sigma_sq={s2}, repetition {rep}",
             (gi, m_count, s2, rep))
        for gi, (sweep, m_count, s2) in enumerate(grid)
        for rep in range(cfg.repetitions)
    ]

    def work(notes, gi, m_count, s2, rep):
        sig = signals[rep]
        stream = _stream(cfg, 1, gi, rep)
        samples = models.extrinsic_samples(sig, s2, m_count, stream, n_inner=cfg.n_inner)
        row = RunRecord(cfg.experiment, "", cfg.p, cfg.K, m_count, cfg.n_inner, s2,
                        rep, stream.stream_id, 0.0)
        return _mean_rows(cfg, notes, samples, sig, row)

    return jobs, work


# Samples per exact Karcher mean in `perturb_order`.
_PERTURB_SAMPLES = 5


def _summarize_perturb_order(cfg, records):
    curves = {}
    for r in records:
        curves.setdefault(r.method, {}).setdefault(r.repetition, []).append((r.sigma_sq, r.error))
    lines = []
    for method in sorted(curves):
        points = [curves[method].get(rep, []) for rep in range(cfg.repetitions)]
        stack = np.full((len(points), max(map(len, points)), 2), np.nan)
        for row, curve in zip(stack, points):
            row[:len(curve)] = np.reshape(curve, (-1, 2))
        slopes = _slope_fits(stack[..., 0], stack[..., 1]).slope
        slopes = slopes[~np.isnan(slopes)]
        if slopes.size:
            lines.append(
                f"  method={method}: remainder slope over {slopes.size} instances "
                f"min={slopes.min():.3f} median={_median(slopes):.3f} max={slopes.max():.3f}")
    return lines


@_define("perturb_order", help="remainder decay of the first-order expansions",
         defaults=dict(p=20, sigma_sq=0.0), quick={},
         summary=_summarize_perturb_order,
         needs=((lambda c: len(c.eps_grid) >= 4,
                 "perturb_order needs an eps_grid with >= 4 points"),
                (lambda c: c.K >= 2, "perturb_order needs K >= 2")))
def run_perturb_order(cfg):
    """Remainder magnitudes of the first-order expansions across a noise grid.

    Per repetition, draws one random decomposition instance and one random
    Karcher instance, scales a fixed unit perturbation by each epsilon in
    the grid, and records max-norm remainders: prediction vs exact
    recomputation. The sigma_sq column carries epsilon.

    A job is a block of consecutive repetitions of one kind, as many as fit
    their Karcher noise samples in `models.STACK_BYTES`. Each repetition
    draws its instance from its own stream; the block's instances are then
    stacked, and one batched pass over every repetition and epsilon of the
    block runs the exact counterparts (one `lq_givens` call, the grouped
    Karcher means) and the expansions. A block that fails is rerun one
    repetition at a time, so the error names the repetition that fails.
    """
    kinds = ("lq", "karcher_factor")
    eps = np.asarray(cfg.eps_grid, dtype=float)
    step = max(1, models.STACK_BYTES // (8 * eps.size * _PERTURB_SAMPLES * cfg.p * cfg.K))
    blocks = [range(lo, min(lo + step, cfg.repetitions))
              for lo in range(0, cfg.repetitions, step)]
    jobs = [_Job(kinds[kind],
                 f"{cfg.experiment} {kinds[kind]} repetitions {reps[0]} to {reps[-1]}",
                 (kind, reps), len(reps))
            for kind in (0, 1) for reps in blocks]

    def block(kind, reps):
        """The records of repetitions `reps`, in one stacked pass."""
        gens = [_stream(cfg, kind, rep).generator() for rep in reps]
        if kind == 0:
            instances = map(np.stack, zip(*(_lq_instance(gen, cfg.K) for gen in gens)))
            errors = dict(zip(("lq_rotation", "lq_factor"),
                              _lq_remainders(*instances, eps)))
            m_count = 0
        else:
            entries, noises = map(np.stack, zip(*(_karcher_instance(gen, cfg.p, cfg.K)
                                                  for gen in gens)))
            factor = CholFactor(entries, IndexSet.canonical(cfg.K))
            m_count = _PERTURB_SAMPLES
            # (B, E, M, p, K): every repetition's noise set at every epsilon
            scaled = eps[:, None, None, None] * noises[:, None]
            samples = models.factor_noise_samples(
                factor, np.reshape(scaled, (len(reps), -1, cfg.p, cfg.K)))
            exact = manifold._group_means(samples, m_count).entries
            preds = perturbation.karcher_factor_first_order(factor, scaled)
            errors = {"karcher_factor": np.max(np.abs(np.reshape(exact, preds.shape) - preds),
                                               axis=(-2, -1))}
        return [RunRecord(cfg.experiment, method, cfg.p, cfg.K, m_count, 0, e, rep,
                          derive_stream_id(kind, rep), float(err[b, i]))
                for b, rep in enumerate(reps)
                for i, e in enumerate(cfg.eps_grid)
                for method, err in errors.items()]

    def work(notes, kind, reps):
        try:
            return block(kind, reps)
        except PsdkError as err:
            if len(reps) == 1:
                raise type(err)(f"repetition {reps[0]}: {err}") from err
            # one repetition at a time, so the error names the one that fails
            for rep in reps:
                work(notes, kind, range(rep, rep + 1))
            raise

    return jobs, work


def _lq_instance(gen, k):
    """A random triangular-orthogonal pair and a unit max-norm perturbation."""
    tril = np.tril(gen.normal(size=(k, k)))
    np.fill_diagonal(tril, 1.0 + np.abs(gen.normal(size=k)))
    orth = np.linalg.qr(gen.normal(size=(k, k)))[0]
    noise = gen.normal(size=(k, k))
    return tril, orth, noise / np.max(np.abs(noise))


def _karcher_instance(gen, p, k):
    """A random p x k factor anchored at the first k rows, and
    `_PERTURB_SAMPLES` noise matrices of unit max-norm each."""
    entries = 0.5 * gen.normal(size=(p, k))
    entries[:k, :] = np.tril(entries[:k, :])
    entries[np.arange(k), np.arange(k)] = 1.0 + np.abs(gen.normal(size=k))
    noises = gen.normal(size=(_PERTURB_SAMPLES, p, k))
    noises /= np.max(np.abs(noises), axis=(1, 2), keepdims=True)
    return entries, noises


def _lq_remainders(tril, orth, noise, eps_grid):
    """Max-norm remainders of `lq_first_order` against `lq_givens` at
    tril @ orth + eps * noise, for every eps of the grid in one stacked pass:
    the (rotation, factor) arrays, one entry per eps. The instance may be a
    stack (B, K, K) of instances; the arrays are then (B, E)."""
    scaled = np.asarray(eps_grid, dtype=float)[:, None, None] * noise[..., None, :, :]
    exact_tri, exact_orth = lq_givens(
        np.reshape((tril @ orth)[..., None, :, :] + scaled, (-1,) + scaled.shape[-2:]))
    pred_orth, pred_tri = perturbation.lq_first_order(tril, orth, scaled)
    return (np.max(np.abs(np.reshape(exact_orth, scaled.shape) - pred_orth), axis=(-2, -1)),
            np.max(np.abs(np.reshape(exact_tri, scaled.shape) - pred_tri), axis=(-2, -1)))


# ---------------------------------------------------------------------------
# selftest

def run_selftest():
    """Fast internal consistency battery; returns (all_ok, report_lines)."""
    checks = [
        ("factor round-trip", _selftest_roundtrip),
        ("triangular-orthogonal decomposition", _selftest_lq),
        ("karcher mean identities", _selftest_karcher),
        ("first-order expansions", _selftest_orders),
        ("experiment determinism", _selftest_determinism),
    ]
    lines = []
    all_ok = True
    for name, fn in checks:
        try:
            fn()
            lines.append(f"ok - {name}")
        except Exception as err:  # noqa: BLE001 - report, do not crash
            all_ok = False
            lines.append(f"FAIL - {name}: {err}")
    return all_ok, lines


def _selftest_roundtrip():
    gen = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        p = int(gen.integers(2, 31))
        k = int(gen.integers(1, min(p, 6) + 1))
        idx = IndexSet(gen.permutation(p)[:k])
        factor = anchor(gen.normal(size=(p, k)), idx)
        back = manifold.factorize(factor.matrix, idx)
        worst = max(worst, float(np.max(np.abs(back.entries - factor.entries))))
    if worst > 1e-8:
        raise AssertionError(f"round-trip error {worst:.3e} above 1e-8")


def _selftest_lq():
    gen = np.random.default_rng(911)
    for _ in range(50):
        k = int(gen.integers(2, 7))
        mat = gen.normal(size=(k, k))
        tri, orth = lq_givens(mat)
        scale = np.max(np.abs(mat))
        if np.max(np.abs(tri @ orth - mat)) > 1e-12 * max(scale, 1.0):
            raise AssertionError("reconstruction failed")
        if np.max(np.abs(orth @ orth.T - np.eye(k))) > 1e-12:
            raise AssertionError("rotation not orthogonal")
        if np.max(np.abs(np.triu(tri, 1))) != 0.0:
            raise AssertionError("factor not lower triangular")
        if np.min(np.diag(tri)) <= 0.0:
            raise AssertionError("factor diagonal not positive")


def _selftest_karcher():
    diag_a = CholFactor(np.array([[1.0], [0.0]]), IndexSet((0,)))
    diag_b = CholFactor(np.array([[2.0], [0.0]]), IndexSet((0,)))
    mean = manifold.karcher_mean([diag_a, diag_b])
    if np.max(np.abs(mean.matrix - np.diag([2.0, 0.0]))) > 1e-12:
        raise AssertionError("two-point diagonal mean wrong")
    gen = np.random.default_rng(3)
    factor = anchor(gen.normal(size=(8, 3)), IndexSet.canonical(3))
    mean = manifold.karcher_mean([factor, factor, factor])
    if np.max(np.abs(mean.entries - factor.entries)) > 1e-10:
        raise AssertionError("mean of copies drifted")


def _selftest_orders():
    rems = np.maximum(*_lq_remainders(*_lq_instance(np.random.default_rng(77), 4),
                                      (2e-3, 1e-3)))
    ratio = rems[0] / rems[1]
    if not 3.0 < ratio < 5.0:
        raise AssertionError(f"lq remainder ratio {ratio:.2f} not ~ 4")
    values = np.array([2.0, 1.0])
    vectors = np.eye(2)
    delta = 1e-4
    bump = np.array([[0.0, delta], [delta, 0.0]])
    pred = perturbation.eigvec_first_order(values, vectors, 1, bump)
    if np.max(np.abs(pred - np.array([[1.0], [delta]]))) > 1e-15:
        raise AssertionError("closed-form eigenvector correction wrong")


def _selftest_determinism():
    cfg = ExperimentConfig(
        run_dpca.experiment, p=12, K=2, sigma_sq=0.0, M_grid=(4,), n_grid=(80,),
        repetitions=3, master_seed=7, index_mode="canonical",
    ).validate()
    first = render_csv(run_dpca(cfg))
    second = render_csv(run_dpca(replace(cfg, threads=2)))
    if first != second:
        raise AssertionError("rerun with a different worker count changed the CSV")
