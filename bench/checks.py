"""Output checks for the benchmark workloads.

Each check reads the CSV the CLI wrote and tests properties the methods must
have, or compares rows against a computation made apart from the program.
Nothing is compared against a stored copy of earlier output.

A job is one (grid point, repetition) of an experiment. `check_csv` returns
the set of failed jobs, with a reason for each, plus a list of problems
found in properties that span many jobs (slopes, orderings of mean errors).
A job fails when one of its records is missing or out of order, when a
record fails a per-row check, or when an independent recomputation of the
record disagrees with it.

psdk itself is imported only to regenerate random draws (`psdk.models`);
every recomputed estimate uses plain numpy/scipy.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular

CSV_HEADER = "experiment,method,p,K,M,n,sigma_sq,repetition,seed,error,wall_time_ms"

# Relative tolerance between a CSV error and its independent recomputation.
# Both are float64 computations of the same quantity by different routes
# (triangular solve vs. the program's factor path; numpy eigh vs. eigh_topk),
# so they agree to roughly 1e-12 relative; 1e-6 leaves room without letting a
# wrong row through.
RECOMPUTE_RTOL = 1e-6

# Bands for the properties that span jobs. Each is wide enough to hold on
# every seed of the benchmark's workloads and narrow enough that a wrong
# method (or a corrupted CSV) falls outside it.
INTRINSIC_SLOPE_BAND = (-0.7, -0.3)     # Karcher error ~ M^(-1/2)
DPCA_SLOPE_BAND = (-0.7, -0.3)          # projector error ~ n^(-1/2)
DPCA_LRC_FULL_FACTOR = 1.1              # mean lrc error <= factor * mean full
PERTURB_SLOPE_BAND = (1.8, 2.2)         # first-order remainder ~ eps^2
PERTURB_MAX_RESIDUAL = 0.1              # log-remainder stays on that line


@dataclass(frozen=True)
class Row:
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
    wall_time_ms: float


@dataclass
class Report:
    """Outcome of checking one CSV."""

    failed: dict               # job key -> reason
    problems: list             # failed cross-job properties
    rows: dict                 # job key -> rows found for it

    @property
    def ok(self):
        return not self.failed and not self.problems


def parse_config(path):
    """Read a flat `key = value` workload file into typed values."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    ints = ("p", "K", "M_fixed", "n_inner", "repetitions", "threads")
    floats = ("sigma_sq",)
    int_lists = ("p_grid", "M_grid", "n_grid")
    float_lists = ("sigma_grid", "eps_grid")
    cfg = {}
    for key, val in values.items():
        if key in ints:
            cfg[key] = int(val)
        elif key in floats:
            cfg[key] = float(val)
        elif key in int_lists:
            cfg[key] = tuple(int(t) for t in val.split(",") if t.strip())
        elif key in float_lists:
            cfg[key] = tuple(float(t) for t in val.split(",") if t.strip())
        else:
            cfg[key] = val
    return cfg


def parse_csv(text):
    """Split CSV text into (header line, rows); malformed lines raise ValueError."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    rows = []
    for line in lines[1:-1]:
        f = line.split(",")
        if len(f) != 11:
            raise ValueError(f"expected 11 fields, got {len(f)}: {line!r}")
        rows.append(Row(f[0], f[1], int(f[2]), int(f[3]), int(f[4]), int(f[5]),
                        float(f[6]), int(f[7]), int(f[8]), float(f[9]),
                        float(f[10])))
    return lines[0], rows


# ---------------------------------------------------------------------------
# expected layout: job key -> the (method, M, n, sigma_sq) sequence it writes

def expected_layout(cfg):
    """Ordered list of (job key, expected record labels) for a workload."""
    exp = cfg["experiment"]
    p, reps = cfg["p"], cfg["repetitions"]
    out = []
    if exp == "intrinsic_avg":
        for p_ in cfg.get("p_grid") or (p,):
            for m in cfg["M_grid"]:
                for r in range(reps):
                    labels = [(meth, p_, m, 0, cfg["sigma_sq"])
                              for meth in ("karcher", "euclid")]
                    out.append(((p_, m, cfg["sigma_sq"], r), labels))
    elif exp == "dpca":
        for m in cfg["M_grid"]:
            for n in cfg["n_grid"]:
                for r in range(reps):
                    labels = [(meth, p, m, n, cfg["sigma_sq"])
                              for meth in ("full", "lrc", "fan", "bw")]
                    out.append(((m, n, r), labels))
    elif exp == "extrinsic_avg":
        grid = [(m, cfg["sigma_sq"]) for m in cfg.get("M_grid", ())]
        grid += [(cfg["M_fixed"], s2) for s2 in cfg.get("sigma_grid", ())]
        for m, s2 in grid:
            for r in range(reps):
                labels = [(meth, p, m, cfg["n_inner"], s2)
                          for meth in ("karcher", "euclid")]
                out.append(((m, s2, r), labels))
    elif exp == "perturb_order":
        eps = cfg["eps_grid"]
        for r in range(reps):
            labels = [(meth, p, 0, 0, e) for e in eps
                      for meth in ("lq_rotation", "lq_factor")]
            out.append((("lq", r), labels))
        for r in range(reps):
            labels = [("karcher_factor", p, 5, 0, e) for e in eps]
            out.append((("karcher_factor", r), labels))
    else:
        raise ValueError(f"unknown experiment {exp!r}")
    return out


def _job_key(cfg, row):
    exp = cfg["experiment"]
    if exp == "intrinsic_avg":
        return (row.p, row.M, row.sigma_sq, row.repetition)
    if exp == "dpca":
        return (row.M, row.n, row.repetition)
    if exp == "extrinsic_avg":
        return (row.M, row.sigma_sq, row.repetition)
    family = "karcher_factor" if row.method == "karcher_factor" else "lq"
    return (family, row.repetition)


def _labels(row):
    return (row.method, row.p, row.M, row.n, row.sigma_sq)


# ---------------------------------------------------------------------------
# entry point

def check_csv(cfg, text, seed, recompute=True):
    """Check one CSV written for workload config `cfg` and master seed `seed`.

    `recompute=False` skips the independent recomputation of rows, which
    is what repeated runs need once they are shown byte-identical to a run
    that was recomputed.
    """
    layout = expected_layout(cfg)
    jobs = [key for key, _ in layout]
    failed, problems = {}, []
    header, rows = "", []
    try:
        header, rows = parse_csv(text)
    except ValueError as err:
        problems.append(f"unreadable CSV: {err}")
    if header != CSV_HEADER:
        problems.append(f"header differs from {CSV_HEADER!r}: {header!r}")
    if problems:
        return Report({k: "CSV unreadable" for k in jobs}, problems, {})

    by_job = {}
    for row in rows:
        by_job.setdefault(_job_key(cfg, row), []).append(row)
    extra = set(by_job) - set(jobs)
    if extra:
        problems.append(f"records of {len(extra)} unexpected jobs, "
                        f"e.g. {sorted(extra, key=repr)[0]}")
    for key, labels in layout:
        got = by_job.get(key, [])
        if [_labels(r) for r in got] != labels:
            failed[key] = (f"records {[r.method for r in got]} do not match the "
                           f"expected {[lab[0] for lab in labels]}")
            continue
        if any(r.experiment != cfg["experiment"] or r.K != cfg["K"]
               or r.wall_time_ms != 0.0 for r in got):
            failed[key] = "experiment, K or wall_time_ms column wrong"
            continue
        if len({r.seed for r in got}) != 1:
            failed[key] = "records of one job carry different seeds"
            continue
        bad = [r for r in got if not (math.isfinite(r.error) and r.error > 0.0)]
        if bad:
            failed[key] = f"{bad[0].method} error {bad[0].error!r} not finite and positive"

    checker = _CHECKS[cfg["experiment"]]
    good = {k: v for k, v in by_job.items() if k in jobs and k not in failed}
    checker(cfg, good, seed, failed, problems, recompute)
    return Report(failed, problems, by_job)


# ---------------------------------------------------------------------------
# intrinsic_avg

def _log_chol_mean(matrices, k):
    """Log-Cholesky Karcher mean of rank-k PSD matrices anchored at rows 0..k-1.

    Written from the definition, apart from psdk.manifold: each matrix S is
    factored as N N^T with N[:k] = chol(S[:k, :k]) and N[k:] = S[k:, :k]
    N[:k]^-T; the factors are averaged with logs taken on the diagonal of
    N[:k]; the mean is N_bar N_bar^T.
    """
    acc = None
    for mat in matrices:
        top = cholesky(mat[:k, :k], lower=True)
        rest = solve_triangular(top, mat[k:, :k].T, lower=True).T
        fac = np.vstack([top, rest])
        fac[np.arange(k), np.arange(k)] = np.log(np.diag(top))
        acc = fac if acc is None else acc + fac
    mean = acc / len(matrices)
    mean[np.arange(k), np.arange(k)] = np.exp(np.diag(mean[:k]))
    return mean @ mean.T


def _rankk_of_mean(matrices, k):
    avg = np.mean(np.stack(matrices), axis=0)
    avg = 0.5 * (avg + avg.T)
    values, vectors = np.linalg.eigh(avg)
    top = vectors[:, -k:]
    return (top * values[-k:]) @ top.T


def _close(a, b):
    return abs(a - b) <= RECOMPUTE_RTOL * abs(b)


def _slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _means(jobs, method, group):
    out = {}
    for key, recs in jobs.items():
        for r in recs:
            if r.method == method:
                out.setdefault(group(key), []).append(r.error)
    return {g: float(np.mean(v)) for g, v in out.items()}


def _check_intrinsic(cfg, jobs, seed, failed, problems, recompute):
    karcher = _means(jobs, "karcher", lambda key: key[1])
    euclid = _means(jobs, "euclid", lambda key: key[1])
    grid = [m for m in cfg["M_grid"] if m in karcher and m in euclid]
    if len(grid) >= 2:
        slope = _slope(grid, [karcher[m] for m in grid])
        lo, hi = INTRINSIC_SLOPE_BAND
        if not lo <= slope <= hi:
            problems.append(f"karcher error slope vs M {slope:.3f} outside [{lo}, {hi}]")
    for m in grid:
        if karcher[m] >= euclid[m]:
            problems.append(f"M={m}: mean karcher error {karcher[m]:.4g} not below "
                            f"euclid {euclid[m]:.4g}")
    if recompute:
        for key in _recompute_keys(cfg, jobs, seed, by=lambda key: key[1]):
            reason = _recompute_intrinsic(cfg, key, jobs[key], seed)
            if reason:
                failed[key] = reason


def _recompute_keys(cfg, jobs, seed, by):
    """One job per grid value (as grouped by `by`), the repetition picked by seed."""
    rep = seed % cfg["repetitions"]
    picked = {}
    for key in jobs:
        if key[-1] == rep:
            picked.setdefault(by(key), key)
    return list(picked.values())


def _recompute_intrinsic(cfg, key, recs, seed):
    from psdk import models

    p, m_count, _, rep = key
    pi = (cfg.get("p_grid") or (p,)).index(p)
    k = cfg["K"]
    signal = models.gaussian_svd_signal(
        p, k, models.RngStream(seed, models.derive_stream_id(0, pi, rep)))
    row_seed = recs[0].seed
    samples = models.intrinsic_samples(signal, math.sqrt(cfg["sigma_sq"]), m_count,
                                       models.RngStream(seed, row_seed))
    mats = [s.matrix for s in samples]
    want = {
        "karcher": float(np.linalg.norm(_log_chol_mean(mats, k) - signal.matrix)),
        "euclid": float(np.linalg.norm(_rankk_of_mean(mats, k) - signal.matrix)),
    }
    for r in recs:
        if not _close(r.error, want[r.method]):
            return (f"{r.method} error {r.error!r} differs from the recomputed "
                    f"{want[r.method]!r}")
    return None


# ---------------------------------------------------------------------------
# dpca

def _check_dpca(cfg, jobs, seed, failed, problems, recompute):
    cap = math.sqrt(2 * cfg["K"])
    for key, recs in jobs.items():
        over = [r for r in recs if r.error > cap]
        if over:
            failed[key] = f"{over[0].method} projector distance {over[0].error!r} above sqrt(2K)"
    methods = ("full", "lrc", "fan", "bw")
    means = {meth: _means(jobs, meth, lambda key: key[:2]) for meth in methods}
    for gp in sorted(means["full"]):
        lrc, full = means["lrc"].get(gp), means["full"][gp]
        if lrc is not None and lrc > DPCA_LRC_FULL_FACTOR * full:
            problems.append(f"(M, n)={gp}: mean lrc error {lrc:.4g} above "
                            f"{DPCA_LRC_FULL_FACTOR} x full {full:.4g}")
    lo, hi = DPCA_SLOPE_BAND
    for m in cfg["M_grid"]:
        for meth in methods:
            ns = [n for n in cfg["n_grid"] if (m, n) in means[meth]]
            if len(ns) >= 2:
                slope = _slope(ns, [means[meth][(m, n)] for n in ns])
                if not lo <= slope <= hi:
                    problems.append(f"M={m} {meth}: error slope vs n {slope:.3f} "
                                    f"outside [{lo}, {hi}]")
    if recompute:
        for key in _recompute_keys(cfg, jobs, seed, by=lambda key: key[:2]):
            reason = _recompute_full(cfg, key, jobs[key], seed)
            if reason:
                failed[key] = reason


def _projector_distance(a, b):
    return float(np.linalg.norm(a @ a.T - b @ b.T))


def _recompute_full(cfg, key, recs, seed):
    from psdk import models

    m_count, n, rep = key
    p, k = cfg["p"], cfg["K"]
    gi = [(m, n_) for m in cfg["M_grid"] for n_ in cfg["n_grid"]].index((m_count, n))
    cov, _ = models.spiked_covariance(
        p, k, models.RngStream(seed, models.derive_stream_id(0, 0, 0)))
    pooled = np.zeros((p, p))
    for machine in range(m_count):
        data = models.gaussian_samples(
            cov, n, models.RngStream(seed, models.derive_stream_id(2, gi, rep, machine)))
        pooled += data.T @ data / n
    truth = np.linalg.eigh(cov)[1][:, -k:]
    estimate = np.linalg.eigh(pooled / m_count)[1][:, -k:]
    want = _projector_distance(estimate, truth)
    got = next(r.error for r in recs if r.method == "full")
    if not _close(got, want):
        return f"full error {got!r} differs from the recomputed {want!r}"
    return None


# ---------------------------------------------------------------------------
# extrinsic_avg

def _check_extrinsic(cfg, jobs, seed, failed, problems, recompute):
    karcher = _means(jobs, "karcher", lambda key: key[:2])
    euclid = _means(jobs, "euclid", lambda key: key[:2])
    for gp in sorted(karcher):
        if gp[1] > 0 and gp in euclid and karcher[gp] >= euclid[gp]:
            problems.append(f"(M, sigma_sq)={gp}: mean karcher error {karcher[gp]:.4g} "
                            f"not below euclid {euclid[gp]:.4g}")


# ---------------------------------------------------------------------------
# perturb_order

def _check_perturb(cfg, jobs, seed, failed, problems, recompute):
    lo, hi = PERTURB_SLOPE_BAND
    for key, recs in jobs.items():
        for meth in sorted({r.method for r in recs}):
            pts = [(r.sigma_sq, r.error) for r in recs if r.method == meth]
            lx = np.log([x for x, _ in pts])
            ly = np.log([y for _, y in pts])
            slope, icept = np.polyfit(lx, ly, 1)
            resid = float(np.max(np.abs(ly - (slope * lx + icept))))
            if not lo <= slope <= hi or resid > PERTURB_MAX_RESIDUAL:
                failed[key] = (f"{meth}: remainder slope {slope:.3f} (want [{lo}, {hi}]), "
                               f"largest log residual {resid:.3f}")
                break


_CHECKS = {
    "intrinsic_avg": _check_intrinsic,
    "dpca": _check_dpca,
    "extrinsic_avg": _check_extrinsic,
    "perturb_order": _check_perturb,
}
