"""Acceptance suite: end-to-end checks at desk scale.

Each test prints one PASS/FAIL line (visible even under pytest's capture)
and enforces its stated tolerance and runtime budget. Together they cover:
chart round-trips, the closed-form Karcher mean as Frechet minimizer, the
Monte Carlo convergence rates and method orderings of the three experiment
drivers, the second-order remainders of both expansions, the equivalent
factor-noise identity and its decay in n, anchor-row selection under
degenerate rows, and byte-level CLI determinism.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from psdk import manifold, models, perturbation
from psdk.dpca import find_index, lrc_dpca
from psdk.exceptions import NotInManifoldError
from psdk.experiments import (
    ExperimentConfig,
    run_dpca,
    run_extrinsic,
    run_intrinsic,
    run_perturb_order,
    slope_fit,
)
from psdk.linalg import (
    CholFactor,
    IndexSet,
    SpectralPair,
    eigh_topk,
    pivot_threshold,
    reduced_cholesky,
    support_mask,
)
from psdk.models import RngStream


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    """Let _report lines through pytest's capture as the suite runs."""
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _report(ok, name, detail):
    line = f"acceptance {'PASS' if ok else 'FAIL'} {name}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _random_factor(gen, p, k, idx):
    entries = 0.5 * gen.normal(size=(p, k))
    rows = idx.as_array()
    entries[rows, :] = np.tril(entries[rows, :])
    entries[rows, np.arange(k)] = 0.5 + gen.uniform(0.0, 1.5, size=k)
    return CholFactor(entries, idx).validate()


def _random_instance(gen, p, k):
    rows = tuple(int(i) for i in gen.permutation(p)[:k])
    return _random_factor(gen, p, k, IndexSet(rows))


def _mean_errors(records, method, key_fn):
    groups = {}
    for r in records:
        if r.method == method:
            groups.setdefault(key_fn(r), []).append(r.error)
    return {key: float(np.mean(errs)) for key, errs in sorted(groups.items())}


# ---------------------------------------------------------------------------
# 1. chart round-trips


def test_01_chart_roundtrip():
    tick = time.perf_counter()
    gen = np.random.default_rng(101)
    worst_chart = worst_refactor = 0.0
    for _ in range(500):
        p = int(gen.integers(2, 51))
        k = int(gen.integers(1, min(p, 8) + 1))
        factor = _random_instance(gen, p, k)
        mat = factor.matrix

        logs = manifold.log_factor(manifold.factorize(mat, factor.index_set))
        back = manifold.exp_factor(logs, factor.index_set)
        worst_chart = max(worst_chart, float(np.max(np.abs(back.matrix - mat))))

        refactored = reduced_cholesky(factor.entries @ factor.entries.T, factor.index_set)
        worst_refactor = max(
            worst_refactor, float(np.max(np.abs(refactored.entries - factor.entries)))
        )
    elapsed = time.perf_counter() - tick
    ok = worst_chart < 1e-8 and worst_refactor < 1e-8 and elapsed < 30
    _report(
        ok,
        "01 chart round-trip",
        f"500 instances, chart error {worst_chart:.2e}, refactor error "
        f"{worst_refactor:.2e} (tol 1e-8), {elapsed:.1f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# 2. closed-form mean minimizes the Frechet objective


def test_02_karcher_minimizes_frechet():
    tick = time.perf_counter()
    gen = np.random.default_rng(102)
    scales = (1e-4, 1e-2, 1e-1)
    worst_gap = -np.inf
    for _ in range(100):
        p = int(gen.integers(3, 21))
        k = int(gen.integers(1, min(p, 4) + 1))
        m_count = int(gen.integers(2, 11))
        idx = IndexSet(tuple(int(i) for i in gen.permutation(p)[:k]))
        base = _random_factor(gen, p, k, idx)
        samples = models.intrinsic_samples(base, 0.2, m_count, gen)
        logs = [manifold.log_factor(s) for s in samples]
        mean_log = manifold.log_factor(manifold.karcher_mean(samples))

        def objective(entries):
            return sum(float(np.sum((entries - l) ** 2)) for l in logs)

        best = objective(mean_log)
        mask = support_mask(p, idx)
        for j in range(200):
            bump = np.zeros((p, k))
            bump[mask] = scales[j % 3] * gen.normal(size=int(mask.sum()))
            worst_gap = max(worst_gap, best - objective(mean_log + bump))
    elapsed = time.perf_counter() - tick
    ok = worst_gap <= 1e-9 and elapsed < 60
    _report(
        ok,
        "02 Karcher mean minimizes Frechet objective",
        f"100 instances x 200 perturbations, worst objective gap "
        f"{worst_gap:.2e} (tol +1e-9), {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# 3 + 4. intrinsic averaging: rate in M, Karcher vs Euclidean ordering


@pytest.fixture(scope="module")
def intrinsic_run():
    cfg = ExperimentConfig(
        experiment="intrinsic_avg", p=50, K=5, sigma_sq=1.0, p_grid=(50,),
        M_grid=tuple(range(30, 271, 30)), repetitions=20, master_seed=0,
        threads=4,
    ).validate()
    tick = time.perf_counter()
    records = run_intrinsic(cfg)
    return cfg, records, time.perf_counter() - tick


def test_03_intrinsic_rate(intrinsic_run):
    cfg, records, elapsed = intrinsic_run
    means = _mean_errors(records, "karcher", lambda r: r.M)
    fit = slope_fit(list(means.items()))
    ok = -0.6 <= fit.slope <= -0.4 and elapsed < 300
    _report(
        ok,
        "03 intrinsic averaging rate",
        f"slope of mean error vs M = {fit.slope:.3f} (want [-0.6, -0.4], "
        f"r2={fit.r_squared:.3f}), {elapsed:.1f}s (budget 300s)",
    )


def test_04_intrinsic_ordering(intrinsic_run):
    cfg, records, _ = intrinsic_run
    karcher = _mean_errors(records, "karcher", lambda r: r.M)
    euclid = _mean_errors(records, "euclid", lambda r: r.M)
    worse_at = [m for m in cfg.M_grid if karcher[m] >= euclid[m]]
    ratios = [karcher[m] / euclid[m] for m in cfg.M_grid]
    ok = not worse_at
    _report(
        ok,
        "04 intrinsic averaging ordering",
        f"Karcher < Euclidean at all {len(cfg.M_grid)} grid points "
        f"(mean-error ratios {min(ratios):.2f}..{max(ratios):.2f})"
        + (f"; violated at M={worse_at}" if worse_at else ""),
    )


# ---------------------------------------------------------------------------
# 5. first-order expansions have quadratic remainders


def test_05_expansion_orders():
    tick = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="perturb_order", p=20, K=5, repetitions=20, master_seed=0,
    ).validate()
    records = run_perturb_order(cfg)
    slopes = {}
    for method in ("lq_rotation", "lq_factor", "karcher_factor"):
        for rep in range(cfg.repetitions):
            pts = [(r.sigma_sq, r.error) for r in records
                   if r.method == method and r.repetition == rep]
            slopes[(method, rep)] = slope_fit(pts).slope
    elapsed = time.perf_counter() - tick
    lo, hi = min(slopes.values()), max(slopes.values())
    bad = {k: v for k, v in slopes.items() if not 1.8 <= v <= 2.2}
    ok = not bad and elapsed < 60
    _report(
        ok,
        "05 expansion remainder order",
        f"{len(slopes)} instance slopes in [{lo:.3f}, {hi:.3f}] "
        f"(want within [1.8, 2.2]), {elapsed:.1f}s (budget 60s)"
        + (f"; out of range: {bad}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 6. equivalent factor noise rebuilds the sample surrogate


def test_06_equivalent_noise_identity():
    tick = time.perf_counter()
    p, k, n = 50, 5, 2000
    worst = 0.0
    for block in range(10):
        cov, _ = models.spiked_covariance(p, k, RngStream(106, block))
        pair = eigh_topk(cov, k)
        surrogate = (pair.vectors * pair.values**2) @ pair.vectors.T
        factor = manifold.factorize(0.5 * (surrogate + surrogate.T), IndexSet.canonical(k))
        alignment = perturbation.factor_alignment(factor, pair)
        gen = RngStream(107, block).generator()
        for _ in range(10):
            cov_hat = models.sample_cov(models.gaussian_samples(cov, n, gen))
            noise = perturbation.equivalent_factor_noise(cov_hat, cov, alignment)
            bumped = factor.entries + noise
            pair_hat = eigh_topk(cov_hat, k)
            target = (pair_hat.vectors * pair_hat.values**2) @ pair_hat.vectors.T
            worst = max(worst, float(np.max(np.abs(bumped @ bumped.T - target))))
    elapsed = time.perf_counter() - tick
    ok = worst < 1e-8
    _report(
        ok,
        "06 equivalent factor-noise identity",
        f"100 sample-covariance instances (p={p}, K={k}, n={n}), worst "
        f"max-norm defect {worst:.2e} (tol 1e-8), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. distributed PCA: rates in n and M, parity with pooled PCA


def test_07_dpca_rates_and_parity():
    tick = time.perf_counter()
    base = dict(experiment="dpca", p=50, K=5, sigma_sq=0.0, repetitions=50,
                master_seed=0, index_mode="find_index_machine1", threads=4)
    cfg_n = ExperimentConfig(**base, M_grid=(20,),
                             n_grid=(500, 1000, 2000, 4000)).validate()
    cfg_m = ExperimentConfig(**base, M_grid=(10, 20, 40, 80),
                             n_grid=(1000,)).validate()
    recs_n = run_dpca(cfg_n)
    recs_m = run_dpca(cfg_m)
    elapsed = time.perf_counter() - tick

    slopes = {}
    for method in ("full", "lrc", "fan", "bw"):
        means = _mean_errors(recs_n, method, lambda r: r.n)
        slopes[f"{method} vs n"] = slope_fit(list(means.items())).slope
        means = _mean_errors(recs_m, method, lambda r: r.M)
        slopes[f"{method} vs M"] = slope_fit(list(means.items())).slope
    bad_slopes = {k: round(v, 3) for k, v in slopes.items()
                  if not -0.65 <= v <= -0.35}

    gaps = []
    for recs, key_fn in ((recs_n, lambda r: r.n), (recs_m, lambda r: r.M)):
        full = _mean_errors(recs, "full", key_fn)
        lrc = _mean_errors(recs, "lrc", key_fn)
        gaps += [abs(lrc[g] - full[g]) / full[g] for g in full]
    ok = not bad_slopes and max(gaps) <= 0.10 and elapsed < 900
    _report(
        ok,
        "07 distributed PCA rates and parity",
        f"8 slopes in [{min(slopes.values()):.3f}, {max(slopes.values()):.3f}] "
        f"(want [-0.65, -0.35]), lrc-vs-full gap <= {max(gaps):.1%} "
        f"(budget 10%), {elapsed:.0f}s (budget 900s)"
        + (f"; bad slopes {bad_slopes}" if bad_slopes else ""),
    )


# ---------------------------------------------------------------------------
# 8. extrinsic averaging orderings


def test_08_extrinsic_orderings():
    tick = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="extrinsic_avg", p=50, K=5, sigma_sq=0.5,
        M_grid=(100, 400, 1000), sigma_grid=(0.0, 0.7), M_fixed=400,
        n_inner=2000, repetitions=20, master_seed=0, threads=4,
    ).validate()
    records = run_extrinsic(cfg)
    elapsed = time.perf_counter() - tick

    karcher = _mean_errors(records, "karcher", lambda r: (r.M, r.sigma_sq))
    euclid = _mean_errors(records, "euclid", lambda r: (r.M, r.sigma_sq))
    ratios = {key: karcher[key] / euclid[key] for key in karcher}
    sweep_ok = all(ratios[(m, 0.5)] < 1.0 for m in cfg.M_grid)
    clean_ok = ratios[(400, 0.0)] <= 1.25
    noisy_ok = ratios[(400, 0.7)] < 1.0
    ok = sweep_ok and clean_ok and noisy_ok and elapsed < 600
    _report(
        ok,
        "08 extrinsic averaging orderings",
        "karcher/euclid mean ratios: "
        + ", ".join(f"M={m} s2={s:g}: {ratios[(m, s)]:.3f}"
                    for (m, s) in sorted(ratios))
        + f" (want <1 at s2=0.5 and s2=0.7, <=1.25 at s2=0), "
        f"{elapsed:.0f}s (budget 600s)",
    )


# ---------------------------------------------------------------------------
# 9. equivalent noise shrinks with n like 1/sqrt(n)


def test_09_noise_decay_with_n():
    tick = time.perf_counter()
    p, k, machines, reps = 50, 5, 10, 20
    cov, _ = models.spiked_covariance(p, k, RngStream(109, 0))
    pair = eigh_topk(cov, k)
    surrogate = (pair.vectors * pair.values**2) @ pair.vectors.T
    factor = manifold.factorize(0.5 * (surrogate + surrogate.T), IndexSet.canonical(k))
    alignment = perturbation.factor_alignment(factor, pair)

    medians = {}
    for n in (1000, 4000):
        stats = []
        for rep in range(reps):
            gen = RngStream(110, n * 1000 + rep).generator()
            worst = 0.0
            for _ in range(machines):
                cov_hat = models.sample_cov(models.gaussian_samples(cov, n, gen))
                noise = perturbation.equivalent_factor_noise(cov_hat, cov, alignment)
                worst = max(worst, float(np.max(np.abs(noise))))
            stats.append(worst)
        medians[n] = float(np.median(stats))
    ratio = medians[1000] / medians[4000]
    elapsed = time.perf_counter() - tick
    ok = 1.6 <= ratio <= 2.5
    _report(
        ok,
        "09 factor-noise decay in n",
        f"median max-machine noise {medians[1000]:.3e} (n=1000) / "
        f"{medians[4000]:.3e} (n=4000) = {ratio:.2f} (want [1.6, 2.5]), "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. anchor-row selection under planted degenerate rows


def test_10_row_selection_under_zero_rows():
    tick = time.perf_counter()
    gen = np.random.default_rng(110)
    failures = []
    for trial in range(500):
        p = int(gen.integers(10, 26))
        k = int(gen.integers(2, 6))
        n_zero = int(gen.integers(1, k))
        g = gen.normal(size=(p, k))
        zero_rows = gen.choice(k, size=n_zero, replace=False)
        g[zero_rows, :] = 0.0
        frame = np.linalg.qr(g)[0]
        values = np.sort(gen.uniform(1.0, 2.0, size=k))[::-1]
        target = frame * values

        try:
            idx = find_index(frame, values)
        except Exception as err:  # noqa: BLE001 - tally, keep scanning
            failures.append((trial, f"find_index: {err}"))
            continue
        sigma_min = np.linalg.svd(target[list(idx.indices), :],
                                  compute_uv=False)[-1]
        if sigma_min <= pivot_threshold(target):
            failures.append((trial, f"selected block sigma_min {sigma_min:.2e}"))
            continue
        if idx == IndexSet.canonical(k):
            failures.append((trial, "kept the degenerate leading rows"))
            continue
        summaries = SpectralPair(np.stack([frame] * 3),
                                 np.stack([values * gen.uniform(0.8, 1.2) for _ in range(3)]))
        try:
            lrc_dpca(summaries, idx)
        except NotInManifoldError as err:
            failures.append((trial, f"lrc: {err}"))
    elapsed = time.perf_counter() - tick
    ok = not failures
    _report(
        ok,
        "10 row selection under planted zero rows",
        f"500 frames with degenerate leading rows, {len(failures)} failures, "
        f"{elapsed:.1f}s" + (f"; first: {failures[0]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# 11. CLI byte determinism


def test_11_cli_determinism(tmp_path, child_env):
    tick = time.perf_counter()
    outputs = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "psdk", "dpca", "--quick", "--seed", "7"],
            cwd=workdir, env=child_env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((workdir / "dpca.csv").read_bytes())
    elapsed = time.perf_counter() - tick
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(
        ok,
        "11 CLI byte determinism",
        f"two subprocess runs, {len(outputs[0])} bytes each, "
        f"identical={outputs[0] == outputs[1]}, {elapsed:.0f}s",
    )
