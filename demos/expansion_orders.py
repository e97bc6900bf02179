"""Numerical check that the first-order expansions are first order.

Two expansions, same experiment: predict the perturbed quantity with the
linear term only, recompute it exactly, and scale the noise down. If the
expansion is correct, the remainder drops by 4x per halving (slope 2 in
log-log), not 2x.

  1. triangular-orthogonal decomposition: RQ + E -> (R~, Q~)
  2. Karcher mean factor: samples (N + eps E_m)(N + eps E_m).T -> mean factor

Run:  python3 demos/expansion_orders.py
"""

import numpy as np

from psdk import (
    CholFactor,
    IndexSet,
    factor_noise_samples,
    karcher_factor_first_order,
    karcher_mean,
    lq_first_order,
    lq_givens,
)
from psdk.experiments import slope_fit

EPS_GRID = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def lq_remainders(rng, k=5):
    tril = np.tril(rng.normal(size=(k, k)))
    np.fill_diagonal(tril, 1.0 + np.abs(rng.normal(size=k)))
    orth = np.linalg.qr(rng.normal(size=(k, k)))[0]
    noise = rng.normal(size=(k, k))
    noise /= np.max(np.abs(noise))
    out = []
    for eps in EPS_GRID:
        exact_tri, exact_orth = lq_givens(tril @ orth + eps * noise)
        pred_orth, pred_tri = lq_first_order(tril, orth, eps * noise)
        out.append(max(np.max(np.abs(exact_orth - pred_orth)),
                       np.max(np.abs(exact_tri - pred_tri))))
    return out


def karcher_remainders(rng, p=20, k=4, m_count=5):
    entries = 0.5 * rng.normal(size=(p, k))
    entries[:k, :] = np.tril(entries[:k, :])
    entries[np.arange(k), np.arange(k)] = 1.0 + np.abs(rng.normal(size=k))
    factor = CholFactor(entries, IndexSet.canonical(k))
    noises = []
    for _ in range(m_count):
        e = rng.normal(size=(p, k))
        noises.append(e / np.max(np.abs(e)))
    out = []
    for eps in EPS_GRID:
        scaled = [eps * e for e in noises]
        exact = karcher_mean(factor_noise_samples(factor, scaled))
        pred = karcher_factor_first_order(factor, scaled)
        out.append(np.max(np.abs(exact.entries - pred)))
    return out


def show(name, remainders):
    print(f"{name}:")
    print(f"  {'eps':>10}  {'remainder':>12}  {'drop':>6}")
    for i, (eps, rem) in enumerate(zip(EPS_GRID, remainders)):
        drop = f"{remainders[i - 1] / rem:.2f}x" if i else "-"
        print(f"  {eps:>10.2e}  {rem:>12.3e}  {drop:>6}")
    fit = slope_fit(list(zip(EPS_GRID, remainders)))
    print(f"  log-log slope = {fit.slope:.3f} (first order means ~2)\n")


def main():
    rng = np.random.default_rng(7)
    show("triangular-orthogonal decomposition", lq_remainders(rng))
    show("Karcher mean factor", karcher_remainders(rng))


if __name__ == "__main__":
    main()
