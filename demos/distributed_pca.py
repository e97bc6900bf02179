"""One-shot distributed PCA: four aggregators on the same machines.

M machines each hold n Gaussian draws from a spiked covariance. Each sends
only its top-K eigenpairs (O(pK) numbers). We compare:

  full  - pool the raw sample covariances (the centralized reference)
  lrc   - Karcher-mean the squared rank-K surrogates on the manifold
  fan   - average the eigenvector projectors
  bw    - average the unsquared rank-K surrogates

and score each by projector distance to the true leading eigenspace.

Run:  python3 demos/distributed_pca.py
"""

import numpy as np

from psdk import (
    RngStream,
    dpca_bw,
    dpca_fan,
    find_index,
    full_pca,
    gaussian_samples,
    lrc_dpca,
    projector_distance,
    sample_cov,
    spiked_covariance,
    summarize_covariance,
)

P, K, M, REPS = 40, 4, 20, 10
N_GRID = (250, 1000, 4000)


def one_round(cov, n, rng):
    covs = np.stack([sample_cov(gaussian_samples(cov, n, rng)) for _ in range(M)])
    # one call summarizes all M machines: a stacked SpectralPair with
    # vectors (M, p, K) and values (M, K), which the aggregators take as it is
    summaries = summarize_covariance(covs, K)
    # anchor rows chosen from machine 0's frame and shared with everyone
    idx = find_index(summaries.vectors[0], summaries.values[0], K)
    return {
        "full": full_pca(covs, K).basis,
        "lrc": lrc_dpca(summaries, K, idx).basis,
        "fan": dpca_fan(summaries, K).basis,
        "bw": dpca_bw(summaries, K).basis,
    }


def main():
    cov, basis = spiked_covariance(P, K, RngStream(0, 0))
    print(f"p={P}, K={K}, M={M} machines, {REPS} repetitions per n\n")
    print(f"{'n':>6}  {'full':>8}  {'lrc':>8}  {'fan':>8}  {'bw':>8}")
    for n in N_GRID:
        errs = {name: [] for name in ("full", "lrc", "fan", "bw")}
        for rep in range(REPS):
            estimates = one_round(cov, n, RngStream(1, 1000 * rep + n).generator())
            for name, est in estimates.items():
                errs[name].append(projector_distance(est, basis))
        print(f"{n:>6}  " + "  ".join(
            f"{np.mean(errs[name]):>8.4f}" for name in ("full", "lrc", "fan", "bw")
        ))
    print("\neach machine communicates only its top-K eigenpairs; the Karcher "
          "aggregate (lrc) stays within a hair of the pooled solution")


if __name__ == "__main__":
    main()
