"""Averaging rank-K matrices that are only observed through finite data.

Each "machine" holds a noisy rank-K matrix near a common signal, but we never
see it directly: we see n_inner Gaussian draws with that covariance (plus a
small ridge) and keep the rank-K spectral surrogate of the empirical second
moment. The Karcher mean of the surrogates is compared with the Euclidean
rank-K mean, at several machine counts and noise levels.

Run:  python3 demos/averaging_from_data.py
"""

import numpy as np

from psdk import (
    RngStream,
    euclid_rankk_mean,
    extrinsic_samples,
    gaussian_svd_signal,
    karcher_mean,
)

P, K, N_INNER, REPS = 30, 3, 2000, 8


def mean_errors(sigma_sq, m_count):
    err_k, err_e = [], []
    for rep in range(REPS):
        signal = gaussian_svd_signal(P, K, RngStream(0, rep))
        samples = extrinsic_samples(
            signal, sigma_sq, m_count, RngStream(1, 7919 * rep + m_count),
            n_inner=N_INNER,
        )
        mean = karcher_mean(samples)
        err_k.append(np.linalg.norm(mean.matrix - signal.matrix))
        euclid = euclid_rankk_mean(samples)
        err_e.append(np.linalg.norm(euclid.matrix - signal.matrix))
    return float(np.mean(err_k)), float(np.mean(err_e))


def main():
    print(f"p={P}, K={K}, n_inner={N_INNER}, {REPS} repetitions per cell\n")

    print("sweep 1: more machines at fixed noise (sigma^2 = 0.5)")
    print(f"{'M':>6}  {'karcher':>9}  {'euclid':>9}  {'ratio':>6}")
    for m_count in (50, 200, 800):
        ek, ee = mean_errors(0.5, m_count)
        print(f"{m_count:>6}  {ek:>9.4f}  {ee:>9.4f}  {ek / ee:>6.3f}")
    print("averaging keeps helping the geometric mean; the Euclidean mean "
          "stalls at its bias floor\n")

    print("sweep 2: more noise at fixed machines (M = 200)")
    print(f"{'s^2':>6}  {'karcher':>9}  {'euclid':>9}  {'ratio':>6}")
    for sigma_sq in (0.0, 0.3, 0.7):
        ek, ee = mean_errors(sigma_sq, 200)
        print(f"{sigma_sq:>6.1f}  {ek:>9.4f}  {ee:>9.4f}  {ek / ee:>6.3f}")
    print("at zero noise both recover the signal up to finite-sample error; "
          "as noise grows the geometry pays off")


if __name__ == "__main__":
    main()
