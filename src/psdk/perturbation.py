"""First-order perturbation expansions for anchored factors and eigenspaces.

Three expansions live here, each paired with an exact counterpart elsewhere
in the package so callers (and the test suite) can measure the quadratic
remainder directly:

* `lq_first_order` linearizes the triangular-times-orthogonal decomposition
  of `linalg.lq_givens` around an unperturbed pair. The driving object is
  `skew_generator`, the skew-symmetric generator of the rotation induced by
  a perturbation of the triangular factor.
* `karcher_factor_first_order` linearizes the Karcher mean of factor-noise
  samples (`models.factor_noise_samples` + `manifold.karcher_mean`) around
  the noiseless factor.
* `eigvec_first_order` linearizes the top-K eigenvector block of a symmetric
  matrix under a symmetric perturbation, with the tail spectrum entering
  through the usual resolvent weights.

`equivalent_factor_noise` converts a sample covariance's rank-K spectral
surrogate into an additive factor perturbation, which is what lets the
factor expansions above speak about PCA aggregation.
"""

import numpy as np

from .exceptions import ShapeMismatchError, SingularMatrixError
from .linalg import (TAU_PIVOT_REL, SpectralPair, _as_array, _as_signal, _check_rank,
                     _lead_axes, _refuse, _sample_stack, _solve_lower, check_symmetric,
                     eigh_topk, pivot_threshold, procrustes_sign)

# Max-norm bound on Q.T Q - I for `factor_alignment`'s orthogonality check.
ALIGNMENT_TOL = 1e-8


def skew_generator(tril, noise):
    """Skew generator of the rotation created by perturbing a triangular factor.

    For lower-triangular `tril` (nonsingular) and a same-shape perturbation
    `noise`, returns U(tril^-1 @ noise) - U(tril^-1 @ noise).T with U the
    strictly-upper projection. The result F is skew-symmetric, linear in
    `noise`, and satisfies ||F||_F <= sqrt(2) ||tril^-1||_2 ||noise||_F.
    A stack of perturbations (E, K, K) sharing `tril` gives the stack of
    generators (E, K, K). `tril` may be a stack (*batch, K, K) of factors;
    `noise` then has the same leading axes, (*batch, K, K) or
    (*batch, E, K, K), and each factor's generators come back in its place.

    Raises
    ------
    SingularMatrixError
        If a diagonal entry of `tril` is numerically zero, relative to the
        max-norm of its own factor; for a stack, the first such factor b by
        its position in the flattened batch ("element b: ", `element` b).
    """
    tril = _as_array("factor entries", tril)
    noise = _as_array("noise entries", noise)
    if tril.ndim < 2 or tril.shape[-1] != tril.shape[-2] or not tril.size:
        raise ShapeMismatchError(f"expected a square factor, got shape {tril.shape}")
    if (noise.ndim - tril.ndim not in (0, 1) or noise.shape[-2:] != tril.shape[-2:]
            or noise.shape[:tril.ndim - 2] != tril.shape[:-2]):
        raise ShapeMismatchError(
            f"noise shape {noise.shape} does not match factor shape {tril.shape}"
        )
    pivots = np.min(np.abs(np.diagonal(tril, axis1=-2, axis2=-1)), axis=-1)
    _refuse(SingularMatrixError, pivots <= TAU_PIVOT_REL * np.max(np.abs(tril), axis=(-2, -1)),
            tril.ndim > 2, lambda m: "triangular factor has a numerically zero diagonal")
    scaled = _solve_lower(_lead_axes(tril, noise.ndim), noise)
    upper = np.triu(scaled, 1)
    return upper - np.swapaxes(upper, -1, -2)


def lq_first_order(tril, orth, noise):
    """First-order prediction of the perturbed triangular-orthogonal pair.

    Given an exact decomposition M = tril @ orth and a perturbation `noise`
    of M, predicts the factors of M + noise:

        orth_pred = orth + F @ orth
        tril_pred = tril + noise @ orth.T - tril @ F

    with F = skew_generator(tril, noise @ orth.T). Both predictions are
    accurate to second order in the perturbation; callers measure the
    remainder against the exact `linalg.lq_givens(M + noise)`.

    `tril` and `orth` are K x K; `noise` is K x K, or a stack (E, K, K) of
    perturbations of the one pair, predicted in one pass. The pair may be a
    stack (*batch, K, K) of pairs; `noise` then has the same leading axes,
    (*batch, K, K) or (*batch, E, K, K), as for `skew_generator`.

    Returns
    -------
    (orth_pred, tril_pred) : pair of ndarray, each of the shape of `noise`
    """
    tril = _as_array("factor entries", tril)
    orth = _as_array("rotation entries", orth)
    noise = _as_array("noise entries", noise)
    if (tril.shape != orth.shape or tril.ndim < 2 or noise.ndim - tril.ndim not in (0, 1)
            or noise.shape[-2:] != tril.shape[-2:]
            or noise.shape[:tril.ndim - 2] != tril.shape[:-2]):
        raise ShapeMismatchError(
            f"shapes differ: {tril.shape}, {orth.shape}, {noise.shape}"
        )
    orth_b = _lead_axes(orth, noise.ndim)
    rotated = noise @ np.swapaxes(orth_b, -1, -2)
    gen = skew_generator(tril, rotated)
    orth_pred = orth_b + gen @ orth_b
    tril_b = _lead_axes(tril, noise.ndim)
    tril_pred = tril_b + rotated - tril_b @ gen
    return orth_pred, tril_pred


def karcher_factor_first_order(factor, noises):
    """First-order prediction of the Karcher-mean factor under factor noise.

    For samples built as (N + E_m)(N + E_m).T, the factor of the Karcher mean
    expands around N as

        N + mean(E_m) - N @ skew_generator(R, mean of anchor rows of E_m)

    where R is the anchor block of N. The returned (p, K) array matches the
    exact mean factor to second order in the noise scale; its anchor rows are
    lower triangular up to roundoff by construction.

    Parameters
    ----------
    factor : CholFactor
        The noiseless factor N, p x K, or a stack (B, p, K) of B factors.
    noises : ndarray, shape (M, p, K) or (E, M, p, K)
        Unstructured perturbations E_m, one per sample (or a sequence of M
        (p, K) arrays). An (E, M, p, K) array holds E independent noise sets
        of M samples each; one (p, K) prediction per set comes back, (E, p, K).
        For a stack of factors the noises lead with its axis, (B, M, p, K) or
        (B, E, M, p, K), and the predictions do too.
    """
    _as_signal(factor)
    noises = _sample_stack(noises, "noise matrices", factor.entries.shape, ndims=(3, 4))
    mean_noise = np.mean(noises, axis=-3)
    anchor_mean = mean_noise[..., factor.index_set.as_array(), :]
    gen = skew_generator(factor.anchor_block(), anchor_mean)
    base = _lead_axes(factor.entries, mean_noise.ndim)
    return base + mean_noise - base @ gen


def eigvec_first_order(values, vectors, rank, noise):
    """First-order top-`rank` eigenvector block of a perturbed symmetric matrix.

    Parameters
    ----------
    values : ndarray, shape (p,)
        Full spectrum of the unperturbed matrix, descending.
    vectors : ndarray, shape (p, p)
        Matching orthonormal eigenvectors, one per column.
    rank : int
        Size of the retained leading block, 1 <= rank <= p.
    noise : ndarray, shape (p, p)
        Symmetric perturbation.

    Returns
    -------
    ndarray, shape (p, rank)
        vectors[:, :rank] plus the first-order correction; column j receives
        -sum_{i > rank} v_i (v_i.T noise v_j) / (values_i - values_j). The
        exact counterpart is the top-`rank` eigenbasis of the perturbed
        matrix, aligned by `linalg.procrustes_sign`.

    Raises
    ------
    SingularMatrixError
        If values[rank-1] - values[rank] is at or below the pivot threshold.
    """
    values = _as_array("eigenvalues", values)
    vectors = _as_array("eigenvectors", vectors)
    noise = check_symmetric(noise)
    p = values.size
    if values.ndim != 1 or vectors.shape != (p, p):
        raise ShapeMismatchError(
            f"vectors shape {vectors.shape} does not match eigenvalues of shape {values.shape}"
        )
    if noise.shape != (p, p):
        raise ShapeMismatchError(f"noise shape {noise.shape} does not match p = {p}")
    _check_rank(rank, p)
    if np.any(np.diff(values) > 0):
        raise ShapeMismatchError("eigenvalues must be sorted descending")
    head = vectors[:, :rank]
    if rank == p:
        return head.copy()
    gap = values[rank - 1] - values[rank]
    if gap <= pivot_threshold(np.diag(values)):
        raise SingularMatrixError(
            f"eigengap below the retained block is {gap:.3e}, too small"
        )
    tail = vectors[:, rank:]
    coeffs = tail.T @ (noise @ head)
    denoms = values[rank:, None] - values[None, :rank]
    return head - tail @ (coeffs / denoms)


def equivalent_factor_noise(cov_hat, cov, alignment):
    """Additive factor perturbation equivalent to a covariance estimate.

    Maps a sample covariance `cov_hat` to the p x K matrix

        E = cov_hat @ V_hat @ H @ alignment - cov @ V @ alignment

    where (V, .) and (V_hat, .) are the leading eigenpairs of `cov` and
    `cov_hat` and H is the orthogonal Procrustes sign of V_hat.T @ V. With N
    the reduced factor of the rank-K surrogate of `cov` and `alignment` its
    frame alignment, N + E reproduces the rank-K spectral surrogate of
    `cov_hat` exactly: (N + E)(N + E).T equals V_hat diag(values_hat)^2
    V_hat.T. K is the size of the K x K `alignment`, 1 <= K < p.

    Raises
    ------
    ShapeMismatchError
        On covariances of different shapes, or an alignment that is not a
        K x K matrix with 1 <= K < p.
    SingularMatrixError
        If the eigengap of `cov` below the retained block is numerically
        zero, or (from the Procrustes sign) when the bases are orthogonal.
    """
    cov_hat = check_symmetric(cov_hat)
    cov = check_symmetric(cov)
    if cov_hat.shape != cov.shape:
        raise ShapeMismatchError(
            f"covariance shapes differ: {cov_hat.shape} vs {cov.shape}"
        )
    alignment = _as_array("alignment entries", alignment, (2,))
    p, rank = len(cov), len(alignment)
    if alignment.shape != (rank, rank) or not 1 <= rank < p:
        raise ShapeMismatchError(f"alignment of shape {alignment.shape} is not K x K "
                                 f"with 1 <= K < p = {p}")
    wide = eigh_topk(cov, rank + 1)
    gap = wide.values[rank - 1] - wide.values[rank]
    if gap <= pivot_threshold(cov):
        raise SingularMatrixError(f"eigengap of the reference covariance is {gap:.3e}")
    vectors, vectors_hat = wide.vectors[:, :rank], eigh_topk(cov_hat, rank).vectors
    sign = procrustes_sign(vectors_hat.T @ vectors)
    return cov_hat @ vectors_hat @ sign @ alignment - cov @ vectors @ alignment


def factor_alignment(factor, pair):
    """Orthogonal alignment between a reduced factor and its spectral frame.

    For a factor N of the matrix V diag(values)^2 V.T, returns
    Q = diag(values)^-1 V.T N, the orthogonal matrix with N = V diag(values) Q.

    Raises
    ------
    SingularMatrixError
        If any provided eigenvalue is not strictly positive.
    ShapeMismatchError
        If `factor` is not a CholFactor or `pair` not a SpectralPair, if the
        frame shapes differ or the values are not K, or if the computed
        alignment fails ||Q.T Q - I||_max <= ALIGNMENT_TOL (1e-8), which
        signals that `factor` and `pair` do not describe the same matrix.
    """
    _as_signal(factor)
    if not isinstance(pair, SpectralPair):
        raise ShapeMismatchError(f"pair is a {type(pair).__name__}, not a SpectralPair")
    values = _as_array("eigenvalues", pair.values)
    vectors = _as_array("eigenvectors", pair.vectors)
    if vectors.shape != factor.entries.shape or values.shape != vectors.shape[1:]:
        raise ShapeMismatchError(f"spectral frame shape {vectors.shape} and values shape "
                                 f"{values.shape} do not match factor shape {factor.entries.shape}")
    if values[-1] <= 0.0:
        raise SingularMatrixError(
            f"alignment needs positive eigenvalues, got min = {values[-1]:.3e}"
        )
    align = (vectors.T @ factor.entries) / values[:, None]
    resid = np.max(np.abs(align.T @ align - np.eye(align.shape[0])))
    if resid > ALIGNMENT_TOL:
        raise ShapeMismatchError(
            f"alignment is not orthogonal: ||Q.T Q - I||_max = {resid:.3e}"
        )
    return align
