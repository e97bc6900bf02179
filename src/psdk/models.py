"""Synthetic data generation: signals, noise models, and seeded RNG streams.

Two noise models produce collections of rank-K PSD matrices around a signal:

* intrinsic: additive i.i.d. Gaussian noise on the supported entries of the
  log-coordinate factor, so samples stay exactly rank K by construction;
* factor noise / extrinsic: unstructured perturbations of the factor itself,
  samples built as (N + E)(N + E).T, optionally observed only through the
  sample covariance of finite Gaussian data and its rank-K spectral
  surrogate. That sample covariance is drawn exactly from its Wishart law
  in factor form, without simulating the data (`extrinsic_samples`).

The distributed-PCA machines observe N(0, Sigma) data. `gaussian_samples`
returns such data; `_sample_covariances` gives a stack of machines their
sample covariances from the same normals, R (Z.T Z / n) R.T for the root
R R.T = Sigma, without forming the data.

All randomness flows through `RngStream`, a pure function of
(master_seed, stream_id), so every experiment repetition can own an
independent, replayable stream.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import manifold
from .exceptions import ConfigError, NotInManifoldError, ShapeMismatchError, SingularMatrixError
from .linalg import (IndexSet, _as_array, _as_signal, _check_integer, _check_rank, _lead_axes,
                     _sample_stack, anchor, check_finite, check_symmetric, eigh_topk,
                     support_mask)

# Streams pack hierarchical labels (role, grid point, repetition, machine)
# into one integer, little-endian in this base; each label must fit below it.
STREAM_BASE = 1 << 20

# The ridge that lifts `spiked_covariance` to full rank, and the ridge of the
# data covariance behind `extrinsic_samples`.
SPIKED_RIDGE = 0.3
EXTRINSIC_RIDGE = 0.01

# The byte cap of a working stack, shared by the batched simulators:
# `extrinsic_samples` draws, forms and decomposes its sample covariances in
# stacks of at most this many bytes of p x p matrices, and `perturb_order`
# stacks as many repetitions as fit their noise samples in it, so memory
# does not grow with the sample or repetition count.
STACK_BYTES = 1 << 18


def derive_stream_id(*parts):
    """Pack nonneg integer labels (each < STREAM_BASE) into one stream id."""
    if not parts:
        raise ConfigError("derive_stream_id needs at least one label")
    sid = 0
    for part in parts:
        part = _check_integer("stream label", part)
        if not 0 <= part < STREAM_BASE:
            raise ConfigError(f"stream label {part} outside [0, {STREAM_BASE})")
        sid = sid * STREAM_BASE + part + 1
    return sid


@dataclass(frozen=True)
class RngStream:
    """Replayable random stream: a pure function of (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            _check_integer(name, value)
            if value < 0:
                raise ConfigError(f"{name} must be nonnegative, got {value}")

    def generator(self):
        seq = np.random.SeedSequence(
            entropy=(int(self.master_seed), int(self.stream_id))
        )
        return np.random.default_rng(seq)


def _as_generator(rng):
    """Accept an RngStream, a numpy Generator, or a plain int seed."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        if rng < 0:
            raise ConfigError(f"seed must be nonnegative, got {rng}")
        return np.random.default_rng(int(rng))
    raise ConfigError(f"cannot interpret {type(rng).__name__} as a random source")


def gaussian_svd_signal(p, rank, rng):
    """Rank-K signal from the left singular frame of a square Gaussian matrix.

    Draws a p x p standard Gaussian matrix, keeps its top `rank` left singular
    vectors V and singular values s, and returns the factor of V diag(s) V.T,
    the frame V diag(sqrt(s)) anchored at the canonical index set. A p whose
    p x p draw cannot be allocated is a ConfigError.
    """
    _check_rank(rank, _check_integer("p", p))
    gen = _as_generator(rng)
    try:
        gauss = gen.normal(size=(p, p))
    except MemoryError:
        raise ConfigError(f"p = {p} is too large: a p x p array does not fit in memory") from None
    left, sing, _ = np.linalg.svd(gauss)
    return anchor(left[:, :rank] * np.sqrt(sing[:rank]), IndexSet.canonical(rank))


def spiked_covariance(p, rank, rng):
    """Full-rank spiked covariance: loadings @ loadings.T + SPIKED_RIDGE * I.

    Loadings are i.i.d. standard Gaussian, p x rank. Returns the covariance
    and an orthonormal basis of its leading `rank`-dimensional eigenspace
    (the span of the loadings), which is the estimation target. A p whose
    p x p covariance cannot be allocated is a ConfigError.
    """
    _check_rank(rank, _check_integer("p", p))
    try:
        cov = SPIKED_RIDGE * np.eye(p)
    except MemoryError:
        raise ConfigError(f"p = {p} is too large: a p x p array does not fit in memory") from None
    loadings = _as_generator(rng).normal(size=(p, rank))
    cov += loadings @ loadings.T
    cov = 0.5 * (cov + cov.T)
    basis = eigh_topk(cov, rank).vectors
    return cov, basis


def intrinsic_samples(psd, sigma, count, rng):
    """Draw rank-K samples by Gaussian noise in log-factor coordinates.

    Each sample adds i.i.d. N(0, sigma^2) noise to every supported entry of
    the signal's log-coordinate factor (anchored diagonal included, where the
    noise acts multiplicatively after exponentiation) and maps back. The
    samples come back as one stacked `CholFactor` (count, p, K) anchored at
    the signal's index set, so they are exactly rank K.

    Parameters
    ----------
    psd : CholFactor
        The signal; must pass `CholFactor.pivot_failure`.
    sigma : float
        Noise standard deviation, finite and >= 0.
    count : int
        Number of samples, >= 1.
    rng : RngStream, numpy Generator, or int seed
    """
    if not (isinstance(sigma, numbers.Real) and 0 <= sigma < math.inf):
        raise ConfigError(f"sigma must be finite and nonnegative, got {sigma}")
    _check_integer("count", count)
    if count < 1:
        raise ShapeMismatchError("need at least one sample")
    _as_signal(psd)
    gen = _as_generator(rng)
    base = manifold.log_factor(psd)
    mask = support_mask(psd.p, psd.index_set)
    noise = np.zeros((count, psd.p, psd.rank))
    if sigma > 0:
        noise[:, mask] = gen.normal(scale=sigma, size=(count, int(mask.sum())))
    return manifold.exp_factor(base + noise, psd.index_set)


def factor_noise_samples(factor, noises):
    """Samples (N + E_m)(N + E_m).T from unstructured factor noise, as factors.

    The samples N + E_m are anchored at the signal's index set as one stack
    and checked by the pivot rule; a failure names the first offending
    sample index.

    Parameters
    ----------
    factor : CholFactor
        The signal factor N, or a stack (B, p, K) of B signals.
    noises : ndarray, shape (M, p, K)
        One perturbation E_m per sample (or a sequence of M (p, K) arrays);
        for a stack of signals, (B, M, p, K): M samples around each.

    Returns
    -------
    CholFactor
        The stack (M, p, K) of sample factors; for a stack of signals, the
        (B * M, p, K) stack of each signal's samples in turn, which is the
        stack whose index a failure names.
    """
    _as_signal(factor)
    noises = _sample_stack(noises, "noise matrices", factor.entries.shape)
    frames = _lead_axes(factor.entries, noises.ndim) + noises
    samples = anchor(np.reshape(frames, (-1,) + frames.shape[-2:]), factor.index_set)
    bad, reason = samples._pivot_rule()
    if reason is not None:
        raise NotInManifoldError(f"sample {bad[0]}: {reason}")
    return samples


def _cov_root(cov, n):
    """A root R of the covariance of a draw of n rows, R R.T = cov: its
    Cholesky factor, or an eigenvalue square root when `cov` is PSD but
    singular. Raises SingularMatrixError on genuinely negative spectrum.
    """
    cov = check_symmetric(cov)
    _check_integer("n", n)
    if n < 1:
        raise ShapeMismatchError("need at least one data point")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        values, vectors = np.linalg.eigh(cov)
        scale = max(abs(values[0]), abs(values[-1]))
        if values[0] < -1e-8 * scale:
            raise SingularMatrixError(
                f"covariance has negative eigenvalue {values[0]:.3e}"
            ) from None
        return vectors * np.sqrt(np.clip(values, 0.0, None))


def gaussian_samples(cov, n, rng):
    """n i.i.d. rows from N(0, cov), via the Cholesky transform of standard normals.

    Falls back to an eigenvalue square root when `cov` is PSD but singular.
    Raises SingularMatrixError on genuinely negative spectrum.
    """
    root = _cov_root(cov, n)
    z = _as_generator(rng).standard_normal((n, root.shape[0]))
    return z @ root.T


def _sample_covariances(cov, n, rngs):
    """The (M, p, p) stack of second moments of n i.i.d. N(0, cov) rows, one
    per random source in `rngs`: element m is
    `sample_cov(gaussian_samples(cov, n, rngs[m]))` up to roundoff.

    `cov` is checked and rooted once, R R.T = cov, as by `gaussian_samples`.
    Each element draws its n x p standard normals Z_m from its own source,
    exactly as `gaussian_samples` does, and is R (Z_m.T Z_m / n) R.T: the
    data Z_m R.T is never formed. The Gram matrices go through numpy's
    symmetric rank-n update; the two root products and the symmetrization
    run over the stack, with at most two stacks alive.
    """
    root = _cov_root(cov, n)
    p = root.shape[0]
    grams = np.empty((len(rngs), p, p))
    for gram, rng in zip(grams, rngs):
        z = _as_generator(rng).standard_normal((n, p))
        np.matmul(z.T, z, out=gram)
    covs = grams @ root.T
    np.matmul(root, covs, out=grams)
    np.add(grams, np.swapaxes(grams, -1, -2), out=covs)
    covs *= 0.5 / n
    return covs


def sample_cov(data):
    """Uncentered second-moment matrix data.T @ data / n; ShapeMismatchError
    on an (n, p) `data` with n = 0, or with second moments that overflow."""
    data = _as_array("sample_cov data", data, (2,))
    if data.shape[0] < 1:
        raise ShapeMismatchError(f"expected a nonempty (n, p) array, got {data.shape}")
    cov = data.T @ data / data.shape[0]
    check_finite("sample_cov second moments", cov)
    return 0.5 * (cov + cov.T)


def _wishart_cov(cov_roots, n, gen):
    """Sample covariances of n i.i.d. N(0, Sigma_m) rows, one per root B_m of
    the (M, p, w) stack `cov_roots`, Sigma_m = B_m B_m.T.

    Draws S_m ~ Wishart(n, Sigma_m) / n as (B_m T_m)(B_m T_m).T / n, where
    T_m T_m.T ~ Wishart(n, I). For n >= w, T_m is Bartlett's w x w
    lower-triangular factor: its (i, i) entry is the root of a chi-square
    with n - i degrees of freedom (0-indexed), entries below the diagonal are
    N(0, 1). Otherwise T_m = Z_m.T for an n x w standard normal Z_m. The
    draws run sample by sample, in stream order; the products are batched.
    """
    count, _, width = cov_roots.shape
    if n >= width:
        chi_sq = np.empty((count, width))
        lower = np.empty((count, width * (width - 1) // 2))
        for m in range(count):
            chi_sq[m] = gen.chisquare(n - np.arange(width))
            lower[m] = gen.standard_normal(lower.shape[1])
        roots = np.zeros((count, width, width))
        roots[:, np.arange(width), np.arange(width)] = np.sqrt(chi_sq)
        roots[(slice(None),) + np.tril_indices(width, -1)] = lower
    else:
        draws = np.stack([gen.standard_normal((n, width)) for _ in range(count)])
        roots = np.swapaxes(draws, -1, -2)
    # In place, each intermediate freed before the next: a stack holds about
    # two arrays at a time, with the arithmetic of 0.5 * (S + S.T) for S / n.
    frames = cov_roots @ roots
    del roots
    covs = frames @ np.swapaxes(frames, -1, -2)
    del frames
    covs /= n
    covs += np.swapaxes(covs, -1, -2)
    covs *= 0.5
    return covs


def extrinsic_samples(psd, sigma_sq, count, rng, n_inner=2000):
    """Factor-noise samples observed through the covariance of finite data.

    For each of `count` draws N from the intrinsic model at variance
    `sigma_sq`, takes the sample covariance S of `n_inner` i.i.d. Gaussian
    observations with covariance Sigma = N N.T + EXTRINSIC_RIDGE * I, and
    returns the rank-K spectral surrogate of S: V_hat diag(values_hat) V_hat.T
    with the top-K eigenpairs, eigenvalues unsquared, returned as its frame
    V_hat diag(sqrt(values_hat)) anchored at the signal's index set. The
    anchor block may be near singular; the consumer's pivot rule decides.
    `psd` is the signal factor, as for `intrinsic_samples`.

    S is drawn exactly from its law, Wishart(n_inner, Sigma) / n_inner, in
    factor form: Sigma = B B.T with B = [N | sqrt(EXTRINSIC_RIDGE) I]
    (p x (K + p)), and S = (B T)(B T).T / n_inner. When n_inner >= K + p,
    T is the (K + p) x (K + p) Bartlett factor; otherwise T is the transpose
    of a plain n_inner x (K + p) normal draw. Neither forms Sigma, factors it
    or simulates n_inner x p data. The draws run in stream order. The
    covariances are formed by batched products and decomposed by stacked
    `eigh_topk` calls, in stacks of at most STACK_BYTES of
    covariances (the stack size changes no bit of the result), and the
    frames are anchored as one stack. A covariance whose K-th eigenvalue is
    not strictly positive raises SingularMatrixError, naming its stack of
    samples and its element in it.
    """
    if not (isinstance(sigma_sq, numbers.Real) and 0 <= sigma_sq < math.inf):
        raise ConfigError(f"sigma_sq must be finite and nonnegative, got {sigma_sq}")
    _check_integer("n_inner", n_inner)
    if n_inner < 1:
        raise ShapeMismatchError("need at least one data point")
    gen = _as_generator(rng)
    draws = intrinsic_samples(psd, math.sqrt(sigma_sq), count, gen).entries
    ridge_root = math.sqrt(EXTRINSIC_RIDGE) * np.eye(psd.p)
    frames = np.empty_like(draws)
    step = max(1, STACK_BYTES // (8 * psd.p**2))
    for lo in range(0, count, step):
        part = draws[lo:lo + step]
        ridge = np.broadcast_to(ridge_root, (len(part), psd.p, psd.p))
        roots = np.concatenate([part, ridge], axis=2)
        try:
            pair = eigh_topk(_wishart_cov(roots, n_inner, gen), psd.rank, require_positive=True)
        except SingularMatrixError as err:
            raise SingularMatrixError(f"samples {lo} to {lo + len(part) - 1}: {err}") from None
        frames[lo:lo + step] = pair.vectors * np.sqrt(pair.values)[:, None, :]
    return anchor(frames, psd.index_set)
