import numpy as np
import pytest
from numpy.testing import assert_allclose

from psdk import manifold, models
from psdk.exceptions import (
    ConfigError,
    NotInManifoldError,
    ShapeMismatchError,
    SingularMatrixError,
)
from psdk.linalg import CholFactor, IndexSet, anchor, support_mask
from psdk.models import (
    STREAM_BASE,
    RngStream,
    derive_stream_id,
    extrinsic_samples,
    factor_noise_samples,
    gaussian_samples,
    gaussian_svd_signal,
    intrinsic_samples,
    sample_cov,
    spiked_covariance,
)

# ---------------------------------------------------------------------------
# stream ids


def test_derive_stream_id_values():
    assert derive_stream_id(0) == 1
    assert derive_stream_id(0, 0) == STREAM_BASE + 1
    assert derive_stream_id(1, 2, 3) == ((2 * STREAM_BASE) + 3) * STREAM_BASE + 4


def test_derive_stream_id_injective():
    seen = {}
    for a in range(4):
        for b in range(4):
            sid = derive_stream_id(a, b)
            assert sid not in seen, (a, b, seen[sid])
            seen[sid] = (a, b)


def test_derive_stream_id_rejects_bad_labels():
    with pytest.raises(ConfigError):
        derive_stream_id()
    with pytest.raises(ConfigError):
        derive_stream_id(-1)
    with pytest.raises(ConfigError):
        derive_stream_id(STREAM_BASE)


def test_rng_stream_is_pure():
    a = RngStream(42, 7).generator().normal(size=5)
    b = RngStream(42, 7).generator().normal(size=5)
    assert np.array_equal(a, b)


def test_rng_streams_are_independent():
    a = RngStream(42, 7).generator().normal(size=5)
    b = RngStream(42, 8).generator().normal(size=5)
    c = RngStream(43, 7).generator().normal(size=5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# signals


def test_gaussian_svd_signal_shape_and_membership():
    psd = gaussian_svd_signal(12, 3, RngStream(0, 1))
    assert psd.matrix.shape == (12, 12)
    assert psd.rank == 3
    assert psd.index_set.indices == (0, 1, 2)
    psd.validate()
    assert np.linalg.matrix_rank(psd.matrix, tol=1e-8) == 3


def test_gaussian_svd_signal_is_the_svd_truncation():
    gauss = RngStream(0, 1).generator().normal(size=(12, 12))
    left, sing, _ = np.linalg.svd(gauss)
    want = (left[:, :3] * sing[:3]) @ left[:, :3].T
    assert_allclose(gaussian_svd_signal(12, 3, RngStream(0, 1)).matrix, want, atol=1e-12)


def test_gaussian_svd_signal_deterministic():
    a = gaussian_svd_signal(6, 2, RngStream(5, 9))
    b = gaussian_svd_signal(6, 2, RngStream(5, 9))
    assert np.array_equal(a.matrix, b.matrix)


def test_spiked_covariance_properties():
    cov, basis = spiked_covariance(15, 4, RngStream(1, 0))
    assert_allclose(cov, cov.T)
    values = np.linalg.eigvalsh(cov)
    assert values.min() > 0.29  # ridge floors the spectrum
    assert basis.shape == (15, 4)
    assert_allclose(basis.T @ basis, np.eye(4), atol=1e-10)
    # basis spans an invariant subspace of cov
    proj = basis @ basis.T
    assert_allclose(proj @ cov, cov @ proj, atol=1e-10)


# ---------------------------------------------------------------------------
# intrinsic noise model


def test_intrinsic_samples_sigma_zero_are_copies():
    psd = gaussian_svd_signal(9, 3, RngStream(2, 0))
    samples = intrinsic_samples(psd, 0.0, 4, RngStream(2, 1))
    assert len(samples) == 4
    assert isinstance(samples, CholFactor) and samples.entries.shape == (4, 9, 3)
    for s in samples:
        assert_allclose(s.matrix, psd.matrix, atol=1e-10)
        assert s.index_set == psd.index_set


def test_intrinsic_samples_live_on_manifold():
    psd = gaussian_svd_signal(10, 3, RngStream(3, 0))
    for s in intrinsic_samples(psd, 0.5, 6, RngStream(3, 1)):
        s.validate()
        assert np.linalg.matrix_rank(s.matrix, tol=1e-8) == 3


def test_intrinsic_samples_respect_support():
    # noise lands only on supported factor entries, so the factor of each
    # sample keeps exact zeros above the anchored diagonal
    psd = gaussian_svd_signal(8, 3, RngStream(4, 0))
    mask = support_mask(8, psd.index_set)
    for s in intrinsic_samples(psd, 1.0, 5, RngStream(4, 1)):
        assert np.all(s.entries[~mask] == 0.0)
        # the sample is the anchored factor of its own matrix
        refactored = manifold.factorize(s.matrix, psd.index_set)
        assert_allclose(refactored.entries, s.entries, atol=1e-8)


def test_intrinsic_samples_deterministic():
    psd = gaussian_svd_signal(6, 2, RngStream(5, 0))
    a = intrinsic_samples(psd, 0.3, 3, RngStream(5, 1))
    b = intrinsic_samples(psd, 0.3, 3, RngStream(5, 1))
    for x, y in zip(a, b):
        assert np.array_equal(x.matrix, y.matrix)


def test_intrinsic_samples_argument_checks():
    psd = gaussian_svd_signal(5, 2, RngStream(6, 0))
    with pytest.raises(ConfigError):
        intrinsic_samples(psd, -0.1, 2, RngStream(6, 1))
    with pytest.raises(ShapeMismatchError):
        intrinsic_samples(psd, 0.1, 0, RngStream(6, 1))


def test_sampler_arguments_are_checked():
    """A NaN, infinite or negative noise level is a ConfigError, a rank above p
    a ShapeMismatchError, and a signal off the chart a NotInManifoldError."""
    psd = gaussian_svd_signal(5, 2, RngStream(6, 0))
    for sigma in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="sigma must be finite and nonnegative"):
            intrinsic_samples(psd, sigma, 2, RngStream(6, 1))
    for sigma_sq in (-0.5, np.nan):
        with pytest.raises(ConfigError, match="sigma_sq must be finite and nonnegative"):
            extrinsic_samples(psd, sigma_sq, 2, RngStream(6, 1), n_inner=50)
    with pytest.raises(ShapeMismatchError, match="at least one data point"):
        extrinsic_samples(psd, 0.1, 2, RngStream(6, 1), n_inner=0)
    with pytest.raises(ShapeMismatchError, match="rank 3 invalid for p = 2"):
        gaussian_svd_signal(2, 3, RngStream(6, 0))
    thin = CholFactor(np.array([[1.0, 0.0], [0.5, 1e-7], [0.2, 0.3]]), IndexSet((0, 1)))
    with pytest.raises(NotInManifoldError, match="signal: anchor block"):
        intrinsic_samples(thin, 0.1, 2, RngStream(6, 1))


def test_bad_seeds_are_config_errors():
    for seed, stream in ((-1, 0), (0, -1), (1.5, 0), (0, 2.0), (True, 0)):
        with pytest.raises(ConfigError, match="must be"):
            RngStream(seed, stream)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        gaussian_svd_signal(5, 2, -1)


def test_non_integer_counts_are_config_errors():
    psd = gaussian_svd_signal(5, 2, RngStream(6, 0))
    with pytest.raises(ConfigError, match="n must be an integer"):
        gaussian_samples(np.eye(2), 10.5, RngStream(6, 1))
    with pytest.raises(ConfigError, match="count must be an integer"):
        intrinsic_samples(psd, 0.1, 2.0, RngStream(6, 1))
    with pytest.raises(ConfigError, match="count must be an integer"):
        extrinsic_samples(psd, 0.1, 2.5, RngStream(6, 1), n_inner=50)
    # on the Bartlett branch (n_inner >= p + K) and below it
    for n_inner in (10.5, 3.5):
        with pytest.raises(ConfigError, match="n_inner must be an integer"):
            extrinsic_samples(psd, 0.1, 2, RngStream(6, 1), n_inner=n_inner)
    # numpy integers are integers
    assert len(intrinsic_samples(psd, 0.1, np.int64(2), RngStream(np.int64(6), np.uint8(1)))) == 2


# ---------------------------------------------------------------------------
# factor noise model


def test_factor_noise_samples_construction():
    rng = np.random.default_rng(7)
    entries = np.array([[2.0, 0.0], [1.0, 1.5], [0.3, -0.4]])
    factor = CholFactor(entries, IndexSet.canonical(2))
    noises = [0.01 * rng.normal(size=(3, 2)) for _ in range(3)]
    samples = factor_noise_samples(factor, noises)
    for s, e in zip(samples, noises):
        bumped = entries + e
        assert_allclose(s.matrix, bumped @ bumped.T, atol=1e-14)
        s.validate()


def test_factor_noise_samples_name_offender():
    factor = CholFactor(np.array([[1.0], [0.0]]), IndexSet.canonical(1))
    # the second noise kills the anchor pivot; so does the third
    noises = [np.zeros((2, 1)), np.array([[-1.0], [1.0]]), np.array([[-1.0], [2.0]])]
    with pytest.raises(NotInManifoldError, match="sample 1: anchor block"):
        factor_noise_samples(factor, noises)


def test_factor_noise_samples_argument_checks():
    factor = CholFactor(np.array([[1.0], [0.0]]), IndexSet.canonical(1))
    with pytest.raises(ShapeMismatchError):
        factor_noise_samples(factor, [])
    with pytest.raises(ShapeMismatchError, match="does not match factor shape"):
        factor_noise_samples(factor, [np.zeros((3, 1))])
    with pytest.raises(ShapeMismatchError, match="does not match factor shape"):
        factor_noise_samples(factor, np.zeros((2, 3, 2, 1)))


@pytest.mark.parametrize("noises", [
    [np.zeros((2, 1)), np.zeros((3, 1))],
    [np.zeros((2, 1)), "ab"],
    [[0.0, 0.0], np.zeros((2, 1))],
], ids=["ragged", "not numbers", "mixed depth"])
def test_factor_noise_samples_reject_a_ragged_sequence(noises):
    factor = CholFactor(np.array([[1.0], [0.0]]), IndexSet.canonical(1))
    with pytest.raises(ShapeMismatchError, match="noise matrices"):
        factor_noise_samples(factor, noises)


def test_factor_noise_samples_list_and_stack_agree():
    """A list of (p, K) noises goes through the same np.asarray as the
    (M, p, K) stack: the samples are bit-identical."""
    factor = CholFactor(np.array([[2.0, 0.0], [1.0, 1.5], [0.3, -0.4]]), IndexSet.canonical(2))
    noises = 0.01 * np.random.default_rng(8).normal(size=(4, 3, 2))
    assert np.array_equal(factor_noise_samples(factor, list(noises)).entries,
                          factor_noise_samples(factor, noises).entries)


# ---------------------------------------------------------------------------
# gaussian sampling


def test_gaussian_samples_shape_and_moments():
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    data = gaussian_samples(cov, 200_000, RngStream(8, 0))
    assert data.shape == (200_000, 2)
    emp = sample_cov(data)
    assert np.max(np.abs(emp - cov)) < 0.05


def test_gaussian_samples_singular_covariance():
    cov = np.diag([1.0, 0.0])
    data = gaussian_samples(cov, 100, RngStream(8, 1))
    assert np.max(np.abs(data[:, 1])) == 0.0


def test_gaussian_samples_rejects_indefinite():
    with pytest.raises(SingularMatrixError):
        gaussian_samples(np.diag([1.0, -1.0]), 10, RngStream(8, 2))


def test_gaussian_samples_needs_data():
    with pytest.raises(ShapeMismatchError):
        gaussian_samples(np.eye(2), 0, RngStream(8, 3))


def test_sample_cov_by_hand():
    cov = sample_cov(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert_allclose(cov, [[5.0, 7.0], [7.0, 10.0]])


def test_sample_cov_rejects_empty():
    with pytest.raises(ShapeMismatchError):
        sample_cov(np.zeros((0, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_cov_rejects_non_finite_data(bad):
    data = np.ones((4, 3))
    data[2, 1] = bad
    with pytest.raises(ShapeMismatchError, match="must be finite"):
        sample_cov(data)


def _covariance(kind):
    """A positive-definite covariance, or a singular PSD one on which
    Cholesky fails, so the draw takes the eigenvalue root."""
    rng = np.random.default_rng(17)
    g = rng.normal(size=(6, 6))
    cov = g @ g.T + 0.1 * np.eye(6)
    if kind == "singular":
        cov[4:], cov[:, 4:] = 0.0, 0.0
        order = rng.permutation(6)
        cov = cov[np.ix_(order, order)]
    return cov


@pytest.mark.parametrize("kind", ["definite", "singular"])
def test_sample_covariances_are_the_per_machine_draws(kind, monkeypatch):
    """Machine m's covariance is sample_cov(gaussian_samples(...)) of its own
    stream, to roundoff, from one check and root of the covariance."""
    cov = _covariance(kind)
    streams = [RngStream(18, m) for m in range(5)]
    want = np.stack([sample_cov(gaussian_samples(cov, 40, s)) for s in streams])
    cholesky, calls = np.linalg.cholesky, []

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    got = models._sample_covariances(cov, 40, streams)
    assert calls == [(6, 6)]
    if kind == "singular":
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(cov)
    assert got.shape == (5, 6, 6)
    assert np.array_equal(got, np.swapaxes(got, 1, 2))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_sample_covariances_reject_what_gaussian_samples_rejects():
    message = r"^covariance has negative eigenvalue -1\.000e\+00$"
    for draw in (gaussian_samples, lambda *args: models._sample_covariances(*args[:2], [args[2]])):
        with pytest.raises(SingularMatrixError, match=message):
            draw(np.diag([1.0, -1.0]), 10, RngStream(8, 2))
        with pytest.raises(ShapeMismatchError, match="at least one data point"):
            draw(np.eye(2), 0, RngStream(8, 3))


# ---------------------------------------------------------------------------
# extrinsic observation model


def test_extrinsic_samples_rank_and_tag():
    psd = gaussian_svd_signal(8, 2, RngStream(9, 0))
    samples = extrinsic_samples(psd, 0.2, 3, RngStream(9, 1), n_inner=500)
    assert len(samples) == 3 and samples.entries.shape == (3, 8, 2)
    for s in samples:
        assert s.rank == 2
        assert s.index_set == psd.index_set
        values = np.linalg.eigvalsh(s.matrix)
        assert values[-1] > 0
        assert np.max(np.abs(values[:-2])) < 1e-10 * values[-1]


def test_extrinsic_samples_concentrate_at_zero_noise():
    # sigma_sq = 0: only the finite-sample and ridge effects remain, both small
    psd = gaussian_svd_signal(8, 2, RngStream(10, 0))
    samples = extrinsic_samples(psd, 0.0, 4, RngStream(10, 1), n_inner=8000)
    scale = np.linalg.norm(psd.matrix)
    for s in samples:
        assert np.linalg.norm(s.matrix - psd.matrix) < 0.1 * scale


def test_extrinsic_samples_deterministic():
    psd = gaussian_svd_signal(6, 2, RngStream(11, 0))
    a = extrinsic_samples(psd, 0.3, 2, RngStream(11, 1), n_inner=200)
    b = extrinsic_samples(psd, 0.3, 2, RngStream(11, 1), n_inner=200)
    for x, y in zip(a, b):
        assert np.array_equal(x.matrix, y.matrix)


@pytest.mark.parametrize("n", [200, 12, 6])
def test_wishart_draw_moments(n):
    """S = _wishart_cov(B, n) has E[S] = Sigma and Var(S_ij) =
    (Sigma_ij^2 + Sigma_ii Sigma_jj) / n for Sigma = B B.T, both on the
    Bartlett branch (n >= width 12; at n = 12 its last chi-square has one
    degree of freedom) and the direct one (n < 12). Over 4,000
    seeded draws the mean is within 5 standard errors of Sigma in every
    entry, and each variance within 15% of the formula (about 5 standard
    errors of a sample variance at this count)."""
    factor = gaussian_svd_signal(10, 2, RngStream(12, 0)).entries
    root = np.hstack([factor, np.sqrt(0.5) * np.eye(10)])
    sigma = root @ root.T
    gen = RngStream(12, n).generator()
    draws = models._wishart_cov(np.broadcast_to(root, (4000,) + root.shape), n, gen)
    var = (sigma**2 + np.outer(np.diag(sigma), np.diag(sigma))) / n
    z = (draws.mean(axis=0) - sigma) / np.sqrt(var / len(draws))
    assert np.max(np.abs(z)) < 5.0
    ratio = draws.var(axis=0, ddof=1) / var
    assert 0.85 < ratio.min() and ratio.max() < 1.15


def _extrinsic_reference(psd, sigma_sq, count, rng, n_inner):
    """The sample-by-sample form of `extrinsic_samples`: one Wishart draw and
    one full `np.linalg.eigh` per sample, in the same stream order."""
    gen = rng.generator()
    draws = intrinsic_samples(psd, np.sqrt(sigma_sq), count, gen).entries
    ridge_root = np.sqrt(models.EXTRINSIC_RIDGE) * np.eye(psd.p)
    frames = []
    for draw in draws:
        cov = models._wishart_cov(np.hstack([draw, ridge_root])[None], n_inner, gen)[0]
        values, vectors = np.linalg.eigh(cov)
        frames.append(vectors[:, ::-1][:, :psd.rank] * np.sqrt(values[::-1][:psd.rank]))
    return anchor(np.stack(frames), psd.index_set)


@pytest.mark.parametrize("n_inner", [300, 9])
def test_extrinsic_samples_match_the_sample_by_sample_form(n_inner):
    """The batched draw and stacked eigensolver give the per-sample result up
    to roundoff (the covariances are the same; only the eigensolver differs),
    and the stack size does not change a bit of it."""
    psd = gaussian_svd_signal(10, 3, RngStream(14, 0))
    want = _extrinsic_reference(psd, 0.3, 40, RngStream(14, 1), n_inner)
    got = extrinsic_samples(psd, 0.3, 40, RngStream(14, 1), n_inner=n_inner)
    scale = np.max(np.abs(want.matrix))
    assert np.max(np.abs(got.matrix - want.matrix)) < 1e-10 * scale
    for stack_bytes in (1, 8 * 10**2 * 7, 1 << 30):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "STACK_BYTES", stack_bytes)
            again = extrinsic_samples(psd, 0.3, 40, RngStream(14, 1), n_inner=n_inner)
        assert np.array_equal(again.entries, got.entries)


def test_extrinsic_samples_name_a_covariance_without_k_positive_eigenvalues(monkeypatch):
    """Without the ridge, n_inner = 2 < K = 3 data points give covariances of
    rank 2; the error names the stack of samples and the element in it."""
    monkeypatch.setattr(models, "EXTRINSIC_RIDGE", 0.0)
    monkeypatch.setattr(models, "STACK_BYTES", 8 * 8**2 * 3)
    psd = gaussian_svd_signal(8, 3, RngStream(15, 0))
    with pytest.raises(SingularMatrixError, match=r"^samples 0 to 2: element 0: eigenvalue 3 is "):
        extrinsic_samples(psd, 0.1, 5, RngStream(15, 1), n_inner=2)


def _forbidden(*_args, **_kwargs):
    raise AssertionError("extrinsic_samples must not simulate data or form p x p matrices")


@pytest.mark.parametrize("n_inner", [200, 6])
def test_extrinsic_samples_skip_data_and_dense_covariance(n_inner, monkeypatch):
    """Neither draw branch (n_inner >= p + K = 10, or below) simulates data,
    forms a sample's p x p matrix or factors it, and both return rank-K
    factors anchored at the signal's index set."""
    psd = gaussian_svd_signal(8, 2, RngStream(13, 0))
    monkeypatch.setattr(models, "gaussian_samples", _forbidden)
    monkeypatch.setattr(models, "sample_cov", _forbidden)
    monkeypatch.setattr(CholFactor, "matrix", property(_forbidden))
    monkeypatch.setattr(np.linalg, "cholesky", _forbidden)
    samples = extrinsic_samples(psd, 0.2, 3, RngStream(13, 1), n_inner=n_inner)
    assert len(samples) == 3
    for s in samples:
        assert s.entries.shape == (8, 2)
        assert s.index_set == psd.index_set
        s.validate()
        assert s.pivot_failure() is None
        assert np.linalg.matrix_rank(s.entries) == 2
