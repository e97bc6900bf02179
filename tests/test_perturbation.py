import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psdk import manifold, models
from psdk.exceptions import NotInManifoldError, ShapeMismatchError, SingularMatrixError
from psdk.linalg import CholFactor, IndexSet, SpectralPair, eigh_topk, lq_givens, procrustes_sign
from psdk.perturbation import (
    eigvec_first_order,
    equivalent_factor_noise,
    factor_alignment,
    karcher_factor_first_order,
    lq_first_order,
    skew_generator,
)


def _random_decomposition(gen, k):
    tril = np.tril(gen.normal(size=(k, k)))
    np.fill_diagonal(tril, 1.0 + np.abs(gen.normal(size=k)))
    orth = np.linalg.qr(gen.normal(size=(k, k)))[0]
    return tril, orth


def _unit_noise(gen, shape):
    e = gen.normal(size=shape)
    return e / np.max(np.abs(e))


def _random_factor(gen, p, k):
    entries = 0.5 * gen.normal(size=(p, k))
    entries[:k, :] = np.tril(entries[:k, :])
    entries[np.arange(k), np.arange(k)] = 1.0 + np.abs(gen.normal(size=k))
    return CholFactor(entries, IndexSet.canonical(k))


# ---------------------------------------------------------------------------
# skew generator


def test_skew_generator_2x2_by_hand():
    # R^-1 E = [[0.1, 0.2], [1/30, 0]]; strictly upper part is [[0, 0.2], [0, 0]]
    tril = np.array([[1.0, 0.0], [2.0, 3.0]])
    noise = np.array([[0.1, 0.2], [0.3, 0.4]])
    gen = skew_generator(tril, noise)
    assert_allclose(gen, [[0.0, 0.2], [-0.2, 0.0]], atol=1e-15)


def test_skew_generator_is_skew_and_linear():
    rng = np.random.default_rng(0)
    tril, _ = _random_decomposition(rng, 5)
    e1 = rng.normal(size=(5, 5))
    e2 = rng.normal(size=(5, 5))
    f1 = skew_generator(tril, e1)
    assert_allclose(f1, -f1.T, atol=1e-14)
    combo = skew_generator(tril, 2.0 * e1 - 0.5 * e2)
    assert_allclose(combo, 2.0 * f1 - 0.5 * skew_generator(tril, e2), atol=1e-12)


def test_skew_generator_norm_bound():
    """||F||_F <= sqrt(2) ||R^-1||_2 ||E||_F."""
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        tril, _ = _random_decomposition(rng, k)
        noise = rng.normal(size=(k, k))
        bound = np.sqrt(2.0) * np.linalg.norm(np.linalg.inv(tril), 2) \
            * np.linalg.norm(noise)
        assert np.linalg.norm(skew_generator(tril, noise)) <= bound + 1e-12


def test_skew_generator_triangular_consistency():
    # R F has the same strict upper triangle as E itself: the generator is
    # exactly what cancels the upper part of the perturbed factor
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        tril, _ = _random_decomposition(rng, k)
        noise = rng.normal(size=(k, k))
        gen = skew_generator(tril, noise)
        assert_allclose(np.triu(tril @ gen, 1), np.triu(noise, 1), atol=1e-12)


def test_skew_generator_rejects_singular_triangular():
    tril = np.array([[1.0, 0.0], [5.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        skew_generator(tril, np.eye(2))


def test_skew_generator_shape_checks():
    with pytest.raises(ShapeMismatchError):
        skew_generator(np.eye(3), np.eye(2))


@pytest.mark.parametrize("shape", [(4, 3, 2), (4, 2, 3), (3,), (2, 4, 3, 3)])
def test_noise_stacks_of_the_wrong_shape_raise(shape):
    """A stack of E perturbations must end in the factor's own shape, and
    carry one leading axis (E noise sets of M samples for the Karcher
    expansion)."""
    noise = np.ones(shape)
    with pytest.raises(ShapeMismatchError):
        skew_generator(np.eye(3), noise)
    with pytest.raises(ShapeMismatchError):
        lq_first_order(np.eye(3), np.eye(3), noise)
    factor = _random_factor(np.random.default_rng(13), 5, 3)
    with pytest.raises(ShapeMismatchError, match="does not match factor shape"):
        karcher_factor_first_order(factor, np.ones((2, 4) + shape[-2:]))
    with pytest.raises(ShapeMismatchError, match="need at least one"):
        karcher_factor_first_order(factor, np.ones((2, 0, 5, 3)))


def test_perturbed_stack_names_its_first_singular_element():
    """Scales that cancel the base matrix at elements 2 and 4 of the stack
    base + eps * noise: lq_givens names element 2."""
    tril, orth = _random_decomposition(np.random.default_rng(14), 3)
    base = tril @ orth
    eps = np.array([0.5, 0.25, 1.0, 2.0, 1.0])
    with pytest.raises(SingularMatrixError, match="^element 2: "):
        lq_givens(base + eps[:, None, None] * -base)


def test_single_base_point_messages_are_unchanged():
    """The messages of a 2-D base point, with one or E perturbations."""
    tril = np.array([[1.0, 0.0], [5.0, 0.0]])
    with pytest.raises(SingularMatrixError,
                       match=r"^triangular factor has a numerically zero diagonal$"):
        skew_generator(tril, np.ones((3, 2, 2)))
    with pytest.raises(ShapeMismatchError, match=re.escape(
            "noise shape (2, 2) does not match factor shape (3, 3)")):
        skew_generator(np.eye(3), np.eye(2))
    with pytest.raises(ShapeMismatchError, match=re.escape(
            "shapes differ: (3, 3), (3, 3), (2, 4, 3, 3)")):
        lq_first_order(np.eye(3), np.eye(3), np.ones((2, 4, 3, 3)))
    factor = _random_factor(np.random.default_rng(13), 5, 3)
    with pytest.raises(ShapeMismatchError, match=re.escape(
            "noise matrices: shape (2, 4, 3, 3) does not match factor shape (5, 3) "
            "(leading axes: 1 or 2)")):
        karcher_factor_first_order(factor, np.ones((2, 4, 3, 3)))
    with pytest.raises(ShapeMismatchError, match=re.escape(
            "noise matrices: shape (2, 4, 5, 3) does not match factor shape (5, 3) "
            "(leading axes: 1)")):
        models.factor_noise_samples(factor, np.ones((2, 4, 5, 3)))


def test_stacked_base_points_name_the_failing_one():
    """A stack of B triangular factors names the first singular one; the
    perturbations of a stack must lead with its axis."""
    gen = np.random.default_rng(15)
    trils = np.stack([_random_decomposition(gen, 3)[0] for _ in range(3)])
    trils[1, 2, 2] = 0.0
    with pytest.raises(SingularMatrixError,
                       match="^element 1: triangular factor has a numerically zero diagonal"):
        skew_generator(trils, np.ones((3, 4, 3, 3)))
    with pytest.raises(ShapeMismatchError, match="does not match factor shape"):
        skew_generator(trils, np.ones((2, 3, 3)))
    with pytest.raises(ShapeMismatchError, match="shapes differ"):
        lq_first_order(trils, trils, np.ones((3, 2, 4, 3, 3)))
    factors = CholFactor(np.stack([_random_factor(gen, 5, 3).entries] * 2),
                         IndexSet.canonical(3))
    with pytest.raises(ShapeMismatchError, match=re.escape(
            "shape (3, 4, 5, 3) does not match factor shape (2, 5, 3)")):
        karcher_factor_first_order(factors, np.ones((3, 4, 5, 3)))
    with pytest.raises(ShapeMismatchError, match=re.escape(
            "shape (3, 4, 5, 3) does not match factor shape (2, 5, 3)")):
        models.factor_noise_samples(factors, np.ones((3, 4, 5, 3)))
    with pytest.raises(ShapeMismatchError, match="noise matrices"):
        models.factor_noise_samples(factors, np.ones((2, 3, 4, 5, 3)))
    # sample 1 of signal 1 cancels its anchor block: sample 3 of the (2 * 2) stack
    noises = np.zeros((2, 2, 5, 3))
    noises[1, 1] = -factors.entries[1]
    with pytest.raises(NotInManifoldError, match="^element 3: ") as err:
        models.factor_noise_samples(factors, noises)
    assert err.value.element == 3


# ---------------------------------------------------------------------------
# decomposition expansion


def test_lq_first_order_zero_noise():
    rng = np.random.default_rng(3)
    tril, orth = _random_decomposition(rng, 4)
    orth_pred, tril_pred = lq_first_order(tril, orth, np.zeros((4, 4)))
    assert_allclose(orth_pred, orth)
    assert_allclose(tril_pred, tril)


def test_lq_first_order_remainder_is_quadratic():
    """Halving the noise scale divides the remainder by ~4."""
    rng = np.random.default_rng(4)
    for _ in range(10):
        k = int(rng.integers(2, 7))
        tril, orth = _random_decomposition(rng, k)
        noise = _unit_noise(rng, (k, k))
        base = tril @ orth
        rems = []
        for eps in (1e-3, 5e-4):
            tri_exact, orth_exact = lq_givens(base + eps * noise)
            orth_pred, tril_pred = lq_first_order(tril, orth, eps * noise)
            rems.append(max(np.max(np.abs(orth_exact - orth_pred)),
                            np.max(np.abs(tri_exact - tril_pred))))
        assert 3.5 < rems[0] / rems[1] < 4.5


def test_lq_first_order_prediction_error_small():
    rng = np.random.default_rng(5)
    tril, orth = _random_decomposition(rng, 5)
    noise = _unit_noise(rng, (5, 5))
    eps = 1e-6
    tri_exact, orth_exact = lq_givens(tril @ orth + eps * noise)
    orth_pred, tril_pred = lq_first_order(tril, orth, eps * noise)
    # remainder is O(eps^2), far below eps
    assert np.max(np.abs(orth_exact - orth_pred)) < 1e-9
    assert np.max(np.abs(tri_exact - tril_pred)) < 1e-9


def test_lq_first_order_orthogonality_defect_quadratic():
    # Q + FQ fails orthogonality only at second order: the linear terms
    # cancel because F is skew
    rng = np.random.default_rng(6)
    tril, orth = _random_decomposition(rng, 4)
    noise = _unit_noise(rng, (4, 4))
    defects = []
    for eps in (1e-3, 5e-4):
        orth_pred, _ = lq_first_order(tril, orth, eps * noise)
        defects.append(np.max(np.abs(orth_pred @ orth_pred.T - np.eye(4))))
    assert 3.9 < defects[0] / defects[1] < 4.1


# ---------------------------------------------------------------------------
# factor blocks


# ---------------------------------------------------------------------------
# Karcher factor expansion


def test_karcher_factor_first_order_zero_noise():
    rng = np.random.default_rng(9)
    factor = _random_factor(rng, 8, 3)
    pred = karcher_factor_first_order(factor, [np.zeros((8, 3))] * 4)
    assert_allclose(pred, factor.entries, atol=1e-14)


def test_karcher_factor_first_order_remainder_is_quadratic():
    rng = np.random.default_rng(10)
    for _ in range(5):
        p, k = 12, 4
        factor = _random_factor(rng, p, k)
        noises = [_unit_noise(rng, (p, k)) for _ in range(5)]
        rems = []
        for eps in (1e-3, 5e-4):
            scaled = [eps * e for e in noises]
            samples = models.factor_noise_samples(factor, scaled)
            exact = manifold.karcher_mean(samples)
            pred = karcher_factor_first_order(factor, scaled)
            rems.append(np.max(np.abs(exact.entries - pred)))
        assert 3.5 < rems[0] / rems[1] < 4.5


def test_karcher_factor_prediction_anchor_rows_triangular():
    # the correction term cancels the above-diagonal part of the mean noise
    # on the anchor rows, so the prediction respects the factor structure
    # up to second order, wherever the anchor rows sit
    rng = np.random.default_rng(11)
    for rows in ((0, 1, 2), (4, 1, 6)):
        idx = IndexSet(rows)
        anchor = idx.as_array()
        entries = 0.5 * rng.normal(size=(10, 3))
        entries[anchor, :] = np.tril(entries[anchor, :])
        entries[anchor, np.arange(3)] = 1.0 + np.abs(rng.normal(size=3))
        factor = CholFactor(entries, idx)
        noises = [1e-5 * _unit_noise(rng, (10, 3)) for _ in range(3)]
        pred = karcher_factor_first_order(factor, noises)
        upper = np.triu(pred[anchor, :], 1)
        assert np.max(np.abs(upper)) < 1e-9, rows


def test_a_signal_off_the_chart_is_refused():
    """A zero anchored diagonal entry makes a legal factor but no chart point:
    every function that takes a signal refuses it as a NotInManifoldError
    with the pivot rule's reason."""
    flat = CholFactor(np.array([[1.0, 0.0], [0.5, 0.0], [0.2, 0.3]]), IndexSet((0, 1)))
    noises = np.ones((2, 3, 2))
    pair = SpectralPair(np.eye(3)[:, :2], np.ones(2))
    for call in (lambda: models.factor_noise_samples(flat, noises),
                 lambda: karcher_factor_first_order(flat, noises),
                 lambda: factor_alignment(flat, pair),
                 lambda: models.intrinsic_samples(flat, 0.1, 2, 0)):
        with pytest.raises(NotInManifoldError, match=r"^signal: anchor block \(0, 1\) singular"):
            call()


def test_karcher_factor_requires_noise():
    rng = np.random.default_rng(12)
    factor = _random_factor(rng, 4, 2)
    with pytest.raises(ShapeMismatchError):
        karcher_factor_first_order(factor, [])


@pytest.mark.parametrize("noises", [
    [np.zeros((4, 2)), np.zeros((3, 2))],
    [np.zeros((4, 2)), "ab"],
    [[np.zeros((4, 2))], [np.zeros((4, 2)), np.zeros((4, 2))]],
    np.zeros((1, 1, 1, 4, 2)),
], ids=["ragged", "not numbers", "ragged sets", "five axes"])
def test_karcher_factor_rejects_a_malformed_noise_set(noises):
    """A ragged or non-numeric sequence and a stack of the wrong depth raise
    ShapeMismatchError, never numpy's ValueError."""
    factor = _random_factor(np.random.default_rng(12), 4, 2)
    with pytest.raises(ShapeMismatchError, match="noise matrices"):
        karcher_factor_first_order(factor, noises)


# ---------------------------------------------------------------------------
# eigenvector expansion


def test_eigvec_first_order_2x2_closed_form():
    values = np.array([2.0, 1.0])
    vectors = np.eye(2)
    delta = 1e-4
    noise = np.array([[0.0, delta], [delta, 0.0]])
    pred = eigvec_first_order(values, vectors, 1, noise)
    # top eigenvector tilts by delta / (lambda_1 - lambda_2) = delta
    assert_allclose(pred, [[1.0], [delta]], atol=1e-16)


def test_eigvec_first_order_matches_exact_to_second_order():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p, k = 12, 3
        basis = np.linalg.qr(rng.normal(size=(p, p)))[0]
        values = np.sort(rng.uniform(1.0, 2.0, size=p))[::-1]
        values[:k] += 2.0  # gap of at least 2 below the retained block
        mat = (basis * values) @ basis.T
        mat = 0.5 * (mat + mat.T)
        noise = rng.normal(size=(p, p))
        noise = 0.5 * (noise + noise.T)
        gap = values[k - 1] - values[k]
        noise *= 0.05 * gap / np.linalg.norm(noise, 2)
        eps = np.linalg.norm(noise, 2) / gap

        pred = eigvec_first_order(values, basis, k, noise)
        exact = eigh_topk(mat + noise, k).vectors
        align = procrustes_sign(exact.T @ basis[:, :k])
        correction = pred - basis[:, :k]
        remainder = np.linalg.norm(exact @ align - pred)
        assert remainder <= 9.0 * eps * np.linalg.norm(correction) + 1e-12


def test_eigvec_first_order_remainder_is_quadratic():
    rng = np.random.default_rng(14)
    p, k = 10, 2
    basis = np.linalg.qr(rng.normal(size=(p, p)))[0]
    values = np.linspace(8.0, 1.0, p)
    mat = (basis * values) @ basis.T
    mat = 0.5 * (mat + mat.T)
    noise = rng.normal(size=(p, p))
    noise = 0.5 * (noise + noise.T)
    noise /= np.linalg.norm(noise, 2)
    rems = []
    for eps in (1e-3, 5e-4):
        pred = eigvec_first_order(values, basis, k, eps * noise)
        exact = eigh_topk(mat + eps * noise, k).vectors
        align = procrustes_sign(exact.T @ basis[:, :k])
        rems.append(np.linalg.norm(exact @ align - pred))
    assert 3.5 < rems[0] / rems[1] < 4.5


def test_eigvec_first_order_full_rank_shortcut():
    values = np.array([3.0, 2.0])
    vectors = np.eye(2)
    pred = eigvec_first_order(values, vectors, 2, np.full((2, 2), 0.1))
    assert_allclose(pred, np.eye(2))


def test_eigvec_first_order_zero_gap():
    values = np.array([2.0, 2.0, 1.0])
    with pytest.raises(SingularMatrixError):
        eigvec_first_order(values, np.eye(3), 1, np.zeros((3, 3)))


def test_eigvec_first_order_rejects_a_non_finite_spectrum():
    with pytest.raises(ShapeMismatchError, match="must be finite"):
        eigvec_first_order(np.array([2.0, np.nan]), np.eye(2), 1, np.zeros((2, 2)))


def test_eigvec_first_order_rejects_unsorted():
    with pytest.raises(ShapeMismatchError):
        eigvec_first_order(np.array([1.0, 2.0]), np.eye(2), 1, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# equivalent factor noise


def _surrogate_setup(rng, p, k):
    cov, _ = models.spiked_covariance(p, k, rng)
    pair = eigh_topk(cov, k)
    surrogate = (pair.vectors * pair.values**2) @ pair.vectors.T
    surrogate = 0.5 * (surrogate + surrogate.T)
    factor = manifold.factorize(surrogate, IndexSet.canonical(k))
    alignment = factor_alignment(factor, pair)
    return cov, pair, factor, alignment


def test_factor_alignment_reconstructs_factor():
    rng = np.random.default_rng(15)
    _, pair, factor, alignment = _surrogate_setup(rng, 10, 3)
    rebuilt = (pair.vectors * pair.values) @ alignment
    assert_allclose(rebuilt, factor.entries, atol=1e-10)
    assert_allclose(alignment @ alignment.T, np.eye(3), atol=1e-10)


def test_factor_alignment_rejects_mismatched_frame():
    rng = np.random.default_rng(16)
    _, pair, _, _ = _surrogate_setup(rng, 10, 3)
    other = _random_factor(rng, 10, 3)
    with pytest.raises(ShapeMismatchError):
        factor_alignment(other, pair)


def test_equivalent_factor_noise_vanishes_at_truth():
    rng = np.random.default_rng(17)
    cov, _, _, alignment = _surrogate_setup(rng, 8, 2)
    noise = equivalent_factor_noise(cov, cov, alignment)
    assert np.max(np.abs(noise)) < 1e-10


def test_equivalent_factor_noise_reproduces_surrogate():
    """N + E rebuilds the rank-K surrogate of the sample covariance exactly."""
    rng = np.random.default_rng(18)
    for _ in range(5):
        p, k, n = 20, 3, 500
        cov, _, factor, alignment = _surrogate_setup(rng, p, k)
        data = models.gaussian_samples(cov, n, rng)
        cov_hat = models.sample_cov(data)
        noise = equivalent_factor_noise(cov_hat, cov, alignment)
        bumped = factor.entries + noise
        pair_hat = eigh_topk(cov_hat, k)
        target = (pair_hat.vectors * pair_hat.values**2) @ pair_hat.vectors.T
        assert np.max(np.abs(bumped @ bumped.T - target)) < 1e-8


def test_equivalent_factor_noise_zero_gap():
    cov = np.eye(4)
    with pytest.raises(SingularMatrixError):
        equivalent_factor_noise(np.diag([2.0, 1.0, 0.5, 0.1]), cov, np.eye(2))
