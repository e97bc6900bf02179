"""Property tests for the factor chart: anchoring, the Karcher mean and the
first-order expansions around them.

Hypothesis picks the sizes, the anchor rows, the seeds and the scales; the
factors themselves are drawn with numpy from the seed, with an anchor block
whose diagonal is bounded away from zero so every draw is a chart point.
A stack of M factors (M, p, K) must give, bit for bit, what its elements
give one at a time; so must a stack of E perturbations fed to the
expansions, and a stack of B base points with their perturbations behind
them.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from psdk.exceptions import NotInManifoldError
from psdk.linalg import TAU_PIVOT_REL, TAU_RANK, CholFactor, IndexSet, anchor, lq_givens, reduced_cholesky
from psdk.manifold import _group_means, exp_factor, factorize, karcher_mean, log_factor, membership
from psdk.models import factor_noise_samples
from psdk.perturbation import karcher_factor_first_order, lq_first_order, skew_generator

_settings = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def shapes(draw):
    """(p, k, index set, seed) with 1 <= k <= min(p, 6)."""
    p = draw(st.integers(1, 30))
    k = draw(st.integers(1, min(p, 6)))
    rows = draw(st.permutations(range(p)))[:k]
    return p, k, IndexSet(tuple(rows)), draw(st.integers(0, 2**32 - 1))


def _factor(gen, p, k, idx):
    entries = gen.normal(size=(p, k))
    rows = idx.as_array()
    entries[rows, :] = 0.3 * np.tril(entries[rows, :], -1)
    entries[rows, np.arange(k)] = gen.uniform(0.5, 2.0, size=k)
    return CholFactor(entries, idx)


def _orthogonal(gen, k):
    q, r = np.linalg.qr(gen.normal(size=(k, k)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


@_settings
@given(shapes())
def test_anchor_ignores_the_frame_rotation(shape):
    p, k, idx, seed = shape
    gen = np.random.default_rng(seed)
    frame = _factor(gen, p, k, idx).entries @ _orthogonal(gen, k)
    rotated = frame @ _orthogonal(gen, k)
    assert_allclose(anchor(rotated, idx).entries, anchor(frame, idx).entries,
                    rtol=0.0, atol=1e-10)


@_settings
@given(shapes())
def test_anchor_of_an_anchored_factor_is_exact(shape):
    p, k, idx, seed = shape
    factor = _factor(np.random.default_rng(seed), p, k, idx)
    assert np.array_equal(anchor(factor.entries, idx).entries, factor.entries)


@_settings
@given(shapes())
def test_chart_round_trip(shape):
    p, k, idx, seed = shape
    factor = _factor(np.random.default_rng(seed), p, k, idx)
    back = exp_factor(log_factor(factor), idx)
    assert_allclose(back.entries, factor.entries, rtol=1e-15, atol=0.0)


@_settings
@given(shapes(), st.integers(1, 6))
def test_karcher_mean_of_copies_is_the_copy(shape, copies):
    p, k, idx, seed = shape
    factor = _factor(np.random.default_rng(seed), p, k, idx)
    mean = karcher_mean([factor] * copies)
    assert mean.index_set == idx
    assert_allclose(mean.entries, factor.entries, rtol=1e-14, atol=0.0)


@_settings
@given(shapes(), st.integers(2, 8), st.randoms(use_true_random=False))
def test_karcher_mean_is_permutation_invariant(shape, count, shuffler):
    p, k, idx, seed = shape
    gen = np.random.default_rng(seed)
    factors = [_factor(gen, p, k, idx) for _ in range(count)]
    shuffled = list(factors)
    shuffler.shuffle(shuffled)
    assert_allclose(karcher_mean(shuffled).entries, karcher_mean(factors).entries,
                    rtol=1e-13, atol=1e-15)


@_settings
@given(shapes(), st.integers(1, 6), st.floats(1e-3, 1e3))
def test_karcher_mean_is_scale_equivariant(shape, count, scale):
    p, k, idx, seed = shape
    gen = np.random.default_rng(seed)
    factors = [_factor(gen, p, k, idx) for _ in range(count)]
    scaled = [CholFactor(scale * f.entries, idx) for f in factors]
    assert_allclose(karcher_mean(scaled).entries, scale * karcher_mean(factors).entries,
                    rtol=1e-12, atol=1e-15 * scale)


@_settings
@given(shapes(), st.integers(1, 12))
def test_stacked_chart_maps_are_bit_identical_per_element(shape, count):
    p, k, idx, seed = shape
    gen = np.random.default_rng(seed)
    frames = gen.normal(size=(count, p, k))
    stack = anchor(frames, idx)
    elements = [anchor(frame, idx) for frame in frames]
    assert np.array_equal(stack.entries, np.stack([f.entries for f in elements]))
    failing = [f.pivot_failure() is not None for f in elements]
    assert (stack.pivot_failure() is not None) == any(failing)
    if any(failing):
        return
    logs = log_factor(stack)
    assert np.array_equal(logs, np.stack([log_factor(f) for f in elements]))
    assert np.array_equal(exp_factor(logs, idx).entries,
                          np.stack([exp_factor(lg, idx).entries for lg in logs]))
    assert np.array_equal(karcher_mean(stack).entries, karcher_mean(elements).entries)


@_settings
@given(shapes(), st.integers(1, 5), st.integers(1, 6))
def test_stacked_expansions_are_bit_identical_per_element(shape, count, samples):
    p, k, idx, seed = shape
    gen = np.random.default_rng(seed)
    factor = _factor(gen, p, k, idx)
    tril = factor.anchor_block()
    orth = _orthogonal(gen, k)
    mats = tril @ orth + 0.1 * gen.normal(size=(count, k, k))
    tri, rot = lq_givens(mats)
    pairs = [lq_givens(mat) for mat in mats]
    assert np.array_equal(tri, np.stack([pair[0] for pair in pairs]))
    assert np.array_equal(rot, np.stack([pair[1] for pair in pairs]))
    noise = gen.normal(size=(count, k, k))
    assert np.array_equal(skew_generator(tril, noise),
                          np.stack([skew_generator(tril, e) for e in noise]))
    stacked = lq_first_order(tril, orth, noise)
    looped = [lq_first_order(tril, orth, e) for e in noise]
    for part in (0, 1):
        assert np.array_equal(stacked[part], np.stack([pred[part] for pred in looped]))
    noises = gen.normal(size=(count, samples, p, k))
    assert np.array_equal(karcher_factor_first_order(factor, noises),
                          np.stack([karcher_factor_first_order(factor, list(es))
                                    for es in noises]))


@_settings
@given(shapes(), st.integers(1, 4), st.integers(1, 3), st.integers(1, 5))
def test_stacked_base_points_are_bit_identical_per_element(shape, batch, count, samples):
    """B base points (B, ..) with their perturbations behind them, (B, E, ..)
    or (B, ..), give what each base point gives with its own perturbations."""
    p, k, idx, seed = shape
    gen = np.random.default_rng(seed)
    factors = [_factor(gen, p, k, idx) for _ in range(batch)]
    stack = CholFactor(np.stack([f.entries for f in factors]), idx)
    trils = stack.anchor_block()
    orths = np.stack([_orthogonal(gen, k) for _ in range(batch)])
    for noise in (gen.normal(size=(batch, count, k, k)), gen.normal(size=(batch, k, k))):
        assert np.array_equal(skew_generator(trils, noise),
                              np.stack([skew_generator(t, e) for t, e in zip(trils, noise)]))
        stacked = lq_first_order(trils, orths, noise)
        looped = [lq_first_order(t, q, e) for t, q, e in zip(trils, orths, noise)]
        for part in (0, 1):
            assert np.array_equal(stacked[part], np.stack([pred[part] for pred in looped]))
    for noises in (gen.normal(size=(batch, count, samples, p, k)),
                   gen.normal(size=(batch, samples, p, k))):
        assert np.array_equal(karcher_factor_first_order(stack, noises),
                              np.stack([karcher_factor_first_order(f, e)
                                        for f, e in zip(factors, noises)]))
    noises = 0.05 * gen.normal(size=(batch, samples, p, k))
    points = factor_noise_samples(stack, noises)
    looped = [factor_noise_samples(f, e) for f, e in zip(factors, noises)]
    assert np.array_equal(points.entries, np.concatenate([s.entries for s in looped]))
    means = _group_means(points, samples)
    assert means.index_set == idx
    assert np.array_equal(means.entries, np.stack([karcher_mean(s).entries for s in looped]))


@_settings
@given(shapes(), st.integers(0, 5), st.floats(-8.0, 0.0))
def test_the_p_by_p_edge_asks_the_factors_pivot_rule(shape, col, log_scale):
    """`reduced_cholesky` of N @ N.T raises exactly when N's `pivot_failure`
    is not None, and else gives N back; `membership` passes exactly when
    `factorize` succeeds; an asymmetric matrix fails on its asymmetry alone.
    One anchored diagonal entry is scaled by 10**log_scale, so the draws
    straddle the threshold; a band of 1% around it is left out, where
    roundoff in N @ N.T decides."""
    p, k, idx, seed = shape
    entries = _factor(np.random.default_rng(seed), p, k, idx).entries
    col %= k
    entries[idx[col], col] *= 10.0**log_scale
    factor = CholFactor(entries, idx)
    pivot = np.min(np.diagonal(factor.anchor_block())) ** 2
    norm = np.max(np.sum(entries**2, axis=1))
    assume(abs(pivot / (TAU_PIVOT_REL * norm) - 1.0) > 1e-2)
    mat = factor.matrix
    try:
        back = reduced_cholesky(mat, idx)
    except NotInManifoldError:
        back = None
    assert (back is None) == (factor.pivot_failure() is not None)
    if back is not None:
        # the solve loses relative accuracy as max|mat| / pivot grows
        assert_allclose(back.entries, entries, rtol=0.0, atol=1e-12 * norm / pivot)
    ok, reason = membership(mat, idx)
    try:
        factorize(mat, idx)
        assert ok and reason is None
    except NotInManifoldError as err:
        assert not ok and str(err) == reason
    if p > 1:
        skewed = mat.copy()
        skewed[0, -1] += 1e-3 * np.max(np.abs(mat))
        ok, reason = membership(skewed, idx)
        assert not ok and reason.startswith("matrix is not symmetric:") and ";" not in reason
    if back is not None and p > k and pivot > 1e-6 * norm:
        _check_the_residual_rule(entries, idx, np.random.default_rng(seed + 1))


def _check_the_residual_rule(entries, idx, gen):
    """N @ N.T + eps * E, E symmetric with unit Frobenius norm and zero on
    the anchor rows and columns, has residual exactly eps * E: it passes at
    0.99 times the tolerance TAU_RANK * ||N @ N.T||_F and fails at 1.01
    times, for a PSD E, a negative E on one free row (a negative diagonal
    residual, so a negative spectrum) and an indefinite E. Roundoff adds
    about eps * norm / pivot of ||mat||_F to R: a few % of the tolerance
    at the pivot threshold, so the caller keeps pivot > 1e-6 * norm."""
    p, k = entries.shape
    mat = CholFactor(entries, idx).matrix
    free = np.setdiff1d(np.arange(p), idx.as_array())
    basis = np.zeros((p, p - k))
    basis[free] = np.linalg.qr(gen.normal(size=(p - k, p - k)))[0]
    u, w, e = basis[:, :1], basis[:, 1:2], np.eye(p)[:, free[:1]]
    bends = [(u @ u.T, f"not rank {k}"), (-e @ e.T, "negative spectrum")]
    if p - k > 1:
        bends.append(((u @ u.T - w @ w.T) / np.sqrt(2.0), f"not rank {k}"))
    tol = TAU_RANK * np.linalg.norm(mat)
    for bend, kind in bends:
        assert np.linalg.norm(bend) == pytest.approx(1.0)
        passing = mat + 0.99 * tol * bend
        assert membership(passing, idx) == (True, None)
        assert np.array_equal(factorize(passing, idx).entries, reduced_cholesky(mat, idx).entries)
        ok, reason = membership(mat + 1.01 * tol * bend, idx)
        assert not ok and reason.startswith(kind + " (residual"), reason
