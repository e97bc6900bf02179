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
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from psdk.linalg import CholFactor, IndexSet, anchor, lq_givens
from psdk.manifold import _group_means, exp_factor, karcher_mean, log_factor
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
    return CholFactor(entries, idx).validate()


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
