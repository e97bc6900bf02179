import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psdk.dpca import euclid_rankk_mean
from psdk.exceptions import NotInManifoldError, ShapeMismatchError
from psdk.linalg import CholFactor, IndexSet, SpectralPair
from psdk.manifold import (
    exp_factor,
    factorize,
    geodesic_distance,
    karcher_mean,
    log_factor,
    membership,
)


def _random_factor(gen, p, k, idx):
    entries = gen.normal(size=(p, k))
    anchor = idx.as_array()
    entries[anchor, :] = np.tril(entries[anchor, :])
    entries[anchor, np.arange(k)] = 0.5 + gen.uniform(0.0, 2.0, size=k)
    return CholFactor(entries, idx).validate()


def _random_psd(gen, p, k, idx=None):
    """A random chart point, entering as a p x p matrix through factorize."""
    idx = idx or IndexSet.canonical(k)
    return factorize(_random_factor(gen, p, k, idx).matrix, idx)


# ---------------------------------------------------------------------------
# membership


def test_membership_accepts_valid_matrix():
    gen = np.random.default_rng(0)
    psd = _random_psd(gen, 6, 2)
    assert membership(psd.matrix, psd.index_set) == (True, None)


def test_membership_rejects_wrong_rank():
    ok, reason = membership(np.eye(4), IndexSet((0, 1)))
    assert not ok
    assert reason == "not rank 2 (residual 1.414e+00, tolerance 2.000e-06)"


def test_membership_depends_on_index_set():
    """A rank-2 matrix can fail at one anchor choice and pass at another."""
    target = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    mat = target @ target.T
    ok_01, reason_01 = membership(mat, IndexSet((0, 1)))
    assert not ok_01 and reason_01.startswith("anchor block (0, 1) ")
    assert membership(mat, IndexSet((0, 2))) == (True, None)
    # Numerically rank 1, but row 0 holds only the noise: the anchor pivot is
    # measured against max|mat|, not against the factor's tiny row norms.
    noisy = np.diag([1e-11, 1.0])
    assert membership(noisy, IndexSet((0,))) == (
        False, "anchor block (0,) singular (min pivot 1.000e-11, threshold 1.000e-10)")
    assert membership(noisy, IndexSet((1,))) == (True, None)
    # The anchor pivot passes its rule, but N @ N.T = diag(1e-9, 0) drops the
    # matrix's leading direction: the residual says it is not rank 1 there.
    faint = np.diag([1e-9, 1.0])
    assert membership(faint, IndexSet((0,))) == (
        False, "not rank 1 (residual 1.000e+00, tolerance 1.000e-06)")
    with pytest.raises(NotInManifoldError, match=r"^not rank 1 \(residual"):
        factorize(faint, IndexSet((0,)))


def test_membership_rejects_indefinite():
    assert membership(np.diag([1.0, -1.0]), IndexSet((0,))) == (
        False, "negative spectrum (residual 1.000e+00, tolerance 1.414e-06)")


_GARBAGE = [
    (np.ones((2, 3)), (0,), "expected a square matrix, got shape (2, 3)"),
    (np.eye(2), (0, 5), "index set (0, 5) out of range for p = 2"),
    ("x", (0,), "matrix entries must be real numbers, got a str of dtype <U1"),
    (None, (0,), "matrix entries must be real numbers, got a NoneType of dtype object"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), (0,), "matrix entries must be finite"),
]


def test_membership_never_raises_on_garbage():
    """Garbage fails on its own check alone, whatever the other checks say."""
    for mat, rows, reason in _GARBAGE:
        assert membership(mat, rows) == (False, reason)


def test_validate_raises_with_reason():
    with pytest.raises(NotInManifoldError, match=r"^negative spectrum \(residual 1.000e\+00"):
        factorize(np.diag([1.0, -1.0]), IndexSet((0,)))


def test_the_p_by_p_edge_needs_no_spectrum(monkeypatch):
    """`factorize` and `membership` decide a p = 50 chart point in factor
    form: no eigendecomposition is reached."""
    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition at the p x p edge")

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    gen = np.random.default_rng(13)
    idx = IndexSet((7, 0, 31))
    factor = _random_factor(gen, 50, 3, idx)
    assert np.max(np.abs(factorize(factor.matrix, idx).entries - factor.entries)) < 1e-8
    assert membership(factor.matrix, idx) == (True, None)
    assert not membership(factor.matrix + np.eye(50), idx)[0]


# ---------------------------------------------------------------------------
# chart maps


def test_factorize_to_matrix_roundtrip():
    gen = np.random.default_rng(1)
    for _ in range(20):
        p = int(gen.integers(2, 30))
        k = int(gen.integers(1, min(p, 6) + 1))
        idx = IndexSet(tuple(int(i) for i in gen.permutation(p)[:k]))
        factor = _random_factor(gen, p, k, idx)
        back = factorize(factor.matrix, idx)
        assert np.max(np.abs(back.entries - factor.entries)) < 1e-8


def test_log_exp_factor_inverse():
    gen = np.random.default_rng(2)
    factor = _random_factor(gen, 7, 3, IndexSet((4, 0, 6)))
    back = exp_factor(log_factor(factor), factor.index_set)
    assert_allclose(back.entries, factor.entries, atol=1e-14)


def test_log_factor_touches_only_anchored_diagonal():
    entries = np.array([[2.0, 0.0], [1.5, 3.0], [-0.7, 0.4]])
    factor = CholFactor(entries, IndexSet((0, 1)))
    logged = log_factor(factor)
    assert logged[0, 0] == pytest.approx(np.log(2.0))
    assert logged[1, 1] == pytest.approx(np.log(3.0))
    # every off-anchor entry is untouched
    assert logged[1, 0] == 1.5
    assert_allclose(logged[2], entries[2])


def test_full_chart_roundtrip():
    gen = np.random.default_rng(3)
    psd = _random_psd(gen, 10, 4)
    again = exp_factor(log_factor(psd), psd.index_set)
    assert np.max(np.abs(again.matrix - psd.matrix)) < 1e-10


# ---------------------------------------------------------------------------
# karcher mean


def _diag_pair():
    idx = IndexSet((0,))
    a = CholFactor(np.array([[1.0], [0.0]]), idx)
    b = CholFactor(np.array([[2.0], [0.0]]), idx)
    return a, b


def test_karcher_mean_is_geometric_on_diagonal():
    a, b = _diag_pair()
    mean = karcher_mean([a, b])
    # sqrt(1 * 4) = 2 on the anchored diagonal, not the arithmetic 2.5
    assert_allclose(mean.matrix, np.diag([2.0, 0.0]), atol=1e-12)


def test_karcher_mean_is_arithmetic_off_diagonal():
    idx = IndexSet((0,))
    fac_a = CholFactor(np.array([[1.0], [3.0]]), idx)
    fac_b = CholFactor(np.array([[1.0], [7.0]]), idx)
    assert_allclose(karcher_mean([fac_a, fac_b]).entries, [[1.0], [5.0]], atol=1e-12)
    # p x p inputs are factored at the edge and give the same mean
    mean = karcher_mean([factorize(f.matrix, idx) for f in (fac_a, fac_b)])
    assert_allclose(mean.entries, [[1.0], [5.0]], atol=1e-12)


def test_karcher_mean_of_a_stack_equals_the_list_mean():
    """A stack passes through the chart edge; a list is checked and stacked.
    Both give the same mean, bit for bit."""
    gen = np.random.default_rng(11)
    idx = IndexSet((3, 1, 5))
    factors = [_random_factor(gen, 7, 3, idx) for _ in range(6)]
    stack = CholFactor(np.stack([f.entries for f in factors]), idx)
    from_list = karcher_mean(factors)
    from_stack = karcher_mean(stack)
    assert from_stack.index_set == idx and from_stack.entries.shape == (7, 3)
    assert np.array_equal(from_stack.entries, from_list.entries)
    assert np.array_equal(karcher_mean(list(stack)).entries, from_list.entries)


def test_karcher_mean_rejects_malformed_stacks():
    """An empty stack, an index set that does not fit, a single p x K factor
    and 4-d entries all raise ShapeMismatchError at the chart edge."""
    idx = IndexSet((0, 1))
    for entries, fit in ((np.ones((0, 3, 2)), IndexSet((0, 1))),
                         (np.ones((2, 3, 1)), idx),
                         (np.ones((2, 3, 2)), IndexSet((0, 3))),
                         (np.ones((3, 2)), idx),
                         (np.ones((2, 2, 3, 2)), idx)):
        for call in (karcher_mean, euclid_rankk_mean):
            with pytest.raises(ShapeMismatchError):
                call(CholFactor(entries, fit))


def test_karcher_mean_of_copies():
    gen = np.random.default_rng(4)
    psd = _random_psd(gen, 8, 3)
    mean = karcher_mean([psd] * 4)
    assert np.max(np.abs(mean.matrix - psd.matrix)) < 1e-10


def test_karcher_mean_permutation_invariant():
    gen = np.random.default_rng(5)
    psds = [_random_psd(gen, 6, 2) for _ in range(5)]
    forward = karcher_mean(psds)
    backward = karcher_mean(psds[::-1])
    assert np.max(np.abs(forward.matrix - backward.matrix)) < 1e-12


def test_karcher_mean_output_in_manifold():
    gen = np.random.default_rng(6)
    idx = IndexSet((3, 1, 5))
    psds = [_random_psd(gen, 7, 3, idx) for _ in range(6)]
    mean = karcher_mean(psds)
    ok, _ = membership(mean.matrix, idx)
    assert ok
    assert mean.index_set == idx


def test_karcher_mean_minimizes_frechet_objective():
    """The closed form beats 200 random manifold perturbations of itself."""
    gen = np.random.default_rng(7)
    for _ in range(10):
        p = int(gen.integers(3, 15))
        k = int(gen.integers(1, min(p, 4) + 1))
        idx = IndexSet.canonical(k)
        psds = [_random_psd(gen, p, k, idx) for _ in range(int(gen.integers(2, 8)))]
        logs = [log_factor(x) for x in psds]
        mean = karcher_mean(psds)
        mean_log = log_factor(mean)
        objective = sum(np.sum((mean_log - lg) ** 2) for lg in logs)
        for _ in range(200):
            delta = gen.normal(size=mean_log.shape)
            delta *= gen.choice([1e-4, 1e-2, 1e-1]) / np.linalg.norm(delta)
            perturbed = sum(np.sum((mean_log + delta - lg) ** 2) for lg in logs)
            assert objective <= perturbed + 1e-9


def test_karcher_mean_empty_input():
    with pytest.raises(ShapeMismatchError):
        karcher_mean([])


def test_karcher_mean_mixed_index_sets():
    a, _ = _diag_pair()
    c = CholFactor(np.array([[0.0], [1.0]]), IndexSet((1,)))
    with pytest.raises(ShapeMismatchError):
        karcher_mean([a, c])


def test_karcher_mean_names_offending_element():
    """The message and the error's `element` give the first failing element,
    for a list and for a stack; `element` survives the pickling that carries
    an error out of a forked worker."""
    a, b = _diag_pair()
    bad = CholFactor(np.array([[0.0], [0.0]]), IndexSet((0,)))
    stack = CholFactor(np.stack([a.entries, b.entries, bad.entries, bad.entries]), a.index_set)
    for psds in ([a, b, bad], stack):
        with pytest.raises(NotInManifoldError, match="element 2: anchor block") as err:
            karcher_mean(psds)
        assert err.value.element == 2
        assert pickle.loads(pickle.dumps(err.value)).element == 2
    assert NotInManifoldError("not a chart point").element is None


def test_karcher_mean_names_factor_failing_pivot_rule():
    idx = IndexSet((0, 1))
    good = CholFactor(np.array([[1.0, 0.0], [0.5, 1.0], [0.2, 0.3]]), idx)
    thin = CholFactor(np.array([[1.0, 0.0], [0.5, 1e-7], [0.2, 0.3]]), idx)
    with pytest.raises(NotInManifoldError, match=r"element 1: anchor block \(0, 1\) singular"):
        karcher_mean([good, thin])


def test_factor_route_forms_no_p_by_p_matrix(monkeypatch):
    """Factor inputs never reach the p x p membership test or reduced Cholesky."""
    import psdk.dpca as dpca_mod
    import psdk.linalg as linalg_mod
    import psdk.manifold as manifold_mod
    import psdk.models as models_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("p x p route taken for a factor input")

    for mod, name in ((manifold_mod, "membership"), (manifold_mod, "factorize"),
                      (linalg_mod, "reduced_cholesky")):
        monkeypatch.setattr(mod, name, forbidden)
    gen = np.random.default_rng(12)
    idx = IndexSet((2, 0))
    base = _random_factor(gen, 6, 2, idx)
    samples = models_mod.factor_noise_samples(
        base, [0.01 * gen.normal(size=(6, 2)) for _ in range(4)])
    assert karcher_mean(samples).index_set == idx
    summaries = SpectralPair(np.stack([np.linalg.qr(gen.normal(size=(6, 2)))[0]
                                       for _ in range(3)]), np.tile([2.0, 1.0], (3, 1)))
    assert dpca_mod.lrc_dpca(summaries, idx).method == "lrc"


# ---------------------------------------------------------------------------
# geodesic distance


def test_geodesic_distance_log_ratio():
    a, b = _diag_pair()
    assert geodesic_distance(a, b) == pytest.approx(np.log(2.0))


def test_geodesic_distance_metric_axioms():
    gen = np.random.default_rng(8)
    psds = [_random_psd(gen, 6, 2) for _ in range(3)]
    d01 = geodesic_distance(psds[0], psds[1])
    d10 = geodesic_distance(psds[1], psds[0])
    assert d01 == pytest.approx(d10)
    assert geodesic_distance(psds[0], psds[0]) == 0.0
    d12 = geodesic_distance(psds[1], psds[2])
    d02 = geodesic_distance(psds[0], psds[2])
    assert d02 <= d01 + d12 + 1e-12


def test_geodesic_distance_matches_chart_isometry():
    # the distance is defined through the chart, so the two computations
    # must agree bit for bit
    gen = np.random.default_rng(9)
    a = _random_psd(gen, 5, 2)
    b = _random_psd(gen, 5, 2)
    direct = geodesic_distance(a, b)
    via_chart = float(np.linalg.norm(log_factor(a) - log_factor(b)))
    assert direct == via_chart


def test_geodesic_distance_requires_common_anchor():
    a, _ = _diag_pair()
    c = CholFactor(np.array([[0.0], [1.0]]), IndexSet((1,)))
    with pytest.raises(ShapeMismatchError):
        geodesic_distance(a, c)


@pytest.mark.parametrize("entries, idx, fault", [
    (np.ones((3, 2)), IndexSet((0,)), r"element 1: shape \(3, 2\) and index set \(0,\) differ"),
    (np.ones((3, 1)), IndexSet((3,)), r"element 1: shape \(3, 1\) and index set \(3,\) differ"),
    (np.ones(3), IndexSet((0,)), r"element 1: shape \(3,\) and index set \(0,\) differ"),
    (np.ones((4, 1)), IndexSet((0,)), r"element 1: shape \(4, 1\) .* element 0's \(3, 1\)"),
], ids=["index_set_shorter_than_rank", "row_beyond_p", "one_d_entries", "different_p"])
def test_chart_inputs_reject_malformed_factors(entries, idx, fault):
    """Factors whose shape or index set differs from the first element's
    raise ShapeMismatchError naming the element in karcher_mean and
    geodesic_distance; so does a p x p array given in place of a factor."""
    good = CholFactor(np.array([[1.0], [0.5], [0.2]]), IndexSet((0,)))
    bad = CholFactor(entries, idx)
    for call in (karcher_mean, lambda fs: geodesic_distance(*fs)):
        with pytest.raises(ShapeMismatchError, match=fault):
            call([good, bad])
    with pytest.raises(ShapeMismatchError, match="not a CholFactor; factor a p x p"):
        karcher_mean([good, good.matrix])


def test_exp_factor_validates_result():
    with pytest.raises(Exception):
        exp_factor(np.full((2, 2), np.nan), IndexSet((0, 1)))
