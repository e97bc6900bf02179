"""One refusal for a stack element: every entry point that checks a stack
element by element refuses the first element m that fails with a PsdkError
whose message starts "element m: " (after "signal: " for a signal) and whose
`element` is m. The single-input form of the same check gives the bare
reason, with `element` None. `element` survives pickling, so a refusal
raised in a worker process keeps it.
"""

import pickle

import numpy as np
import pytest

from psdk import models
from psdk.dpca import euclid_rankk_mean, full_pca, lrc_dpca, summarize_covariance
from psdk.exceptions import NotInManifoldError, ShapeMismatchError, SingularMatrixError
from psdk.linalg import CholFactor, IndexSet, SpectralPair, eigh_topk, lq_givens
from psdk.manifold import geodesic_distance, karcher_mean
from psdk.models import RngStream, extrinsic_samples, factor_noise_samples, gaussian_svd_signal
from psdk.perturbation import karcher_factor_first_order, lq_first_order, skew_generator


def _spd_stack(count=3, p=4):
    gen = np.random.default_rng(0)
    roots = gen.normal(size=(count, p, p))
    return roots @ np.swapaxes(roots, -1, -2) + np.eye(p)


def _asymmetric(m):
    mats = _spd_stack()
    mats[m, 0, 1] += 1.0
    return mats


def _rank_one_at(m):
    mats = _spd_stack()
    mats[m] = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 5.0))
    return mats


def _trils_singular_at(m, k=3):
    gen = np.random.default_rng(1)
    trils = np.tril(gen.normal(size=(3, k, k)))
    trils[:, np.arange(k), np.arange(k)] = 1.0 + np.abs(gen.normal(size=(3, k)))
    trils[m, k - 1, k - 1] = 0.0
    return trils


def _factors_failing_at(m):
    """A stack of three 4 x 2 factors at rows (0, 1); element m has a zero pivot."""
    gen = np.random.default_rng(2)
    entries = gen.normal(size=(3, 4, 2))
    entries[:, 0, 1] = 0.0
    entries[:, [0, 1], [0, 1]] = 1.0
    entries[m, 1, 1] = 0.0
    return CholFactor(entries, IndexSet((0, 1)))


def _extrinsic_failing_at(m):
    """extrinsic_samples of 6 samples decomposed in parts of 3; the covariance
    of sample m, in the second part, gets rank 2 < K = 3."""
    psd = gaussian_svd_signal(8, 3, RngStream(15, 0))
    draw, seen = models._wishart_cov, []

    def wishart(roots, n, gen):
        covs = draw(roots, n, gen)
        lo = sum(seen)
        seen.append(len(covs))
        if lo <= m < lo + len(covs):
            covs[m - lo] = np.diag([1.0, 1.0] + [0.0] * 6)
        return covs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "STACK_BYTES", 8 * 8**2 * 3)
        patch.setattr(models, "_wishart_cov", wishart)
        extrinsic_samples(psd, 0.1, 6, RngStream(15, 1), n_inner=50)


_K_NOISE = np.ones((3, 3))
_FACTOR_NOISE = np.zeros((3, 2, 4, 2))

# name: (error class, head before "element m: ", m, stacked call, single call or None)
_CASES = {
    "eigh_topk asymmetric": (
        ShapeMismatchError, "", 2,
        lambda: eigh_topk(_asymmetric(2), 2), lambda: eigh_topk(_asymmetric(2)[2], 2)),
    "eigh_topk require_positive": (
        SingularMatrixError, "", 1,
        lambda: eigh_topk(_rank_one_at(1), 2, require_positive=True),
        lambda: eigh_topk(_rank_one_at(1)[1], 2, require_positive=True)),
    "summarize_covariance": (
        SingularMatrixError, "", 2,
        lambda: summarize_covariance(_rank_one_at(2), 2),
        lambda: summarize_covariance(_rank_one_at(2)[2], 2)),
    "full_pca asymmetric": (
        ShapeMismatchError, "", 1, lambda: full_pca(_asymmetric(1), 2), None),
    "lq_givens": (
        SingularMatrixError, "", 2,
        lambda: lq_givens(_trils_singular_at(2)), lambda: lq_givens(_trils_singular_at(2)[2])),
    "skew_generator": (
        SingularMatrixError, "", 1,
        lambda: skew_generator(_trils_singular_at(1), np.ones((3, 4, 3, 3))),
        lambda: skew_generator(_trils_singular_at(1)[1], _K_NOISE)),
    "lq_first_order": (
        SingularMatrixError, "", 2,
        lambda: lq_first_order(_trils_singular_at(2), np.stack([np.eye(3)] * 3),
                               np.ones((3, 3, 3))),
        lambda: lq_first_order(_trils_singular_at(2)[2], np.eye(3), _K_NOISE)),
    "karcher_mean pivot rule": (
        NotInManifoldError, "", 2, lambda: karcher_mean(_factors_failing_at(2)), None),
    "karcher_mean shapes": (
        ShapeMismatchError, "", 1,
        lambda: karcher_mean([_factors_failing_at(2)[0],
                              CholFactor(np.eye(2), IndexSet((0, 1)))]), None),
    "karcher_mean not a factor": (
        ShapeMismatchError, "", 1, lambda: karcher_mean([_factors_failing_at(2)[0], np.eye(2)]),
        None),
    "euclid_rankk_mean not a factor": (
        ShapeMismatchError, "", 2,
        lambda: euclid_rankk_mean([_factors_failing_at(2)[m] for m in (0, 1)] + [np.eye(2)]),
        None),
    "geodesic_distance not a factor": (
        ShapeMismatchError, "", 1,
        lambda: geodesic_distance(_factors_failing_at(2)[0], np.eye(2)), None),
    "lrc_dpca": (
        NotInManifoldError, "", 1,
        lambda: lrc_dpca(SpectralPair(np.array([[[1.0], [0.0]], [[0.0], [1.0]]]),
                                      np.ones((2, 1))), IndexSet((0,))), None),
    "factor_noise_samples": (
        NotInManifoldError, "", 1,
        lambda: factor_noise_samples(CholFactor(np.array([[1.0], [0.0]]), IndexSet((0,))),
                                     np.array([[[0.0], [0.0]], [[-1.0], [1.0]]])), None),
    "karcher_factor_first_order": (
        NotInManifoldError, "signal: ", 1,
        lambda: karcher_factor_first_order(_factors_failing_at(1), _FACTOR_NOISE),
        lambda: karcher_factor_first_order(_factors_failing_at(1)[1], _FACTOR_NOISE[1])),
    "extrinsic_samples": (
        SingularMatrixError, "", 4, lambda: _extrinsic_failing_at(4), None),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_a_refused_stack_element_is_named_in_text_and_attribute(name):
    cls, head, m, stacked, single = _CASES[name]
    with pytest.raises(cls) as err:
        stacked()
    text = str(err.value)
    assert text.startswith(f"{head}element {m}: ") and err.value.element == m, text
    again = pickle.loads(pickle.dumps(err.value))
    assert type(again) is cls and str(again) == text and again.element == m
    if single is not None:
        with pytest.raises(cls) as one:
            single()
        assert str(one.value) == head + text[len(f"{head}element {m}: "):]
        assert one.value.element is None
