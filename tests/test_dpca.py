import numpy as np
import pytest
from numpy.testing import assert_allclose

from psdk import dpca, linalg
from psdk.dpca import (
    DpcaResult,
    _result,
    dpca_bw,
    dpca_fan,
    euclid_rankk_mean,
    find_index,
    full_pca,
    lrc_dpca,
    summarize_covariance,
)
from psdk.exceptions import (
    NotInManifoldError,
    ShapeMismatchError,
    SingularMatrixError,
    ZeroGapWarning,
)
from psdk.linalg import (CholFactor, IndexSet, SpectralPair, _eigh_desc, anchor, eigh_topk,
                         projector_distance)
from psdk.manifold import karcher_mean
from psdk.models import RngStream, gaussian_samples, sample_cov, spiked_covariance


def _projector_gap(basis_a, basis_b):
    return np.max(np.abs(basis_a @ basis_a.T - basis_b @ basis_b.T))


def _random_summaries(rng, p, k, n_machines, flat_values=False):
    """A stacked SpectralPair: random orthonormal frames (M, p, K) and
    descending (or flat) values (M, K) in [1, 2]."""
    vectors, values = np.empty((n_machines, p, k)), np.empty((n_machines, k))
    for m in range(n_machines):
        vectors[m] = np.linalg.qr(rng.normal(size=(p, k)))[0]
        if flat_values:
            values[m] = rng.uniform(1.0, 2.0)
        else:
            values[m] = np.sort(rng.uniform(1.0, 2.0, size=k))[::-1]
    return SpectralPair(vectors, values)


def _machines(vectors, values):
    """The stacked SpectralPair of per-machine vectors and values."""
    return SpectralPair(np.stack(vectors), np.array(values, dtype=float))


# ---------------------------------------------------------------------------
# local summaries


def test_summarize_covariance_basics():
    cov, _ = spiked_covariance(10, 3, RngStream(0, 0))
    s = summarize_covariance(cov, 3)
    assert isinstance(s, SpectralPair)
    assert s.vectors.shape == (10, 3)
    assert np.all(s.values > 0)
    assert np.all(np.diff(s.values) <= 0)
    assert_allclose(cov @ s.vectors, s.vectors * s.values, atol=1e-10)


def test_summarize_covariance_requires_positive_spectrum():
    with pytest.raises(SingularMatrixError):
        summarize_covariance(np.diag([1.0, 0.0]), 2)


# ---------------------------------------------------------------------------
# aggregators, exact cases


def test_full_pca_single_machine_is_plain_pca():
    cov, _ = spiked_covariance(8, 2, RngStream(1, 0))
    res = full_pca([cov], 2)
    assert isinstance(res, DpcaResult)
    assert res.method == "full"
    assert _projector_gap(res.basis, eigh_topk(cov, 2).vectors) < 1e-12
    assert_allclose(res.basis.T @ res.basis, np.eye(2), atol=1e-12)


def test_full_pca_pools_covariances():
    rng = np.random.default_rng(2)
    covs = []
    for _ in range(4):
        g = rng.normal(size=(6, 6))
        covs.append(g @ g.T / 6)
    res = full_pca(covs, 2)
    pooled = np.mean(np.stack(covs), axis=0)
    assert _projector_gap(res.basis, eigh_topk(pooled, 2).vectors) < 1e-12


def test_lrc_dpca_single_machine_spans_local_frame():
    cov, _ = spiked_covariance(9, 3, RngStream(3, 0))
    s = summarize_covariance(cov[None], 3)
    res = lrc_dpca(s, IndexSet.canonical(3))
    assert res.method == "lrc"
    assert res.index_set_used == IndexSet.canonical(3)
    assert projector_distance(res.basis, s.vectors[0]) < 1e-10


def test_lrc_dpca_identical_machines_match_full_pca():
    cov, _ = spiked_covariance(9, 3, RngStream(4, 0))
    summaries = summarize_covariance(np.stack([cov] * 5), 3)
    res = lrc_dpca(summaries, IndexSet.canonical(3))
    ref = full_pca([cov] * 5, 3)
    assert projector_distance(res.basis, ref.basis) < 1e-10


def test_fan_and_bw_identical_machines():
    cov, _ = spiked_covariance(8, 2, RngStream(5, 0))
    summaries = summarize_covariance(np.stack([cov] * 3), 2)
    local = summaries.vectors[0]
    assert projector_distance(dpca_fan(summaries).basis, local) < 1e-10
    assert projector_distance(dpca_bw(summaries).basis, local) < 1e-10


def test_aggregators_by_hand_rank_one():
    # machines observing diag(1,0) and diag(4,0): the surrogate average is
    # arithmetic for bw (2.5) and geometric for the Karcher route (values
    # (1,2) square to surrogates diag(1,0), diag(4,0), whose mean is diag(2,0))
    e1 = np.array([[1.0], [0.0]])
    bw = dpca_bw(_machines([e1, e1], [[1.0], [4.0]]))
    assert_allclose(bw.diagnostics["values"], [2.5], atol=1e-14)
    lrc = lrc_dpca(_machines([e1, e1], [[1.0], [2.0]]), IndexSet((0,)))
    assert_allclose(lrc.diagnostics["values"], [2.0], atol=1e-12)
    assert _projector_gap(bw.basis, e1) < 1e-12
    assert _projector_gap(lrc.basis, e1) < 1e-12


def test_euclid_rankk_mean_by_hand():
    psds = [
        CholFactor(np.array([[1.0], [0.0]]), IndexSet((0,))),
        CholFactor(np.array([[2.0], [0.0]]), IndexSet((0,))),
    ]
    mean = euclid_rankk_mean(psds)
    assert_allclose(mean.matrix, np.diag([2.5, 0.0]), atol=1e-14)
    assert mean.index_set == IndexSet((0,))


def test_euclid_rankk_mean_truncates():
    # M * K = 6 factors' columns span all of R^5: the mean has full rank and
    # only its best rank-2 approximation comes back
    rng = np.random.default_rng(6)
    factors = [anchor(rng.normal(size=(5, 2)), IndexSet.canonical(2)) for _ in range(3)]
    full = np.mean([f.entries @ f.entries.T for f in factors], axis=0)
    assert np.linalg.matrix_rank(full) == 5
    mean = euclid_rankk_mean(factors)
    pair = eigh_topk(full, 2)
    assert_allclose(mean.matrix, (pair.vectors * pair.values) @ pair.vectors.T,
                    atol=1e-12)
    assert mean.rank == 2 and mean.index_set == IndexSet.canonical(2)


def test_euclid_rankk_mean_names_malformed_factor():
    """A malformed factor is refused where it is built; a well-formed one of
    another shape is named by its position."""
    good = CholFactor(np.array([[1.0], [0.0]]), IndexSet((0,)))
    for entries, rows, fault in (
            (np.ones((2, 2)), (0,), "index set has 1 rows, factor has rank 2"),
            (np.ones((2, 1)), (2,), r"index set \(2,\) out of range for p = 2"),
            (np.ones(2), (0,), "factor entries must be 2-d or 3-d, got 1-d"),
            (np.ones((3, 1)), (0,), r"element 1: shape \(3, 1\) and index set \(0,\) differ")):
        with pytest.raises(ShapeMismatchError, match=fault):
            euclid_rankk_mean([good, CholFactor(entries, IndexSet(rows))])


def test_euclid_rankk_mean_clips_roundoff_negative_values():
    """A mean of lower rank than requested has roundoff-size trailing values;
    a negative one (-9e-17 here, with LAPACK's eigh) must give a zero column,
    not a NaN. The rank-1 frame's factor has a roundoff-size anchored pivot."""
    frame = np.outer([1.0, 1.0, 3.0], [1.0, 0.5])
    mean = euclid_rankk_mean([anchor(frame, IndexSet((0, 1)))])
    assert np.all(np.isfinite(mean.entries))
    assert np.all(mean.entries[:, 1] == 0.0)
    assert_allclose(mean.matrix, frame @ frame.T, atol=1e-14)


def test_euclid_rankk_mean_rejects_mixed_tags():
    psds = [
        CholFactor(np.array([[1.0], [0.0]]), IndexSet((0,))),
        CholFactor(np.array([[0.0], [1.0]]), IndexSet((1,))),
    ]
    with pytest.raises(ShapeMismatchError, match="element 1"):
        euclid_rankk_mean(psds)


def test_aggregators_reject_empty():
    with pytest.raises(ShapeMismatchError):
        full_pca([], 1)
    with pytest.raises(ShapeMismatchError):
        lrc_dpca([], IndexSet((0,)))
    with pytest.raises(ShapeMismatchError):
        dpca_fan([])
    with pytest.raises(ShapeMismatchError):
        dpca_bw([])
    with pytest.raises(ShapeMismatchError):
        euclid_rankk_mean([])


def test_aggregators_reject_malformed_input():
    with pytest.raises(ShapeMismatchError, match="differ in shape"):
        full_pca([np.eye(3), np.ones((1, 3))], 1)
    with pytest.raises(ShapeMismatchError, match="does not match square matrices"):
        full_pca(np.ones((2, 3, 4)), 1)
    with pytest.raises(ShapeMismatchError, match="element 1: matrix is not symmetric"):
        full_pca([np.eye(2), [[1.0, 5.0], [0.0, 1.0]]], 1)
    e1 = np.array([[1.0], [0.0]])
    with pytest.raises(SingularMatrixError, match="nonnegative"):
        dpca_bw(_machines([e1, e1], [[1.0], [-1.0]]))


_MALFORMED_SUMMARIES = {
    "list of pairs": [SpectralPair(np.eye(2)[:, :1], np.ones(1))] * 2,
    "single pair": SpectralPair(np.eye(2)[:, :1], np.ones(1)),
    "values of another K": SpectralPair(np.ones((2, 3, 1)), np.ones((2, 2))),
    "values of another M": SpectralPair(np.ones((2, 3, 1)), np.ones((3, 1))),
    "no machines": SpectralPair(np.ones((0, 3, 1)), np.ones((0, 1))),
    "ragged vectors": SpectralPair([np.ones((3, 1)), np.ones((2, 1))], np.ones((2, 1))),
    "arrays": (np.ones((2, 3, 1)), np.ones((2, 1))),
    "wider than tall": SpectralPair(np.ones((1, 3, 5)), np.ones((1, 5))),
    "no columns": SpectralPair(np.ones((1, 3, 0)), np.ones((1, 0))),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_SUMMARIES))
@pytest.mark.parametrize("aggregate", [
    lambda s: lrc_dpca(s, IndexSet((0,))),
    dpca_fan,
    dpca_bw,
], ids=["lrc", "fan", "bw"])
def test_aggregators_reject_malformed_stacks(aggregate, case):
    """Only a stacked SpectralPair, vectors (M, p, K) and values (M, K) with
    M >= 1 and 1 <= K <= p, gets in; anything else is a ShapeMismatchError that names that
    form, never a raw AttributeError, TypeError or ValueError."""
    with pytest.raises(ShapeMismatchError, match="takes one stacked SpectralPair"):
        aggregate(_MALFORMED_SUMMARIES[case])


def test_stacked_summaries_give_the_per_machine_list_form_bit_for_bit():
    """Each aggregator on the stacked pair that one summarize_covariance call
    returns equals, bit for bit, the per-machine list form: one
    summarize_covariance call per machine, frames joined by concatenation,
    full_pca pooled by a Python sum."""
    cov, _ = spiked_covariance(20, 3, RngStream(14, 0))
    gen = RngStream(14, 1).generator()
    covs = [sample_cov(gaussian_samples(cov, 60, gen)) for _ in range(6)]
    pairs = [summarize_covariance(c, 3) for c in covs]
    stacked = summarize_covariance(np.stack(covs), 3)
    idx = find_index(stacked.vectors[0], stacked.values[0])
    assert idx == find_index(pairs[0].vectors, pairs[0].values)

    def gram(frames):
        joined = np.concatenate(frames, axis=1)
        agg = (joined @ joined.T) / len(frames)
        return 0.5 * (agg + agg.T)

    lrc_mean = karcher_mean(anchor(np.stack([s.vectors * s.values for s in pairs]), idx))
    left, sing, _ = np.linalg.svd(lrc_mean.entries, full_matrices=False)
    pooled = sum(covs) / len(covs)
    want = {
        "full": _result(*_eigh_desc(0.5 * (pooled + pooled.T)), 3, "full", 6),
        "lrc": _result(np.pad(sing ** 2, (0, len(left) - 3)), left, 3, "lrc", 6, idx),
        "fan": _result(*_eigh_desc(gram([s.vectors for s in pairs])), 3, "fan", 6),
        "bw": _result(*_eigh_desc(gram([s.vectors * np.sqrt(s.values) for s in pairs])),
                      3, "bw", 6),
    }
    got = {"full": full_pca(np.stack(covs), 3), "lrc": lrc_dpca(stacked, idx),
           "fan": dpca_fan(stacked), "bw": dpca_bw(stacked)}
    for method, res in got.items():
        ref = want[method]
        assert (res.method, res.index_set_used) == (ref.method, ref.index_set_used)
        assert np.array_equal(res.basis, ref.basis), method
        assert np.array_equal(res.diagnostics["values"], ref.diagnostics["values"]), method
        assert res.diagnostics["gap"] == ref.diagnostics["gap"], method
        assert res.diagnostics["n_machines"] == 6


def test_full_pca_rejects_a_ragged_or_empty_stack():
    for covs in ([np.eye(3), np.eye(2)], [], np.ones((0, 3, 3)), [np.eye(2), "ab"]):
        with pytest.raises(ShapeMismatchError, match="full_pca covariances"):
            full_pca(covs, 1)


# ---------------------------------------------------------------------------
# frames against the dense form
#
# Each aggregate is the mean of F F.T over p x K frames F. The reference
# builds it the dense way, one p x p matrix per frame, stacked and averaged.


def _dense_mean(frames):
    agg = np.mean(np.stack([f @ f.T for f in frames]), axis=0)
    return 0.5 * (agg + agg.T)


@pytest.mark.parametrize("p, k, n_machines", [(12, 2, 3), (8, 3, 5)])
def test_aggregators_match_dense_reference(p, k, n_machines):
    rng = np.random.default_rng(p * 100 + n_machines)
    summaries = _random_summaries(rng, p, k, n_machines)
    idx = IndexSet.canonical(k)
    vectors, values = summaries.vectors, summaries.values
    mean_factor = karcher_mean([anchor(v * w, idx) for v, w in zip(vectors, values)])
    frames = {
        "fan": list(vectors),
        "bw": [v * np.sqrt(w) for v, w in zip(vectors, values)],
        "lrc": [mean_factor.entries],
    }
    results = {"fan": dpca_fan(summaries), "bw": dpca_bw(summaries),
               "lrc": lrc_dpca(summaries, idx)}
    for method, res in results.items():
        pair = eigh_topk(_dense_mean(frames[method]), k)
        assert _projector_gap(res.basis, pair.vectors) < 1e-10, method
        assert_allclose(res.diagnostics["values"], pair.values, rtol=1e-12, err_msg=method)
    # the mean factor N is p x K, so N N.T has exactly p - K zero eigenvalues:
    # the gap below the rank-K block is lambda_K
    lrc = results["lrc"]
    assert lrc.diagnostics["gap"] == lrc.diagnostics["values"][-1]

    samples = [anchor(rng.normal(size=(p, k)), idx) for _ in range(n_machines)]
    pair = eigh_topk(_dense_mean([s.entries for s in samples]), k)
    assert_allclose(euclid_rankk_mean(samples).matrix,
                    (pair.vectors * pair.values) @ pair.vectors.T, atol=1e-12)


def test_factor_aggregates_form_no_per_sample_matrix(monkeypatch):
    """euclid_rankk_mean and lrc_dpca never ask a factor for its p x p matrix."""

    def forbidden(self):
        raise AssertionError("p x p matrix formed for a factor")

    monkeypatch.setattr(CholFactor, "matrix", property(forbidden))
    rng = np.random.default_rng(13)
    idx = IndexSet((3, 1))
    samples = [anchor(rng.normal(size=(9, 2)), idx) for _ in range(4)]
    assert euclid_rankk_mean(samples).entries.shape == (9, 2)
    summaries = _random_summaries(rng, 9, 2, 4)
    assert lrc_dpca(summaries, idx).method == "lrc"


def test_aggregators_never_call_eigh_topk(monkeypatch):
    """Each aggregate gets one decomposition of its own; eigh_topk's iteration
    is left to summarize_covariance's stacks of sample covariances."""

    def forbidden(*args, **kwargs):
        raise AssertionError("an aggregator called eigh_topk")

    rng = np.random.default_rng(15)
    idx = IndexSet((3, 1))
    summaries = _random_summaries(rng, 9, 2, 4)
    covs = np.stack([g @ g.T for g in rng.normal(size=(4, 9, 9))])
    samples = [anchor(rng.normal(size=(9, 2)), idx) for _ in range(4)]
    monkeypatch.setattr(dpca, "eigh_topk", forbidden)
    monkeypatch.setattr(linalg, "eigh_topk", forbidden)
    results = [full_pca(covs, 2), lrc_dpca(summaries, idx), dpca_fan(summaries),
               dpca_bw(summaries)]
    assert [res.method for res in results] == ["full", "lrc", "fan", "bw"]
    assert euclid_rankk_mean(samples).entries.shape == (9, 2)


def _spoiled(kind):
    """Two machines' summaries and covariances V diag(values) V.T, with one
    NaN or Inf entry in machine 1 as `kind` says."""
    summaries = _random_summaries(np.random.default_rng(16), 6, 2, 2)
    covs = (summaries.vectors * summaries.values[:, None, :]) @ np.swapaxes(
        summaries.vectors, 1, 2)
    if kind == "NaN in vectors":
        summaries.vectors[1, 4, 0] = np.nan
    elif kind == "Inf in values":
        summaries.values[1, 1] = np.inf
    else:
        covs[1, 2, 2] = np.nan
    return summaries, covs


_TAKERS = {
    "lrc": lambda summaries, covs: lrc_dpca(summaries, IndexSet((0, 1))),
    "fan": lambda summaries, covs: dpca_fan(summaries),
    "bw": lambda summaries, covs: dpca_bw(summaries),
    "full": lambda summaries, covs: full_pca(covs, 2),
}


@pytest.mark.parametrize("kind", ["NaN in vectors", "Inf in values", "NaN in a covariance"])
@pytest.mark.parametrize("method", sorted(_TAKERS))
def test_aggregators_reject_non_finite_input_at_their_edge(method, kind):
    """A NaN or Inf in what an aggregator takes is a ShapeMismatchError at its
    own edge: not a NotInManifoldError after a RuntimeWarning, a raw
    LinAlgError or a silent result. full_pca takes the covariances, the
    others the summaries, so each rejects the kinds that reach its input and
    returns a finite basis for the rest."""
    summaries, covs = _spoiled(kind)
    spoils_input = (method == "full") == (kind == "NaN in a covariance")
    if spoils_input:
        with pytest.raises(ShapeMismatchError, match="must be finite"):
            _TAKERS[method](summaries, covs)
    else:
        assert np.all(np.isfinite(_TAKERS[method](summaries, covs).basis))


def test_euclid_rankk_mean_rejects_a_non_finite_factor():
    entries = np.ones((2, 3, 1))
    entries[1, 2, 0] = np.inf
    with pytest.raises(ShapeMismatchError, match="must be finite"):
        euclid_rankk_mean(CholFactor(entries, IndexSet((0,))))


# ---------------------------------------------------------------------------
# frame-ambiguity invariance
#
# Machines only expose their summaries through V f(Lambda) V.T, so any
# orthogonal reshuffle of V that commutes with f(Lambda) must leave every
# aggregate unchanged: sign flips always (the eigensolver's own ambiguity),
# arbitrary rotations for the projector average, and arbitrary rotations for
# the others once the retained spectrum is flat.


def test_sign_flips_leave_all_aggregates_unchanged():
    rng = np.random.default_rng(7)
    summaries = _random_summaries(rng, 10, 3, 4)
    flipped = SpectralPair(summaries.vectors * rng.choice([-1.0, 1.0], size=(4, 1, 3)),
                           summaries.values)
    idx = IndexSet.canonical(3)
    assert _projector_gap(lrc_dpca(summaries, idx).basis, lrc_dpca(flipped, idx).basis) < 1e-10
    assert _projector_gap(dpca_fan(summaries).basis, dpca_fan(flipped).basis) < 1e-10
    assert _projector_gap(dpca_bw(summaries).basis, dpca_bw(flipped).basis) < 1e-10


def _rotated(rng, summaries):
    """Each machine's vectors times its own random K x K rotation."""
    rots = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in summaries.vectors]
    return SpectralPair(summaries.vectors @ np.stack(rots), summaries.values)


def test_rotations_leave_projector_average_unchanged():
    rng = np.random.default_rng(8)
    summaries = _random_summaries(rng, 10, 3, 4)
    rotated = _rotated(rng, summaries)
    assert _projector_gap(dpca_fan(summaries).basis, dpca_fan(rotated).basis) < 1e-10


def test_rotations_with_flat_spectra_leave_all_aggregates_unchanged():
    rng = np.random.default_rng(9)
    summaries = _random_summaries(rng, 10, 3, 4, flat_values=True)
    rotated = _rotated(rng, summaries)
    idx = IndexSet.canonical(3)
    assert _projector_gap(lrc_dpca(summaries, idx).basis, lrc_dpca(rotated, idx).basis) < 1e-10
    assert _projector_gap(dpca_bw(summaries).basis, dpca_bw(rotated).basis) < 1e-10


# ---------------------------------------------------------------------------
# failure reporting


def test_lrc_dpca_names_offending_machines():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    summaries = _machines([e1, e2], [[1.0], [1.0]])
    with pytest.raises(NotInManifoldError, match=r"element 1: anchor block \(0,\)") as err:
        lrc_dpca(summaries, IndexSet((0,)))
    assert err.value.element == 1


def test_lrc_dpca_checks_the_pivot_rule_once(monkeypatch):
    """karcher_mean owns the chart check of the anchored machines."""
    calls = []
    rule = CholFactor._check_pivots

    def counted(self, scale=None):
        calls.append(len(self))
        return rule(self, scale)

    monkeypatch.setattr(CholFactor, "_check_pivots", counted)
    vectors = [np.array([[0.6], [0.8]]), np.array([[0.8], [0.6]])]
    lrc_dpca(_machines(vectors, [[1.0], [2.0]]), IndexSet((0,)))
    assert calls == [2]


def test_zero_gap_warning_on_collapsed_aggregate():
    e1 = np.array([[1.0], [0.0], [0.0]])
    e2 = np.array([[0.0], [1.0], [0.0]])
    summaries = _machines([e1, e2], [[1.0], [1.0]])
    with pytest.warns(ZeroGapWarning):
        res = dpca_fan(summaries)
    assert_allclose(res.basis.T @ res.basis, np.eye(1), atol=1e-12)


# ---------------------------------------------------------------------------
# anchor-row selection


def test_find_index_identity_frame():
    frame = np.vstack([np.eye(3), np.zeros((4, 3))])
    idx = find_index(frame, np.array([3.0, 2.0, 1.0]))
    assert idx.indices == (0, 1, 2)


def test_find_index_single_column():
    idx = find_index(np.array([[0.0], [1.0]]), np.array([1.0]))
    assert idx.indices == (1,)


def test_find_index_planted_rows():
    frame = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    idx = find_index(frame, np.array([1.0, 1.0]))
    assert idx.indices == (1, 2)


def test_find_index_tie_breaks_to_smallest():
    r = np.sqrt(0.5)
    frame = np.array([[r, r], [r, -r]])
    idx = find_index(frame, np.array([1.0, 1.0]))
    assert idx.indices[0] == 0


def test_find_index_never_reuses_rows():
    rng = np.random.default_rng(10)
    for _ in range(50):
        p, k = 8, 3
        frame = np.linalg.qr(rng.normal(size=(p, k)))[0]
        values = np.sort(rng.uniform(0.5, 2.0, size=k))[::-1]
        idx = find_index(frame, values)
        assert len(set(idx.indices)) == k


def test_find_index_selection_is_nonsingular():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p, k = 10, 4
        frame = np.linalg.qr(rng.normal(size=(p, k)))[0]
        values = np.sort(rng.uniform(0.5, 2.0, size=k))[::-1]
        idx = find_index(frame, values)
        block = (frame * values)[list(idx.indices), :]
        assert np.linalg.svd(block, compute_uv=False)[-1] > 1e-10


def test_find_index_beats_random_subsets():
    # greedy is near-optimal, not optimal: demand it matches or beats a random
    # size-K row subset at least 95% of the time
    rng = np.random.default_rng(12)
    wins = trials = 0
    for _ in range(20):
        p, k = 12, 3
        frame = np.linalg.qr(rng.normal(size=(p, k)))[0]
        values = np.sort(rng.uniform(0.5, 2.0, size=k))[::-1]
        target = frame * values
        idx = find_index(frame, values)
        greedy = np.linalg.svd(target[list(idx.indices), :], compute_uv=False)[-1]
        for _ in range(100):
            rows = rng.choice(p, size=k, replace=False)
            score = np.linalg.svd(target[rows, :], compute_uv=False)[-1]
            trials += 1
            wins += greedy >= score - 1e-12
    assert wins / trials >= 0.95


def test_find_index_degenerate_rows():
    frame = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NotInManifoldError):
        find_index(frame, np.array([1.0, 1.0]))


def test_find_index_shape_checks():
    with pytest.raises(ShapeMismatchError):
        find_index(np.eye(3), np.ones(2))
    with pytest.raises(ShapeMismatchError):
        find_index(np.ones((3, 4)), np.ones(4))


# ---------------------------------------------------------------------------
# end-to-end robustness of row selection + Karcher aggregation


def test_find_index_plus_lrc_succeeds_reliably():
    """Machine-1 row selection keeps lrc_dpca in the manifold >= 99% of trials."""
    p, k, n_machines, n = 50, 5, 10, 300
    cov, _ = spiked_covariance(p, k, RngStream(0, 0))
    failures = 0
    n_trials = 1000
    for trial in range(n_trials):
        gen = RngStream(123, trial).generator()
        covs = [sample_cov(gaussian_samples(cov, n, gen)) for m in range(n_machines)]
        summaries = summarize_covariance(np.stack(covs), k)
        try:
            idx = find_index(summaries.vectors[0], summaries.values[0])
            lrc_dpca(summaries, idx)
        except NotInManifoldError:
            failures += 1
    assert failures <= n_trials // 100, f"{failures} failures in {n_trials} trials"
