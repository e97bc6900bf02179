import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psdk.exceptions import (
    ConfigError,
    NotInManifoldError,
    PsdkError,
    ShapeMismatchError,
    SingularMatrixError,
)
from psdk.dpca import find_index, full_pca, lrc_dpca, summarize_covariance
from psdk.manifold import exp_factor, factorize, log_factor, membership
from psdk.models import (
    derive_stream_id,
    extrinsic_samples,
    factor_noise_samples,
    gaussian_svd_signal,
    intrinsic_samples,
    spiked_covariance,
)
from psdk.perturbation import (
    eigvec_first_order,
    equivalent_factor_noise,
    factor_alignment,
    karcher_factor_first_order,
    lq_first_order,
    skew_generator,
)
from psdk.linalg import (
    CholFactor,
    _solve_lower,
    IndexSet,
    SpectralPair,
    anchor,
    check_symmetric,
    eigh_topk,
    lq_givens,
    pivot_threshold,
    procrustes_sign,
    projector_distance,
    reduced_cholesky,
    support_mask,
)


def _random_orthogonal(gen, k):
    mat = gen.normal(size=(k, k))
    q, r = np.linalg.qr(mat)
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# IndexSet / support mask


def test_index_set_basic():
    idx = IndexSet((2, 0, 1))
    assert tuple(idx) == (2, 0, 1)
    assert idx[0] == 2
    assert len(idx) == 3
    assert IndexSet.canonical(3) == IndexSet((0, 1, 2))


def test_index_set_rejects_bad_input():
    with pytest.raises(ShapeMismatchError):
        IndexSet(())
    with pytest.raises(ShapeMismatchError):
        IndexSet((0, 0))
    with pytest.raises(ShapeMismatchError):
        IndexSet((-1, 2))
    with pytest.raises(ShapeMismatchError):
        IndexSet((0, 5)).validate_for(4)


def test_index_set_order_matters():
    assert IndexSet((0, 1)) != IndexSet((1, 0))


def test_support_mask_shape_and_zeros():
    # anchor rows lose their above-diagonal positions, nothing else
    mask = support_mask(4, IndexSet((2, 0)))
    expected = np.ones((4, 2), dtype=bool)
    expected[2, 1] = False
    assert np.array_equal(mask, expected)
    assert support_mask(3, IndexSet.canonical(3)).sum() == 3 + 3


# ---------------------------------------------------------------------------
# CholFactor validation


def test_chol_factor_validate_accepts_anchored_structure():
    entries = np.array([[1.0, 0.0], [2.0, 3.0], [4.0, 5.0]])
    factor = CholFactor(entries, IndexSet((0, 1))).validate()
    assert_allclose(factor.anchor_block(), [[1.0, 0.0], [2.0, 3.0]])
    assert factor.p == 3 and factor.rank == 2


def test_chol_factor_validate_rejects_upper_entries():
    entries = np.array([[1.0, 0.5], [2.0, 3.0]])
    with pytest.raises(ShapeMismatchError):
        CholFactor(entries, IndexSet((0, 1))).validate()


def test_chol_factor_validate_rejects_nonpositive_diagonal():
    entries = np.array([[1.0, 0.0], [2.0, -3.0]])
    with pytest.raises(NotInManifoldError):
        CholFactor(entries, IndexSet((0, 1))).validate()
    # in a stack, one bad element is enough
    good = np.array([[1.0, 0.0], [2.0, 3.0]])
    with pytest.raises(NotInManifoldError):
        CholFactor(np.stack([good, entries]), IndexSet((0, 1))).validate()
    with pytest.raises(ShapeMismatchError, match="not lower triangular"):
        CholFactor(np.stack([good, good.T]), IndexSet((0, 1))).validate()


def test_single_factor_is_not_a_sequence():
    """A p x K factor has no len(), no elements and is truthy, as before stacks."""
    factor = CholFactor(np.array([[1.0], [0.5]]), IndexSet((0,)))
    with pytest.raises(TypeError):
        len(factor)
    with pytest.raises(TypeError):
        factor[0]
    with pytest.raises(TypeError):
        list(factor)
    assert bool(factor) is True


def test_stack_indexes_and_iterates_over_its_leading_axis():
    entries = np.tril(np.arange(1.0, 13.0).reshape(3, 2, 2))
    stack = CholFactor(entries, IndexSet((0, 1))).validate()
    assert len(stack) == 3 and bool(stack) is True
    assert (stack.p, stack.rank) == (2, 2)
    assert np.array_equal(stack[1].entries, entries[1])
    assert stack[1].index_set == stack.index_set
    elements = list(stack)
    assert len(elements) == 3
    for m, element in enumerate(elements):
        assert element.entries.shape == (2, 2)
        assert np.array_equal(element.entries, entries[m])
        assert np.array_equal(element.matrix, stack.matrix[m])


# ---------------------------------------------------------------------------
# reduced_cholesky


def test_reduced_cholesky_2x2_canonical():
    mat = np.array([[4.0, 2.0], [2.0, 1.0]])
    factor = reduced_cholesky(mat, IndexSet((0,)))
    assert_allclose(factor.entries, [[2.0], [1.0]])


def test_reduced_cholesky_2x2_second_row_anchor():
    # same rank-1 matrix anchored at the other row
    mat = np.array([[1.0, 2.0], [2.0, 4.0]])
    factor = reduced_cholesky(mat, IndexSet((1,)))
    assert_allclose(factor.entries, [[1.0], [2.0]])


def test_reduced_cholesky_3x3_noncanonical():
    target = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    mat = target @ target.T
    factor = reduced_cholesky(mat, IndexSet((0, 2)))
    assert_allclose(factor.entries, target, atol=1e-14)
    # anchor rows are written back exactly: structural zeros are exact zeros
    assert factor.entries[0, 1] == 0.0
    assert factor.entries[2, 0] == 0.0


def test_reduced_cholesky_roundtrip_random():
    """Factor -> matrix -> factor recovers the factor (uniqueness)."""
    gen = np.random.default_rng(42)
    for _ in range(50):
        p = int(gen.integers(2, 51))
        k = int(gen.integers(1, min(p, 8) + 1))
        rows = tuple(int(i) for i in gen.permutation(p)[:k])
        idx = IndexSet(rows)
        entries = gen.normal(size=(p, k))
        anchor = idx.as_array()
        entries[anchor, :] = np.tril(entries[anchor, :])
        entries[anchor, np.arange(k)] = 0.5 + gen.uniform(0.0, 2.0, size=k)
        mat = entries @ entries.T
        back = reduced_cholesky(0.5 * (mat + mat.T), idx)
        assert np.max(np.abs(back.entries - entries)) < 1e-8


def test_reduced_cholesky_rejects_singular_anchor():
    mat = np.diag([0.0, 1.0, 1.0])
    with pytest.raises(NotInManifoldError):
        reduced_cholesky(mat, IndexSet((0, 1)))


def test_reduced_cholesky_rejects_asymmetric():
    mat = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ShapeMismatchError):
        reduced_cholesky(mat, IndexSet((0,)))


def test_reduced_cholesky_rejects_bad_rank():
    with pytest.raises(ShapeMismatchError):
        reduced_cholesky(np.eye(3), IndexSet((0, 1, 2, 3)))


# ---------------------------------------------------------------------------
# anchor and the pivot rule


def test_anchor_reduces_any_frame():
    gen = np.random.default_rng(41)
    for _ in range(50):
        p = int(gen.integers(2, 30))
        k = int(gen.integers(1, min(p, 6) + 1))
        idx = IndexSet(tuple(int(i) for i in gen.permutation(p)[:k]))
        frame = gen.normal(size=(p, k))
        factor = anchor(frame, idx).validate()
        assert factor.index_set == idx
        assert_allclose(factor.entries @ factor.entries.T, frame @ frame.T, atol=1e-12)
        reference = reduced_cholesky(frame @ frame.T, idx)
        assert_allclose(factor.entries, reference.entries, atol=1e-8)


def test_pivot_rule_of_a_stack_names_the_first_failing_element():
    good = np.array([[1.0, 0.0], [0.5, 1.0], [0.2, 0.3]])
    thin = np.array([[1.0, 0.0], [0.5, 1e-7], [0.2, 0.3]])
    idx = IndexSet((0, 1))
    assert CholFactor(np.stack([good, good]), idx).pivot_failure() is None
    stack = CholFactor(np.stack([good, thin, good, thin]), idx)
    single = CholFactor(thin, idx).pivot_failure()
    assert stack.pivot_failure() == f"element 1: {single}"
    bad, reason = stack._pivot_rule()
    assert bad.tolist() == [1, 3] and reason == single
    nan = good.copy()
    nan[2, 0] = np.nan
    assert (CholFactor(np.stack([good, nan, thin]), idx).pivot_failure()
            == "element 1: non-finite factor entry")


def test_anchor_tolerates_singular_block():
    frame = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.5], [0.3, 1.0]])
    factor = anchor(frame, IndexSet((0, 1)))
    assert np.all(factor.anchor_block() == 0.0)
    assert "anchor block (0, 1) singular" in factor.pivot_failure()
    assert anchor(frame, IndexSet((2, 3))).pivot_failure() is None


def test_anchor_shape_checks():
    with pytest.raises(ShapeMismatchError):
        anchor(np.ones((4, 2)), IndexSet((0,)))
    with pytest.raises(ShapeMismatchError):
        anchor(np.ones((4, 2)), IndexSet((0, 4)))
    with pytest.raises(ShapeMismatchError):
        anchor(np.ones(4), IndexSet((0,)))
    with pytest.raises(ShapeMismatchError):
        anchor(np.ones((2, 4, 2)), IndexSet((0,)))
    with pytest.raises(ShapeMismatchError):
        anchor(np.ones((1, 2, 4, 2)), IndexSet((0, 1)))


def test_matrix_is_the_symmetrized_gram():
    factor = CholFactor(np.array([[2.0, 0.0], [1.0, 3.0], [-1.0, 0.5]]), IndexSet((0, 1)))
    assert_allclose(factor.matrix, factor.entries @ factor.entries.T, atol=0.0)
    assert np.array_equal(factor.matrix, factor.matrix.T)


def test_pivot_rule_agrees_with_reduced_cholesky():
    """A factor fails the pivot rule exactly when reduced_cholesky rejects N @ N.T."""
    idx = IndexSet((0, 1))
    for r in np.logspace(-8, -2, 61):
        frame = np.array([[1.0, 0.0], [1.0, r], [0.5, 0.5], [2.0, -1.0]])
        factor = anchor(frame, idx)
        pivot = factor.entries[1, 1] ** 2
        tau = 1e-10 * np.max(np.sum(frame**2, axis=1))
        if abs(pivot / tau - 1.0) < 1e-3:
            continue  # roundoff decides at the threshold itself
        try:
            reduced_cholesky(frame @ frame.T, idx)
            accepted = True
        except NotInManifoldError:
            accepted = False
        assert (factor.pivot_failure() is None) == accepted, r


def test_pivot_rule_rejects_non_finite():
    entries = np.array([[1.0, 0.0], [0.5, 1.0], [np.nan, 0.0]])
    assert "non-finite" in CholFactor(entries, IndexSet((0, 1))).pivot_failure()


# ---------------------------------------------------------------------------
# non-finite input at the public boundary

_NON_FINITE = {
    "nan_outside_anchor": np.array([[2.0, 1.0], [1.0, np.nan]]),
    "nan_off_diagonal": np.array([[2.0, np.nan], [np.nan, 2.0]]),
    "inf_diagonal": np.array([[np.inf, 1.0], [1.0, 2.0]]),
}

_ENTRY_POINTS = {
    "reduced_cholesky": lambda mat: reduced_cholesky(mat, IndexSet((0,))),
    "eigh_topk": lambda mat: eigh_topk(mat, 1, require_positive=True),
    "summarize_covariance": lambda mat: summarize_covariance(mat, 1),
    "find_index": lambda mat: find_index(mat, np.ones(2)),
    "lq_givens": lq_givens,
    "procrustes_sign": procrustes_sign,
    "projector_distance": lambda mat: projector_distance(mat, np.eye(2)),
    "skew_generator": lambda mat: skew_generator(np.eye(2), mat),
    "lq_first_order": lambda mat: lq_first_order(np.eye(2), np.eye(2), mat),
    "karcher_factor_first_order": lambda mat: karcher_factor_first_order(
        CholFactor(np.eye(2), IndexSet((0, 1))), [mat]),
    "eigvec_first_order": lambda mat: eigvec_first_order(
        np.array([2.0, 1.0]), mat, 1, np.zeros((2, 2))),
    "factor_alignment": lambda mat: factor_alignment(
        CholFactor(np.eye(2), IndexSet((0, 1))), SpectralPair(mat, np.ones(2))),
    # Stacks with one non-finite element among finite ones.
    "lq_givens_stack": lambda mat: lq_givens(np.stack([np.eye(2), mat, np.eye(2)])),
    "skew_generator_stack": lambda mat: skew_generator(np.eye(2), np.stack([np.eye(2), mat])),
    "lq_first_order_stack": lambda mat: lq_first_order(
        np.eye(2), np.eye(2), np.stack([np.eye(2), mat])),
    "karcher_factor_first_order_stack": lambda mat: karcher_factor_first_order(
        CholFactor(np.eye(2), IndexSet((0, 1))), np.stack([np.eye(2), mat])[:, None]),
}


@pytest.mark.parametrize("bad", sorted(_NON_FINITE))
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_non_finite_input_raises(entry, bad):
    with pytest.raises(ShapeMismatchError, match="must be finite"):
        _ENTRY_POINTS[entry](_NON_FINITE[bad])


_FRAME = np.array([[1.0, 0.0], [0.5, 1.0], [0.2, 0.3]])
_NOT_A_FACTOR = "is a ndarray, not a CholFactor; factor a p x p matrix with factorize"

_WRONG_FORM = {
    "log_factor": (lambda: log_factor(_FRAME), _NOT_A_FACTOR),
    "intrinsic_samples": (lambda: intrinsic_samples(_FRAME, 0.1, 2, 0), _NOT_A_FACTOR),
    "extrinsic_samples": (lambda: extrinsic_samples(_FRAME, 0.1, 2, 0), _NOT_A_FACTOR),
    "factor_noise_samples": (
        lambda: factor_noise_samples(_FRAME, np.zeros((2, 3, 2))), _NOT_A_FACTOR),
    "karcher_factor_first_order": (
        lambda: karcher_factor_first_order(_FRAME, np.zeros((2, 3, 2))), _NOT_A_FACTOR),
    "factor_alignment": (
        lambda: factor_alignment(_FRAME, SpectralPair(np.eye(3)[:, :2], np.ones(2))),
        _NOT_A_FACTOR),
    "factor_alignment_tuple_pair": (
        lambda: factor_alignment(CholFactor(_FRAME, IndexSet((0, 1))),
                                 (np.eye(3)[:, :2], np.ones(2))),
        "pair is a tuple, not a SpectralPair"),
    "factor_alignment_values_of_another_k": (
        lambda: factor_alignment(CholFactor(_FRAME, IndexSet((0, 1))),
                                 SpectralPair(np.eye(3)[:, :2], np.ones(3))),
        r"values shape \(3,\) do not match factor shape \(3, 2\)"),
    "eigvec_first_order_2d_values": (
        lambda: eigvec_first_order(np.array([[2.0], [1.0]]), np.eye(2), 1, np.zeros((2, 2))),
        r"does not match eigenvalues of shape \(2, 1\)"),
    "equivalent_factor_noise_non_square_alignment": (
        lambda: equivalent_factor_noise(np.diag([3.0, 2.0, 1.0]), np.diag([3.0, 2.0, 1.0]),
                                        np.ones((2, 1))),
        r"alignment of shape \(2, 1\) is not K x K"),
}


@pytest.mark.parametrize("entry", sorted(_WRONG_FORM))
def test_wrong_form_input_raises(entry):
    """An ndarray where a CholFactor is due, a pair that is no SpectralPair
    or has values of another K, 2-d eigenvalues or a non-square alignment
    raise ShapeMismatchError at the public edge: never a raw AttributeError
    or ValueError, and never a result of the wrong shape."""
    call, message = _WRONG_FORM[entry]
    with pytest.raises(ShapeMismatchError, match=message):
        call()


# ---------------------------------------------------------------------------
# non-integer ranks, sizes, rows and labels at the public boundary

_NON_INTEGER = {
    "eigh_topk": lambda: eigh_topk(np.eye(3), 1.5),
    "summarize_covariance": lambda: summarize_covariance(np.eye(3), 2.0),
    "spiked_covariance_rank": lambda: spiked_covariance(5, 2.0, 0),
    "spiked_covariance_p": lambda: spiked_covariance(5.0, 2, 0),
    "gaussian_svd_signal_rank": lambda: gaussian_svd_signal(4, 2.0, 0),
    "gaussian_svd_signal_p": lambda: gaussian_svd_signal(4.0, 2, 0),
    "eigvec_first_order": lambda: eigvec_first_order(
        np.array([3.0, 2.0, 1.0]), np.eye(3), 1.5, np.zeros((3, 3))),
    "full_pca": lambda: full_pca(np.eye(3)[None], 1.5),
    "index_set_floats": lambda: IndexSet((0.7, 2.9)),
    "index_set_strings": lambda: IndexSet(("a",)),
    "index_set_scalar": lambda: IndexSet(3),
    "derive_stream_id": lambda: derive_stream_id(1.5),
}


@pytest.mark.parametrize("entry", sorted(_NON_INTEGER))
def test_non_integer_input_raises(entry):
    """A float, string or scalar where an integer or a sequence of them is
    due raises ConfigError at its owner: never a raw TypeError or
    ValueError, and never a silent truncation."""
    with pytest.raises(ConfigError, match="must be an integer|must be a sequence"):
        _NON_INTEGER[entry]()


def _index_set_entry_points():
    """(name, call) for every public function that takes an index set; each
    call maps the index set to something comparable."""
    gen = np.random.default_rng(31)
    frame = gen.normal(size=(6, 2))
    mat = frame @ frame.T
    pair = summarize_covariance(np.stack([mat + 0.1 * np.eye(6)] * 3), 2)
    logs = log_factor(anchor(frame, IndexSet((3, 1))))
    return {
        "anchor": lambda rows: anchor(frame, rows).entries,
        "support_mask": lambda rows: support_mask(6, rows),
        "reduced_cholesky": lambda rows: reduced_cholesky(mat, rows).entries,
        "factorize": lambda rows: factorize(mat, rows).entries,
        "membership": lambda rows: membership(mat, rows)[0],
        "exp_factor": lambda rows: exp_factor(logs, rows).entries,
        "lrc_dpca": lambda rows: lrc_dpca(pair, rows).basis,
    }


@pytest.mark.parametrize("entry", sorted(_index_set_entry_points()))
def test_an_index_set_may_be_a_sequence_of_rows(entry):
    """A tuple of rows acts as its IndexSet at every public edge; a value
    that is no sequence of rows raises a PsdkError, never AttributeError."""
    call = _index_set_entry_points()[entry]
    assert np.array_equal(call((3, 1)), call(IndexSet((3, 1))))
    for bad in (3, None, (1.5, 2)):
        with pytest.raises(PsdkError):
            call(bad)


def test_integer_like_numpy_values_still_pass():
    assert IndexSet(np.array([2, 0])).indices == (2, 0)
    assert eigh_topk(np.eye(3), np.int64(2)).vectors.shape == (3, 2)
    assert derive_stream_id(np.int64(1), np.uint8(2)) == derive_stream_id(1, 2)


# ---------------------------------------------------------------------------
# lq_givens


def _lq_via_qr(mat):
    """Independent oracle: M = R Q is the transpose of the QR of M.T,
    with signs normalized so the triangular diagonal is positive."""
    q_t, r_t = np.linalg.qr(mat.T)
    tri = r_t.T
    orth = q_t.T
    signs = np.sign(np.diag(tri))
    return tri * signs[None, :], signs[:, None] * orth


def _lq_2x2_closed_form(mat):
    a, b = mat[0, 0], mat[0, 1]
    h = math.hypot(a, b)
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    orth = np.array([[a / h, b / h],
                     [-b / h * np.sign(det), a / h * np.sign(det)]])
    tri = mat @ orth.T
    tri[0, 1] = 0.0
    return tri, orth


def test_lq_identity():
    tri, orth = lq_givens(np.eye(3))
    assert_allclose(tri, np.eye(3))
    assert_allclose(orth, np.eye(3))


def test_lq_antidiagonal():
    # determinant is negative, so the last row takes the reflection
    tri, orth = lq_givens(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(tri, np.eye(2), atol=1e-15)
    assert_allclose(orth, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_lq_negative_diagonal_input():
    tri, orth = lq_givens(np.diag([2.0, -3.0]))
    assert_allclose(tri, np.diag([2.0, 3.0]))
    assert_allclose(orth, np.diag([1.0, -1.0]))


def test_lq_matches_2x2_closed_form():
    gen = np.random.default_rng(7)
    for _ in range(200):
        mat = gen.normal(size=(2, 2))
        if abs(np.linalg.det(mat)) < 1e-3:
            continue
        tri, orth = lq_givens(mat)
        tri_ref, orth_ref = _lq_2x2_closed_form(mat)
        assert_allclose(tri, tri_ref, atol=1e-12)
        assert_allclose(orth, orth_ref, atol=1e-12)


def test_lq_matches_qr_oracle():
    gen = np.random.default_rng(11)
    for _ in range(100):
        k = int(gen.integers(2, 9))
        mat = gen.normal(size=(k, k))
        tri, orth = lq_givens(mat)
        tri_ref, orth_ref = _lq_via_qr(mat)
        assert np.max(np.abs(tri - tri_ref)) < 1e-10
        assert np.max(np.abs(orth - orth_ref)) < 1e-10


def test_lq_exactness_properties():
    """Reconstruction and orthogonality below 1e-10 in max-norm."""
    gen = np.random.default_rng(2)
    for _ in range(100):
        k = int(gen.integers(1, 9))
        mat = gen.normal(size=(k, k))
        tri, orth = lq_givens(mat)
        assert np.max(np.abs(tri @ orth - mat)) < 1e-10 * max(1.0, np.max(np.abs(mat)))
        assert np.max(np.abs(orth @ orth.T - np.eye(k))) < 1e-10
        assert np.max(np.abs(np.triu(tri, 1))) == 0.0
        assert np.all(np.diag(tri) > 0.0)


def test_lq_rejects_singular():
    with pytest.raises(SingularMatrixError):
        lq_givens(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_lq_rejects_nonsquare():
    with pytest.raises(ShapeMismatchError):
        lq_givens(np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        lq_givens(np.ones((2, 2, 3)))
    with pytest.raises(ShapeMismatchError):
        lq_givens(np.ones((1, 2, 2, 2)))


def test_lq_singular_message_of_a_single_matrix_names_no_element():
    with pytest.raises(SingularMatrixError, match="^matrix numerically singular"):
        lq_givens(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_lq_stack_names_its_first_singular_element():
    gen = np.random.default_rng(31)
    stack = gen.normal(size=(5, 3, 3))
    stack[2, 2] = stack[2, 0] + stack[2, 1]
    stack[4, :, 1] = 0.0
    with pytest.raises(SingularMatrixError, match="^element 2: matrix numerically singular"):
        lq_givens(stack)


def test_lq_stack_checks_each_element_at_its_own_scale():
    """A well-conditioned small element passes beside a huge one; measured
    against the stack's max-norm it would count as singular."""
    gen = np.random.default_rng(32)
    stack = np.stack([1e12 * np.eye(3), 1e-3 * gen.normal(size=(3, 3))])
    tri, orth = lq_givens(stack)
    assert_allclose(tri @ orth, stack, rtol=1e-12, atol=1e-17)


# ---------------------------------------------------------------------------
# _solve_lower


@pytest.mark.parametrize("k", range(1, 7))
def test_solve_lower_matches_dense_solve(k):
    gen = np.random.default_rng(k)
    tril = np.tril(gen.normal(size=(k, k)), -1) + np.diag(1.0 + gen.uniform(size=k))
    rhs = gen.normal(size=(k, 9))
    assert_allclose(_solve_lower(tril, rhs), np.linalg.solve(tril, rhs),
                    rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k", range(1, 7))
def test_solve_lower_stacked_rhs_is_bit_identical_per_element(k):
    gen = np.random.default_rng(10 + k)
    tril = np.tril(gen.normal(size=(k, k)), -1) + np.diag(1.0 + gen.uniform(size=k))
    rhs = gen.normal(size=(4, k, k))
    assert np.array_equal(_solve_lower(tril, rhs),
                          np.stack([_solve_lower(tril, r) for r in rhs]))


# ---------------------------------------------------------------------------
# eigh_topk


def test_eigh_topk_sorted_descending():
    pair = eigh_topk(np.diag([3.0, 1.0, 2.0]), 2)
    assert_allclose(pair.values, [3.0, 2.0])
    assert_allclose(np.abs(pair.vectors), [[1, 0], [0, 0], [0, 1]], atol=1e-14)


def test_eigh_topk_sign_convention():
    # the largest-magnitude entry of each eigenvector comes out positive
    v = np.array([-0.8, 0.6])
    pair = eigh_topk(np.outer(v, v), 1)
    assert_allclose(pair.vectors[:, 0], [0.8, -0.6], atol=1e-14)


def test_eigh_topk_sign_tie_breaks_low_row():
    v = np.array([1.0, -1.0]) / math.sqrt(2)
    pair = eigh_topk(np.outer(v, v), 1)
    assert pair.vectors[0, 0] > 0


def test_eigh_topk_orthonormal_columns():
    gen = np.random.default_rng(3)
    mat = gen.normal(size=(10, 10))
    mat = mat + mat.T
    pair = eigh_topk(mat, 4)
    assert_allclose(pair.vectors.T @ pair.vectors, np.eye(4), atol=1e-12)
    assert np.all(np.diff(pair.values) <= 1e-12)


def test_eigh_topk_require_positive():
    with pytest.raises(SingularMatrixError):
        eigh_topk(np.diag([1.0, 0.0]), 2, require_positive=True)
    pair = eigh_topk(np.diag([1.0, 0.0]), 1, require_positive=True)
    assert_allclose(pair.values, [1.0])


def _sign_normalized(vectors):
    # the eigh_topk convention: the largest-magnitude entry of each column > 0
    lead = np.argmax(np.abs(vectors), axis=0)
    return vectors * np.sign(vectors[lead, np.arange(vectors.shape[1])])


@pytest.mark.parametrize("rank", [1, 7])
def test_eigh_topk_matches_full_eigh_at_rank_1_and_p(rank):
    gen = np.random.default_rng(8)
    mat = gen.normal(size=(7, 7))
    mat = mat + mat.T
    pair = eigh_topk(mat, rank)
    values, vectors = np.linalg.eigh(mat)
    assert pair.values.shape == (rank,) and pair.vectors.shape == (7, rank)
    assert_allclose(pair.values, values[::-1][:rank], rtol=1e-12, atol=1e-12)
    assert_allclose(pair.vectors, _sign_normalized(vectors[:, ::-1][:, :rank]),
                    atol=1e-10)


def test_eigh_topk_rejects_asymmetric():
    with pytest.raises(ShapeMismatchError):
        eigh_topk(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


# ---------------------------------------------------------------------------
# procrustes_sign


def test_procrustes_diagonal():
    assert_allclose(procrustes_sign(np.diag([0.5, -0.2])), np.diag([1.0, -1.0]),
                    atol=1e-14)


def test_procrustes_antidiagonal():
    out = procrustes_sign(np.array([[0.0, 2.0], [3.0, 0.0]]))
    assert_allclose(out, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_procrustes_is_nearest_orthogonal():
    """procrustes_sign minimizes ||O - mat||_F over orthogonal O."""
    gen = np.random.default_rng(17)
    for _ in range(10):
        mat = gen.normal(size=(3, 3))
        if abs(np.linalg.det(mat)) < 1e-3:
            continue
        best = procrustes_sign(mat)
        base = np.linalg.norm(best - mat)
        for _ in range(100):
            cand = _random_orthogonal(gen, 3)
            if gen.uniform() < 0.5:
                cand[:, 0] = -cand[:, 0]  # cover both determinant signs
            assert base <= np.linalg.norm(cand - mat) + 1e-12


def test_procrustes_orthogonal_output():
    gen = np.random.default_rng(23)
    mat = gen.normal(size=(5, 5))
    out = procrustes_sign(mat)
    assert_allclose(out @ out.T, np.eye(5), atol=1e-12)


def test_procrustes_rejects_singular():
    with pytest.raises(SingularMatrixError):
        procrustes_sign(np.array([[1.0, 0.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# projector_distance


def test_projector_distance_zero_on_rotation():
    gen = np.random.default_rng(5)
    basis = np.linalg.qr(gen.normal(size=(8, 3)))[0]
    rot = _random_orthogonal(gen, 3)
    assert projector_distance(basis, basis @ rot) < 1e-12


def test_projector_distance_orthogonal_subspaces():
    a = np.eye(4)[:, :2]
    b = np.eye(4)[:, 2:]
    assert_allclose(projector_distance(a, b), 2.0)


def test_projector_distance_triangle_inequality():
    gen = np.random.default_rng(31)
    for _ in range(20):
        bases = [np.linalg.qr(gen.normal(size=(6, 2)))[0] for _ in range(3)]
        d01 = projector_distance(bases[0], bases[1])
        d12 = projector_distance(bases[1], bases[2])
        d02 = projector_distance(bases[0], bases[2])
        assert d02 <= d01 + d12 + 1e-12


def test_projector_distance_shape_checks():
    with pytest.raises(ShapeMismatchError):
        projector_distance(np.ones((4, 2)), np.ones((5, 2)))
    with pytest.raises(ShapeMismatchError):
        projector_distance(np.ones((2, 4)), np.ones((2, 4)))


# ---------------------------------------------------------------------------
# misc


def test_pivot_threshold_scales_with_matrix():
    assert pivot_threshold(np.zeros((2, 2))) == 0.0
    assert pivot_threshold(np.diag([2.0, 1.0])) == pytest.approx(2e-10)


def test_check_symmetric_tolerance():
    mat = np.array([[1.0, 1.0 + 1e-12], [1.0, 1.0]])
    check_symmetric(mat)
    with pytest.raises(ShapeMismatchError):
        check_symmetric(np.array([[1.0, 2.0], [1.0, 1.0]]))
