"""Property tests for `eigh_topk` on stacks, against `np.linalg.eigh`.

Hypothesis picks the sizes, the kinds of spectrum and the seeds; each
matrix is planted as U diag(lambda) U.T from a seeded orthogonal U (or a
normalized Hadamard basis, whose entries all tie in magnitude). The kinds:

* "separated": the top `rank` values in [1, 4], the rest in [-0.01, 0.01],
  which the subspace iteration certifies;
* "near": lambda_{K+1} = lambda_K (1 - delta) with delta in [1e-6, 1e-2],
  which it cannot certify within its budget, so `np.linalg.eigh` runs;
* rank == p, with a positive spectrum (certified) or an indefinite one
  (not certified: its smallest value is negative).

Values must agree within 1e-12 relative, projectors within 1e-10, every
vector must follow the sign and tie rule, and each element of a stack must
give, bit for bit, what it gives as a 2-d call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdk.dpca import summarize_covariance
from psdk.exceptions import ShapeMismatchError, SingularMatrixError
from psdk.linalg import SIGN_TIE_REL, eigh_topk

_settings = settings(max_examples=60, deadline=None, derandomize=True)


def _basis(gen, p, hadamard):
    if hadamard:
        basis = np.ones((1, 1))
        while basis.shape[0] < p:
            basis = np.block([[basis, basis], [basis, -basis]])
        return basis / np.sqrt(p)
    orth, upper = np.linalg.qr(gen.normal(size=(p, p)))
    return orth * np.sign(np.diag(upper))


def _planted(seed, p, rank, kind, hadamard=False):
    gen = np.random.default_rng(seed)
    if kind == "full":
        spectrum = gen.uniform(1.0, 4.0, size=p)
    elif kind == "indefinite":
        spectrum = gen.uniform(-4.0, 4.0, size=p)
        spectrum[0] = -1.0
    else:
        top = gen.uniform(1.0, 4.0, size=rank)
        rest = gen.uniform(-0.01, 0.01, size=p - rank)
        if kind == "near":
            rest[0] = top.min() * (1.0 - 10.0 ** gen.uniform(-6.0, -2.0))
        spectrum = np.concatenate([top, rest])
    basis = _basis(gen, p, hadamard)
    mat = (basis * spectrum) @ basis.T
    return 0.5 * (mat + mat.T)


def _check_against_eigh(mat, values, vectors):
    rank = values.shape[-1]
    want_values, want_vectors = np.linalg.eigh(mat)
    want_values = want_values[::-1][:rank]
    want_vectors = want_vectors[:, ::-1][:, :rank]
    scale = np.max(np.abs(want_values))
    assert np.all(np.abs(values - want_values) <= 1e-12 * np.maximum(np.abs(want_values), scale))
    projector = vectors @ vectors.T
    assert np.max(np.abs(projector - want_vectors @ want_vectors.T)) <= 1e-10
    # the sign and tie rule: among the entries of largest magnitude (ties
    # within SIGN_TIE_REL), the one in the lowest row is positive
    mags = np.abs(vectors)
    leads = np.argmax(mags >= (1.0 - SIGN_TIE_REL) * mags.max(axis=0), axis=0)
    assert np.all(vectors[leads, np.arange(rank)] > 0.0)


class _EighSpy:
    """Counts the input matrices that reach `np.linalg.eigh` themselves (the
    fallback), as opposed to the Rayleigh-Ritz projections of the iteration."""

    def __init__(self, mats):
        self.mats, self.full, self._eigh = mats, 0, np.linalg.eigh

    def __call__(self, arg):
        for mat in np.reshape(arg, (-1,) + np.shape(arg)[-2:]):
            self.full += any(np.array_equal(mat, m) for m in self.mats)
        return self._eigh(arg)


def _solve(mats, rank):
    spy = _EighSpy(mats)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigh", spy)
        pair = eigh_topk(mats, rank)
    return pair, spy.full


@st.composite
def stacks(draw):
    """(p, rank, kinds, seeds, hadamard) for a stack mixing both kinds."""
    hadamard = draw(st.booleans())
    p = draw(st.sampled_from([2, 4, 8, 16])) if hadamard else draw(st.integers(2, 24))
    rank = draw(st.integers(1, p - 1))
    count = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["separated", "near"]), min_size=count, max_size=count))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=count, max_size=count))
    return p, rank, kinds, seeds, hadamard


@_settings
@given(stacks())
def test_stacked_eigh_topk_matches_eigh_on_planted_spectra(case):
    p, rank, kinds, seeds, hadamard = case
    mats = np.stack([_planted(s, p, rank, k, hadamard) for s, k in zip(seeds, kinds)])
    pair, fallbacks = _solve(mats, rank)
    assert pair.vectors.shape == (len(mats), p, rank) and pair.values.shape == (len(mats), rank)
    # separated elements are certified, near-degenerate ones fall back
    assert fallbacks == kinds.count("near")
    for m, mat in enumerate(mats):
        _check_against_eigh(mat, pair.values[m], pair.vectors[m])
        single = eigh_topk(mat, rank)
        assert np.array_equal(single.values, pair.values[m])
        assert np.array_equal(single.vectors, pair.vectors[m])
        one = eigh_topk(mats[m:m + 1], rank)
        assert np.array_equal(one.values[0], single.values)
        assert np.array_equal(one.vectors[0], single.vectors)


@_settings
@given(st.integers(2, 12),
       st.lists(st.sampled_from(["full", "indefinite"]), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_full_rank_requests_match_eigh(p, kinds, seed):
    """rank == p: a positive spectrum is certified, an indefinite one (whose
    smallest value is negative, below the tail bound) is not."""
    mats = np.stack([_planted(seed + m, p, p, kind) for m, kind in enumerate(kinds)])
    pair, fallbacks = _solve(mats, p)
    assert fallbacks == kinds.count("indefinite")
    for m, mat in enumerate(mats):
        _check_against_eigh(mat, pair.values[m], pair.vectors[m])


def test_hadamard_ties_give_a_positive_first_row():
    mat = _planted(3, 8, 3, "separated", hadamard=True)
    pair = eigh_topk(np.stack([mat, mat]), 3)
    assert np.all(pair.vectors[:, 0, :] > 0.0)


def test_require_positive_names_the_first_failing_element():
    good = np.diag([3.0, 2.0, 1.0])
    bad = np.diag([3.0, 0.0, 0.0])
    with pytest.raises(SingularMatrixError) as err:
        eigh_topk(np.stack([good, bad, bad]), 2, require_positive=True)
    assert str(err.value) == "element 1: eigenvalue 2 is 0.000e+00, not strictly positive"
    with pytest.raises(SingularMatrixError) as err:
        summarize_covariance(np.stack([good, good, bad]), 2)
    assert str(err.value).startswith("element 2: eigenvalue 2 is ")


def test_two_dimensional_messages_are_unchanged():
    with pytest.raises(SingularMatrixError) as err:
        eigh_topk(np.diag([1.0, 0.0]), 2, require_positive=True)
    assert str(err.value) == "eigenvalue 2 is 0.000e+00, not strictly positive"
    with pytest.raises(ShapeMismatchError) as err:
        eigh_topk(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
    assert str(err.value) == (
        "matrix is not symmetric: max|A - A.T| = 1.000e+00 (tolerance 1.000e-08)"
    )


def test_stack_input_checks_name_the_element():
    good = np.eye(3)
    skew = np.eye(3)
    skew[0, 1] = 1.0
    with pytest.raises(ShapeMismatchError, match=r"^element 1: matrix is not symmetric"):
        eigh_topk(np.stack([good, skew]), 1)
    nan = np.eye(3)
    nan[2, 2] = np.nan
    with pytest.raises(ShapeMismatchError, match="must be finite"):
        eigh_topk(np.stack([good, nan]), 1)
    for shape in [(0, 3, 3), (2, 3, 4), (2, 2, 3, 3)]:
        with pytest.raises(ShapeMismatchError):
            eigh_topk(np.zeros(shape), 1)
    with pytest.raises(ShapeMismatchError):
        eigh_topk(np.stack([good, good]), 4)


def test_stacked_summaries_equal_the_per_machine_calls():
    gen = np.random.default_rng(5)
    data = gen.normal(size=(6, 200, 12))
    covs = np.einsum("mni,mnj->mij", data, data) / 200
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    stacked = summarize_covariance(covs, 3)
    for m, cov in enumerate(covs):
        single = summarize_covariance(cov, 3)
        assert np.array_equal(single.vectors, stacked.vectors[m])
        assert np.array_equal(single.values, stacked.values[m])
