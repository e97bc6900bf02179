"""One-shot distributed PCA aggregators and anchor-row selection.

Machines summarize their local sample covariance by its top-K eigenpairs;
M machines' summaries are one stacked `SpectralPair` (vectors (M, p, K),
values (M, K)), which `summarize_covariance` returns for an (M, p, p) stack
and `lrc_dpca`, `dpca_fan` and `dpca_bw` take; their width K is the rank of
every aggregate. Each aggregate gets one decomposition: `lrc_dpca` the SVD
of its p x K Karcher-mean factor, the others one `np.linalg.eigh` of the
mean of F_m F_m.T over an (M, p, w) stack of frames (`_frame_gram`, one
product of the frames side by side). They differ in frames:

* `lrc_dpca`: the Karcher mean, in log-Cholesky coordinates, of each
  machine's frame V diag(values) anchored at the index set (squaring keeps
  the surrogate consistent with a second-moment matrix built from a factor);
* `dpca_fan`: V, averaging the eigenvector projectors (Fan et al. 2019);
* `dpca_bw`: V diag(sqrt(values)), averaging the unsquared surrogates
  (Bhaskara & Wijewardena 2019);
* `euclid_rankk_mean`: the samples' factors, the mean truncated to rank K.

`full_pca` pools the raw covariances, an (M, p, p) stack (the centralized
answer for balanced machines). `find_index` picks anchor rows for the
Karcher aggregation greedily, one column at a time, maximizing the smallest
singular value of the growing anchor block.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NotInManifoldError, ShapeMismatchError, SingularMatrixError, ZeroGapWarning
from .linalg import (IndexSet, SpectralPair, _as_array, _check_rank, _eigh_desc, _sample_stack,
                     _signed, _symmetric_scales, anchor, check_finite, eigh_topk, pivot_threshold)
from .manifold import _chart_factors, karcher_mean


@dataclass(eq=False)
class DpcaResult:
    """Aggregated eigenspace estimate plus bookkeeping."""

    basis: np.ndarray
    method: str
    index_set_used: IndexSet | None = None
    diagnostics: dict = field(default_factory=dict)


def summarize_covariance(cov_hat, rank):
    """Top-`rank` eigenpairs (a SpectralPair) of one machine's covariance
    estimate (p, p), or of each machine's in a stack (M, p, p), computed by
    one stacked `eigh_topk` call; a stack gives one stacked SpectralPair,
    vectors (M, p, rank) and values (M, rank).

    Eigenvalues must be strictly positive (they get squared downstream);
    raises SingularMatrixError otherwise, naming the first failing machine
    of a stack ("element m: ...").
    """
    return eigh_topk(cov_hat, rank, require_positive=True)


def _machine_stack(summaries, caller):
    """The (M, p, K) vectors and (M, K) values, M >= 1 and 1 <= K <= p, of the
    stacked SpectralPair `summaries`, whose width K is the aggregate's rank;
    anything else raises ShapeMismatchError."""
    form = (f"{caller} takes one stacked SpectralPair, vectors (M, p, K) and values "
            "(M, K), as summarize_covariance returns for an (M, p, p) stack")
    if not isinstance(summaries, SpectralPair):
        raise ShapeMismatchError(f"{form}; got a {type(summaries).__name__}")
    vectors = _as_array(f"{form}; its vectors", summaries.vectors, (3,))
    values = _as_array(f"{form}; its values", summaries.values)
    if (not len(vectors) or values.shape != vectors.shape[::2]
            or not 1 <= vectors.shape[2] <= vectors.shape[1]):
        raise ShapeMismatchError(f"{form}; got vectors {vectors.shape}, values {values.shape}")
    return vectors, values


def _frame_gram(frames):
    """The mean of F F.T over the frames F of an (M, p, w) stack, as one
    product G G.T / M of the frames side by side in G (p x Mw)."""
    joined = np.swapaxes(frames, 0, 1).reshape(frames.shape[1], -1)
    return (joined @ joined.T) / len(frames)


def _result(values, vectors, rank, method, n_machines, index_set=None):
    """The leading `rank` of an aggregate's p descending eigenpairs, warning
    on a collapsed eigengap; the basis takes `eigh_topk`'s sign rule."""
    gap = np.inf
    if rank < len(values):
        gap = float(values[rank - 1] - values[rank])
        if gap <= 1e-8 * max(abs(float(values[0])), np.finfo(float).tiny):
            warnings.warn(f"{method}: eigengap below the retained block is {gap:.3e}; "
                          "the returned basis is the deterministic eigensolver output",
                          ZeroGapWarning, stacklevel=3)
    return DpcaResult(_signed(vectors[:, :rank].copy()), method, index_set,
                      {"values": values[:rank].copy(), "gap": gap, "n_machines": n_machines})


def full_pca(covariances, rank):
    """Top-`rank` eigenbasis of the pooled (averaged) covariances, an (M, p, p)
    stack of symmetric matrices, or a sequence of equal-shape ones."""
    covs = _sample_stack(covariances, "full_pca covariances")
    _symmetric_scales(covs)
    _check_rank(rank, covs.shape[-1])
    agg = covs.sum(axis=0) / len(covs)
    return _result(*_eigh_desc(0.5 * (agg + agg.T)), rank, "full", len(covs))


def lrc_dpca(summaries, index_set):
    """Karcher-mean aggregation of the machines' rank-K covariance surrogates.

    Each machine's (V, values) of the stacked SpectralPair `summaries` stands
    for V diag(values)^2 V.T, the factor second-moment matrix consistent with
    its eigenpairs. The frames V diag(values) are anchored at the K-row
    `index_set` as one stack; the rank-K eigenbasis of their Karcher mean N N.T
    is returned, from the SVD of N (eigenvalues past K are exactly 0).

    Raises
    ------
    NotInManifoldError
        From `karcher_mean`, if any anchored factor fails the pivot rule at
        `index_set`; its `element` is the first failing machine.
    """
    vectors, values = _machine_stack(summaries, "lrc_dpca")
    frames = vectors * values[:, None, :]
    factors = anchor(frames, index_set)
    left, sing, _ = np.linalg.svd(karcher_mean(factors).entries, full_matrices=False)
    p, k = frames.shape[1:]
    return _result(np.pad(sing**2, (0, p - k)), left, k, "lrc", len(frames), factors.index_set)


def dpca_fan(summaries):
    """Projector-averaging aggregation: the rank-K eigenbasis of the mean of
    V V.T over the machines of the stacked SpectralPair `summaries`."""
    vectors, _ = _machine_stack(summaries, "dpca_fan")
    return _result(*_eigh_desc(_frame_gram(vectors)), vectors.shape[2], "fan", len(vectors))


def dpca_bw(summaries):
    """Surrogate-averaging aggregation: the rank-K eigenbasis of the mean of
    V diag(values) V.T, unsquared, over the machines of the stacked
    SpectralPair `summaries`.

    Raises SingularMatrixError on a negative eigenvalue."""
    vectors, values = _machine_stack(summaries, "dpca_bw")
    if np.min(values) < 0.0:
        raise SingularMatrixError("dpca_bw needs nonnegative eigenvalues")
    frames = vectors * np.sqrt(values)[:, None, :]
    return _result(*_eigh_desc(_frame_gram(frames)), vectors.shape[2], "bw", len(vectors))


def euclid_rankk_mean(psds):
    """Best rank-K approximation of the arithmetic mean of the inputs.

    Takes what `karcher_mean` takes (a stack, or a sequence of CholFactors)
    but not its pivot rule: the mean of the factors' N N.T is formed from
    the stacked factors. The output is the rank-K truncation's frame
    V sqrt(values), K the factors' rank, anchored at their common K-row index
    set (roundoff-negative values count as zero); no pivot rule is enforced
    on it.
    """
    factors = _chart_factors(psds, "euclid_rankk_mean")
    values, vectors = _eigh_desc(_frame_gram(factors.entries))
    rank = factors.rank
    frame = _signed(vectors[:, :rank]) * np.sqrt(np.maximum(values[:rank], 0.0))
    return anchor(frame, factors.index_set)


def find_index(vectors, values):
    """Greedy anchor-row selection maximizing the smallest singular value.

    Works on the weighted frame T = vectors @ diag(values). Column by column,
    appends the row index (excluding rows already chosen) that maximizes the
    smallest singular value of the growing anchor block T[chosen, :k+1]; ties
    break toward the smallest row index. One row is chosen per column.

    Parameters
    ----------
    vectors : ndarray, shape (p, K), 1 <= K <= p
        Orthonormal leading eigenvectors.
    values : ndarray, shape (K,)
        Matching eigenvalues, descending.

    Returns
    -------
    IndexSet

    Raises
    ------
    NotInManifoldError
        If at some step every candidate score is at or below the pivot
        threshold, i.e. no row choice keeps the anchor block nonsingular.
    ShapeMismatchError
        On inconsistent shapes or a non-finite frame.
    """
    vectors = _as_array("find_index vectors", vectors, (2,))
    values = _as_array("find_index values", values)
    if values.shape != vectors.shape[1:] or not 1 <= len(values) <= len(vectors):
        raise ShapeMismatchError(f"got vectors {vectors.shape} and values {values.shape}")
    p = len(vectors)
    target = vectors * values
    check_finite("find_index frame", target)
    tau = pivot_threshold(target)
    chosen = []
    for k in range(len(values)):
        # one batched SVD scores every candidate: blocks[i] = T[chosen + [i], :k+1]
        blocks = np.concatenate(
            [np.broadcast_to(target[chosen, : k + 1], (p, k, k + 1)),
             target[:, None, : k + 1]], axis=1)
        scores = np.linalg.svd(blocks, compute_uv=False)[:, -1]
        scores[chosen] = -np.inf
        best_row = int(np.argmax(scores))
        if scores[best_row] <= tau:
            raise NotInManifoldError(
                f"no admissible row at column {k}: best score {scores[best_row]:.3e} "
                f"below threshold {tau:.3e}"
            )
        chosen.append(best_row)
    return IndexSet(tuple(chosen))
