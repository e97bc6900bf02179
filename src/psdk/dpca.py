"""One-shot distributed PCA aggregators and anchor-row selection.

Machines summarize their local sample covariance by its top-K eigenpairs;
M machines' summaries are one stacked `SpectralPair` (vectors (M, p, K),
values (M, K)), which `summarize_covariance` returns for an (M, p, p) stack
and `lrc_dpca`, `dpca_fan` and `dpca_bw` take. Every rank-K aggregate is
the mean of F_m F_m.T over an (M, p, w) stack of frames, formed by
`_frame_gram` as one product of the frames side by side, so no per-machine
p x p matrix exists. The aggregators differ in the frames:

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
from .linalg import (IndexSet, SpectralPair, _check_rank, _sample_stack, anchor, check_finite,
                     eigh_topk, pivot_threshold)
from .manifold import _chart_factors, karcher_mean


@dataclass
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
    """The (M, p, K) vectors and (M, K) values, M >= 1, of the stacked
    SpectralPair `summaries`; anything else raises ShapeMismatchError."""
    form = (f"{caller} takes one stacked SpectralPair, vectors (M, p, K) and values "
            "(M, K), as summarize_covariance returns for an (M, p, p) stack")
    if not isinstance(summaries, SpectralPair):
        raise ShapeMismatchError(f"{form}; got a {type(summaries).__name__}")
    try:
        vectors = np.asarray(summaries.vectors, dtype=float)
        values = np.asarray(summaries.values, dtype=float)
    except (TypeError, ValueError):
        raise ShapeMismatchError(f"{form}; got ragged or non-numeric entries") from None
    if vectors.ndim != 3 or not len(vectors) or values.shape != vectors.shape[::2]:
        raise ShapeMismatchError(f"{form}; got vectors {vectors.shape}, values {values.shape}")
    return vectors, values


def _frame_gram(frames):
    """The symmetrized mean of F F.T over the frames F of an (M, p, w) stack,
    as one product G G.T / M of the frames side by side in G (p x Mw)."""
    joined = np.swapaxes(frames, 0, 1).reshape(frames.shape[1], -1)
    agg = (joined @ joined.T) / len(frames)
    return 0.5 * (agg + agg.T)


def _result(agg, rank, method, n_machines, index_set=None):
    """Leading basis of an aggregated matrix, warning on a collapsed eigengap."""
    p = agg.shape[0]
    _check_rank(rank, p)
    take = min(rank + 1, p)
    pair = eigh_topk(agg, take)
    gap = np.inf
    if take > rank:
        gap = float(pair.values[rank - 1] - pair.values[rank])
        scale = max(abs(float(pair.values[0])), np.finfo(float).tiny)
        if gap <= 1e-8 * scale:
            warnings.warn(
                f"{method}: eigengap below the retained block is {gap:.3e}; "
                "the returned basis is the deterministic eigensolver output",
                ZeroGapWarning,
                stacklevel=3,
            )
    return DpcaResult(pair.vectors[:, :rank].copy(), method, index_set,
                      {"values": pair.values[:rank].copy(), "gap": gap,
                       "n_machines": n_machines})


def full_pca(covariances, rank):
    """Top-`rank` eigenbasis of the pooled (averaged) covariances, an (M, p, p)
    stack (a sequence of equal-shape matrices goes through one `np.asarray`)."""
    covs = _sample_stack(covariances, "full_pca covariances")
    agg = covs.sum(axis=0) / len(covs)
    return _result(0.5 * (agg + agg.T), rank, "full", len(covs))


def _lrc_frames(summaries):
    """The (M, p, K) stack of the machines' LRC frames V diag(values), which
    `lrc_dpca` anchors and averages and a caller's row reselection reads."""
    vectors, values = _machine_stack(summaries, "lrc_dpca")
    return vectors * values[:, None, :]


def lrc_dpca(summaries, rank, index_set):
    """Karcher-mean aggregation of the machines' rank-K covariance surrogates.

    Each machine's (V, values) of the stacked SpectralPair `summaries` stands
    for V diag(values)^2 V.T, the factor second-moment matrix consistent with
    its eigenpairs. The frames V diag(values) are anchored at `index_set` as
    one stack; the top eigenbasis of their Karcher mean is returned.

    Raises
    ------
    NotInManifoldError
        If any anchored factor fails the pivot rule at `index_set`; the
        message lists the offending machines by their position in the
        stack, so the caller can reselect rows via `find_index`.
    """
    frames = _lrc_frames(summaries)
    factors = anchor(frames, index_set)
    bad, reason = factors._pivot_rule()
    if reason is not None:
        raise NotInManifoldError(
            f"machines {bad.tolist()} fail membership with index set {tuple(index_set)}; "
            "reselect rows via find_index"
        )
    agg = _frame_gram(karcher_mean(factors).entries[None])
    return _result(agg, rank, "lrc", len(frames), index_set)


def dpca_fan(summaries, rank):
    """Projector-averaging aggregation: mean of V V.T over the machines of the
    stacked SpectralPair `summaries`."""
    vectors, _ = _machine_stack(summaries, "dpca_fan")
    return _result(_frame_gram(vectors), rank, "fan", len(vectors))


def dpca_bw(summaries, rank):
    """Surrogate-averaging aggregation: mean of V diag(values) V.T, unsquared,
    over the machines of the stacked SpectralPair `summaries`.

    Raises SingularMatrixError on a negative eigenvalue."""
    vectors, values = _machine_stack(summaries, "dpca_bw")
    if np.min(values) < 0.0:
        raise SingularMatrixError("dpca_bw needs nonnegative eigenvalues")
    frames = vectors * np.sqrt(values)[:, None, :]
    return _result(_frame_gram(frames), rank, "bw", len(vectors))


def euclid_rankk_mean(psds, rank):
    """Best rank-`rank` approximation of the arithmetic mean of the inputs.

    Takes what `karcher_mean` takes (a stack, or a sequence of CholFactors)
    but not its pivot rule: the mean of the factors' N N.T is formed from
    the stacked factors. The output is the truncation's frame
    V sqrt(values) anchored at the common index set (roundoff-negative
    values count as zero); no pivot rule is enforced on it.
    """
    factors = _chart_factors(psds, "euclid_rankk_mean")
    pair = eigh_topk(_frame_gram(factors.entries), rank)
    frame = pair.vectors * np.sqrt(np.maximum(pair.values, 0.0))
    return anchor(frame, factors.index_set)


def find_index(vectors, values, rank):
    """Greedy anchor-row selection maximizing the smallest singular value.

    Works on the weighted frame T = vectors @ diag(values). Column by column,
    appends the row index (excluding rows already chosen) that maximizes the
    smallest singular value of the growing anchor block T[chosen, :k+1]; ties
    break toward the smallest row index.

    Parameters
    ----------
    vectors : ndarray, shape (p, K)
        Orthonormal leading eigenvectors.
    values : ndarray, shape (K,)
        Matching eigenvalues, descending.
    rank : int
        Number of rows to select.

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
    vectors = np.asarray(vectors, dtype=float)
    values = np.asarray(values, dtype=float)
    if vectors.ndim != 2 or values.ndim != 1 or vectors.shape[1] != values.shape[0]:
        raise ShapeMismatchError(
            f"got vectors {vectors.shape} and values {values.shape}"
        )
    p = vectors.shape[0]
    _check_rank(rank, p, top=min(vectors.shape))
    target = vectors[:, :rank] * values[:rank]
    check_finite("find_index frame", target)
    tau = pivot_threshold(target)
    chosen = []
    for k in range(rank):
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
