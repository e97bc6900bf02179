"""One-shot distributed PCA aggregators and anchor-row selection.

Machines summarize their local sample covariance by its top-K eigenpairs;
the aggregators here differ only in how those summaries are combined before
the final eigendecomposition:

* `lrc_dpca`: anchor each machine's frame V diag(values), the factor of its
  rank-K surrogate with squared eigenvalues, and average the factors by
  their Karcher mean in log-Cholesky coordinates (squaring keeps the
  surrogate consistent with a second-moment matrix built from a factor);
* `dpca_fan`: average the eigenvector projectors, discarding eigenvalues;
* `dpca_bw`: average the rank-K surrogates with unsquared eigenvalues;
* `full_pca`: pool the raw covariances themselves (the centralized answer
  for balanced machines).

`find_index` picks anchor rows for the Karcher aggregation greedily, one
column at a time, maximizing the smallest singular value of the growing
anchor block.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DegenerateRowsError,
    EmptyInputError,
    IndexSetMismatchError,
    NotInManifoldError,
    ShapeMismatchError,
    ZeroGapWarning,
)
from .linalg import IndexSet, anchor, eigh_topk, pivot_threshold
from .manifold import LowRankPsd, karcher_mean


@dataclass
class LocalSummary:
    """One machine's spectral summary: top-K eigenpairs of its covariance."""

    vectors: np.ndarray
    values: np.ndarray
    machine_id: int


@dataclass
class DpcaResult:
    """Aggregated eigenspace estimate plus bookkeeping."""

    basis: np.ndarray
    method: str
    index_set_used: IndexSet | None = None
    diagnostics: dict = field(default_factory=dict)


def summarize_covariance(cov_hat, rank, machine_id):
    """Top-`rank` eigenpair summary of one machine's covariance estimate.

    Eigenvalues must be strictly positive (they get squared downstream);
    raises NonPositiveSpectrumError otherwise.
    """
    pair = eigh_topk(cov_hat, rank, require_positive=True)
    return LocalSummary(pair.vectors, pair.values, machine_id)


def _aggregate_basis(agg, rank, method):
    """Leading basis of an aggregated matrix, warning on a collapsed eigengap."""
    p = agg.shape[0]
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
    return pair.vectors[:, :rank].copy(), pair.values[:rank].copy(), gap


def full_pca(covariances, rank):
    """Top-`rank` eigenbasis of the pooled (averaged) covariances."""
    covariances = list(covariances)
    if not covariances:
        raise EmptyInputError("full_pca needs at least one covariance")
    agg = np.mean(np.stack([np.asarray(c, dtype=float) for c in covariances]), axis=0)
    agg = 0.5 * (agg + agg.T)
    basis, values, gap = _aggregate_basis(agg, rank, "full")
    return DpcaResult(basis, "full", None, {"values": values, "gap": gap,
                                            "n_machines": len(covariances)})


def lrc_dpca(summaries, rank, index_set):
    """Karcher-mean aggregation of the machines' rank-K covariance surrogates.

    Each summary (V, values) stands for V diag(values)^2 V.T, the factor
    second-moment matrix consistent with the local eigenpairs; its frame
    V diag(values) is anchored at `index_set`, the factors are averaged by
    their Karcher mean, and the mean's top eigenbasis is returned.

    Raises
    ------
    NotInManifoldError
        If any anchored factor fails the pivot rule at `index_set`; the
        message lists the offending machine ids so the caller can reselect
        rows via `find_index`.
    """
    summaries = list(summaries)
    if not summaries:
        raise EmptyInputError("lrc_dpca needs at least one summary")
    factors = [anchor(s.vectors * s.values, index_set) for s in summaries]
    bad = [s.machine_id for s, f in zip(summaries, factors) if f.pivot_failure() is not None]
    if bad:
        raise NotInManifoldError(
            f"machines {bad} fail membership with index set {tuple(index_set)}; "
            "reselect rows via find_index"
        )
    basis, values, gap = _aggregate_basis(karcher_mean(factors).matrix, rank, "lrc")
    return DpcaResult(basis, "lrc", index_set,
                      {"values": values, "gap": gap, "n_machines": len(summaries)})


def dpca_fan(summaries, rank):
    """Projector-averaging aggregation: mean of V V.T over machines."""
    summaries = list(summaries)
    if not summaries:
        raise EmptyInputError("dpca_fan needs at least one summary")
    agg = np.mean(np.stack([s.vectors @ s.vectors.T for s in summaries]), axis=0)
    agg = 0.5 * (agg + agg.T)
    basis, values, gap = _aggregate_basis(agg, rank, "fan")
    return DpcaResult(basis, "fan", None, {"values": values, "gap": gap,
                                           "n_machines": len(summaries)})


def dpca_bw(summaries, rank):
    """Surrogate-averaging aggregation: mean of V diag(values) V.T, unsquared."""
    summaries = list(summaries)
    if not summaries:
        raise EmptyInputError("dpca_bw needs at least one summary")
    agg = np.mean(
        np.stack([(s.vectors * s.values) @ s.vectors.T for s in summaries]), axis=0
    )
    agg = 0.5 * (agg + agg.T)
    basis, values, gap = _aggregate_basis(agg, rank, "bw")
    return DpcaResult(basis, "bw", None, {"values": values, "gap": gap,
                                          "n_machines": len(summaries)})


def euclid_rankk_mean(psds, rank):
    """Best rank-`rank` approximation of the arithmetic mean of the inputs.

    The output carries the common index-set tag of the inputs for
    convenience; no membership is enforced on it.
    """
    psds = list(psds)
    if not psds:
        raise EmptyInputError("euclid_rankk_mean needs at least one matrix")
    base = psds[0].index_set
    for m, psd in enumerate(psds):
        if psd.index_set != base or psd.rank != psds[0].rank:
            raise IndexSetMismatchError(
                f"element {m} has (rank, index set) = ({psd.rank}, {tuple(psd.index_set)})"
            )
    agg = np.mean(np.stack([psd.matrix for psd in psds]), axis=0)
    agg = 0.5 * (agg + agg.T)
    pair = eigh_topk(agg, rank)
    mat = (pair.vectors * pair.values) @ pair.vectors.T
    return LowRankPsd(0.5 * (mat + mat.T), rank, base)


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
    DegenerateRowsError
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
    if not (1 <= rank <= vectors.shape[1]) or rank > p:
        raise ShapeMismatchError(f"rank {rank} invalid for frame shape {vectors.shape}")
    target = vectors[:, :rank] * values[:rank]
    if not np.all(np.isfinite(target)):
        raise ShapeMismatchError("find_index frame must be finite")
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
            raise DegenerateRowsError(
                f"no admissible row at column {k}: best score {scores[best_row]:.3e} "
                f"below threshold {tau:.3e}"
            )
        chosen.append(best_row)
    return IndexSet(tuple(chosen))
