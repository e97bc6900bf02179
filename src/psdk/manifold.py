"""Log-Cholesky geometry for fixed-rank PSD matrices with an anchored block.

The space handled here is the set of p x p PSD matrices of rank K whose
rows/columns at a chosen index set form a nonsingular K x K block. Each such
matrix has a unique reduced Cholesky factor anchored at that index set, and
taking logs of the anchored diagonal turns the factor set into a plain linear
space. Pulling the Euclidean metric back through that chart gives closed-form
geodesics, distances, and Frechet (Karcher) means: averaging happens entry-wise
in log coordinates, i.e. arithmetically off the anchored diagonal and
geometrically on it.
"""

import numpy as np

from . import linalg
from .exceptions import NotInManifoldError, ShapeMismatchError
from .linalg import CholFactor


def membership(mat, index_set):
    """Test whether `mat` is PSD of numerical rank K with a nonsingular anchor
    block, K the length of `index_set`.

    Parameters
    ----------
    mat : ndarray, shape (p, p)
    index_set : IndexSet, or a sequence of K rows

    Returns
    -------
    ok : bool
    diagnostics : dict
        Keys: symmetric, asymmetry, psd_ok, rank_ok, block_ok, lambda_rank,
        lambda_next, min_pivot. Failures land in the flags; only an index
        set that is not a sequence of rows raises (`IndexSet`'s PsdkError).
    """
    mat = np.asarray(mat, dtype=float)
    index_set = linalg._as_index_set(index_set)
    diag = {
        "symmetric": False,
        "asymmetry": np.inf,
        "psd_ok": False,
        "rank_ok": False,
        "block_ok": False,
        "lambda_rank": np.nan,
        "lambda_next": np.nan,
        "min_pivot": np.nan,
    }
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False, diag
    p, rank = mat.shape[0], len(index_set)
    if max(index_set) >= p:
        return False, diag

    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    asym = float(np.max(np.abs(mat - mat.T)))
    diag["asymmetry"] = asym
    diag["symmetric"] = asym <= linalg.SYM_RTOL * scale
    if not diag["symmetric"]:
        return False, diag

    values = np.linalg.eigvalsh(mat)[::-1]
    lam_rank = float(values[rank - 1])
    lam_next = float(values[rank]) if rank < p else 0.0
    diag["lambda_rank"] = lam_rank
    diag["lambda_next"] = lam_next
    diag["psd_ok"] = float(values[-1]) >= -linalg.SYM_RTOL * max(abs(values[0]), abs(values[-1]))
    diag["rank_ok"] = lam_rank > 0.0 and (rank == p or lam_next < linalg.TAU_RANK * lam_rank)

    rows = index_set.as_array()
    block = mat[np.ix_(rows, rows)]
    tril, min_pivot = linalg._cholesky_pivots(block, linalg.pivot_threshold(mat))
    diag["min_pivot"] = float(min_pivot)
    diag["block_ok"] = tril is not None

    ok = diag["symmetric"] and diag["psd_ok"] and diag["rank_ok"] and diag["block_ok"]
    return ok, diag


def _describe_failure(diag, index_set):
    reasons = []
    if not diag["symmetric"]:
        reasons.append(f"asymmetry {diag['asymmetry']:.3e}")
    if not diag["psd_ok"]:
        reasons.append("negative spectrum")
    if not diag["rank_ok"]:
        reasons.append(
            f"rank check failed (lambda_K = {diag['lambda_rank']:.3e}, "
            f"lambda_K+1 = {diag['lambda_next']:.3e})"
        )
    if not diag["block_ok"]:
        reasons.append(
            f"anchor block {tuple(index_set)} singular (min pivot {diag['min_pivot']:.3e})"
        )
    return "membership failed: " + "; ".join(reasons or ["unknown"])


def factorize(mat, index_set):
    """Chart map at the p x p edge: the unique factor of `mat` anchored at the
    K-row `index_set`, for `mat` of rank K.

    Raises NotInManifoldError when the membership test fails.
    """
    index_set = linalg._as_index_set(index_set)
    ok, diag = membership(mat, index_set)
    if not ok:
        raise NotInManifoldError(_describe_failure(diag, index_set))
    return linalg.reduced_cholesky(mat, index_set)


def _chart_factors(factors, caller):
    """The inputs as one stacked CholFactor (M, p, K). A stack passes through;
    any other iterable must hold CholFactors sharing one shape and index set,
    which are checked element by element (errors name the offending element)
    and stacked. A CholFactor that is not a nonempty stack is rejected."""
    if isinstance(factors, CholFactor):
        if (np.ndim(factors.entries) != 3 or len(factors) == 0
                or len(factors.index_set) != factors.rank):
            raise ShapeMismatchError(
                f"{caller} needs a nonempty stack whose index set fits its rank")
        factors.index_set.validate_for(factors.p)
        return factors
    factors = list(factors)
    if not factors:
        raise ShapeMismatchError(f"{caller} needs at least one factor")
    base = factors[0]
    for m, factor in enumerate(factors):
        linalg._as_factor(factor, f"element {m}")
        shape = np.shape(factor.entries)
        if (len(shape) != 2 or len(factor.index_set) != shape[1]
                or max(factor.index_set) >= shape[0]):
            raise ShapeMismatchError(
                f"element {m}: index set {tuple(factor.index_set)} does not fit "
                f"factor entries of shape {shape}"
            )
        if factor.index_set != base.index_set:
            raise ShapeMismatchError(
                f"element {m} has (rank, index set) = ({factor.rank}, "
                f"{tuple(factor.index_set)}), expected ({base.rank}, {tuple(base.index_set)})"
            )
        if factor.p != base.p:
            raise ShapeMismatchError(f"element {m} has p = {factor.p}, expected {base.p}")
    return CholFactor(np.stack([f.entries for f in factors], dtype=float), base.index_set)


def log_factor(factor):
    """Log coordinates of a factor: a p x K array, anchored diagonal logged.
    A stack gives its (M, p, K) stack of log coordinates."""
    linalg._as_factor(factor).validate()
    entries = np.array(factor.entries, dtype=float, copy=True)
    diag = (..., factor.index_set.as_array(), np.arange(factor.rank))
    entries[diag] = np.log(entries[diag])
    return entries


def exp_factor(log_entries, index_set):
    """Inverse of `log_factor`: exponentiate the anchored diagonal, of one
    p x K array or of each element of an (M, p, K) stack."""
    entries = np.array(log_entries, dtype=float, copy=True)
    index_set = linalg._as_index_set(index_set)
    if entries.ndim not in (2, 3) or len(index_set) != entries.shape[-1]:
        raise ShapeMismatchError("log factor entries inconsistent with index set")
    diag = (..., index_set.validate_for(entries.shape[-2]).as_array(),
            np.arange(len(index_set)))
    entries[diag] = np.exp(entries[diag])
    return CholFactor(entries, index_set).validate()


def karcher_mean(psds):
    """Closed-form Karcher (Frechet) mean of rank-K PSD matrices sharing an anchor.

    The mean minimizes the sum of squared geodesic distances. Because the
    chart is a global isometry onto a linear space, the minimizer is the
    entry-wise average of the log-coordinate factors: arithmetic in the
    off-diagonal entries, geometric in the anchored diagonal: a few array
    operations on the (M, p, K) stack.

    Parameters
    ----------
    psds : CholFactor stack (M, p, K), or a sequence of CholFactor
        Nonempty, with a common shape and index set, each element passing
        `CholFactor.pivot_failure`. A p x p matrix enters through `factorize`.

    Returns
    -------
    CholFactor
        The mean factor at the common index set; `.matrix` is the p x p mean.

    Raises
    ------
    ShapeMismatchError
        On an empty sequence, if an element's index set does not fit its
        entries, or if the elements differ in p, rank or index set.
    NotInManifoldError
        If any element is not a chart point; the message names the first.
    """
    factors = _chart_factors(psds, "karcher_mean")
    failure = factors.pivot_failure()
    if failure is not None:
        raise NotInManifoldError(failure)
    return _group_means(factors, len(factors))[0]


def _group_means(factors, size):
    """The Karcher means of consecutive groups of `size` elements of a
    (G * size, p, K) stack of chart points, as a (G, p, K) stack: the closed
    form behind `karcher_mean`, without its checks."""
    logs = log_factor(factors)
    groups = np.reshape(logs, (-1, size) + logs.shape[-2:])
    return exp_factor(np.mean(groups, axis=1), factors.index_set)


def geodesic_distance(psd_a, psd_b):
    """Geodesic distance: Frobenius distance of the log-coordinate factors.

    Takes two CholFactors sharing one shape and index set.
    Symmetric, zero iff the inputs are equal, and by construction identical
    to the Euclidean distance between their `log_factor` images.
    """
    logs = log_factor(_chart_factors([psd_a, psd_b], "geodesic_distance"))
    return float(np.linalg.norm(logs[0] - logs[1]))
