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
    block, K the length of `index_set`: `factorize` with its error caught.

    Parameters
    ----------
    mat : ndarray, shape (p, p)
    index_set : IndexSet, or a sequence of K rows

    Returns
    -------
    ok : bool
    reason : str or None
        None on a pass, else the message of the NotInManifoldError or
        ShapeMismatchError that `factorize` raises. Only an index set that
        is not a sequence of rows raises (`IndexSet`'s PsdkError).
    """
    index_set = linalg._as_index_set(index_set)
    try:
        factorize(mat, index_set)
    except (NotInManifoldError, ShapeMismatchError) as err:
        return False, str(err)
    return True, None


def factorize(mat, index_set):
    """Chart map at the p x p edge: the unique factor N of `mat` anchored at
    the K-row `index_set`, for `mat` PSD of numerical rank K.

    N is `reduced_cholesky`'s, and `mat` is accepted when the residual
    R = mat - N @ N.T has ||R||_F <= TAU_RANK * ||mat||_F. By Weyl's
    inequality the i-th eigenvalue of `mat` then lies within ||R||_2 <=
    ||R||_F of that of N @ N.T: K positive values, p - K zeros. So one bound
    limits both lambda_{K+1} and the negative spectrum. R is the anchor
    block's Schur complement (N reproduces the anchor rows and columns), so
    a diagonal entry of R below -tolerance makes `mat` indefinite.

    Raises ShapeMismatchError or NotInManifoldError as `reduced_cholesky`
    does, else NotInManifoldError("negative spectrum (residual ...,
    tolerance ...)") or "not rank K (...)" if the residual is too large.
    """
    factor = linalg.reduced_cholesky(mat, index_set)
    resid = np.subtract(mat, factor.matrix)  # `mat` passed reduced_cholesky's checks
    norm, tol = np.linalg.norm(resid), linalg.TAU_RANK * np.linalg.norm(mat)
    if norm > tol:
        kind = ("negative spectrum" if np.min(np.diagonal(resid)) < -tol
                else f"not rank {factor.rank}")
        raise NotInManifoldError(f"{kind} (residual {norm:.3e}, tolerance {tol:.3e})")
    return factor


def _chart_factors(factors, caller):
    """The inputs as one nonempty stacked CholFactor (M, p, K). Any other
    iterable must hold CholFactors of the first one's shape and index set;
    `linalg._refuse` names the first element that is not one or differs."""
    if not isinstance(factors, CholFactor):
        if not np.iterable(factors):
            raise ShapeMismatchError(f"{caller} takes CholFactors, not a {type(factors).__name__}")
        factors = list(factors)
        linalg._refuse(ShapeMismatchError, [not isinstance(f, CholFactor) for f in factors],
                       True, lambda m: linalg._not_a_factor(factors[m]))
        if not factors:
            raise ShapeMismatchError(f"{caller} needs at least one factor")
        forms = [(f.entries.shape, f.index_set) for f in factors]
        linalg._refuse(ShapeMismatchError, [form != forms[0] for form in forms], True, lambda m: (
            f"shape {forms[m][0]} and index set {tuple(forms[m][1])} differ "
            f"from element 0's {forms[0][0]} and {tuple(forms[0][1])}"))
        factors = CholFactor(np.stack([f.entries for f in factors]), factors[0].index_set)
    if factors.entries.ndim != 3 or len(factors) == 0:
        raise ShapeMismatchError(f"{caller} needs a nonempty stack (M, p, K) of factors")
    return factors


def _positive(factor):
    """`factor` if its anchored diagonal is positive (the log chart's domain)."""
    diag = np.diagonal(factor.anchor_block(), axis1=-2, axis2=-1)
    if np.any(diag <= 0.0):
        raise NotInManifoldError(f"anchored diagonal must be positive, got min = {diag.min():.3e}")
    return factor


def log_factor(factor):
    """Log coordinates of a factor: a p x K array, anchored diagonal (positive)
    logged. A stack gives its (M, p, K) stack of log coordinates."""
    entries = _positive(linalg._as_factor(factor)).entries.copy()
    diag = (..., factor.index_set.as_array(), np.arange(factor.rank))
    entries[diag] = np.log(entries[diag])
    return entries


def exp_factor(log_entries, index_set):
    """Inverse of `log_factor`: exponentiate the anchored diagonal (one that
    underflows to 0 raises), of a p x K array or each of an (M, p, K) stack."""
    entries = linalg._as_array("log factor entries", log_entries, (2, 3)).copy()
    index_set = linalg._as_index_set(index_set)
    if len(index_set) != entries.shape[-1]:
        raise ShapeMismatchError("log factor entries inconsistent with index set")
    diag = (..., index_set.validate_for(entries.shape[-2]).as_array(), np.arange(len(index_set)))
    entries[diag] = np.exp(entries[diag])
    return _positive(CholFactor(entries, index_set))


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
        On an empty sequence or stack, or a sequence element that is not a
        CholFactor or differs in shape or index set (the first is `element`).
    NotInManifoldError
        If any element fails the pivot rule: the first, m, is the error's
        `element`, and its message is "element m: " and the reason
        `pivot_failure` gives.
    """
    factors = _chart_factors(psds, "karcher_mean")
    factors._check_pivots()
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
