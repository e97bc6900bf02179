"""Dense linear-algebra kernels for anchored low-rank PSD factorizations.

Everything here works on plain float64 ndarrays. The central object is the
reduced Cholesky factor of a rank-K PSD matrix: a p x K matrix whose rows at
a chosen ordered index set form a lower-triangular block with positive
diagonal. That anchored triangular structure is what the rest of the package
builds on, so the kernels in this module are deliberately small and strict
about validation.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, NotInManifoldError, ShapeMismatchError, SingularMatrixError

# Relative threshold under which a pivot / singular value counts as zero,
# scaled by the max-norm of the matrix being factored.
TAU_PIVOT_REL = 1e-10

# Relative residual tolerance of "numerical rank K" at the p x p edge
# (`manifold.factorize`): ||mat - N @ N.T||_F <= TAU_RANK * ||mat||_F.
TAU_RANK = 1e-6

# Relative tolerance on max|A - A.T| for symmetry checks.
SYM_RTOL = 1e-8

# `eigh_topk`'s block subspace iteration: the residual tolerance relative to
# max|A|, the iteration budget before the full eigh takes over, and the seed
# of its fixed start block.
EIGH_RESID_REL = 1e-13
EIGH_BUDGET = 12
EIGH_START_SEED = 0

# Eigenvector entries whose magnitudes agree within this relative tolerance
# count as tied in `eigh_topk`'s sign rule.
SIGN_TIE_REL = 1e-8


def pivot_threshold(mat):
    """Absolute singularity threshold for an array `mat`: TAU_PIVOT_REL times its max-norm."""
    if mat.size == 0:
        return 0.0
    return TAU_PIVOT_REL * float(np.max(np.abs(mat)))


def _check_integer(name, value):
    """`value` as an int; ConfigError unless it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_rank(rank, p):
    """Raise unless `rank` is an integer (ConfigError) in [1, p] (ShapeMismatchError)."""
    if not 1 <= _check_integer("rank", rank) <= p:
        raise ShapeMismatchError(f"rank {rank} invalid for p = {p}")


def check_finite(what, arr):
    """Raise ShapeMismatchError("<what> must be finite") on a NaN or Inf entry."""
    if not np.all(np.isfinite(arr)):
        raise ShapeMismatchError(f"{what} must be finite")


def _as_array(what, x, ndims=None):
    """`x` as a float64 array: the one rule by which a public argument becomes
    an array. `np.asarray(x)`, uncast, must hold integers or floats: a string,
    dict, ragged list or other object, a complex or a bool value raises
    ShapeMismatchError, so nothing is silently truncated. The array must then
    have a number of axes in `ndims` (None: any) and be finite."""
    try:
        arr = np.asarray(x)
    except ValueError:
        raise ShapeMismatchError(f"{what} must be real numbers, got a {type(x).__name__} "
                                 "whose items differ in shape") from None
    if arr.dtype.kind not in "iuf":
        raise ShapeMismatchError(f"{what} must be real numbers, got a {type(x).__name__} "
                                 f"of dtype {arr.dtype}")
    if ndims is not None and arr.ndim not in ndims:
        raise ShapeMismatchError(f"{what} must be {' or '.join(f'{n}-d' for n in ndims)}, "
                                 f"got {arr.ndim}-d")
    check_finite(what, arr)
    return arr.astype(float, copy=False)


def _sample_stack(items, what, shape=None, ndims=(3,)):
    """`items`, an array or a sequence of equal-shape arrays, through
    `_as_array` to an array (..., M, *shape) of `ndims` axes, M >= 1
    (`shape` None: square matrices); else ShapeMismatchError naming `what`.
    The `shape` (B, r, c) of a stack of base points asks for (B, ..., M, r, c),
    with `ndims` counted after its B axis."""
    stack = _as_array(what, items)
    if not stack.size:
        raise ShapeMismatchError(f"{what}: need at least one")
    want = f"factor shape {shape}" if shape else "square matrices"
    batch = tuple(shape[:-2]) if shape else ()
    if (stack.ndim - len(batch) not in ndims or stack.shape[:len(batch)] != batch
            or stack.shape[-2:] != (tuple(shape[-2:]) if shape else stack.shape[-1:] * 2)):
        raise ShapeMismatchError(f"{what}: shape {stack.shape} does not match {want} "
                                 f"(leading axes: {' or '.join(str(n - 2) for n in ndims)})")
    return stack


def _square(mat):
    """`mat` as a nonempty square matrix through `_as_array`; else ShapeMismatchError."""
    mat = _as_array("matrix entries", mat, (2,))
    if mat.shape[0] != mat.shape[1] or not mat.size:
        raise ShapeMismatchError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def check_symmetric(mat):
    """`mat` as a nonempty square matrix (`_square`); raise ShapeMismatchError
    if max|A - A.T| exceeds SYM_RTOL * max|A|."""
    mat = _square(mat)
    _symmetric_scales(mat[None], stacked=False)
    return mat


def _symmetric_scales(mats, stacked):
    """max|A| per element of a finite nonempty (M, p, p) stack, after checking
    that every element is symmetric within SYM_RTOL; for a `stacked` input
    the error names the first failing element ("element m: ...")."""
    flat = np.reshape(mats, (len(mats), -1))
    scales = np.maximum(flat.max(axis=1), -flat.min(axis=1))
    # A - A.T is antisymmetric, so its largest entry is its max-norm
    asym = np.reshape(mats - np.swapaxes(mats, -1, -2), (len(mats), -1)).max(axis=1)
    bad = np.flatnonzero(asym > SYM_RTOL * scales)
    if bad.size:
        m = bad[0]
        where = f"element {m}: " if stacked else ""
        raise ShapeMismatchError(
            f"{where}matrix is not symmetric: max|A - A.T| = {asym[m]:.3e} "
            f"(tolerance {SYM_RTOL * scales[m]:.3e})"
        )
    return scales


@dataclass(frozen=True)
class IndexSet:
    """Ordered, duplicate-free anchor rows of a p x K factor.

    The k-th listed row carries the k-th diagonal entry of the anchored
    lower-triangular block. Order matters: permuting the indices selects a
    different factorization. Indices are 0-based.
    """

    indices: tuple

    def __post_init__(self):
        if isinstance(self.indices, CholFactor) or not np.iterable(self.indices):
            got = "a CholFactor" if np.iterable(self.indices) else repr(self.indices)
            raise ConfigError(f"index set must be a sequence of rows, got {got}")
        idx = tuple(_check_integer("row index", i) for i in self.indices)
        if len(idx) == 0:
            raise ShapeMismatchError("index set must contain at least one row")
        if any(i < 0 for i in idx):
            raise ShapeMismatchError(f"negative row index in {idx}")
        if len(set(idx)) != len(idx):
            raise ShapeMismatchError(f"duplicate row index in {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def canonical(cls, rank):
        """The first `rank` rows, in order."""
        return cls(tuple(range(rank)))

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, k):
        return self.indices[k]

    def as_array(self):
        return np.asarray(self.indices, dtype=np.intp)

    def validate_for(self, p):
        """Check all indices address rows of a p-row matrix."""
        if max(self.indices) >= p:
            raise ShapeMismatchError(
                f"index set {self.indices} out of range for p = {p}"
            )
        return self


def _as_index_set(rows):
    """The edge of every function that takes an index set: an IndexSet
    passes through; any other value, say a tuple of rows, goes through
    `IndexSet(...)`, whose checks raise a PsdkError."""
    return rows if isinstance(rows, IndexSet) else IndexSet(rows)


def support_mask(p, index_set):
    """Boolean (p, K) mask of entries a factor anchored at the K-row
    `index_set` may populate.

    True everywhere except above the diagonal of the anchored block: row
    index_set[k] is False in columns k+1, ..., K-1.
    """
    index_set = _as_index_set(index_set).validate_for(_check_integer("p", p))
    rank = len(index_set)
    mask = np.ones((p, rank), dtype=bool)
    mask[index_set.as_array()] = np.tril(np.ones((rank, rank), dtype=bool))
    return mask


@dataclass(frozen=True, eq=False)
class CholFactor:
    """Reduced Cholesky factor: p x K entries plus the anchor index set.

    Checked where it is built (`_as_array`, which keeps a float64 view, and
    `IndexSet`): K rows in range, whose block is lower triangular with
    diagonal >= 0. The entries may be a stack (M, p, K) of M factors sharing
    the index set: every method then works on the whole stack, and `len()`,
    indexing and iteration run over its leading axis.
    """

    entries: np.ndarray
    index_set: IndexSet

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_array("factor entries", self.entries, (2, 3)))
        object.__setattr__(self, "index_set", _as_index_set(self.index_set))
        if len(self.index_set) != self.rank:
            raise ShapeMismatchError(
                f"index set has {len(self.index_set)} rows, factor has rank {self.rank}")
        block = self.entries[..., self.index_set.validate_for(self.p).as_array(), :]
        if np.any(np.triu(block, 1)):
            raise ShapeMismatchError(
                "anchor rows are not lower triangular: nonzero above the diagonal")
        diag = np.diagonal(block, axis1=-2, axis2=-1)
        if np.any(diag < 0.0):
            raise NotInManifoldError(
                f"anchored diagonal must be positive, got min = {diag.min():.3e}")

    @property
    def p(self):
        return self.entries.shape[-2]

    @property
    def rank(self):
        return self.entries.shape[-1]

    @property
    def matrix(self):
        """The p x p matrix N @ N.T (symmetrized) that this factor charts."""
        prod = self.entries @ np.swapaxes(self.entries, -1, -2)
        return 0.5 * (prod + np.swapaxes(prod, -1, -2))

    def __len__(self):
        if self.entries.ndim != 3:
            raise TypeError("a single CholFactor has no len()")
        return self.entries.shape[0]

    def __bool__(self):
        return True

    def __getitem__(self, m):
        """Element `m` of a stack (iteration uses this too); a slice gives the
        sub-stack. A single factor raises TypeError."""
        len(self)
        return CholFactor(self.entries[m], self.index_set)

    def anchor_block(self):
        """The K x K lower-triangular block formed by the anchor rows."""
        return self.entries[..., self.index_set.as_array(), :]

    def _pivot_rule(self, scale=None):
        """`pivot_failure`'s rule over the leading axis: the positions that
        fail it (0 for a failing single factor) and the first one's reason.
        `scale`, a matrix's max-norm, replaces a single factor's own."""
        ent = np.reshape(self.entries, (-1,) + self.entries.shape[-2:])
        pivots = np.min(ent[:, self.index_set.as_array(), np.arange(self.rank)] ** 2, axis=1)
        scales = np.max(np.einsum("mij,mij->mi", ent, ent), axis=1) if scale is None else [scale]
        taus = TAU_PIVOT_REL * np.asarray(scales)
        bad = np.flatnonzero(pivots <= taus)
        if bad.size == 0:
            return bad, None
        return bad, (f"anchor block {self.index_set.indices} singular "
                     f"(min pivot {pivots[bad[0]]:.3e}, threshold {taus[bad[0]]:.3e})")

    def pivot_failure(self):
        """Why N @ N.T is not a chart point at this index set, or None if it is.

        The one anchor-block pivot rule, which `reduced_cholesky` asks too:
        a squared anchored diagonal entry (a Schur pivot of the anchor block
        of N @ N.T) at or below TAU_PIVOT_REL times the largest squared row
        norm (max|N @ N.T|; `reduced_cholesky` uses its max|mat|) fails. A
        stack fails on its first failing element, named ("element m: ...")."""
        bad, reason = self._pivot_rule()
        if reason is None or self.entries.ndim == 2:
            return reason
        return f"element {bad[0]}: {reason}"


def _as_factor(factor, what="factor"):
    """`factor` if it is a CholFactor; any other value raises
    ShapeMismatchError naming `what`."""
    if not isinstance(factor, CholFactor):
        raise ShapeMismatchError(f"{what} is a {type(factor).__name__}, not a CholFactor; "
                                 "factor a p x p matrix with factorize")
    return factor


def _as_signal(factor):
    """`factor` if it is a CholFactor that passes the pivot rule, else a PsdkError."""
    if (failure := _as_factor(factor, "signal").pivot_failure()) is not None:
        raise NotInManifoldError(f"signal: {failure}")
    return factor


@dataclass(eq=False)
class SpectralPair:
    """Top-K eigenpair bundle: orthonormal vectors (p, K), values (K,)
    descending; or a stack of M such pairs, vectors (M, p, K) and values
    (M, K), as `eigh_topk` returns for a stack of matrices."""

    vectors: np.ndarray
    values: np.ndarray


def reduced_cholesky(mat, index_set):
    """Reduced Cholesky factor of a rank-K PSD matrix, K the length of `index_set`.

    Computes the unique p x K matrix N with N @ N.T == mat whose anchor rows
    N[index_set, :] are lower triangular with positive diagonal: the anchor
    block by `np.linalg.cholesky`, the other rows by one triangular solve.
    N must then pass the factors' pivot rule (`CholFactor.pivot_failure`):
    its pivots are the anchor block's Schur pivots, its threshold
    TAU_PIVOT_REL * max|mat|. For a rank-K PSD matrix that is the factor's
    own threshold; a matrix only numerically rank K can have rows far
    shorter than its diagonal, so the matrix's scale is kept.

    Parameters
    ----------
    mat : ndarray, shape (p, p)
        Symmetric, with a positive definite anchor block; that N @ N.T
        reproduces it (PSD, rank K) is `manifold.factorize`'s check.
    index_set : IndexSet
        The K anchor rows (a sequence of rows goes through `IndexSet`).

    Returns
    -------
    CholFactor

    Raises
    ------
    NotInManifoldError
        If the anchor block is not positive definite, the solve overflows,
        or with the pivot rule's reason.
    ShapeMismatchError
        If `mat` is not a nonempty square matrix, max|mat - mat.T|
        exceeds tolerance, or a row is out of range.
    """
    mat = check_symmetric(mat)
    index_set = _as_index_set(index_set).validate_for(mat.shape[0])
    rows = index_set.as_array()
    try:
        tril = np.linalg.cholesky(mat[np.ix_(rows, rows)])
    except np.linalg.LinAlgError:
        raise NotInManifoldError(
            f"anchor block {index_set.indices} not positive definite") from None
    # N = mat[:, rows] @ inv(tril).T, via one triangular solve.
    entries = _solve_lower(tril, mat[:, rows].T).T
    # The anchor rows equal tril up to roundoff; write them exactly so the
    # structural zeros and the positive diagonal hold bit-for-bit.
    entries[rows, :] = tril
    if not np.all(np.isfinite(entries)):
        raise NotInManifoldError("non-finite factor entry")
    factor = CholFactor(entries, index_set)
    reason = factor._pivot_rule(np.max(np.abs(mat)))[1]
    if reason is not None:
        raise NotInManifoldError(reason)
    return factor


def _solve_lower(tril, rhs):
    """X with tril @ X == rhs for a nonsingular K x K lower-triangular `tril`,
    by forward substitution: K row steps; no checks. `tril` (..., K, K) and
    `rhs` (..., K, n) may be stacks whose leading axes broadcast."""
    lead = np.broadcast_shapes(np.shape(tril)[:-2], np.shape(rhs)[:-2])
    out = np.empty(lead + np.shape(rhs)[-2:])
    for i in range(tril.shape[-1]):
        done = (tril[..., i:i + 1, :i] @ out[..., :i, :])[..., 0, :]
        out[..., i, :] = (rhs[..., i, :] - done) / tril[..., i, i, None]
    return out


def _lead_axes(base, ndim):
    """`base` (*batch, r, c) as a view of `ndim` axes, with unit axes after
    its batch axes: a stack of base points broadcast against the sets of
    perturbations that follow the batch axes of a (*batch, *sets, r, c) array."""
    shape = np.shape(base)
    return np.reshape(base, shape[:-2] + (1,) * (ndim - len(shape)) + shape[-2:])


def _lq(mat):
    """R @ Q == mat with R lower triangular, diagonal >= 0, from the Householder
    QR of mat.T; no checks. A lower-triangular mat with positive diagonal
    comes back bit for bit, with Q = I. Stacks (M, K, K) take one batched call."""
    orth_t, upper = np.linalg.qr(np.swapaxes(mat, -1, -2))
    signs = np.where(np.diagonal(upper, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    return (np.swapaxes(upper, -1, -2) * signs[..., None, :],
            np.swapaxes(orth_t, -1, -2) * signs[..., :, None])


def lq_givens(mat):
    """Decompose a nonsingular K x K matrix as R @ Q, R lower triangular.

    R has strictly positive diagonal and Q is orthogonal; the pair is unique,
    so any orthogonal-triangular algorithm returns it up to roundoff. It is
    computed as the Householder QR of mat.T with the signs fixed; the name
    recalls the plane-rotation construction of the same pair.

    Parameters
    ----------
    mat : ndarray, shape (K, K) or (E, K, K)
        Nonsingular matrix: smallest singular value above
        TAU_PIVOT_REL * max|mat|. A stack is decomposed element by element
        in one batched call, each element checked against its own max-norm.

    Returns
    -------
    R : ndarray, shape of `mat`
        Lower triangular, positive diagonal, with R @ Q == mat.
    Q : ndarray, shape of `mat`
        Orthogonal.

    Raises
    ------
    SingularMatrixError
        If `mat` is numerically rank deficient; for a stack the message
        names the first such element ("element e: ...").
    ShapeMismatchError
        If `mat` is not square, not 2-d or 3-d, or empty.
    """
    mat = _sample_stack(mat, "lq_givens matrices", ndims=(2, 3))
    smin = np.linalg.svd(mat, compute_uv=False)[..., -1]
    taus = TAU_PIVOT_REL * np.max(np.abs(mat), axis=(-2, -1))
    bad = np.flatnonzero(smin <= taus)
    if bad.size:
        where = "" if mat.ndim == 2 else f"element {bad[0]}: "
        raise SingularMatrixError(
            f"{where}matrix numerically singular: smallest singular value "
            f"{np.reshape(smin, -1)[bad[0]]:.3e}"
        )
    return _lq(mat)


def anchor(frame, index_set):
    """The reduced factor of frame @ frame.T anchored at `index_set`, in O(pK^2).

    With the LQ decomposition F[index_set] = R @ Q of any p x K frame F, the
    factor is N = F @ Q.T, whose anchor rows are exactly R. An already
    anchored factor comes back bit for bit; a stack of frames (M, p, K), the
    stacked factor. A near-singular anchor block does not raise
    (`CholFactor.pivot_failure` decides); a shape mismatch raises
    ShapeMismatchError. A sequence of rows goes through `IndexSet`.
    """
    frame = _as_array("frame entries", frame, (2, 3))
    index_set = _as_index_set(index_set)
    if len(index_set) != frame.shape[-1]:
        raise ShapeMismatchError(
            f"index set of {len(index_set)} rows does not fit a frame of shape {frame.shape}"
        )
    rows = index_set.validate_for(frame.shape[-2]).as_array()
    tril, orth = _lq(frame[..., rows, :])
    entries = frame @ np.swapaxes(orth, -1, -2)
    entries[..., rows, :] = tril
    return CholFactor(entries, index_set)


def eigh_topk(mat, rank, require_positive=False):
    """Leading eigenpairs of a symmetric matrix, or of each matrix of a stack.

    Each matrix A gets a block subspace iteration of width `rank` (Halko,
    Martinsson & Tropp 2011; Golub & Van Loan, section 8.2), started from a
    fixed block, with a QR step per iteration and a Rayleigh-Ritz step once
    the block is close to invariant. Its Ritz pairs (theta, V) are kept once
    they are certified:
    max|A V - V diag(theta)| <= EIGH_RESID_REL * max|A|, and the smallest
    kept value exceeds sqrt(||A||_F^2 - sum theta^2), which bounds every
    eigenvalue outside the block, so the block holds the top `rank`. A
    matrix not certified within EIGH_BUDGET iterations gets the full
    `np.linalg.eigh` instead. Which path a matrix takes depends on that
    matrix alone.

    Parameters
    ----------
    mat : ndarray, shape (p, p) or (M, p, p)
        Symmetric matrix, or a stack of them (each checked on its own).
    rank : int
        Number of leading eigenpairs to return.
    require_positive : bool
        When True, raise if the rank-th eigenvalue is not strictly positive
        (above the relative pivot threshold).

    Returns
    -------
    SpectralPair
        Values sorted descending; for a stack, vectors (M, p, rank) and
        values (M, rank). Each eigenvector is normalized so its
        largest-magnitude entry is positive; among magnitudes tied within
        SIGN_TIE_REL the lowest row index decides. This makes the output
        deterministic and basis-stable across runs and solver paths.

    Raises
    ------
    SingularMatrixError
        When `require_positive` is set and the spectrum fails the check; for
        a stack the message names the first such element ("element m: ...").
    ShapeMismatchError
        On a non-square or asymmetric input, or a rank outside [1, p] (a
        rank that is not an integer is a ConfigError).
    """
    mat = _sample_stack(mat, "eigh_topk matrices", ndims=(2, 3))
    mats = mat if mat.ndim == 3 else mat[None]
    scales = _symmetric_scales(mats, stacked=mat.ndim == 3)
    _check_rank(rank, mats.shape[-1])
    values, vectors = _topk(mats, rank, scales)
    _signed(vectors)
    if require_positive:
        bad = np.flatnonzero(values[:, -1] <= TAU_PIVOT_REL * scales)
        if bad.size:
            where = "" if mat.ndim == 2 else f"element {bad[0]}: "
            raise SingularMatrixError(
                f"{where}eigenvalue {rank} is {values[bad[0], -1]:.3e}, not strictly positive"
            )
    if mat.ndim == 2:
        return SpectralPair(vectors[0], values[0])
    return SpectralPair(vectors, values)


def _signed(vectors):
    """`vectors` (..., p, k), column signs fixed in place by `eigh_topk`'s rule."""
    mags = np.abs(vectors)
    rows = np.argmax(mags >= (1.0 - SIGN_TIE_REL) * mags.max(axis=-2, keepdims=True), axis=-2)
    vectors *= np.where(np.take_along_axis(vectors, rows[..., None, :], axis=-2) < 0.0, -1.0, 1.0)
    return vectors


def _eigh_desc(mats):
    """`np.linalg.eigh` of a symmetric (..., p, p), descending; no checks."""
    values, vectors = np.linalg.eigh(mats)
    return values[..., ::-1], vectors[..., ::-1]


@functools.lru_cache(maxsize=64)
def _start_block(p, rank):
    """The fixed, read-only p x rank start block of `_topk`'s iteration."""
    block = np.random.default_rng(EIGH_START_SEED).standard_normal((p, rank))
    block.flags.writeable = False
    return block


def _topk(mats, rank, scales):
    """Top `rank` eigenpairs of each matrix of an (M, p, p) symmetric stack
    with max-norms `scales`: values (M, rank) descending and vectors
    (M, p, rank), signs unfixed.

    Block subspace iteration on the stack. Each step measures how far the
    block is from invariant by G = A Q - Q (Q.T A Q): the Ritz residual
    A V - V diag(theta) is G times the Ritz rotation, so its max-norm lies in
    [||G||_F / sqrt(p rank), ||G||_F]. The Ritz pairs are formed only where
    that range reaches the tolerance. An element leaves when they are
    certified (see `eigh_topk`), when its residual has converged yet the tail
    bound fails, or at the end of the budget; the rest go to `np.linalg.eigh`.
    """
    count, p, _ = mats.shape
    # Work in units of 2^e >= max|A| per element: a power of two changes no
    # rounding, and keeps the squared norms below from overflowing or
    # underflowing whatever the matrix's scale.
    unit = np.ldexp(1.0, -np.frexp(scales)[1])
    tol = EIGH_RESID_REL * scales * unit
    loose = np.sqrt(p * rank) * tol
    scaled = np.reshape(mats, (count, -1)) * unit[:, None]
    fro_sq = np.einsum("mk,mk->m", scaled, scaled)
    del scaled
    values, vectors = np.empty((count, rank)), np.empty((count, p, rank))
    live, sub, certified = np.arange(count), mats, np.zeros(count, dtype=bool)
    orth = np.linalg.qr(mats @ _start_block(p, rank))[0]
    for step in range(1, EIGH_BUDGET + 1):
        image = (sub @ orth) * unit[:, None, None]
        proj = np.swapaxes(orth, -1, -2) @ image
        off = image - orth @ proj
        frob = np.sqrt(np.einsum("mij,mij->m", off, off))
        keep = np.ones(len(live), dtype=bool)
        trial = np.flatnonzero(frob <= loose)
        if trial.size:
            # Rayleigh-Ritz, ascending: ritz[:, 0] is the smallest kept value
            ritz, rot = np.linalg.eigh(proj[trial])
            resid = np.abs(off[trial] @ rot).reshape(len(trial), -1).max(axis=1)
            tail = np.sqrt(np.maximum(fro_sq[trial] - np.einsum("mk,mk->m", ritz, ritz), 0.0))
            converged = resid <= tol[trial]
            ok = converged & (ritz[:, 0] > tail)
            certified[live[trial]] = ok
            values[live[trial[ok]]] = ritz[ok, ::-1] / unit[trial[ok], None]
            vectors[live[trial[ok]]] = orth[trial[ok]] @ rot[ok, :, ::-1]
            # a converged element leaves: certified, or failing the tail bound for good
            keep[trial[converged]] = False
        if step == EIGH_BUDGET or not keep.any():
            break
        if not keep.all():
            live, sub, image = live[keep], sub[keep], image[keep]
            tol, loose, fro_sq, unit = tol[keep], loose[keep], fro_sq[keep], unit[keep]
        orth = np.linalg.qr(image)[0]
    fallback = np.flatnonzero(~certified)
    if fallback.size:
        full_values, full_vectors = _eigh_desc(mats[fallback])
        values[fallback], vectors[fallback] = full_values[:, :rank], full_vectors[..., :rank]
    return values, vectors


def procrustes_sign(mat):
    """Nearest orthogonal matrix in Frobenius norm, via the SVD sign.

    For square `mat` with SVD U S V.T returns U @ V.T, the minimizer of
    ||O - mat||_F over orthogonal O (equivalently the maximizer of
    trace(O.T mat)).

    Raises
    ------
    SingularMatrixError
        If `mat` is numerically singular, in which case the minimizer is not
        unique.
    """
    mat = _square(mat)
    left, sing, right_t = np.linalg.svd(mat)
    if sing[-1] <= pivot_threshold(mat):
        raise SingularMatrixError(
            f"sign factor undefined: smallest singular value {sing[-1]:.3e}"
        )
    return left @ right_t


def projector_distance(basis_a, basis_b):
    """||A A.T - B B.T||_F for p x K factors A, B (for orthonormal bases, the
    distance of their projectors); invariant to right-rotation of either.

    With the thin QR [A | B] = Q [R_A | R_B] it is ||R_A R_A.T - R_B R_B.T||_F,
    a 2K x 2K norm: no p x p product and no cancellation.
    """
    basis_a = _as_array("basis entries", basis_a, (2,))
    basis_b = _as_array("basis entries", basis_b, (2,))
    if basis_a.shape != basis_b.shape:
        raise ShapeMismatchError(
            f"bases have different shapes {basis_a.shape} and {basis_b.shape}"
        )
    if basis_a.shape[0] < basis_a.shape[1]:
        raise ShapeMismatchError(
            f"expected tall matrices, got shape {basis_a.shape}"
        )
    upper = np.linalg.qr(np.hstack([basis_a, basis_b]), mode="r")
    part_a, part_b = upper[:, :basis_a.shape[1]], upper[:, basis_a.shape[1]:]
    return float(np.linalg.norm(part_a @ part_a.T - part_b @ part_b.T))
