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

# Relative eigenvalue threshold for "numerical rank K" membership tests:
# lambda_{K+1} < TAU_RANK * lambda_K.
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
    """Absolute singularity threshold for `mat`: TAU_PIVOT_REL times its max-norm."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    return TAU_PIVOT_REL * float(np.max(np.abs(mat)))


def _check_integer(name, value):
    """`value` as an int; ConfigError unless it is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_rank(rank, p, top=None):
    """Raise unless `rank` is an integer (ConfigError) in [1, top], top
    defaulting to p (ShapeMismatchError)."""
    if not 1 <= _check_integer("rank", rank) <= (p if top is None else top):
        raise ShapeMismatchError(f"rank {rank} invalid for p = {p}")


def _sample_stack(items, what, shape=None, ndims=(3,)):
    """`items`, an array or a sequence of equal-shape arrays, through one
    `np.asarray` to a float array (..., M, *shape) of `ndims` axes, M >= 1
    (`shape` None: square matrices); else ShapeMismatchError naming `what`."""
    try:
        stack = np.asarray(items, dtype=float)
    except (TypeError, ValueError):
        raise ShapeMismatchError(f"{what} differ in shape or are not numbers") from None
    if not stack.size:
        raise ShapeMismatchError(f"{what}: need at least one")
    want = f"factor shape {shape}" if shape else "square matrices"
    if stack.ndim not in ndims or stack.shape[-2:] != (shape or stack.shape[-1:] * 2):
        raise ShapeMismatchError(f"{what}: shape {stack.shape} does not match {want} "
                                 f"(leading axes: {' or '.join(str(n - 2) for n in ndims)})")
    return stack


def check_finite(what, *arrays):
    """Raise ShapeMismatchError("<what> must be finite") on a NaN or Inf entry."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ShapeMismatchError(f"{what} must be finite")


def check_symmetric(mat):
    """Raise ShapeMismatchError if max|A - A.T| exceeds SYM_RTOL * max|A|."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {mat.shape}")
    _symmetric_scales(mat[None], stacked=False)
    return mat


def _symmetric_scales(mats, stacked):
    """max|A| per element of an (M, p, p) stack, after checking that every
    element is finite and symmetric within SYM_RTOL; for a `stacked` input
    the error names the first failing element ("element m: ...")."""
    check_finite("matrix entries", mats)
    if not mats.size:
        return np.zeros(len(mats))
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
        if not np.iterable(self.indices):
            raise ConfigError(f"index set must be a sequence of rows, got {self.indices!r}")
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


def support_mask(p, rank, index_set):
    """Boolean (p, rank) mask of entries a reduced factor may populate.

    True everywhere except above the diagonal of the anchored block: row
    index_set[k] is False in columns k+1, ..., rank-1.
    """
    index_set.validate_for(p)
    if len(index_set) != rank:
        raise ShapeMismatchError(
            f"index set has {len(index_set)} rows, factor rank is {rank}"
        )
    mask = np.ones((p, rank), dtype=bool)
    mask[index_set.as_array()] = np.tril(np.ones((rank, rank), dtype=bool))
    return mask


@dataclass
class CholFactor:
    """Reduced Cholesky factor: p x K entries plus the anchor index set.

    Invariant (see `validate`): entries[index_set[k], l] == 0 for l > k and
    entries[index_set[k], k] > 0, i.e. the anchor rows form a lower-triangular
    block with positive diagonal. The entries may be a stack (M, p, K) of M
    factors sharing the index set: every method then works on the whole
    stack, and `len()`, indexing and iteration run over its leading axis.
    """

    entries: np.ndarray
    index_set: IndexSet

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
        if np.ndim(self.entries) != 3:
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

    def _pivot_rule(self):
        """`pivot_failure`'s rule over the leading axis: the positions that
        fail it (0 for a failing single factor) and the first one's reason."""
        ent = np.reshape(self.entries, (-1,) + np.shape(self.entries)[-2:])
        finite = np.isfinite(ent).all(axis=(1, 2))
        pivots = np.min(ent[:, self.index_set.as_array(), np.arange(self.rank)] ** 2, axis=1)
        taus = TAU_PIVOT_REL * np.max(np.einsum("mij,mij->mi", ent, ent), axis=1)
        bad = np.flatnonzero(~finite | (pivots <= taus))
        if bad.size == 0:
            return bad, None
        if not finite[bad[0]]:
            return bad, "non-finite factor entry"
        return bad, (f"anchor block {self.index_set.indices} singular "
                     f"(min pivot {pivots[bad[0]]:.3e}, threshold {taus[bad[0]]:.3e})")

    def pivot_failure(self):
        """Why N @ N.T is not a chart point at this index set, or None if it is.

        `reduced_cholesky`'s pivot rule without forming N @ N.T: its pivots are
        the squared anchored diagonal, its max-norm the largest squared row
        norm. Non-finite entries fail too. A stack fails on its first failing
        element, which the reason names ("element m: ...")."""
        bad, reason = self._pivot_rule()
        if reason is None or np.ndim(self.entries) == 2:
            return reason
        return f"element {bad[0]}: {reason}"

    def validate(self):
        """Raise if the anchored triangular structure is violated, in any element."""
        ent = np.asarray(self.entries, dtype=float)
        if ent.ndim not in (2, 3):
            raise ShapeMismatchError(f"factor entries must be 2-d or 3-d, got {ent.ndim}-d")
        check_finite("factor entries", ent)
        p, rank = ent.shape[-2:]
        if len(self.index_set) != rank:
            raise ShapeMismatchError(
                f"index set has {len(self.index_set)} rows, factor has rank {rank}"
            )
        self.index_set.validate_for(p)
        block = self.anchor_block()
        if np.any(np.triu(block, 1)):
            raise ShapeMismatchError(
                "anchor rows are not lower triangular: nonzero above the diagonal"
            )
        diag = np.diagonal(block, axis1=-2, axis2=-1)
        if np.any(diag <= 0.0):
            raise NotInManifoldError(
                f"anchored diagonal must be positive, got min = {diag.min():.3e}"
            )
        return self


@dataclass
class SpectralPair:
    """Top-K eigenpair bundle: orthonormal vectors (p, K), values (K,)
    descending; or a stack of M such pairs, vectors (M, p, K) and values
    (M, K), as `eigh_topk` returns for a stack of matrices."""

    vectors: np.ndarray
    values: np.ndarray


def reduced_cholesky(mat, rank, index_set):
    """Reduced Cholesky factor of a rank-`rank` PSD matrix.

    Computes the unique p x K matrix N with N @ N.T == mat whose anchor rows
    N[index_set, :] are lower triangular with positive diagonal. The anchor
    block is factored by a pivoted-checked Cholesky; the remaining rows follow
    from one triangular solve.

    Parameters
    ----------
    mat : ndarray, shape (p, p)
        Symmetric PSD matrix of numerical rank `rank` whose anchor block
        mat[index_set][:, index_set] is nonsingular.
    rank : int
        Target rank K, 1 <= rank <= p.
    index_set : IndexSet
        Anchor rows, length K.

    Returns
    -------
    CholFactor

    Raises
    ------
    NotInManifoldError
        If a Cholesky pivot of the anchor block falls below the relative
        threshold TAU_PIVOT_REL * max|mat|.
    ShapeMismatchError
        On inconsistent dimensions, or if max|mat - mat.T| exceeds tolerance.
    """
    mat = check_symmetric(mat)
    p = mat.shape[0]
    _check_rank(rank, p)
    if len(index_set) != rank:
        raise ShapeMismatchError(
            f"index set has {len(index_set)} rows, requested rank is {rank}"
        )
    index_set.validate_for(p)

    rows = index_set.as_array()
    block = mat[np.ix_(rows, rows)]
    tril, min_pivot = _cholesky_pivots(block, pivot_threshold(mat))
    if tril is None:
        raise NotInManifoldError(
            f"anchor block pivot {min_pivot:.3e} below threshold "
            f"{pivot_threshold(mat):.3e} for index set {index_set.indices}"
        )

    # N = mat[:, rows] @ inv(tril).T, via one triangular solve.
    entries = _solve_lower(tril, mat[:, rows].T).T
    # The anchor rows equal tril up to roundoff; write them exactly so the
    # structural zeros and the positive diagonal hold bit-for-bit.
    entries[rows, :] = tril
    return CholFactor(entries, index_set)


def _cholesky_pivots(block, tau):
    """Lower Cholesky of a small symmetric block with explicit pivot checks.

    Returns (tril, min_pivot); tril is None when some Schur-complement pivot
    drops to `tau` or below.
    """
    k = block.shape[0]
    tril = np.zeros((k, k))
    min_pivot = np.inf
    for j in range(k):
        pivot = block[j, j] - tril[j, :j] @ tril[j, :j]
        min_pivot = min(min_pivot, pivot)
        if pivot <= tau:
            return None, min_pivot
        tril[j, j] = np.sqrt(pivot)
        if j + 1 < k:
            tril[j + 1 :, j] = (block[j + 1 :, j] - tril[j + 1 :, :j] @ tril[j, :j]) / tril[j, j]
    return tril, min_pivot


def _solve_lower(tril, rhs):
    """X with tril @ X == rhs for a nonsingular K x K lower-triangular `tril`,
    by forward substitution: K row steps; no checks. `rhs` may be a stack
    (..., K, n) of right-hand sides."""
    out = np.empty(np.shape(rhs))
    for i in range(tril.shape[0]):
        out[..., i, :] = (rhs[..., i, :] - tril[i, :i] @ out[..., :i, :]) / tril[i, i]
    return out


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
    check_finite("matrix entries", mat)
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
    ShapeMismatchError.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim not in (2, 3) or len(index_set) != frame.shape[-1]:
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
    matrix not certified within EIGH_BUDGET iterations, or whose residual
    decay shows that it cannot be, gets the full `np.linalg.eigh` instead.
    Which path a matrix takes depends on that matrix alone.

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
        On a non-finite, non-square or asymmetric input, or a rank outside
        [1, p] (a rank that is not an integer is a ConfigError).
    """
    mat = _sample_stack(mat, "eigh_topk matrices", ndims=(2, 3))
    mats = mat if mat.ndim == 3 else mat[None]
    scales = _symmetric_scales(mats, stacked=mat.ndim == 3)
    p = mats.shape[-1]
    _check_rank(rank, p)
    values, vectors = _topk(mats, rank, scales)
    mags = np.abs(vectors)
    rows = np.argmax(mags >= (1.0 - SIGN_TIE_REL) * mags.max(axis=1, keepdims=True), axis=1)
    leads = vectors[np.arange(len(vectors))[:, None], rows, np.arange(rank)]
    vectors *= np.where(leads < 0.0, -1.0, 1.0)[:, None, :]
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
    that range reaches the tolerance. An element leaves the iteration when
    they are certified (see `eigh_topk`), or when it cannot be within the
    budget: its residual has converged yet the tail bound fails, or ||G||_F,
    shrinking at its last observed rate, would still be too large after the
    remaining iterations. Those go to `np.linalg.eigh`.
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
    values = np.empty((count, rank))
    vectors = np.empty((count, p, rank))
    live, sub, prev = np.arange(count), mats, np.inf
    fallback = []
    # One product before the first step: the start block's own residual
    # says nothing about the rate at which the iteration converges.
    orth = np.linalg.qr(mats @ _start_block(p, rank))[0]
    for step in range(1, EIGH_BUDGET + 1):
        image = (sub @ orth) * unit[:, None, None]
        proj = np.swapaxes(orth, -1, -2) @ image
        off = image - orth @ proj
        frob = np.sqrt(np.einsum("mij,mij->m", off, off))
        # leave when the rate of decay says the budget cannot be met
        leave = ~(frob * (frob / prev) ** (EIGH_BUDGET - step) <= loose) | (step == EIGH_BUDGET)
        failed = leave
        trial = np.flatnonzero(frob <= loose)
        if trial.size:
            # Rayleigh-Ritz, ascending: ritz[:, 0] is the smallest kept value
            ritz, rot = np.linalg.eigh(proj[trial])
            resid = np.abs(off[trial] @ rot).reshape(len(trial), -1).max(axis=1)
            tail = np.sqrt(np.maximum(fro_sq[trial] - np.einsum("mk,mk->m", ritz, ritz), 0.0))
            converged = resid <= tol[trial]
            ok = converged & (ritz[:, 0] > tail)
            values[live[trial[ok]]] = ritz[ok, ::-1] / unit[trial[ok], None]
            vectors[live[trial[ok]]] = orth[trial[ok]] @ rot[ok, :, ::-1]
            # a converged element leaves: certified, or failing the tail bound for good
            leave[trial] |= converged
            failed = leave.copy()
            failed[trial[ok]] = False
        fallback.extend(live[failed])
        if leave.all():
            break
        if leave.any():
            keep = ~leave
            live, sub, image, frob = live[keep], sub[keep], image[keep], frob[keep]
            tol, loose, fro_sq, unit = tol[keep], loose[keep], fro_sq[keep], unit[keep]
        orth = np.linalg.qr(image)[0]
        prev = frob
    if fallback:
        full_values, full_vectors = np.linalg.eigh(mats[fallback])
        # Reverse first, then slice: descending order, and rank == p keeps all.
        values[fallback] = full_values[:, ::-1][:, :rank]
        vectors[fallback] = full_vectors[:, :, ::-1][:, :, :rank]
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
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {mat.shape}")
    check_finite("matrix entries", mat)
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
    basis_a = np.asarray(basis_a, dtype=float)
    basis_b = np.asarray(basis_b, dtype=float)
    if basis_a.ndim != 2 or basis_b.ndim != 2:
        raise ShapeMismatchError("bases must be 2-d arrays")
    if basis_a.shape != basis_b.shape:
        raise ShapeMismatchError(
            f"bases have different shapes {basis_a.shape} and {basis_b.shape}"
        )
    if basis_a.shape[0] < basis_a.shape[1]:
        raise ShapeMismatchError(
            f"expected tall matrices, got shape {basis_a.shape}"
        )
    check_finite("basis entries", basis_a, basis_b)
    upper = np.linalg.qr(np.hstack([basis_a, basis_b]), mode="r")
    part_a, part_b = upper[:, :basis_a.shape[1]], upper[:, basis_a.shape[1]:]
    return float(np.linalg.norm(part_a @ part_a.T - part_b @ part_b.T))
