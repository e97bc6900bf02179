"""Geometry-aware averaging of fixed-rank PSD matrices and distributed PCA.

The package works on the set of p x p PSD matrices of rank K whose
restriction to a chosen K-row index set is nonsingular. Such a matrix has a
unique reduced Cholesky factor whose index-set rows form a lower-triangular
block with positive diagonal; taking logs of that diagonal gives a global
chart in which the Karcher mean is an entrywise average, i.e. closed form.

The anchored factor (`CholFactor`, p x K) is the package's one PSD type:
`anchor` turns any p x K frame into it, `factorize(mat, rank, index_set)`
turns a p x p matrix into it, signals and samples are factors, and
`karcher_mean`, `geodesic_distance` and `euclid_rankk_mean` take factors
only. A `CholFactor` may also hold a stack (M, p, K) of M factors sharing
one index set: the samplers return one, and the factor path (anchoring,
the pivot rule, the chart maps, the Karcher mean) works on it whole. p x p
matrices appear only at the API edges (`factorize`, `CholFactor.matrix`).
Eigenpairs are `SpectralPair`s: `eigh_topk` and `summarize_covariance`
return them and the dpca aggregators take them.

Modules
-------
linalg
    The anchored factor and its pivot rule, the anchoring kernel, reduced
    Cholesky of a p x p matrix, the Householder lower-triangular/orthogonal
    decomposition, top-K eigenpairs (of one matrix or a stack, by a
    certified block subspace iteration) with a fixed sign convention.
manifold
    The p x p membership test and `factorize`, the chart's p x p entry
    point; the factor/log chart both ways, Karcher mean and geodesic
    distance.
perturbation
    First-order expansions: decomposition under additive noise, the Karcher
    factor under factor noise, invariant subspaces under symmetric noise,
    and the equivalent-noise construction for sample covariances.
models
    Seeded signal and noise generators (counter-style RNG streams).
dpca
    One-shot distributed PCA aggregators and the anchor-row selection
    heuristic.
experiments, cli
    Reproducible experiment drivers with CSV output, and `python -m psdk`;
    this plumbing is imported from `psdk.experiments`, not from `psdk`.
"""

from .dpca import (
    DpcaResult,
    dpca_bw,
    dpca_fan,
    euclid_rankk_mean,
    find_index,
    full_pca,
    lrc_dpca,
    summarize_covariance,
)
from .exceptions import (
    ConfigError,
    InsufficientPointsError,
    NotInManifoldError,
    PsdkError,
    ShapeMismatchError,
    SingularMatrixError,
    ZeroGapWarning,
)
from .linalg import (
    CholFactor,
    IndexSet,
    anchor,
    SpectralPair,
    eigh_topk,
    lq_givens,
    procrustes_sign,
    projector_distance,
    reduced_cholesky,
    support_mask,
)
from .manifold import (
    exp_factor,
    factorize,
    geodesic_distance,
    karcher_mean,
    log_factor,
    membership,
)
from .models import (
    RngStream,
    derive_stream_id,
    extrinsic_samples,
    factor_noise_samples,
    gaussian_samples,
    gaussian_svd_signal,
    intrinsic_samples,
    sample_cov,
    spiked_covariance,
)
from .perturbation import (
    eigvec_first_order,
    equivalent_factor_noise,
    factor_alignment,
    karcher_factor_first_order,
    lq_first_order,
    skew_generator,
)

__version__ = "0.1.0"

__all__ = [
    "CholFactor",
    "ConfigError",
    "DpcaResult",
    "IndexSet",
    "InsufficientPointsError",
    "NotInManifoldError",
    "PsdkError",
    "RngStream",
    "ShapeMismatchError",
    "SingularMatrixError",
    "SpectralPair",
    "ZeroGapWarning",
    "anchor",
    "derive_stream_id",
    "dpca_bw",
    "dpca_fan",
    "eigh_topk",
    "eigvec_first_order",
    "equivalent_factor_noise",
    "euclid_rankk_mean",
    "exp_factor",
    "extrinsic_samples",
    "factor_alignment",
    "factor_noise_samples",
    "factorize",
    "find_index",
    "full_pca",
    "gaussian_samples",
    "gaussian_svd_signal",
    "geodesic_distance",
    "intrinsic_samples",
    "karcher_factor_first_order",
    "karcher_mean",
    "log_factor",
    "lq_first_order",
    "lq_givens",
    "lrc_dpca",
    "membership",
    "procrustes_sign",
    "projector_distance",
    "reduced_cholesky",
    "sample_cov",
    "skew_generator",
    "spiked_covariance",
    "summarize_covariance",
    "support_mask",
]
