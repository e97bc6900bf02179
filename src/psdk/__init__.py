"""Geometry-aware averaging of fixed-rank PSD matrices and distributed PCA.

The package works on the set of p x p PSD matrices of rank K whose
restriction to a chosen K-row index set is nonsingular. Such a matrix has a
unique reduced Cholesky factor whose index-set rows form a lower-triangular
block with positive diagonal; taking logs of that diagonal gives a global
chart in which the Karcher mean is an entrywise average, i.e. closed form.

The anchored factor (`CholFactor`, p x K) is the package's one PSD type:
`anchor` turns any p x K frame into it, `factorize(mat, index_set)`
turns a p x p matrix into it, signals and samples are factors, and
`karcher_mean`, `geodesic_distance` and `euclid_rankk_mean` take factors
only. A `CholFactor` may also hold a stack (M, p, K) of M factors sharing
one index set: the samplers return one, and the factor path (anchoring,
the pivot rule, the chart maps, the Karcher mean) works on it whole. p x p
matrices appear only at the API edges (`factorize`, `CholFactor.matrix`).
Eigenpairs are `SpectralPair`s; M machines' are one stacked pair, which
`summarize_covariance` returns for an (M, p, p) stack and the aggregators take.

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

`import psdk` is lazy: it loads none of these modules, and so no numpy,
until a public name or submodule is first looked up on the package. The
CLI relies on that to load OpenBLAS single-threaded (see `psdk.cli`).
"""

import importlib

# Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "dpca": ("DpcaResult", "dpca_bw", "dpca_fan", "euclid_rankk_mean", "find_index",
             "full_pca", "lrc_dpca", "summarize_covariance"),
    "exceptions": ("ConfigError", "InsufficientPointsError", "NotInManifoldError",
                   "PsdkError", "ShapeMismatchError", "SingularMatrixError",
                   "ZeroGapWarning"),
    "linalg": ("CholFactor", "IndexSet", "anchor", "SpectralPair", "eigh_topk",
               "lq_givens", "procrustes_sign", "projector_distance", "reduced_cholesky",
               "support_mask"),
    "manifold": ("exp_factor", "factorize", "geodesic_distance", "karcher_mean",
                 "log_factor", "membership"),
    "models": ("RngStream", "derive_stream_id", "extrinsic_samples",
               "factor_noise_samples", "gaussian_samples", "gaussian_svd_signal",
               "intrinsic_samples", "sample_cov", "spiked_covariance"),
    "perturbation": ("eigvec_first_order", "equivalent_factor_noise", "factor_alignment",
                     "karcher_factor_first_order", "lq_first_order", "skew_generator"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name):
    """A public name, or one of the submodules above, imported on first use
    and kept in the package namespace."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SOURCE[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
