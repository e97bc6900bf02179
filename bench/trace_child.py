"""Run the psdk CLI with spans around the calls into each layer.

Usage: python trace_child.py SPANS_JSON -- CLI_ARGS...

Imports psdk as `python -m psdk` does, replaces the layer functions named in
TRACED in every psdk module namespace that holds them (so that names another
module imported directly, such as `experiments.eigh_topk` or
`dpca.karcher_mean`, are traced too), wraps each experiment job through
`experiments._run_ordered`, then calls `psdk.cli.main` with CLI_ARGS. Spans
are kept in memory and written to SPANS_JSON when the CLI returns; the exit
code is the CLI's.

A span is [id, name, start, end, parent id, thread id, extra, error], times
from time.perf_counter(). `extra` is a count computed from the call's
arguments where a metric needs one, else 0.
"""

import functools
import itertools
import json
import sys
import threading
import time

TRACED = {
    "psdk.experiments": ("write_csv",),
    "psdk.models": ("intrinsic_samples", "extrinsic_samples", "gaussian_samples",
                    "sample_cov", "factor_noise_samples"),
    "psdk.manifold": ("karcher_mean", "membership"),
    "psdk.linalg": ("eigh_topk", "reduced_cholesky", "lq_givens", "projector_distance"),
    "psdk.dpca": ("summarize_covariance", "find_index", "lrc_dpca", "full_pca",
                  "dpca_fan", "dpca_bw", "euclid_rankk_mean"),
    "psdk.perturbation": ("karcher_factor_first_order", "lq_first_order"),
}


def _normal_draws(args, kwargs):
    """models.gaussian_samples(cov, n, rng) draws n * p standard normals."""
    cov = args[0] if args else kwargs["cov"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    return int(n) * len(cov)


def _karcher_input_bytes(args, kwargs):
    """manifold.karcher_mean(psds) receives len(psds) p x p float64 matrices."""
    psds = args[0] if args else kwargs["psds"]
    return sum(8 * psd.p * psd.p for psd in psds)


EXTRA = {
    "models.gaussian_samples": _normal_draws,
    "manifold.karcher_mean": _karcher_input_bytes,
}


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, parent=None):
        extra_fn = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "manifold.karcher_mean" and args:
                # karcher_mean takes any iterable; count it without consuming it
                args = (list(args[0]),) + args[1:]
            extra = extra_fn(args, kwargs) if extra_fn is not None else 0
            stack = self._stack()
            up = stack[-1] if stack else parent
            sid = next(self._ids)
            stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                error = type(err).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([sid, name, start, end, up, threading.get_ident(),
                                   extra, error])

        return traced

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None


def install(tracer):
    """Replace the traced functions in every loaded psdk module namespace."""
    import psdk.experiments as experiments

    wrapped = {}
    for modname, names in TRACED.items():
        mod = sys.modules[modname]
        for name in names:
            fn = getattr(mod, name)
            wrapped[id(fn)] = tracer.wrap(f"{modname[5:]}.{name}", fn)
    for modname, mod in list(sys.modules.items()):
        if modname == "psdk" or modname.startswith("psdk."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])

    for key, runner in list(experiments.RUNNERS.items()):
        experiments.RUNNERS[key] = tracer.wrap("experiments.runner", runner)

    run_ordered = experiments._run_ordered

    def traced_run_ordered(worker, jobs, threads):
        job = tracer.wrap("experiments.job", worker, parent=tracer.current())
        return run_ordered(job, jobs, threads)

    experiments._run_ordered = traced_run_ordered


def main(argv):
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON -- CLI_ARGS...")
    import psdk  # noqa: F401  (package import first, as python -m psdk does)
    import psdk.cli

    tracer = Tracer()
    install(tracer)
    rc = psdk.cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"psdk_file": psdk.__file__, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
