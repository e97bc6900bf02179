import contextlib
import itertools
import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from psdk import experiments, linalg, models
from psdk.exceptions import (
    ConfigError,
    InsufficientPointsError,
    NotInManifoldError,
    SingularMatrixError,
)
from psdk.experiments import (
    CSV_HEADER,
    _aggregate_or_skip,
    ExperimentConfig,
    RunRecord,
    load_config,
    parse_config_file,
    render_csv,
    run_dpca,
    run_extrinsic,
    run_intrinsic,
    run_perturb_order,
    run_selftest,
    slope_fit,
    summarize_records,
)
from psdk.linalg import IndexSet, projector_distance
from psdk.models import derive_stream_id

# ---------------------------------------------------------------------------
# slope fitting


def test_slope_fit_recovers_power_law():
    points = [(x, 3.0 * x**-0.5) for x in (1.0, 2.0, 4.0, 8.0)]
    fit = slope_fit(points)
    assert abs(fit.slope - (-0.5)) < 1e-12
    assert abs(fit.intercept - math.log(3.0)) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12


def test_slope_fit_drops_nonpositive_pairs():
    points = [(1.0, 2.0), (2.0, 4.0), (4.0, 8.0), (8.0, 0.0), (-1.0, 5.0)]
    fit = slope_fit(points)
    assert fit.n_points == 3
    assert abs(fit.slope - 1.0) < 1e-12


def test_batched_slope_fits_follow_slope_fit():
    """One pass over a stack of curves gives slope_fit's fit of each curve:
    a nonpositive or NaN point drops out, and a curve left with fewer than
    two distinct x gets NaN; the fit is np.polyfit's up to roundoff."""
    xs = np.array([[1.0, 2.0, 4.0, 8.0], [1.0, 2.0, 4.0, 8.0],
                   [1.0, 1.0, 2.0, np.nan], [3.0, 3.0, 3.0, 3.0]])
    ys = np.array([[2.0, 7.0, 33.0, 121.0], [1.0, -4.0, 16.0, 64.0],
                   [1.0, 2.0, 0.0, 5.0], [1.0, 2.0, 3.0, 4.0]])
    fits = experiments._slope_fits(xs, ys)
    assert fits.n_points.tolist() == [4, 3, 2, 4]
    assert np.isnan(fits.slope[2:]).all() and np.isnan(fits.r_squared[2:]).all()
    for c in (0, 1):
        keep = ys[c] > 0
        one = slope_fit(zip(xs[c], ys[c]))
        assert (one.slope, one.intercept, one.r_squared, one.n_points) == (
            fits.slope[c], fits.intercept[c], fits.r_squared[c], fits.n_points[c])
        want = np.polyfit(np.log(xs[c][keep]), np.log(ys[c][keep]), 1)
        np.testing.assert_allclose([one.slope, one.intercept], want, rtol=1e-12, atol=1e-14)
    assert fits.slope[1] == 2.0


def test_slope_fit_insufficient_points():
    with pytest.raises(InsufficientPointsError):
        slope_fit([])
    with pytest.raises(InsufficientPointsError):
        slope_fit([(1.0, 1.0)])
    with pytest.raises(InsufficientPointsError):
        slope_fit([(1.0, 1.0), (1.0, 2.0)])  # same x
    with pytest.raises(InsufficientPointsError):
        slope_fit([(1.0, -1.0), (2.0, -2.0)])


def test_slope_fit_drops_non_finite_points():
    """A point with an infinite coordinate drops out as a nonpositive one
    does, and the count names the points kept."""
    with pytest.raises(InsufficientPointsError, match="got 1$"):
        slope_fit([(1.0, math.inf), (2.0, 1.0)])
    fit = slope_fit([(math.inf, 1.0), (2.0, 1.0), (4.0, 0.5)])
    assert fit.n_points == 2
    assert abs(fit.slope - (-1.0)) < 1e-12


# ---------------------------------------------------------------------------
# CSV output


def test_csv_header_is_frozen():
    assert CSV_HEADER == (
        "experiment,method,p,K,M,n,sigma_sq,repetition,seed,error,wall_time_ms"
    )
    assert render_csv([]).split("\n")[0] == CSV_HEADER


def test_csv_floats_roundtrip():
    rec = RunRecord("dpca", "lrc", 10, 2, 5, 100, 1.0 / 3.0, 0, 42, 1e-300)
    text = render_csv([rec])
    line = text.split("\n")[1]
    cells = line.split(",")
    assert cells[6] == "0.33333333333333331"
    assert float(cells[9]) == 1e-300
    assert cells[10] == "0"


def test_csv_newlines():
    rec = RunRecord("dpca", "lrc", 10, 2, 5, 100, 0.0, 0, 42, 0.5)
    text = render_csv([rec])
    assert "\r" not in text
    assert text.endswith("\n")
    assert text.count("\n") == 2


# ---------------------------------------------------------------------------
# configuration


def test_default_configs_validate():
    assert list(experiments.RUNNERS) == [
        "intrinsic_avg", "dpca", "extrinsic_avg", "perturb_order"]
    for experiment in experiments.RUNNERS:
        for quick in (False, True):
            assert load_config(experiment, quick=quick).experiment == experiment


def test_an_unknown_experiment_has_one_message():
    """load_config's refusal is the constructor's (`_INVALID_CONFIGS`)."""
    with pytest.raises(ConfigError) as err:
        load_config("mystery", quick=True)
    assert str(err.value) == _INVALID_CONFIGS["unknown-experiment"][1]


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "\n"
        "p = 40  # trailing comment\n"
        "M_grid = 10, 20,30\n"
        "sigma_sq = 0.25\n"
    )
    values = parse_config_file(path)
    assert values == {"p": "40", "M_grid": "10, 20,30", "sigma_sq": "0.25"}


def test_parse_config_file_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p = 40\nK = 3\n\n  p=50  # again\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:4: key 'p' set again, first set on line 1$"):
        parse_config_file(path)


def test_load_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p = 40\nrepetitions = 5\n")
    cfg = load_config("intrinsic_avg", path=path, quick=True,
                      overrides={"master_seed": 9, "output_path": None})
    assert cfg.p == 40              # file beats default
    assert cfg.repetitions == 5
    assert cfg.master_seed == 9     # override beats file
    assert cfg.output_path == ""    # None overrides are skipped
    assert cfg.p_grid == ()         # the file's p clears the default p grid


def test_load_config_checks_only_the_merged_config(tmp_path):
    """p = 3 with the quick default K = 5 would be refused; the file's K = 2
    arrives in the same merge, so no halfway config is checked."""
    path = tmp_path / "run.cfg"
    path.write_text("p = 3\nK = 2\n")
    cfg = load_config("intrinsic_avg", path=path, quick=True)
    assert (cfg.p, cfg.K, cfg.p_grid) == (3, 2, ())


def test_replace_checks_the_config():
    cfg = load_config("intrinsic_avg", quick=True)
    with pytest.raises(ConfigError, match=r"^need 1 <= K <= p, got K=51, p=50$"):
        replace(cfg, K=cfg.p + 1)


def test_load_config_experiment_mismatch_warns(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = dpca\n")
    cfg = load_config("intrinsic_avg", path=path, quick=True)
    assert cfg.experiment == "intrinsic_avg"
    assert "command line selects" in capsys.readouterr().err


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("granularity = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config("intrinsic_avg", path=path, quick=True)


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p = many\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config("intrinsic_avg", path=path, quick=True)


def test_load_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p 40\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        load_config("intrinsic_avg", path=path, quick=True)


def test_load_config_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"p = 5\xff\n")
    with pytest.raises(ConfigError, match="run.cfg: not UTF-8 text"):
        load_config("intrinsic_avg", path=path, quick=True)


_BASE = dict(p=10, K=2, M_grid=(3,), repetitions=2)
_SMALL = dict(p=10, K=2, repetitions=2)

# id: (ExperimentConfig arguments, the whole ConfigError message)
_INVALID_CONFIGS = {
    "unknown-experiment": (dict(experiment="mystery"), (
        "unknown experiment 'mystery', expected one of "
        "('intrinsic_avg', 'dpca', 'extrinsic_avg', 'perturb_order')")),
    "K-above-p": (dict(experiment="intrinsic_avg", **{**_BASE, "K": 11}),
                  "need 1 <= K <= p, got K=11, p=10"),
    "sigma_sq-negative": (dict(experiment="intrinsic_avg", **{**_BASE, "sigma_sq": -1.0}),
                          "sigma_sq must be finite and nonnegative, got -1.0"),
    "sigma_sq-nan": (dict(experiment="intrinsic_avg", **{**_BASE, "sigma_sq": math.nan}),
                     "sigma_sq must be finite and nonnegative, got nan"),
    "sigma_sq-inf": (dict(experiment="intrinsic_avg", **{**_BASE, "sigma_sq": math.inf}),
                     "sigma_sq must be finite and nonnegative, got inf"),
    "repetitions-zero": (dict(experiment="intrinsic_avg", **{**_BASE, "repetitions": 0}),
                         "repetitions out of range: 0"),
    "master_seed-negative": (dict(experiment="intrinsic_avg", **{**_BASE, "master_seed": -1}),
                             "master_seed must be nonnegative, got -1"),
    "threads-zero": (dict(experiment="intrinsic_avg", **{**_BASE, "threads": 0}),
                     "threads must be positive, got 0"),
    "index_mode-unknown": (
        dict(experiment="intrinsic_avg", **{**_BASE, "index_mode": "psychic"}),
        "unknown index_mode 'psychic', expected one of "
        "('canonical', 'find_index_oracle', 'find_index_machine1')"),
    "index_mode-machine1-without-machines": (
        dict(experiment="intrinsic_avg", **{**_BASE, "index_mode": "find_index_machine1"}),
        "index_mode find_index_machine1 needs machines (dpca only)"),
    "M_grid-zero": (dict(experiment="intrinsic_avg", **{**_BASE, "M_grid": (0,)}),
                    "M_grid entries must be positive, got (0,)"),
    "p_grid-below-K": (dict(experiment="intrinsic_avg", **{**_BASE, "p_grid": (1,)}),
                       "p_grid entry 1 smaller than K=2"),
    "intrinsic-no-M_grid": (dict(experiment="intrinsic_avg", **{**_BASE, "M_grid": ()}),
                            "intrinsic_avg needs a nonempty M_grid"),
    "dpca-no-n_grid": (dict(experiment="dpca", **_BASE),
                       "dpca needs nonempty M_grid and n_grid"),
    "extrinsic-no-grid": (dict(experiment="extrinsic_avg", **_SMALL),
                          "extrinsic_avg needs M_grid or sigma_grid"),
    "sigma_grid-negative": (dict(experiment="extrinsic_avg", **_SMALL, sigma_grid=(-0.1,)),
                            "sigma_grid entries must be finite and nonnegative: (-0.1,)"),
    "sigma_grid-nan": (dict(experiment="extrinsic_avg", **_SMALL, sigma_grid=(0.1, math.nan)),
                       "sigma_grid entries must be finite and nonnegative: (0.1, nan)"),
    "extrinsic-n_inner-zero": (
        dict(experiment="extrinsic_avg", **_SMALL, sigma_grid=(0.1,), n_inner=0),
        "n_inner must be positive, got 0"),
    "perturb-short-eps_grid": (
        dict(experiment="perturb_order", **_SMALL, eps_grid=(1e-2, 1e-3)),
        "perturb_order needs an eps_grid with >= 4 points"),
    "eps_grid-zero": (
        dict(experiment="perturb_order", **_SMALL, eps_grid=(1e-2, 1e-3, 1e-4, 0.0)),
        "eps_grid entries must be finite and positive: (0.01, 0.001, 0.0001, 0.0)"),
    "eps_grid-nan": (
        dict(experiment="perturb_order", **_SMALL, eps_grid=(1e-2, 1e-3, math.nan, 1e-4)),
        "eps_grid entries must be finite and positive: (0.01, 0.001, nan, 0.0001)"),
    "perturb-K-one": (dict(experiment="perturb_order", p=10, K=1, repetitions=2),
                      "perturb_order needs K >= 2"),
    # rank at most n < K: the K-th eigenvalue of every estimate is 0
    "n_grid-below-K": (dict(experiment="dpca", **{**_BASE, "n_grid": (50, 1)}),
                       "n_grid entry 1 smaller than K=2"),
    # the dpca model's noise is fixed, so a sigma_sq would only mislabel its rows
    "dpca-sigma_sq": (
        dict(experiment="dpca", **{**_BASE, "n_grid": (50,), "sigma_sq": 5.0}),
        "dpca needs sigma_sq = 0: its noise is the spiked covariance's fixed ridge"),
    "extrinsic-n_inner-below-K": (
        dict(experiment="extrinsic_avg", **_SMALL, M_grid=(3,), n_inner=1),
        "extrinsic_avg needs n_inner >= K"),
    # each field's range is checked whatever the experiment reads
    "intrinsic-sigma_grid-negative": (
        dict(experiment="intrinsic_avg", **{**_BASE, "sigma_grid": (-0.1,)}),
        "sigma_grid entries must be finite and nonnegative: (-0.1,)"),
    "intrinsic-eps_grid-zero": (
        dict(experiment="intrinsic_avg", **{**_BASE, "eps_grid": (1e-2, 1e-3, 1e-4, 0.0)}),
        "eps_grid entries must be finite and positive: (0.01, 0.001, 0.0001, 0.0)"),
    "perturb-M_fixed-zero": (dict(experiment="perturb_order", **_SMALL, M_fixed=0),
                             "M_fixed out of range: 0"),
    "perturb-n_inner-zero": (dict(experiment="perturb_order", **_SMALL, n_inner=0),
                             "n_inner must be positive, got 0"),
    "extrinsic-M_fixed-zero": (
        dict(experiment="extrinsic_avg", **_SMALL, M_grid=(3,), M_fixed=0),
        "M_fixed out of range: 0"),
}


@pytest.mark.parametrize("case", list(_INVALID_CONFIGS))
def test_config_validation_errors(case):
    """Each invalid config is refused when it is built, with its own message."""
    kwargs, message = _INVALID_CONFIGS[case]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**kwargs)


def test_find_index_machine1_names_the_experiments_with_machines():
    cfg = load_config("extrinsic_avg", quick=True)
    with pytest.raises(ConfigError) as err:
        replace(cfg, index_mode="find_index_machine1")
    assert str(err.value) == "index_mode find_index_machine1 needs machines (dpca only)"


def test_runner_rejects_foreign_config():
    cfg = load_config("dpca", quick=True)
    with pytest.raises(ConfigError, match="not intrinsic_avg"):
        run_intrinsic(cfg)


# ---------------------------------------------------------------------------
# intrinsic averaging runner


def _tiny_intrinsic(**kwargs):
    base = dict(
        experiment="intrinsic_avg", p=12, K=2, sigma_sq=1.0, p_grid=(12,),
        M_grid=(3, 6), repetitions=4, master_seed=5,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_run_intrinsic_shape_and_methods():
    records = run_intrinsic(_tiny_intrinsic())
    assert len(records) == 1 * 2 * 4 * 2
    assert {r.method for r in records} == {"karcher", "euclid"}
    assert all(r.experiment == "intrinsic_avg" for r in records)
    assert all(r.n == 0 for r in records)
    assert all(r.error >= 0 for r in records)


def test_run_intrinsic_zero_noise_recovers_signal():
    records = run_intrinsic(_tiny_intrinsic(sigma_sq=0.0))
    assert max(r.error for r in records) < 1e-8


def test_run_intrinsic_thread_count_invisible():
    a = render_csv(run_intrinsic(_tiny_intrinsic()))
    b = render_csv(run_intrinsic(_tiny_intrinsic(threads=3)))
    assert a == b


def test_run_intrinsic_error_grows_with_p_shrinks_with_m():
    cfg = ExperimentConfig(
        experiment="intrinsic_avg", p=20, K=3, sigma_sq=1.0, p_grid=(20, 40),
        M_grid=(10, 40), repetitions=10, master_seed=1,
    )
    records = run_intrinsic(cfg)
    med = {}
    for p in (20, 40):
        for m in (10, 40):
            errs = [r.error for r in records
                    if r.method == "karcher" and r.p == p and r.M == m]
            med[(p, m)] = np.median(errs)
    assert med[(20, 40)] < med[(20, 10)]
    assert med[(40, 40)] < med[(40, 10)]
    assert med[(40, 10)] > med[(20, 10)]
    assert med[(40, 40)] > med[(20, 40)]


def test_run_intrinsic_supports_oracle_rows():
    records = run_intrinsic(_tiny_intrinsic(index_mode="find_index_oracle"))
    assert len(records) == 16
    assert all(np.isfinite(r.error) and r.error >= 0 for r in records)


# ---------------------------------------------------------------------------
# distributed PCA runner


def _tiny_dpca(**kwargs):
    base = dict(
        experiment="dpca", p=12, K=2, sigma_sq=0.0, M_grid=(3,), n_grid=(60, 120),
        repetitions=3, master_seed=11, index_mode="canonical",
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_run_dpca_shape_and_methods():
    records = run_dpca(_tiny_dpca())
    assert len(records) == 2 * 3 * 4
    assert {r.method for r in records} == {"full", "lrc", "fan", "bw"}
    assert all(0 <= r.error <= 2.0 for r in records)


def test_run_dpca_seed_column_is_stream_id():
    records = run_dpca(_tiny_dpca())
    for rec in records:
        gi = {60: 0, 120: 1}[rec.n]
        assert rec.seed == derive_stream_id(2, gi, rec.repetition, 0)


def test_run_dpca_index_modes():
    for mode in ("canonical", "find_index_oracle", "find_index_machine1"):
        records = run_dpca(_tiny_dpca(index_mode=mode))
        assert {r.method for r in records} == {"full", "lrc", "fan", "bw"}


def test_run_dpca_draws_no_data(monkeypatch):
    """A machine's covariance comes from the Gram matrix of its normals, not
    from simulated data and its second moment."""

    def forbidden(*args, **kwargs):
        raise AssertionError("run_dpca simulated a machine's data")

    monkeypatch.setattr(models, "gaussian_samples", forbidden)
    monkeypatch.setattr(models, "sample_cov", forbidden)
    assert len(run_dpca(_tiny_dpca())) == 2 * 3 * 4


def test_run_dpca_thread_count_invisible():
    a = render_csv(run_dpca(_tiny_dpca(index_mode="find_index_machine1")))
    b = render_csv(run_dpca(_tiny_dpca(index_mode="find_index_machine1", threads=4)))
    assert a == b


# ---------------------------------------------------------------------------
# extrinsic averaging runner


def _tiny_extrinsic(**kwargs):
    base = dict(
        experiment="extrinsic_avg", p=10, K=2, sigma_sq=0.2, M_grid=(3,),
        sigma_grid=(0.0, 0.4), M_fixed=4, n_inner=80, repetitions=3,
        master_seed=2,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("p, k", [(30, 4), (5, 3), (1, 1)])
def test_factor_distance_is_the_frobenius_distance_of_the_matrices(p, k):
    """projector_distance, which scores the averaging experiments' means, in
    its 2K x 2K form equals ||A A.T - B B.T||_F formed from p x p matrices
    within 1e-12 relative, also where p < 2K, and reads 0 up to roundoff
    for two frames of one matrix."""
    gen = np.random.default_rng(p + k)
    for _ in range(5):
        a, b = gen.normal(size=(p, k)), gen.normal(size=(p, k))
        want = np.linalg.norm(a @ a.T - b @ b.T)
        assert abs(projector_distance(a, b) - want) <= 1e-12 * want
    orth = np.linalg.qr(gen.normal(size=(k, k)))[0]
    assert projector_distance(a, a @ orth) <= 1e-13 * np.linalg.norm(a @ a.T)


def test_run_extrinsic_shape():
    records = run_extrinsic(_tiny_extrinsic())
    # grid: one M sweep point + two sigma sweep points, 2 methods each
    assert len(records) == 3 * 3 * 2
    assert {r.method for r in records} == {"karcher", "euclid"}
    assert all(r.n == 80 for r in records)
    grid = {(r.M, r.sigma_sq) for r in records}
    assert grid == {(3, 0.2), (4, 0.0), (4, 0.4)}


def test_run_extrinsic_thread_count_invisible():
    a = render_csv(run_extrinsic(_tiny_extrinsic()))
    b = render_csv(run_extrinsic(_tiny_extrinsic(threads=3)))
    assert a == b


# ---------------------------------------------------------------------------
# expansion-order runner


def _tiny_perturb(**kwargs):
    base = dict(experiment="perturb_order", p=10, K=4, repetitions=3,
                master_seed=3)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_run_perturb_order_shape():
    cfg = _tiny_perturb()
    records = run_perturb_order(cfg)
    assert len(records) == 3 * len(cfg.eps_grid) * 3
    assert {r.method for r in records} == {"lq_rotation", "lq_factor",
                                           "karcher_factor"}
    # sigma_sq column carries the noise scale
    assert {r.sigma_sq for r in records} == set(cfg.eps_grid)


def test_run_perturb_order_remainders_are_quadratic():
    cfg = _tiny_perturb()
    records = run_perturb_order(cfg)
    for method in ("lq_rotation", "lq_factor", "karcher_factor"):
        for rep in range(cfg.repetitions):
            pts = [(r.sigma_sq, r.error) for r in records
                   if r.method == method and r.repetition == rep]
            fit = slope_fit(pts)
            assert 1.7 < fit.slope < 2.3, (method, rep, fit.slope)


def test_perturb_order_blocks_do_not_change_the_records(monkeypatch, capsys):
    """Blocks of one repetition, or of all of them, give the records of the
    default blocks (40 repetitions at p=10, K=4, so 45 leaves a short one),
    and the progress lines still count repetitions."""
    cfg = _tiny_perturb(repetitions=45)
    records = run_perturb_order(cfg, progress=True)
    err = capsys.readouterr().err
    assert "perturb_order lq: 45 repetitions in " in err
    assert "perturb_order karcher_factor: 45 repetitions in " in err
    for stack_bytes in (1, 1 << 30):
        monkeypatch.setattr(models, "STACK_BYTES", stack_bytes)
        assert run_perturb_order(cfg) == records
    assert len(records) == 45 * len(cfg.eps_grid) * 3
    assert [r.repetition for r in records[:8]] == [0] * 8


@pytest.mark.parametrize("threads", [1, 2])
def test_perturb_order_names_the_repetition_that_fails(monkeypatch, threads):
    """A singular instance at repetition 7 of a block fails the stacked pass;
    the error names that repetition and keeps its `element`, from the pool
    too."""
    instance = experiments._lq_instance
    bad_stream = derive_stream_id(0, 7)

    def singular_at_7(gen, k):
        tril, orth, noise = instance(gen, k)
        if gen.bit_generator.seed_seq.entropy[1] == bad_stream:
            return np.zeros((k, k)), orth, np.zeros((k, k))
        return tril, orth, noise

    monkeypatch.setattr(experiments, "_lq_instance", singular_at_7)
    cfg = _tiny_perturb(repetitions=12, threads=threads)
    with pytest.raises(SingularMatrixError, match=r"^perturb_order lq repetitions 0 to 11: "
                       r"repetition 7: element 0: matrix numerically singular") as err:
        run_perturb_order(cfg)
    assert err.value.element == 0


def test_perturb_order_summary_skips_a_nonpositive_point():
    """The summary fits every curve in one pass, as slope_fit would: a zero
    remainder drops out of its curve, and a curve left with one point is
    not counted."""
    cfg = _tiny_perturb(repetitions=3)
    records = run_perturb_order(cfg)
    zero = next(i for i, r in enumerate(records)
                if r.method == "karcher_factor" and r.repetition == 1)
    records[zero] = replace(records[zero], error=0.0)
    for i, r in enumerate(records):
        if r.method == "lq_factor" and r.repetition == 2 and r.sigma_sq != cfg.eps_grid[0]:
            records[i] = replace(r, error=-1.0)
    slopes = {}
    for method in ("karcher_factor", "lq_factor", "lq_rotation"):
        for rep in range(3):
            pts = [(r.sigma_sq, r.error) for r in records
                   if r.method == method and r.repetition == rep]
            try:
                slopes.setdefault(method, []).append(slope_fit(pts).slope)
            except InsufficientPointsError:
                pass
    assert [len(slopes[m]) for m in slopes] == [3, 2, 3]
    text = summarize_records(cfg, records)
    for method, found in slopes.items():
        arr = np.asarray(found)
        assert (f"method={method}: remainder slope over {arr.size} instances "
                f"min={arr.min():.3f} median={np.median(arr):.3f} max={arr.max():.3f}") in text


# ---------------------------------------------------------------------------
# retry/skip policy, driven by a stub aggregation


def _policy_cfg(index_mode):
    return ExperimentConfig("dpca", p=4, K=2, sigma_sq=0.0, M_grid=(1,), n_grid=(2,),
                            index_mode=index_mode)


class _StubAggregate:
    """Fails with a numbered NotInManifoldError for the listed index sets,
    naming sample `element` as karcher_mean does."""

    def __init__(self, failing, element=0):
        self.failing = failing
        self.element = element
        self.calls = []

    def __call__(self, index_set):
        self.calls.append(tuple(index_set))
        if tuple(index_set) in self.failing:
            raise NotInManifoldError(f"failure {len(self.calls)}", element=self.element)
        return "mean"


def _no_reselect(m):
    raise AssertionError("samples inspected although no retry was possible")


def _frames_reselect(frames):
    """Rows reselected from the frame of the failing sample, as the Karcher
    experiments reselect them."""
    return lambda m: experiments._frame_rows(frames[m])


def _reselect_zero_top_rows():
    # rank 2 with rows 0 and 1 zero: the pivot rule fails at the canonical rows
    return _frames_reselect(np.array([[[0.0, 0.0], [0.0, 0.0], [2.0, 0.5], [0.3, 1.0]]]))


def test_retry_policy_success_builds_no_matrices():
    agg = _StubAggregate(failing=())
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _no_reselect,
                             _policy_cfg("find_index_oracle"), notes, "lrc")
    assert out == "mean"
    assert agg.calls == [(0, 1)]
    assert notes == []


def test_retry_policy_canonical_skips_without_retry():
    agg = _StubAggregate(failing=((0, 1),))
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _no_reselect,
                             _policy_cfg("canonical"), notes, "lrc")
    assert out is None
    assert agg.calls == [(0, 1)]
    assert notes == ["lrc skipped: failure 1"]


def test_retry_policy_same_rows_skips(monkeypatch):
    # the failing sample's own frame selects rows (0, 1) again
    picked = []

    def same_rows(vectors, values):
        picked.append(vectors.shape[1])
        return IndexSet((0, 1))

    monkeypatch.setattr(experiments.dpca_mod, "find_index", same_rows)
    agg = _StubAggregate(failing=((0, 1),))
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _reselect_zero_top_rows(),
                             _policy_cfg("find_index_machine1"), notes, "lrc")
    assert out is None
    assert picked == [2]
    assert agg.calls == [(0, 1)]
    assert notes == ["lrc skipped: failure 1"]


def test_retry_policy_no_failing_sample_skips():
    # the error names no failing sample, so there is nothing to reselect from
    agg = _StubAggregate(failing=((0, 1),), element=None)
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _no_reselect,
                             _policy_cfg("find_index_oracle"), notes, "karcher")
    assert out is None
    assert agg.calls == [(0, 1)]
    assert notes == ["karcher skipped: failure 1"]


def test_retry_policy_retry_succeeds():
    agg = _StubAggregate(failing=((0, 1),))
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _reselect_zero_top_rows(),
                             _policy_cfg("find_index_machine1"), notes, "lrc")
    assert out == "mean"
    assert agg.calls[0] == (0, 1)
    assert len(agg.calls) == 2 and set(agg.calls[1]) == {2, 3}
    assert notes == [f"lrc retried with rows {agg.calls[1]}"]


def test_retry_policy_reselects_without_anchoring_the_failed_rows(monkeypatch):
    """The failed call named its sample; nothing is anchored again to find it."""

    def forbidden(*args):
        raise AssertionError("the failed rows were anchored again")

    for module in (experiments, linalg):
        monkeypatch.setattr(module, "anchor", forbidden)
    agg = _StubAggregate(failing=((0, 1),), element=1)
    frames = np.concatenate([np.eye(4)[None, :, :2],
                             [[[0.0, 0.0], [0.0, 0.0], [2.0, 0.5], [0.3, 1.0]]]])
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _frames_reselect(frames),
                             _policy_cfg("find_index_oracle"), notes, "karcher")
    assert out == "mean"
    assert set(agg.calls[1]) == {2, 3}


def test_retry_policy_no_admissible_rows_skips(monkeypatch):
    # the failing sample's frame gives no chart at any rows
    def no_rows(vectors, values):
        raise NotInManifoldError("no admissible row")

    monkeypatch.setattr(experiments.dpca_mod, "find_index", no_rows)
    agg = _StubAggregate(failing=((0, 1),))
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _reselect_zero_top_rows(),
                             _policy_cfg("find_index_oracle"), notes, "karcher")
    assert out is None
    assert agg.calls == [(0, 1)]
    assert notes == ["karcher skipped: failure 1"]


def test_retry_policy_second_failure_skips_with_second_error():
    agg = _StubAggregate(failing=((0, 1), (2, 3), (3, 2)))
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _reselect_zero_top_rows(),
                             _policy_cfg("find_index_oracle"), notes, "karcher")
    assert out is None
    assert len(agg.calls) == 2
    assert notes == ["karcher skipped: failure 2"]


def test_dpca_retry_reselects_rows_by_the_first_pick_rule(monkeypatch, capsys):
    """The LRC retry picks the failing machine's rows as machine 1's were
    picked, by find_index(V, values), and not from its frame V diag(values),
    whose singular values weight the rows by values**2."""
    real = experiments.dpca_mod.lrc_dpca
    calls, expected = [], []

    def stub(summaries, index_set):
        calls.append(tuple(index_set))
        if len(calls) > 1:
            return real(summaries, index_set)
        for m in range(1, len(summaries.values)):
            pair = (summaries.vectors[m], summaries.values[m])
            rows = tuple(experiments.dpca_mod.find_index(*pair))
            if rows != calls[0] and rows != tuple(experiments._frame_rows(pair[0] * pair[1])):
                expected.append(rows)
                raise NotInManifoldError(f"machine {m} fails", element=m)
        raise AssertionError("no machine whose two weightings pick different rows")

    monkeypatch.setattr(experiments.dpca_mod, "lrc_dpca", stub)
    cfg = ExperimentConfig("dpca", p=20, K=5, sigma_sq=0.0, M_grid=(6,), n_grid=(60,),
                           repetitions=1, master_seed=2,
                           index_mode="find_index_machine1")
    records = run_dpca(cfg)
    assert calls[1:] == expected
    assert f"lrc retried with rows {expected[0]}" in capsys.readouterr().err
    assert {r.method for r in records} == {"full", "lrc", "fan", "bw"}


# ---------------------------------------------------------------------------
# worker pool and BLAS pin


def _probe_runner(work, jobs=4, cost=lambda i: 1):
    """A runner whose i-th of `jobs` jobs costs `cost(i)` and returns `work(i)`
    as its records."""

    @experiments._runner("intrinsic_avg")
    def probe(cfg):
        return ([experiments._Job("probe", f"probe job {i}", (i,), cost=cost(i))
                 for i in range(jobs)],
                lambda notes, i: work(i))

    return probe


@pytest.fixture
def forking(monkeypatch):
    """Two usable CPUs as `_run_ordered` sees them, so that a run at two
    threads forks its workers on any host."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block if it runs longer than `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    prior = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, prior)


@pytest.mark.parametrize("threads", [1, 2])
def test_jobs_see_one_blas_thread_and_the_caller_gets_its_counts_back(threads):
    control = experiments._blas_threads()
    if control is None:
        pytest.skip("numpy loads no scipy-openblas thread control")
    get, put = control
    prior = get()
    put(3)
    try:
        rows = _probe_runner(lambda i: [(os.getpid(), get())])(
            _tiny_intrinsic(threads=threads))
        after = get()
    finally:
        put(prior)
    assert len(rows) == 4
    assert {count for _, count in rows} == {1}
    pids = {pid for pid, _ in rows}
    if threads == 1:
        assert pids == {os.getpid()}
    elif experiments._usable_cpus() >= 2:
        assert os.getpid() not in pids
    assert after == 3


def test_blas_pin_without_symbols_is_a_no_op(monkeypatch):
    expected = render_csv(run_intrinsic(_tiny_intrinsic(threads=2)))
    monkeypatch.setattr(experiments.ctypes, "CDLL", lambda path: object())
    assert experiments._blas_threads.__wrapped__() is None
    monkeypatch.undo()
    monkeypatch.setattr(experiments, "_blas_threads", lambda: None)
    assert experiments._blas_set(1) is None
    assert render_csv(run_intrinsic(_tiny_intrinsic(threads=2))) == expected


def test_worker_count_is_capped_at_usable_cpus(monkeypatch):
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    rows = _probe_runner(lambda i: [os.getpid()])(_tiny_intrinsic(threads=8))
    assert set(rows) == {os.getpid()}


def test_job_error_in_a_worker_process_reaches_the_caller():
    def work(i):
        if i == 2:
            raise NotInManifoldError("boom")
        return [os.getpid()]

    with pytest.raises(NotInManifoldError, match=r"^probe job 2: boom$"):
        _probe_runner(work)(_tiny_intrinsic(threads=2))


def test_results_keep_submission_order_when_the_costliest_job_goes_first(forking):
    """Each worker takes jobs costliest first (here the last submitted), and
    the caller still gets them back in submission order."""
    taken = itertools.count()  # each forked worker counts from its own copy
    rows = _probe_runner(lambda i: [(i, os.getpid(), next(taken))], jobs=6,
                         cost=lambda i: i)(_tiny_intrinsic(threads=2))
    assert [i for i, _, _ in rows] == list(range(6))
    for pid in {pid for _, pid, _ in rows}:
        assert pid != os.getpid()
        order = [i for i, p, _ in sorted(rows, key=lambda row: row[2]) if p == pid]
        assert order == sorted(order, reverse=True)
    _assert_no_children()


def test_a_queue_longer_than_a_pipe_holds_runs_every_job(forking):
    jobs = [experiments._Job("g", f"job {i}", (i,), cost=i % 7) for i in range(20000)]
    with _deadline(120):
        results = experiments._run_ordered(lambda job: job.args[0], jobs, 2)
    assert results == list(range(20000))
    _assert_no_children()


def test_workers_that_all_die_fail_the_run_and_do_not_hang(forking):
    """Every worker dies on its first job while the queue is still longer
    than a pipe holds: the caller's write fails, and it names the jobs."""
    caller = os.getpid()

    def work(job):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    jobs = [experiments._Job("g", f"job {i}", (i,)) for i in range(20000)]
    with _deadline(60), pytest.raises(RuntimeError, match="without returning job 0; job 1;"):
        experiments._run_ordered(work, jobs, 2)
    _assert_no_children()


_ORPHAN_CHILD = """
import os
import time
from psdk import experiments

experiments._usable_cpus = lambda: 2


def work(job):
    with open("starts.log", "a") as log:
        log.write(f"{os.getpid()} {job.args[0]}\\n")
    deadline = time.monotonic() + 120
    while not os.path.exists("go") and time.monotonic() < deadline:
        time.sleep(0.01)


experiments._run_ordered(work, [experiments._Job("g", str(i), (i,)) for i in range(8)], 2)
"""


def _wait_gone(pid, deadline):
    """Wait until process `pid` has exited, reaping it if it became this
    process's child (as orphans do where this process is a subreaper)."""
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return
        except ChildProcessError:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return
        assert time.monotonic() < deadline, f"process {pid} is still running"
        time.sleep(0.02)


def test_workers_stop_taking_jobs_once_the_caller_is_gone(tmp_path, child_env):
    """A caller killed mid-run leaves its workers to finish the job in hand
    and exit, not to drain the rest of the queue. Each job waits for the
    test's "go" file, so the caller dies while both workers are in a job."""
    log = tmp_path / "starts.log"
    deadline = time.monotonic() + 60
    proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_CHILD], cwd=tmp_path, env=child_env)
    try:
        while not log.exists() or len(log.read_text().splitlines()) < 2:
            assert time.monotonic() < deadline, "the workers did not start"
            time.sleep(0.02)
    finally:
        proc.kill()
        proc.wait(timeout=60)
        (tmp_path / "go").touch()
    starts = log.read_text().splitlines()
    for pid in {int(line.split()[0]) for line in starts}:
        _wait_gone(pid, deadline)
    assert sorted(log.read_text().splitlines()) == sorted(starts)
    assert len(starts) == 2


def test_the_first_failing_job_in_submission_order_raises(forking):
    """Job 3 costs most, so it runs first and fails first; job 1's error is
    the one raised, as in a serial run."""

    def work(i):
        if i in (1, 3):
            raise NotInManifoldError(f"boom {i}")
        return [i]

    with pytest.raises(NotInManifoldError, match=r"^probe job 1: boom 1$"):
        _probe_runner(work, cost=lambda i: i)(_tiny_intrinsic(threads=2))
    _assert_no_children()


def test_a_killed_worker_names_its_lost_job_and_leaves_no_child(forking):
    caller = os.getpid()

    def work(i):
        if i == 2 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return [i]

    with _deadline(120), pytest.raises(
            RuntimeError, match=r"exit codes .*-9.* without returning .*probe job 2"):
        _probe_runner(work)(_tiny_intrinsic(threads=2))
    _assert_no_children()


def test_a_result_that_does_not_pickle_names_its_job(forking):
    """The worker sends a RuntimeError naming the job in place of its
    records, so the run does not fail as a lost worker."""
    with pytest.raises(RuntimeError, match=r"^probe job 2: \w+: .*pickle"):
        _probe_runner(lambda i: [lambda: i] if i == 2 else [i])(_tiny_intrinsic(threads=2))
    _assert_no_children()


def test_an_error_in_the_caller_kills_and_reaps_the_forked_workers(forking):
    """An exception that reaches the waiting caller (here a timer's, as an
    interrupt would) ends the workers mid-job at once, not after their jobs."""
    tick = time.monotonic()
    with pytest.raises(TimeoutError), _deadline(1):
        _probe_runner(lambda i: time.sleep(30))(_tiny_intrinsic(threads=2))
    assert time.monotonic() - tick < 10
    _assert_no_children()


# ---------------------------------------------------------------------------
# summaries and selftest


@pytest.mark.parametrize("values", [[3.0], [4.0, 1.0], [5.0, 1.0, 3.0, 2.0],
                                    [2.0, np.nan, 1.0], [0.1, 0.7, 0.2, 0.3, 1e-17]])
def test_summary_median_is_numpys(values):
    assert np.array_equal(experiments._median(values), np.median(values), equal_nan=True)


def test_summarize_records_mentions_methods_and_slopes():
    cfg = _tiny_dpca()
    text = summarize_records(cfg, run_dpca(cfg))
    for token in ("full", "lrc", "fan", "bw", "slope vs n"):
        assert token in text

    cfg = _tiny_intrinsic()
    text = summarize_records(cfg, run_intrinsic(cfg))
    assert "method=karcher" in text
    assert "method=euclid" in text

    cfg = _tiny_extrinsic()
    text = summarize_records(cfg, run_extrinsic(cfg))
    assert "karcher/euclid mean ratio" in text

    cfg = _tiny_perturb()
    text = summarize_records(cfg, run_perturb_order(cfg))
    assert "remainder slope" in text


def test_selftest_passes():
    ok, lines = run_selftest()
    assert ok, "\n".join(lines)
    assert len(lines) == 5
    assert all(line.startswith("ok - ") for line in lines)
