import math
import os

import numpy as np
import pytest

from psdk import experiments
from psdk.exceptions import ConfigError, InsufficientPointsError, NotInManifoldError
from psdk.experiments import (
    CSV_HEADER,
    _aggregate_or_skip,
    ExperimentConfig,
    RunRecord,
    default_config,
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


def test_slope_fit_insufficient_points():
    with pytest.raises(InsufficientPointsError):
        slope_fit([])
    with pytest.raises(InsufficientPointsError):
        slope_fit([(1.0, 1.0)])
    with pytest.raises(InsufficientPointsError):
        slope_fit([(1.0, 1.0), (1.0, 2.0)])  # same x
    with pytest.raises(InsufficientPointsError):
        slope_fit([(1.0, -1.0), (2.0, -2.0)])


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
    for experiment in ("intrinsic_avg", "dpca", "extrinsic_avg", "perturb_order"):
        default_config(experiment).validate()
        default_config(experiment, quick=True).validate()


def test_every_runner_has_defaults_and_a_summary():
    """A runner without an entry in either table would get a subcommand
    whose every run fails, or a summary of its record count alone."""
    assert set(experiments._DEFAULTS) == set(experiments.RUNNERS)
    assert set(experiments._SUMMARIES) == set(experiments.RUNNERS)


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


def test_load_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p = 40\nrepetitions = 5\n")
    cfg = load_config("intrinsic_avg", path=path, quick=True,
                      overrides={"master_seed": 9, "output_path": None})
    assert cfg.p == 40              # file beats default
    assert cfg.repetitions == 5
    assert cfg.master_seed == 9     # override beats file
    assert cfg.output_path == ""    # None overrides are skipped
    assert cfg.p_grid == (50,)      # untouched quick default


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


def test_config_validation_errors():
    base = dict(p=10, K=2, M_grid=(3,), repetitions=2)
    cases = [
        dict(experiment="mystery"),
        dict(experiment="intrinsic_avg", **{**base, "K": 11}),
        dict(experiment="intrinsic_avg", **{**base, "sigma_sq": -1.0}),
        dict(experiment="intrinsic_avg", **{**base, "sigma_sq": math.nan}),
        dict(experiment="intrinsic_avg", **{**base, "sigma_sq": math.inf}),
        dict(experiment="intrinsic_avg", **{**base, "repetitions": 0}),
        dict(experiment="intrinsic_avg", **{**base, "master_seed": -1}),
        dict(experiment="intrinsic_avg", **{**base, "threads": 0}),
        dict(experiment="intrinsic_avg", **{**base, "index_mode": "psychic"}),
        dict(experiment="intrinsic_avg", **{**base, "index_mode": "find_index_machine1"}),
        dict(experiment="intrinsic_avg", **{**base, "M_grid": (0,)}),
        dict(experiment="intrinsic_avg", **{**base, "p_grid": (1,)}),
        dict(experiment="intrinsic_avg", **{**base, "M_grid": ()}),
        dict(experiment="dpca", **base),  # no n_grid
        dict(experiment="extrinsic_avg", p=10, K=2, repetitions=2),
        dict(experiment="extrinsic_avg", p=10, K=2, repetitions=2,
             sigma_grid=(-0.1,)),
        dict(experiment="extrinsic_avg", p=10, K=2, repetitions=2,
             sigma_grid=(0.1, math.nan)),
        dict(experiment="extrinsic_avg", p=10, K=2, repetitions=2,
             sigma_grid=(0.1,), n_inner=0),
        dict(experiment="perturb_order", p=10, K=2, repetitions=2,
             eps_grid=(1e-2, 1e-3)),
        dict(experiment="perturb_order", p=10, K=2, repetitions=2,
             eps_grid=(1e-2, 1e-3, 1e-4, 0.0)),
        dict(experiment="perturb_order", p=10, K=2, repetitions=2,
             eps_grid=(1e-2, 1e-3, math.nan, 1e-4)),
        dict(experiment="perturb_order", p=10, K=1, repetitions=2),
    ]
    for kwargs in cases:
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs).validate()


def test_runner_rejects_foreign_config():
    cfg = default_config("dpca", quick=True)
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
    return ExperimentConfig(**base).validate()


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
    ).validate()
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
    return ExperimentConfig(**base).validate()


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
    return ExperimentConfig(**base).validate()


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
    return ExperimentConfig(**base).validate()


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


# ---------------------------------------------------------------------------
# retry/skip policy, driven by a stub aggregation


def _policy_cfg(index_mode):
    return ExperimentConfig("dpca", p=4, K=2, M_grid=(1,), n_grid=(1,),
                            index_mode=index_mode).validate()


class _StubAggregate:
    """Fails with a numbered NotInManifoldError for the listed index sets."""

    def __init__(self, failing):
        self.failing = failing
        self.calls = []

    def __call__(self, index_set):
        self.calls.append(tuple(index_set))
        if tuple(index_set) in self.failing:
            raise NotInManifoldError(f"failure {len(self.calls)}")
        return "mean"


class _NoFrames:
    """Sample frames that must not be inspected."""

    def __iter__(self):
        raise AssertionError("samples inspected although no retry was possible")


def _zero_top_rows():
    # rank 2 with rows 0 and 1 zero: the pivot rule fails at the canonical rows
    return np.array([[[0.0, 0.0], [0.0, 0.0], [2.0, 0.5], [0.3, 1.0]]])


def test_retry_policy_success_builds_no_matrices():
    agg = _StubAggregate(failing=())
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _NoFrames(),
                             _policy_cfg("find_index_oracle"), notes, "lrc")
    assert out == "mean"
    assert agg.calls == [(0, 1)]
    assert notes == []


def test_retry_policy_canonical_skips_without_retry():
    agg = _StubAggregate(failing=((0, 1),))
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _NoFrames(),
                             _policy_cfg("canonical"), notes, "lrc")
    assert out is None
    assert agg.calls == [(0, 1)]
    assert notes == ["lrc skipped: failure 1"]


def test_retry_policy_same_rows_skips(monkeypatch):
    # the failing sample's own frame selects rows (0, 1) again
    picked = []

    def same_rows(vectors, values, rank):
        picked.append(rank)
        return IndexSet((0, 1))

    monkeypatch.setattr(experiments.dpca_mod, "find_index", same_rows)
    agg = _StubAggregate(failing=((0, 1),))
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _zero_top_rows(),
                             _policy_cfg("find_index_machine1"), notes, "lrc")
    assert out is None
    assert picked == [2]
    assert agg.calls == [(0, 1)]
    assert notes == ["lrc skipped: failure 1"]


def test_retry_policy_no_failing_sample_skips():
    # every sample passes the pivot rule at (0, 1), so there is nothing to reselect from
    agg = _StubAggregate(failing=((0, 1),))
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), np.eye(4)[None, :, :2],
                             _policy_cfg("find_index_oracle"), notes, "karcher")
    assert out is None
    assert agg.calls == [(0, 1)]
    assert notes == ["karcher skipped: failure 1"]


def test_retry_policy_retry_succeeds():
    agg = _StubAggregate(failing=((0, 1),))
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _zero_top_rows(),
                             _policy_cfg("find_index_machine1"), notes, "lrc")
    assert out == "mean"
    assert agg.calls[0] == (0, 1)
    assert len(agg.calls) == 2 and set(agg.calls[1]) == {2, 3}
    assert notes == [f"lrc retried with rows {agg.calls[1]}"]


def test_retry_policy_no_admissible_rows_skips(monkeypatch):
    # the failing sample's frame gives no chart at any rows
    def no_rows(vectors, values, rank):
        raise NotInManifoldError("no admissible row")

    monkeypatch.setattr(experiments.dpca_mod, "find_index", no_rows)
    agg = _StubAggregate(failing=((0, 1),))
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _zero_top_rows(),
                             _policy_cfg("find_index_oracle"), notes, "karcher")
    assert out is None
    assert agg.calls == [(0, 1)]
    assert notes == ["karcher skipped: failure 1"]


def test_retry_policy_second_failure_skips_with_second_error():
    agg = _StubAggregate(failing=((0, 1), (2, 3), (3, 2)))
    notes = []
    out = _aggregate_or_skip(agg, IndexSet((0, 1)), _zero_top_rows(),
                             _policy_cfg("find_index_oracle"), notes, "karcher")
    assert out is None
    assert len(agg.calls) == 2
    assert notes == ["karcher skipped: failure 2"]


# ---------------------------------------------------------------------------
# worker pool and BLAS pin


def _probe_runner(work, jobs=4):
    """A runner whose i-th of `jobs` jobs returns `work(i)` as its records."""

    @experiments._runner("intrinsic_avg")
    def probe(cfg):
        return ([experiments._Job("probe", f"probe job {i}", (i,)) for i in range(jobs)],
                lambda notes, i: work(i))

    return probe


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


# ---------------------------------------------------------------------------
# summaries and selftest


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
