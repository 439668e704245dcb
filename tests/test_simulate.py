"""Tests for the data-generating processes and the Monte Carlo harness."""

import dataclasses
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from dmlspss import simulate
from dmlspss.errors import ConfigError, NumericError, WorkerDied
from dmlspss.learners import KernelMachine, Lasso, Oracle, Ridge, SuperLearner
from dmlspss.simulate import (
    McConfig,
    ScenarioConfig,
    ar1_covariance,
    draw_dataset,
    emit_report,
    mix_seed,
    oracle_learner_specs,
    run_monte_carlo,
    spec_label,
)


# --- logistic link --------------------------------------------------------------

def test_expit_is_bitwise_scipys():
    from scipy.special import expit

    rng = np.random.default_rng(21)
    v = np.concatenate([
        rng.standard_normal(100_000) * 4.0,
        rng.uniform(-800.0, 800.0, 20_000),
        # +-800 and beyond: exp(-v) overflows, or the result rounds to 0 or 1
        [800.0, -800.0, 709.78, -709.78, 709.79, -709.79, 1e308, -1e308,
         np.inf, -np.inf, 0.0, -0.0],
    ])
    mine = np.array([simulate._expit(x) for x in v.tolist()])
    assert mine.tobytes() == expit(v).tobytes()


# --- covariance ---------------------------------------------------------------

def test_ar1_covariance_values():
    assert np.array_equal(ar1_covariance(0.3, 1), [[1.0]])
    sigma = ar1_covariance(0.7, 2)
    assert np.allclose(sigma, [[1.0, 0.7], [0.7, 1.0]])
    sigma = ar1_covariance(0.5, 3)
    assert sigma[0, 2] == pytest.approx(0.25)
    # positive definite: Cholesky succeeds
    np.linalg.cholesky(ar1_covariance(0.9, 25))


def test_ar1_covariance_rejects_bad_rho():
    with pytest.raises(ConfigError, match=r"rho must be in \(-1, 1\), got 1.0"):
        ar1_covariance(1.0, 3)


@pytest.mark.parametrize("call, match", [
    (lambda: ScenarioConfig(scenario="s9", p=3, n=20), "unknown scenario 's9'"),
    (lambda: ar1_covariance(0.5, 0), "p must be >= 1, got 0"),
    (lambda: emit_report([run_monte_carlo(_oracle_mc(reps=2))], "xml"),
     "unknown report format 'xml'"),
], ids=["scenario", "ar1-p", "report-format"])
def test_simulate_rejects_bad_settings(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


# --- nuisance truth -------------------------------------------------------------

def _truth(x_row, cfg):
    """True (g0, m0) at one covariate row, from the oracle learner specs:
    m0 = m_fn(x) and g0 = ell_fn(x) - beta0 * m0."""
    m_spec, ell_spec = oracle_learner_specs(cfg)
    x = np.asarray(x_row, dtype=float).reshape(1, -1)
    m0 = m_spec.fn(x)[0]
    return ell_spec.fn(x)[0] - cfg.beta0 * m0, m0


def test_nuisance_truth_at_zero():
    cfg = ScenarioConfig(scenario="s1", p=5, n=10)
    g0, m0 = _truth(np.zeros(5), cfg)
    assert g0 == pytest.approx(0.5)        # logistic(0) + 0.25 * 0
    assert m0 == pytest.approx(0.125)      # 0 + 0.25 * logistic(0)


def test_nuisance_truth_mixed_coordinates():
    cfg = ScenarioConfig(scenario="s1", p=5, n=10)
    x = np.zeros(5)
    x[cfg.linear_coord - 1] = 1.0
    g0, m0 = _truth(x, cfg)
    assert g0 == pytest.approx(0.75)
    assert m0 == pytest.approx(1.125)


def test_nuisance_truth_logistic_term_bounded():
    cfg = ScenarioConfig(scenario="s2", p=4, n=10)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=4) * 5
        g0, _ = _truth(x, cfg)
        assert 0.0 < g0 - 0.25 * x[cfg.linear_coord - 1] < 1.0


def test_logistic_coord_clamped_to_p():
    cfg = ScenarioConfig(scenario="s1", p=2, n=10)
    assert cfg.logistic_coord == 2


# --- scenario defaults ------------------------------------------------------------

def test_scenario_derived_parameters():
    s1 = ScenarioConfig(scenario="s1", p=3, n=10)
    assert s1.rho == 0.7 and s1.uv_corr == 0.0
    s2 = ScenarioConfig(scenario="s2", p=3, n=10)
    assert s2.rho == 0.5 and s2.uv_corr == 0.3
    assert s2.beta0 == 0.5


# --- dataset drawing ----------------------------------------------------------------

def test_draw_dataset_is_pinned():
    # digest computed before the scenario parameters became constants
    h = hashlib.sha256()
    for scenario in ("s1", "s2"):
        for p in (1, 2, 5, 20):
            d, truth = draw_dataset(ScenarioConfig(scenario=scenario, p=p, n=40), seed=p)
            for a in (d.y, d.t, d.x, truth.g0, truth.m0):
                h.update(a.tobytes())
    assert h.hexdigest()[:16] == "5d4c0c6888ac4da5"


def test_draw_noiseless_identity():
    cfg = ScenarioConfig(scenario="s1", p=4, n=50)
    d, truth = draw_dataset(cfg, seed=1, noise_scale=0.0)
    assert np.max(np.abs(d.y - truth.g0 - 0.5 * d.t)) < 1e-12
    assert np.max(np.abs(d.t - truth.m0)) < 1e-12


def test_draw_deterministic():
    cfg = ScenarioConfig(scenario="s2", p=3, n=40)
    a, _ = draw_dataset(cfg, seed=9)
    b, _ = draw_dataset(cfg, seed=9)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_draw_covariate_covariance_matches_target():
    cfg = ScenarioConfig(scenario="s1", p=20, n=5000)
    d, _ = draw_dataset(cfg, seed=2)
    sample_cov = np.cov(d.x, rowvar=False)
    target = ar1_covariance(0.7, 20)
    assert np.max(np.abs(sample_cov - target)) < 0.05


def test_draw_disturbance_correlation_matches_scenario_2():
    cfg = ScenarioConfig(scenario="s2", p=3, n=5000)
    d, truth = draw_dataset(cfg, seed=3)
    u = d.y - d.t * truth.beta0 - truth.g0
    v = d.t - truth.m0
    assert abs(np.corrcoef(u, v)[0, 1] - 0.3) < 0.05


def test_draw_disturbances_independent_in_scenario_1():
    cfg = ScenarioConfig(scenario="s1", p=3, n=5000)
    d, truth = draw_dataset(cfg, seed=4)
    u = d.y - d.t * truth.beta0 - truth.g0
    v = d.t - truth.m0
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.05


# --- seeds ------------------------------------------------------------------------

def test_mix_seed_distinct_across_reps():
    seen = {mix_seed(12345, r) for r in range(20000)}
    assert len(seen) == 20000


def test_mix_seed_depends_on_master():
    assert mix_seed(1, 0) != mix_seed(2, 0)


# --- harness ----------------------------------------------------------------------

def _oracle_mc(reps=20, splitter="random", n=120, seed=0, **kwargs):
    cfg = ScenarioConfig(scenario="s1", p=4, n=n)
    spec_m, spec_ell = oracle_learner_specs(cfg)
    return McConfig(
        scenario=cfg,
        learner_m=spec_m,
        learner_ell=spec_ell,
        reps=reps,
        splitter=splitter,
        master_seed=seed,
        sp_max_iter=30,
        sp_tol=1e-6,
        **kwargs,
    )


def test_run_monte_carlo_metric_identities():
    row = run_monte_carlo(_oracle_mc())
    assert row.mse == pytest.approx(row.bias ** 2 + row.se ** 2, abs=1e-12)
    assert row.se_adjusted == pytest.approx(row.se / np.sqrt(row.n), abs=1e-12)
    assert 0.0 <= row.coverage <= 1.0
    assert row.reps == 20


def test_run_monte_carlo_oracle_is_roughly_unbiased():
    row = run_monte_carlo(_oracle_mc(reps=60, n=300, seed=5))
    # sd(beta_hat) ~ 1/sqrt(n); 60 reps give mc-se ~ 0.0075
    assert abs(row.bias) < 4 * (1.0 / np.sqrt(300)) / np.sqrt(60)


def _row_values(row):
    values = dataclasses.asdict(row)
    del values["wall_time_s"]
    return values


@pytest.fixture
def four_cpus(monkeypatch):
    """The worker pool sees four CPUs, whatever the host has."""
    monkeypatch.setattr(simulate, "_available_cpus", lambda: 4)


def test_run_monte_carlo_deterministic_and_thread_invariant(four_cpus):
    # Oracle closures cannot be pickled; they reach the workers by fork
    base = _row_values(run_monte_carlo(_oracle_mc(splitter="spss")))
    for threads in (1, 2, 4):
        again = run_monte_carlo(_oracle_mc(splitter="spss"), threads=threads)
        assert _row_values(again) == base


def test_run_monte_carlo_more_workers_than_reps(four_cpus):
    mc = _oracle_mc(reps=2, seed=4)
    assert _row_values(run_monte_carlo(mc, threads=3)) == _row_values(
        run_monte_carlo(mc, threads=1))


def test_run_monte_carlo_without_fork_runs_serially(monkeypatch, four_cpus):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("no worker pool without fork")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    mc = _oracle_mc(reps=3, seed=5)
    assert _row_values(run_monte_carlo(mc, threads=2)) == _row_values(
        run_monte_carlo(mc, threads=1))


def _modules_after_forked_cell(splitter, learner_m):
    """The modules a fresh interpreter holds after a two-worker cell whose
    replications all run in the workers, and whether it loaded SciPy's
    distance module: the parent draws no data and computes no distance
    itself, so what it holds for them was loaded before the fork."""
    import multiprocessing
    import os
    import subprocess
    import sys

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    code = (
        "import json, sys\n"
        "from dmlspss import simulate, support_points\n"
        "from dmlspss.learners import KernelMachine, Ridge\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
        "simulate._available_cpus = lambda: 2\n"
        "mc = simulate.McConfig(scenario=simulate.ScenarioConfig('s1', 3, 40),\n"
        f"    learner_m={learner_m}, learner_ell=Ridge(lam=1.0), reps=2,\n"
        f"    splitter={splitter!r})\n"
        "simulate.run_monte_carlo(mc, threads=2)\n"
        "loaded = support_points._distance_module.cache_info().currsize == 1\n"
        "print(json.dumps([sorted(sys.modules), loaded]))\n"
    )
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    return json.loads(out.stdout)


def test_run_monte_carlo_loads_scipy_before_forking():
    # the workers inherit SciPy's compiled distance module from the parent
    # when their replications compute distances: for SPSS folds, or for a
    # kernel machine.  It is loaded from its file, so the parent holds no
    # scipy module, nor the numpy.ma that scipy.spatial would load
    for splitter, learner_m in [("spss", "Ridge(lam=1.0)"),
                                ("random", "KernelMachine(bandwidth=0.5, lam=1.0)")]:
        modules, loaded = _modules_after_forked_cell(splitter, learner_m)
        assert loaded
        assert [m for m in modules if m.split(".")[0] == "scipy"] == []
        assert "numpy.ma" not in modules


def test_run_monte_carlo_without_distances_loads_no_scipy():
    modules, loaded = _modules_after_forked_cell("random", "Ridge(lam=1.0)")
    assert not loaded
    assert [m for m in modules if m.startswith("scipy")] == []
    # what NumPy loads lazily for every replication is inherited instead;
    # no fold bookkeeping loads numpy.ma
    assert "numpy.random" in modules and "numpy.ma" not in modules


@pytest.mark.parametrize("splitter, learner, expected", [
    ("random", Ridge(lam=1.0), False),
    ("spss", Ridge(lam=1.0), True),
    ("random", KernelMachine(), True),
    ("random", SuperLearner(candidates=(Ridge(), KernelMachine())), True),
    ("random", SuperLearner(candidates=(Ridge(),), cv_splitter="spss"), True),
    ("random", SuperLearner(candidates=(Ridge(), Lasso())), False),
])
def test_cells_that_compute_distances(splitter, learner, expected):
    mc = McConfig(scenario=ScenarioConfig("s1", 3, 40), learner_m=Ridge(),
                  learner_ell=learner, reps=2, splitter=splitter)
    assert mc._computes_distances is expected


def test_cross_fitted_estimate_rejects_an_unknown_splitter():
    mc = _oracle_mc()
    cfg = SimpleNamespace(**{**vars(mc), "splitter": "both"})
    d, _ = draw_dataset(mc.scenario, seed=1)
    with pytest.raises(ConfigError, match="unknown splitter 'both'"):
        simulate.cross_fitted_estimate(d, cfg, seed=2)


@pytest.mark.parametrize("learner_m", [
    Lasso(lam=0.0),
    SuperLearner(candidates=(Ridge(lam=0.0), Ridge(lam=1.0)), v_blocks=2),
], ids=["lasso", "sl-candidate"])
def test_check_run_applies_the_fold_rows_rule_to_nuisance_ridge_only(learner_m):
    # n=30 in K=2 folds trains on 15 rows, fewer than p=20: a lasso and a
    # super-learner candidate keep the p >= n rule, a nuisance ridge does not
    cfg = SimpleNamespace(learner_m=learner_m, learner_ell=Ridge(lam=1.0), k=2,
                          score="partialling_out", algorithm="dml2", alpha=0.05,
                          splitter="spss")
    simulate.check_run(cfg, 30, 20)
    cfg.learner_ell = Ridge(lam=0.0)
    with pytest.raises(ConfigError, match="p=20 >= the 15 rows a fold trains on"):
        simulate.check_run(cfg, 30, 20)


def test_cross_fitted_estimate_rejects_an_unknown_algorithm():
    # a library caller's config that no McConfig or RunConfig checked
    mc = _oracle_mc()
    cfg = SimpleNamespace(**{**vars(mc), "algorithm": "dml3"})
    d, _ = draw_dataset(mc.scenario, seed=1)
    with pytest.raises(ConfigError, match="unknown algorithm 'dml3'"):
        simulate.cross_fitted_estimate(d, cfg, seed=2)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and runs the
    replications in this process, so no worker is forked."""

    sizes = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("affinity, cpu_count, expected", [
    ({0, 1, 2}, 64, [3]),  # the affinity set caps the pool
    (None, 2, [2]),  # no affinity call: the machine's count
    ({5}, 64, []),  # one CPU: serial, no pool
])
def test_run_monte_carlo_caps_workers_at_available_cpus(
        monkeypatch, affinity, cpu_count, expected):
    import concurrent.futures
    import os
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(simulate, "_worker_mc", None)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    mc = _oracle_mc(reps=8, seed=6)
    row = run_monte_carlo(mc, threads=64)
    assert _RecordingPool.sizes == expected
    assert _row_values(row) == _row_values(run_monte_carlo(mc, threads=1))


def test_run_monte_carlo_rejects_single_rep():
    with pytest.raises(ConfigError, match="reps must be >= 2, got 1"):
        run_monte_carlo(_oracle_mc(reps=1))


@pytest.mark.parametrize("bad, match", [
    ({"splitter": "sideways"}, "splitter 'sideways'"),
    ({"score": "bogus"}, "score 'bogus'"),
    ({"algorithm": "dml9"}, "algorithm 'dml9'"),
    ({"reps": 1}, "reps must be >= 2"),
    ({"splitter": "spss", "k": 3, "n": 4}, "2 <= K <= n/2, got K=3 with n=4"),
    ({"splitter": "spss", "k": 1}, "2 <= K <= n/2, got K=1"),
    ({"k": 5, "n": 4}, "2 <= K <= n, got K=5 with n=4"),
    # n=3 in K=2 random folds: the 2-row fold leaves 1 row to train on
    ({"k": 2, "n": 3}, "rows to train on, got K=2 with n=3"),
], ids=["splitter", "score", "algorithm", "reps", "spss-k", "spss-k-one", "random-k",
        "random-complement"])
def test_mc_config_checks_its_settings_when_built(bad, match):
    with pytest.raises(ConfigError, match=match):
        _oracle_mc(**bad)


@pytest.mark.parametrize("field", ["reps", "k", "master_seed", "sp_max_iter"])
@pytest.mark.parametrize("bad", [2.5, True])
def test_mc_config_integer_fields_reject_floats_and_bools(field, bad):
    # k=2.5 once ran a whole cell on 2 folds; reps=2.5 raised a TypeError mid-run
    with pytest.raises(ConfigError, match=f"McConfig {field} must be an integer"):
        dataclasses.replace(_oracle_mc(), **{field: bad})


@pytest.mark.parametrize("alpha, match", [
    (1.5, r"must be in \(0, 1\), got 1.5"),
    (0.0, r"must be in \(0, 1\), got 0.0"),
    (float("nan"), r"must be in \(0, 1\), got nan"),
    (1e-17, "too small for a finite normal quantile"),  # 1 - alpha/2 == 1
], ids=["above", "zero", "nan", "tiny"])
def test_mc_config_checks_alpha_when_built(alpha, match):
    # the confidence interval's own rule, before any replication is drawn
    with pytest.raises(ConfigError, match=match):
        _oracle_mc(alpha=alpha)


@pytest.mark.parametrize("n, v_blocks, cv_splitter, fails", [
    (40, 15, "spss", True),  # 20 rows to train on, SPSS blocks need 30
    (40, 10, "spss", False),
    (40, 21, "random", True),
    (40, 20, "random", False),
    (43, 11, "spss", True),  # the larger fold leaves 21 rows, not 22
])
def test_mc_config_checks_super_learner_blocks_when_built(n, v_blocks, cv_splitter, fails):
    sl = SuperLearner(candidates=(Ridge(lam=1.0),), v_blocks=v_blocks,
                      cv_splitter=cv_splitter)
    cell = dict(scenario=ScenarioConfig(scenario="s1", p=3, n=n),
                learner_m=Ridge(lam=1.0), learner_ell=sl, reps=2, k=2)
    if fails:
        with pytest.raises(ConfigError, match=f"v_blocks={v_blocks} .* needs"):
            McConfig(**cell)
    else:
        McConfig(**cell)


def test_high_dimensional_cells_require_regularization():
    cfg = ScenarioConfig(scenario="s1", p=60, n=50)
    with pytest.raises(ConfigError, match="ridge with lambda=0 is not allowed when p=60 >= n=50"):
        McConfig(scenario=cfg, learner_m=Ridge(lam=0.0),
                 learner_ell=Ridge(lam=1.0), reps=2, splitter="random")
    # regularized learners are fine
    ok = McConfig(scenario=cfg, learner_m=Ridge(lam=1.0),
                  learner_ell=Ridge(lam=1.0), reps=2, splitter="random")
    run_monte_carlo(ok)


def test_unregularized_candidate_rejected_in_high_dimensions():
    from dmlspss.learners import SuperLearner
    cfg = ScenarioConfig(scenario="s1", p=20, n=20)
    sl = SuperLearner(candidates=(Ridge(lam=1.0), Ridge(lam=0.0)))
    with pytest.raises(ConfigError, match="ridge with lambda=0 is not allowed when p=20 >= n=20"):
        McConfig(scenario=cfg, learner_m=Ridge(lam=1.0), learner_ell=sl, reps=2)
    # p < n: unpenalized learners are fine
    McConfig(scenario=ScenarioConfig(scenario="s1", p=3, n=20),
             learner_m=Ridge(lam=0.0), learner_ell=sl, reps=2)


def test_bias_weakly_shrinks_with_sample_size():
    # oracle nuisances: |bias| at n=1000 within mc noise of |bias| at n=100
    rows = {}
    for n in (100, 1000):
        cfg = ScenarioConfig(scenario="s1", p=4, n=n)
        spec_m, spec_ell = oracle_learner_specs(cfg)
        rows[n] = run_monte_carlo(McConfig(
            scenario=cfg, learner_m=spec_m, learner_ell=spec_ell,
            reps=60, splitter="random", master_seed=123,
        ))
    mc_se = sum(r.se / np.sqrt(r.reps) for r in rows.values())
    assert abs(rows[1000].bias) <= abs(rows[100].bias) + 2 * mc_se


def test_run_monte_carlo_reports_failing_rep():
    cfg = ScenarioConfig(scenario="s1", p=4, n=50)
    bad = Oracle(fn=lambda x: np.zeros(3))  # wrong length every call
    mc = McConfig(scenario=cfg, learner_m=bad, learner_ell=bad,
                  reps=3, splitter="random", master_seed=1)
    with pytest.raises(Exception, match="replication 0"):
        run_monte_carlo(mc)


def test_replication_with_a_nan_estimate_raises_instead_of_reporting_nan():
    cfg = ScenarioConfig(scenario="s1", p=4, n=50)
    nan = Oracle(fn=lambda x: np.full(len(x), np.nan))
    mc = McConfig(scenario=cfg, learner_m=Oracle(fn=lambda x: np.zeros(len(x))),
                  learner_ell=nan, reps=3, splitter="random", master_seed=1)
    with pytest.raises(NumericError, match=f"^replication 0 \\(seed {mix_seed(1, 0)}\\): "
                       "dml2 estimate: beta is nan"):
        run_monte_carlo(mc)


class _TwoArgError(RuntimeError):
    def __init__(self, code, detail):
        super().__init__(f"code {code}: {detail}")
        self.code = code


def _check_failing_rep_keeps_exception_type(threads):
    def boom(x):
        raise _TwoArgError(7, "boom")

    cfg = ScenarioConfig(scenario="s1", p=4, n=50)
    mc = McConfig(scenario=cfg, learner_m=Oracle(fn=boom),
                  learner_ell=Oracle(fn=boom), reps=3, splitter="random",
                  master_seed=1)
    seed = mix_seed(1, 0)
    with pytest.raises(_TwoArgError) as info:
        run_monte_carlo(mc, threads=threads)
    assert str(info.value) == f"replication 0 (seed {seed}): code 7: boom"
    assert info.value.code == 7


def test_run_monte_carlo_failing_rep_keeps_exception_type():
    _check_failing_rep_keeps_exception_type(threads=1)


def test_run_monte_carlo_failing_rep_keeps_exception_type_in_workers(four_cpus):
    # a worker sends no exception back (an exception whose constructor
    # takes two arguments does not survive pickling); the replication is
    # run again in this process
    _check_failing_rep_keeps_exception_type(threads=2)


def test_dead_worker_raises_worker_died(four_cpus):
    # a learner that kills its worker process; the parent never calls it
    import os
    parent = os.getpid()

    def die(x):
        if os.getpid() != parent:
            os._exit(9)
        raise AssertionError("the replication ran again in the parent")

    cfg = ScenarioConfig(scenario="s1", p=4, n=50)
    mc = McConfig(scenario=cfg, learner_m=Oracle(fn=die),
                  learner_ell=Oracle(fn=die), reps=4, splitter="random",
                  master_seed=1)
    with pytest.raises(WorkerDied, match=f"replication 0 \\(seed {mix_seed(1, 0)}\\)"):
        run_monte_carlo(mc, threads=2)


def test_spec_label_composition():
    from dmlspss.learners import Lasso, Mlp, SuperLearner
    label = spec_label(SuperLearner(candidates=(Ridge(), Lasso(), Mlp(), KernelMachine())))
    assert label == "sl(ridge+lasso+mlp+kernel)"


# --- reports -----------------------------------------------------------------------

def test_emit_report_csv_layout():
    row = run_monte_carlo(_oracle_mc(reps=5))
    data = emit_report([row], "csv").decode()
    lines = data.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert header == [
        "scenario", "p", "n", "method", "splitter", "bias", "se",
        "se_adjusted", "mse", "coverage", "mean_model_se", "wall_time_s",
        "reps", "master_seed",
    ]
    cells = lines[1].split(",")
    assert cells[0] == "s1"
    assert cells[5] == f"{row.bias:.4f}"


def test_emit_report_json_round_trips():
    row = run_monte_carlo(_oracle_mc(reps=5))
    payload = json.loads(emit_report([row], "json").decode())
    assert payload[0]["bias"] == row.bias
    assert payload[0]["mse"] == row.mse
    assert payload[0]["master_seed"] == row.master_seed


def test_emit_report_rejects_empty():
    with pytest.raises(ConfigError, match="report needs at least one row"):
        emit_report([], "csv")
