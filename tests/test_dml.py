"""Tests for score construction, cross-fitted estimation, and inference."""

import hashlib
from dataclasses import dataclass, replace

import numpy as np
import pytest

from dmlspss.data import Dataset
from dmlspss.dml import (
    SCORE_IV_TYPE,
    SCORE_PARTIALLING_OUT,
    NuisanceFit,
    confidence_interval,
    dml1_estimate,
    dml2_estimate,
    fit_nuisances_crossfit,
    ndtri,
    orthogonality_diagnostic,
    score_components,
)
from dmlspss.errors import ConfigError, DataError, NumericError
from dmlspss.learners import (
    FittedModel,
    KernelMachine,
    Lasso,
    Mlp,
    Oracle,
    Ridge,
    SuperLearner,
    fit,
)
from dmlspss.simulate import (
    ScenarioConfig,
    draw_dataset,
    oracle_learner_specs,
)
from dmlspss.support_points import FoldPlan, random_kfold

from conftest import reference_crossfit

ZERO = Oracle(fn=lambda x: np.zeros(len(x)))


def _zero_nuis(n, kind=SCORE_PARTIALLING_OUT):
    zeros = np.zeros(n)
    if kind == SCORE_PARTIALLING_OUT:
        return NuisanceFit(m_hat=zeros, ell_hat=zeros)
    return NuisanceFit(m_hat=zeros, g_hat=zeros)


def _random_nuis(plan, rng):
    """Random out-of-fold nuisances, drawn fold by fold (m_hat, then
    ell_hat) and scattered into full-length vectors."""
    m_hat, ell_hat = np.empty(plan.n_total), np.empty(plan.n_total)
    for f in plan.folds:
        m_hat[f] = rng.normal(size=len(f))
        ell_hat[f] = rng.normal(size=len(f))
    return NuisanceFit(m_hat=m_hat, ell_hat=ell_hat)


def _single_fold_plan(n):
    return FoldPlan(folds=(np.arange(n),))


# --- score components --------------------------------------------------------

def test_score_zero_at_truth():
    t = np.array([1.0, -2.0, 0.5])
    y = 0.5 * t
    _, _, psi = score_components(y, t, _zero_nuis(3), SCORE_PARTIALLING_OUT, 0.5)
    assert np.max(np.abs(psi)) < 1e-15


@pytest.mark.parametrize("kind, name", [(SCORE_PARTIALLING_OUT, "ell_hat"),
                                        (SCORE_IV_TYPE, "g_hat")])
def test_score_rejects_outcome_nuisance_of_wrong_length(kind, name):
    nuis = NuisanceFit(m_hat=np.zeros(5), **{name: np.zeros(3)})
    with pytest.raises(DataError, match=f"{name} length mismatch"):
        score_components(np.ones(5), np.ones(5), nuis, kind, 0.0)


@pytest.mark.parametrize("call, error, match", [
    (lambda: score_components(np.ones(5), np.ones(4), _zero_nuis(5),
                              SCORE_PARTIALLING_OUT, 0.0),
     DataError, "y, t, and nuisance predictions must align"),
    (lambda: fit_nuisances_crossfit(_dataset(n=10), random_kfold(10, 2, seed=1), ZERO,
                                    ZERO, "bogus"),
     ConfigError, "unknown score kind 'bogus'"),
    (lambda: confidence_interval(0.0, -1.0, 10, 0.05),
     ConfigError, "sigma2_hat must be >= 0, got -1.0"),
    (lambda: confidence_interval(0.0, 1.0, 0, 0.05),
     ConfigError, "n_total must be >= 1, got 0"),
], ids=["score-t-length", "crossfit-score", "ci-negative-variance", "ci-no-rows"])
def test_dml_rejects_bad_inputs(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_score_degenerate_treatment_residual():
    t = np.array([1.0, 1.0])
    nuis = NuisanceFit(m_hat=t.copy(), ell_hat=np.zeros(2))
    psi_a, psi_b, _ = score_components(
        np.array([3.0, 4.0]), t, nuis, SCORE_PARTIALLING_OUT, 1.0
    )
    assert np.all(psi_a == 0.0) and np.all(psi_b == 0.0)


def test_score_elementwise_values():
    y = np.array([2.0, 5.0])
    t = np.array([1.0, 2.0])
    _, _, psi = score_components(y, t, _zero_nuis(2), SCORE_PARTIALLING_OUT, 2.4)
    assert psi == pytest.approx([-0.4, 0.4], abs=1e-12)


def test_score_affine_in_beta():
    rng = np.random.default_rng(0)
    y, t = rng.normal(size=8), rng.normal(size=8)
    nuis = NuisanceFit(m_hat=rng.normal(size=8), ell_hat=rng.normal(size=8))
    beta = 1.7
    psi_a, _, psi = score_components(y, t, nuis, SCORE_PARTIALLING_OUT, beta)
    _, _, psi0 = score_components(y, t, nuis, SCORE_PARTIALLING_OUT, 0.0)
    assert np.array_equal(psi - psi0, beta * psi_a)


def test_iv_type_score_formulas():
    rng = np.random.default_rng(1)
    y, t = rng.normal(size=6), rng.normal(size=6)
    m_hat, g_hat = rng.normal(size=6), rng.normal(size=6)
    nuis = NuisanceFit(m_hat=m_hat, g_hat=g_hat)
    psi_a, psi_b, _ = score_components(y, t, nuis, SCORE_IV_TYPE, 0.3)
    assert np.allclose(psi_a, -t * (t - m_hat))
    assert np.allclose(psi_b, (y - g_hat) * (t - m_hat))


# --- cross-fitting -----------------------------------------------------------

def _dataset(seed=0, n=40, p=3):
    rng = np.random.default_rng(seed)
    return Dataset(y=rng.normal(size=n), t=rng.normal(size=n),
                   x=rng.normal(size=(n, p)))


def test_crossfit_constant_zero_learners():
    d = _dataset()
    plan = random_kfold(d.n, 2, seed=1)
    nuis = fit_nuisances_crossfit(d, plan, ZERO, ZERO, SCORE_PARTIALLING_OUT)
    assert nuis.m_hat.shape == nuis.ell_hat.shape == (d.n,)
    assert np.all(nuis.m_hat == 0.0)
    assert np.all(nuis.ell_hat == 0.0)


@dataclass(frozen=True)
class _RecordingSpec:
    log: tuple  # shared mutable list in a tuple wrapper


class _RecordingModel(FittedModel):
    def __init__(self, dims):
        self.training_dims = dims

    def _predict(self, x):
        return np.zeros(x.shape[0])


@fit.register
def _fit_recording(spec: _RecordingSpec, x, y):
    spec.log[0].append(np.asarray(x).copy())
    return _RecordingModel(np.asarray(x).shape)


def test_crossfit_trains_only_on_complements():
    d = _dataset(seed=2, n=30)
    plan = random_kfold(d.n, 3, seed=3)
    log = ([],)
    spec = _RecordingSpec(log=log)
    fit_nuisances_crossfit(d, plan, spec, ZERO, SCORE_PARTIALLING_OUT)
    assert len(log[0]) == 3
    for k, seen in enumerate(log[0]):
        expected = d.x[plan.complement(k)]
        assert np.array_equal(seen, expected)


def test_crossfit_row_predicted_by_model_without_its_fold():
    d = _dataset(seed=23, n=31)
    plan = random_kfold(d.n, 3, seed=24)
    spec = Ridge(lam=0.5)
    nuis = fit_nuisances_crossfit(d, plan, spec, spec, SCORE_PARTIALLING_OUT)
    for k, fold in enumerate(plan.folds):
        comp = plan.complement(k)
        m_k = fit(spec, d.x[comp], d.t[comp]).predict(d.x[fold])
        ell_k = fit(spec, d.x[comp], d.y[comp]).predict(d.x[fold])
        assert np.array_equal(nuis.m_hat[fold], m_k)
        assert np.array_equal(nuis.ell_hat[fold], ell_k)


def test_crossfit_oracle_nuisances_center_residuals():
    cfg = ScenarioConfig(scenario="s1", p=5, n=800)
    d, _ = draw_dataset(cfg, seed=21)
    spec_m, spec_ell = oracle_learner_specs(cfg)
    plan = random_kfold(d.n, 2, seed=22)
    nuis = fit_nuisances_crossfit(d, plan, spec_m, spec_ell,
                                  SCORE_PARTIALLING_OUT)
    resid = d.t - nuis.m_hat
    mc_se = resid.std(ddof=1) / np.sqrt(len(resid))
    assert abs(resid.mean()) < 3 * mc_se


def test_crossfit_fold_too_small():
    # two singleton folds: each complement has a single row
    d = Dataset(y=[1.0, 2.0], t=[0.0, 1.0], x=[[0.5], [1.5]])
    plan = FoldPlan(folds=(np.array([0]), np.array([1])))
    with pytest.raises(DataError, match="fold 0: complement has 1 rows, need at least 2"):
        fit_nuisances_crossfit(d, plan, ZERO, ZERO, SCORE_PARTIALLING_OUT)


def test_crossfit_iv_type_two_pass_identity():
    d = _dataset(seed=4, n=24)
    plan = random_kfold(d.n, 2, seed=5)
    const_m = Oracle(fn=lambda x: np.full(len(x), 0.4))
    const_ell = Oracle(fn=lambda x: np.full(len(x), 1.1))
    po = fit_nuisances_crossfit(d, plan, const_m, const_ell,
                                SCORE_PARTIALLING_OUT)
    beta_prelim = dml2_estimate(d, plan, po, SCORE_PARTIALLING_OUT).beta
    iv = fit_nuisances_crossfit(d, plan, const_m, const_ell, SCORE_IV_TYPE)
    assert np.allclose(iv.g_hat, po.ell_hat - beta_prelim * po.m_hat)


def _never_predicts(x):
    raise NumericError("this candidate never predicts")


@pytest.mark.parametrize("failing", [False, True], ids=["", "failing_candidate"])
@pytest.mark.parametrize("mode", ["selector", "convex_weights"],
                         ids=["random-selector", "random-convex_weights"])  # random CV blocks
def test_shared_super_learner_nuisances_equal_one_fit_per_loop(mode, failing):
    # one super learner for both nuisances: its 2 x K x V MLP fits run in one
    # stacked loop, bitwise what one fit per loop gives (ragged CV sizes)
    d = _dataset(seed=41, n=71)
    plan = random_kfold(d.n, 2, seed=42)
    candidates = [Ridge(lam=0.5), Lasso(lam=0.05), KernelMachine(bandwidth=0.5),
                  Mlp(hidden=(8,), epochs=15, batch=16, seed=2, step_size=0.05)]
    if failing:
        candidates.insert(1, Oracle(fn=_never_predicts))
    spec = SuperLearner(candidates=tuple(candidates), v_blocks=3, mode=mode, seed=7)
    nuis = fit_nuisances_crossfit(d, plan, spec, spec, SCORE_PARTIALLING_OUT)
    assert nuis.m_hat.tobytes() == reference_crossfit(spec, d.x, d.t, plan).tobytes()
    assert nuis.ell_hat.tobytes() == reference_crossfit(spec, d.x, d.y, plan).tobytes()


def test_shared_super_learner_whose_candidates_all_fail_raises_the_reference_error():
    d = _dataset(seed=43, n=30)
    plan = random_kfold(d.n, 2, seed=44)
    spec = SuperLearner(candidates=(Oracle(fn=_never_predicts), Mlp(step_size=1e300)),
                        v_blocks=2)
    with pytest.raises(NumericError, match="every super learner candidate failed") as want:
        reference_crossfit(spec, d.x, d.t, plan)
    with pytest.raises(NumericError, match="every super learner candidate failed") as got:
        fit_nuisances_crossfit(d, plan, spec, spec, SCORE_PARTIALLING_OUT)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("every super learner candidate failed to fit")


# --- estimators ----------------------------------------------------------------

def test_single_fold_estimate_solves_moment():
    d = Dataset(y=[2.0, 4.0], t=[1.0, 2.0], x=[[0.0], [0.0]])
    plan = _single_fold_plan(2)
    nuis = _zero_nuis(2)
    est = dml1_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    assert est.beta == pytest.approx(2.0, abs=1e-12)  # (1*2+2*4)/(1+4)


def test_dml1_equals_dml2_single_fold():
    d = _dataset(seed=6, n=20)
    plan = _single_fold_plan(20)
    rng = np.random.default_rng(7)
    nuis = NuisanceFit(m_hat=rng.normal(size=20), ell_hat=rng.normal(size=20))
    a = dml1_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    b = dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    assert abs(a.beta - b.beta) < 1e-12
    assert a.sigma_hat == pytest.approx(b.sigma_hat, abs=1e-12)


def _hand_instance():
    """Two equal folds engineered to fold means (-1, 2) and (-3, 2)."""
    t = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.0])
    y = np.array([2.0, 2.0, 2.0, 2.0, 8.0, 0.0, 0.0, 0.0])
    d = Dataset(y=y, t=t, x=np.zeros((8, 1)))
    plan = FoldPlan(folds=(np.arange(0, 4), np.arange(4, 8)))
    return d, plan, _zero_nuis(8)


def test_hand_instance_dml1_vs_dml2():
    d, plan, nuis = _hand_instance()
    est1 = dml1_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    est2 = dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    assert est1.beta == 4.0 / 3.0
    assert est2.beta == 1.0
    assert np.allclose(est1.per_fold_beta, [2.0, 2.0 / 3.0])


def test_identical_fold_means_make_estimators_agree():
    t = np.array([1.0, -1.0, 1.0, -1.0])
    y = np.array([0.5, -0.5, 0.5, -0.5])
    d = Dataset(y=y, t=t, x=np.zeros((4, 1)))
    plan = FoldPlan(folds=(np.array([0, 1]), np.array([2, 3])))
    nuis = _zero_nuis(4)
    a = dml1_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    b = dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    assert a.beta == pytest.approx(b.beta, abs=1e-15)


def test_moment_conditions_hold_at_returned_beta():
    d = _dataset(seed=8, n=36)
    plan = random_kfold(d.n, 3, seed=9)
    nuis = _random_nuis(plan, np.random.default_rng(10))
    est1 = dml1_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    for k, fold in enumerate(plan.folds):
        _, _, psi = score_components(
            d.y, d.t, nuis, SCORE_PARTIALLING_OUT, est1.per_fold_beta[k],
        )
        assert abs(psi[fold].mean()) < 1e-10
    est2 = dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    _, _, psi = score_components(d.y, d.t, nuis, SCORE_PARTIALLING_OUT, est2.beta)
    pooled = np.mean([psi[f].mean() for f in plan.folds])
    assert abs(pooled) < 1e-10


def test_degenerate_fold_raises():
    d = Dataset(y=[1.0, 2.0], t=[3.0, 3.0], x=[[0.0], [0.0]])
    plan = _single_fold_plan(2)
    nuis = NuisanceFit(m_hat=d.t.copy(), ell_hat=np.zeros(2))
    with pytest.raises(NumericError, match="fold 0: mean psi_a ~ 0, no treatment variation"):
        dml1_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    # psi_a = -(t - m_hat)^2 is 0 everywhere: DML2 fails too
    with pytest.raises(NumericError, match="^pooled mean psi_a ~ 0, no treatment variation"):
        dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)


def test_degenerate_jacobian_raises_under_dml1_with_the_iv_type_score():
    # IV-type psi_a = -t * (t - m_hat): +1 on fold 0 and -1 on fold 1, so
    # each fold solves but the pooled mean, the sandwich's j_hat, is 0.
    # DML2 stops at the same pooled mean, and partialling-out psi_a <= 0.
    d = Dataset(y=[1.0, 2.0], t=[1.0, 1.0], x=[[0.0], [0.0]])
    plan = FoldPlan(folds=(np.array([0]), np.array([1])))
    nuis = NuisanceFit(m_hat=np.array([2.0, 0.0]), g_hat=np.zeros(2))
    with pytest.raises(NumericError, match="^pooled mean psi_a ~ 0$"):
        dml1_estimate(d, plan, nuis, SCORE_IV_TYPE)
    with pytest.raises(NumericError, match="^pooled mean psi_a ~ 0, no treatment variation"):
        dml2_estimate(d, plan, nuis, SCORE_IV_TYPE)


@pytest.mark.parametrize("estimate", [dml1_estimate, dml2_estimate])
@pytest.mark.parametrize("kind, name", [(SCORE_PARTIALLING_OUT, "ell_hat"),
                                        (SCORE_IV_TYPE, "g_hat")])
def test_non_finite_estimate_is_a_numeric_error(estimate, kind, name):
    # one NaN nuisance prediction makes beta NaN; NaN arithmetic warns of nothing
    d = _dataset()
    plan = random_kfold(d.n, 2, 0)
    outcome = np.zeros(d.n)
    outcome[3] = np.nan
    nuis = NuisanceFit(m_hat=np.zeros(d.n), **{name: outcome})
    with pytest.raises(NumericError, match="beta is nan, not finite"):
        estimate(d, plan, nuis, kind)


@pytest.mark.parametrize("estimate", [dml1_estimate, dml2_estimate])
def test_overflowing_jacobian_square_is_a_numeric_error(estimate):
    # m_hat near 1e99: psi_a and j_hat near 1e198 are finite, j_hat^2 is not,
    # and sigma^2 = mean(psi^2)/j_hat^2 would read 0, a zero-width CI
    d = _dataset()
    plan = random_kfold(d.n, 2, 0)
    nuis = NuisanceFit(m_hat=np.linspace(1e99, 2e99, d.n), ell_hat=np.zeros(d.n))
    with pytest.raises(NumericError, match=r"j_hat\^2 is inf, not finite"):
        estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)


def test_noiseless_dgp_with_oracle_nuisances_recovers_truth():
    # outcome noise off, treatment noise kept: the moment solves exactly
    cfg = ScenarioConfig(scenario="s1", p=4, n=200)
    d, truth = draw_dataset(cfg, seed=11)
    d = Dataset(y=cfg.beta0 * d.t + truth.g0, t=d.t, x=d.x)
    spec_m, spec_ell = oracle_learner_specs(cfg)
    plan = random_kfold(d.n, 2, seed=12)
    nuis = fit_nuisances_crossfit(d, plan, spec_m, spec_ell,
                                  SCORE_PARTIALLING_OUT)
    est = dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    assert abs(est.beta - 0.5) < 1e-6


# --- variance and confidence intervals -------------------------------------------

def test_variance_worked_example():
    d = Dataset(y=[2.0, 5.0], t=[1.0, 2.0], x=[[0.0], [0.0]])
    plan = _single_fold_plan(2)
    nuis = _zero_nuis(2)
    est = dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    assert est.beta == pytest.approx(2.4, abs=1e-12)
    assert est.j_hat == pytest.approx(-2.5, abs=1e-12)
    assert est.sigma_hat ** 2 == pytest.approx(0.0256, abs=1e-12)
    lo, hi, _ = est.ci
    assert lo == pytest.approx(2.17825, abs=1e-5)
    assert hi == pytest.approx(2.62175, abs=1e-5)


def test_variance_zero_when_score_vanishes():
    t = np.array([1.0, -2.0, 0.5, 2.0])
    y = 0.5 * t
    d = Dataset(y=y, t=t, x=np.zeros((4, 1)))
    plan = _single_fold_plan(4)
    nuis = _zero_nuis(4)
    est = dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    assert est.beta == 0.5
    assert est.sigma_hat ** 2 == pytest.approx(0.0, abs=1e-30)


def test_variance_matches_independent_reimplementation():
    d = _dataset(seed=13, n=30)
    plan = random_kfold(d.n, 3, seed=14)
    nuis = _random_nuis(plan, np.random.default_rng(15))
    est = dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    beta, sigma2, j_hat = est.beta, est.sigma_hat ** 2, est.j_hat

    # direct restatement of the sandwich formula, scalar case
    mean_sq_terms, mean_a_terms = [], []
    for k, fold in enumerate(plan.folds):
        t_res = d.t[fold] - nuis.m_hat[fold]
        y_res = d.y[fold] - nuis.ell_hat[fold]
        psi = (y_res - beta * t_res) * t_res
        mean_sq_terms.append(np.mean(psi ** 2))
        mean_a_terms.append(np.mean(-t_res ** 2))
    j_direct = np.mean(mean_a_terms)
    sigma2_direct = np.mean(mean_sq_terms) / j_direct ** 2
    assert sigma2 == pytest.approx(sigma2_direct, abs=1e-12)
    assert j_hat == pytest.approx(j_direct, abs=1e-12)
    # scalar sandwich identity
    assert sigma2 * j_hat ** 2 == pytest.approx(np.mean(mean_sq_terms), abs=1e-12)


def test_confidence_interval_properties():
    lo, hi = confidence_interval(1.0, 4.0, 100, 0.05)
    width = hi - lo
    multiplier = width / (2 * np.sqrt(4.0 / 100))
    assert multiplier == pytest.approx(1.959964, abs=1e-6)

    lo, hi = confidence_interval(2.0, 0.0, 50, 0.05)
    assert (lo, hi) == (2.0, 2.0)

    lo4, hi4 = confidence_interval(0.0, 1.0, 400, 0.05)
    lo1, hi1 = confidence_interval(0.0, 1.0, 100, 0.05)
    assert (hi4 - lo4) == pytest.approx((hi1 - lo1) / 2, rel=1e-12)

    with pytest.raises(ConfigError, match=r"alpha: must be in \(0, 1\), got 1.5"):
        confidence_interval(0.0, 1.0, 10, 1.5)


def test_alpha_too_small_for_a_finite_quantile_is_rejected():
    # 1 - alpha/2 rounds to 1, so z would be inf and the interval infinite
    with pytest.raises(ConfigError, match="alpha: too small for a finite normal quantile"):
        confidence_interval(0.0, 1.0, 10, 1e-17)
    lo, hi = confidence_interval(0.0, 1.0, 10, 2.3e-16)
    assert np.isfinite(lo) and np.isfinite(hi)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.tobytes() == b.tobytes()


def test_ndtri_is_bitwise_scipys():
    from scipy.special import ndtri as scipy_ndtri

    rng = np.random.default_rng(20)
    # every alpha the tests and README use, as the 1 - alpha/2 the CI takes
    alphas = np.array([0.05, 0.10, 0.5, 2.3e-16, 1e-17, 0.3, 0.01, 0.001])
    q = np.concatenate([
        rng.random(100_000),
        10.0 ** -rng.uniform(0.0, 300.0, 20_000),  # lower tail, to 1e-300
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 20_000),  # upper tail, to 1 - 1e-16
        1.0 - alphas / 2.0,
        [5e-324, 0.5, np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0), 1.0 - 2.0**-53],
    ])
    assert _same_bits([ndtri(v) for v in q.tolist()], scipy_ndtri(q))


def test_ndtri_ends_and_outside_the_unit_interval():
    assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
    for v in (-0.1, 1.1, -np.inf, np.inf, np.nan):
        assert np.isnan(ndtri(v))
    # the CI refuses the infinite quantile at 1 - alpha/2 == 1.0
    assert 1.0 - 1e-17 / 2.0 == 1.0
    with pytest.raises(ConfigError, match="alpha: too small for a finite normal quantile"):
        confidence_interval(0.0, 1.0, 10, 1e-17)


# --- orthogonality diagnostic ------------------------------------------------------

def test_orthogonal_score_has_small_gateaux_derivative():
    cfg = ScenarioConfig(scenario="s1", p=6, n=1000)
    d, _ = draw_dataset(cfg, seed=16)
    spec_m, spec_ell = oracle_learner_specs(cfg)
    plan = random_kfold(d.n, 2, seed=17)
    nuis = fit_nuisances_crossfit(d, plan, spec_m, spec_ell,
                                  SCORE_PARTIALLING_OUT)
    deriv = orthogonality_diagnostic(d, plan, nuis, SCORE_PARTIALLING_OUT)
    assert deriv <= 5e-2


def test_iv_type_score_is_orthogonal_too():
    cfg = ScenarioConfig(scenario="s1", p=6, n=1000)
    d, _ = draw_dataset(cfg, seed=18)
    spec_m, spec_ell = oracle_learner_specs(cfg)
    plan = random_kfold(d.n, 2, seed=19)
    nuis = fit_nuisances_crossfit(d, plan, spec_m, spec_ell, SCORE_IV_TYPE)
    deriv = orthogonality_diagnostic(d, plan, nuis, SCORE_IV_TYPE)
    assert deriv <= 5e-2


def test_naive_unresidualized_score_is_not_orthogonal():
    # strongly confounded: t has a large mean component from x
    rng = np.random.default_rng(20)
    n = 800
    x = rng.normal(size=(n, 2))
    m0 = 2.0 + x[:, 0]
    t = m0 + rng.normal(size=n)
    y = 0.5 * t + x[:, 0] + rng.normal(size=n)
    d = Dataset(y=y, t=t, x=x)
    plan = random_kfold(n, 2, seed=21)
    # m_hat frozen at zero: the score never residualizes the treatment
    naive = NuisanceFit(
        m_hat=np.zeros(n),
        ell_hat=x[:, 0],  # decent outcome model, no treatment model
    )
    deriv = orthogonality_diagnostic(d, plan, naive, SCORE_PARTIALLING_OUT)
    assert deriv > 0.2


@pytest.mark.parametrize("kind", [SCORE_PARTIALLING_OUT, SCORE_IV_TYPE])
def test_orthogonality_slope_is_exact(kind):
    # psi is at most quadratic in m_hat, so a central difference with a
    # unit step is exact up to rounding
    n = 90
    d = _dataset(seed=22, n=n)
    rng = np.random.default_rng(23)
    plan = random_kfold(n, 4, seed=24)
    nuis = NuisanceFit(m_hat=rng.normal(size=n), ell_hat=rng.normal(size=n),
                       g_hat=rng.normal(size=n))
    direction = rng.normal(size=n)

    def mean_score(r):
        shifted = replace(nuis, m_hat=nuis.m_hat + r * direction)
        return plan.means(score_components(d.y, d.t, shifted, kind, 0.7)[2]).mean()

    central = abs(mean_score(1.0) - mean_score(-1.0)) / 2.0
    assert orthogonality_diagnostic(d, plan, nuis, kind, beta=0.7,
                                    direction=direction) == pytest.approx(central, rel=1e-9)


def test_orthogonality_diagnostic_rejects_bad_inputs():
    d = _dataset(seed=26, n=20)
    plan = random_kfold(20, 2, seed=27)
    m_only = NuisanceFit(m_hat=np.zeros(20))
    with pytest.raises(ConfigError, match="unknown score kind 'bogus'"):
        orthogonality_diagnostic(d, plan, _zero_nuis(20), "bogus", beta=0.0)
    with pytest.raises(ConfigError, match="partialling_out score needs ell_hat"):
        orthogonality_diagnostic(d, plan, m_only, SCORE_PARTIALLING_OUT, beta=0.0)
    with pytest.raises(ConfigError, match="iv_type score needs g_hat"):
        orthogonality_diagnostic(d, plan, m_only, SCORE_IV_TYPE)
    with pytest.raises(DataError, match="direction must have one entry per row"):
        orthogonality_diagnostic(d, plan, _zero_nuis(20), SCORE_PARTIALLING_OUT,
                                 direction=np.ones(3))


# --- representation ------------------------------------------------------------------

def test_plan_must_cover_the_data():
    d = _dataset(seed=22, n=10)
    short = random_kfold(8, 2, seed=1)
    with pytest.raises(DataError, match="plan covers 8 rows, data has 10"):
        fit_nuisances_crossfit(d, short, ZERO, ZERO, SCORE_PARTIALLING_OUT)
    with pytest.raises(DataError, match="plan covers 8 rows, got 10"):
        dml2_estimate(d, short, _zero_nuis(10), SCORE_PARTIALLING_OUT)


# Exact outputs of s2, p=3, n=100 (seed 31), random K=3 folds (seed 32),
# ridge lambda=0.1 for both nuisances: (beta, se, ci_lo, ci_hi) and the
# per-fold betas.  n % K != 0, so the equal-weight mean of fold means
# differs from the pooled row mean and is pinned here too.
GOLDEN = {
    ("dml1", SCORE_PARTIALLING_OUT): (
        ("0x1.c1da848070d6bp-1", "0x1.b5e7a2bc61982p-4",
         "0x1.5691a1ab97ac2p-1", "0x1.1691b3aaa500ap+0"),
        ("0x1.0b25e9f0add75p+0", "0x1.9c27f57e47f26p-1", "0x1.931bc421aee30p-1"),
    ),
    ("dml2", SCORE_PARTIALLING_OUT): (
        ("0x1.c80cdfbf7d485p-1", "0x1.b307798ad812ep-4",
         "0x1.5d7858149f2c6p-1", "0x1.1950b3b52db22p+0"),
        (),
    ),
    ("dml1", SCORE_IV_TYPE): (
        ("0x1.aad96ff6c5845p-1", "0x1.f99cea35e4578p-4",
         "0x1.2ef9f9d675db0p-1", "0x1.135c730b8a96dp+0"),
        ("0x1.09ae4d5f1af36p+0", "0x1.4fceedae8009bp-1", "0x1.9d60c7779a9c8p-1"),
    ),
    ("dml2", SCORE_IV_TYPE): (
        ("0x1.c80cdfbf7d483p-1", "0x1.e851b43c88503p-4",
         "0x1.506a0f2edf7bbp-1", "0x1.1fd7d8280d8a6p+0"),
        (),
    ),
}


@pytest.mark.parametrize("algorithm, kind", sorted(GOLDEN))
def test_estimates_are_bitwise_pinned(algorithm, kind):
    d, _ = draw_dataset(ScenarioConfig(scenario="s2", p=3, n=100), seed=31)
    plan = random_kfold(d.n, 3, seed=32)
    nuis = fit_nuisances_crossfit(d, plan, Ridge(lam=0.1), Ridge(lam=0.1), kind)
    estimate = dml1_estimate if algorithm == "dml1" else dml2_estimate
    est = estimate(d, plan, nuis, kind)
    got = tuple(float(v).hex() for v in (est.beta, est.se, *est.ci[:2]))
    per_fold = () if est.per_fold_beta is None else est.per_fold_beta
    assert got == GOLDEN[algorithm, kind][0]
    assert tuple(float(v).hex() for v in per_fold) == GOLDEN[algorithm, kind][1]


# sha256 of the out-of-fold nuisances of a super-learner pair (random CV
# blocks) with the residual-update lasso and with the covariance-update
# lasso; the same bits as before support-points CV blocks were removed
CROSSFIT_PINNED = {
    (SCORE_PARTIALLING_OUT, "residual"): "4bf40e2f5c77a461",
    (SCORE_IV_TYPE, "residual"): "3b0da90b993d98ea",
    (SCORE_PARTIALLING_OUT, "shipped"): "4192acc4f08259b8",
    (SCORE_IV_TYPE, "shipped"): "84f9ba0f3a80da53",
}


@pytest.mark.parametrize("kind, lasso", [
    pytest.param(kind, lasso, id=kind if lasso == "shipped" else f"{kind}-residual_lasso")
    for kind, lasso in sorted(CROSSFIT_PINNED)
], indirect=["lasso"])
def test_crossfit_nuisances_are_pinned(kind, lasso):
    d, _ = draw_dataset(ScenarioConfig(scenario="s1", p=4, n=101), seed=41)
    plan = random_kfold(d.n, 3, seed=42)
    candidates = (Ridge(lam=1.0), Lasso(lam=0.05))
    spec_m = SuperLearner(candidates=candidates, v_blocks=3, mode="convex_weights", seed=1)
    spec_ell = SuperLearner(candidates=candidates, v_blocks=4, seed=2)
    nuis = fit_nuisances_crossfit(d, plan, spec_m, spec_ell, kind)
    h = hashlib.sha256()
    for v in (nuis.m_hat, nuis.ell_hat, nuis.g_hat):
        if v is not None:
            h.update(v.tobytes())
    assert h.hexdigest()[:16] == CROSSFIT_PINNED[kind, lasso]
