"""Tests for the regression learners and the super learner."""

import numpy as np
import pytest

from dmlspss.errors import (
    DimensionMismatch,
    InvalidSpec,
    NonConvergence,
    SingularSystem,
)
from dmlspss.learners import (
    EpsilonInsensitiveLoss,
    KernelMachine,
    Lasso,
    Mlp,
    Oracle,
    Ridge,
    SuperLearner,
    _simplex_least_squares,
    crossfit,
    fit,
    mlp_forward,
    mlp_init_weights,
    mlp_loss_and_grad,
    predict,
)
from dmlspss.support_points import random_kfold


# --- ridge -------------------------------------------------------------------

def test_ridge_unpenalized_exact_line():
    model = fit(Ridge(lam=0.0), np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
    assert model.coef[0] == pytest.approx(2.0, abs=1e-12)
    assert model.intercept == pytest.approx(0.0, abs=1e-12)


def test_ridge_matches_normal_equations_oracle():
    # hand instance: centered x = (-0.5, 0.5), y = (-1, 1), lambda = 1
    model = fit(Ridge(lam=1.0), np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
    assert model.coef[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    lam = 0.7
    model = fit(Ridge(lam=lam), x, y)
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    expected = np.linalg.solve(xc.T @ xc + lam * np.eye(4), xc.T @ yc)
    assert np.max(np.abs(model.coef - expected)) < 1e-10
    fitted = predict(model, x)
    assert np.max(np.abs(fitted - (xc @ expected + y.mean()))) < 1e-10


def test_ridge_zero_lambda_rank_deficient():
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(SingularSystem):
        fit(Ridge(lam=0.0), x, np.array([1.0, 2.0, 3.0]))


def test_ridge_norm_monotone_in_lambda():
    x = np.array([[0.0], [1.0], [2.0], [5.0]])
    y = np.array([0.0, 2.0, 3.5, 9.0])
    norms = [abs(fit(Ridge(lam=lam), x, y).coef[0])
             for lam in (0.0, 0.1, 1.0, 10.0, 100.0)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


# --- lasso -------------------------------------------------------------------

def test_lasso_zero_penalty_is_ols():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=40) * 0.1
    model = fit(Lasso(lam=0.0, max_iter=5000, tol=1e-12), x, y)
    ols = fit(Ridge(lam=0.0), x, y)
    assert np.max(np.abs(model.coef - ols.coef)) < 1e-8


def test_lasso_lambda_max_zeroes_everything():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 5))
    y = rng.normal(size=50) + 0.8 * x[:, 2]
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    lam_max = np.max(np.abs(xc.T @ yc)) / 50
    model = fit(Lasso(lam=lam_max * (1 + 1e-10)), x, y)
    assert np.all(model.coef == 0.0)
    assert model.intercept == pytest.approx(y.mean())


def test_lasso_orthonormal_design_soft_thresholds():
    rng = np.random.default_rng(3)
    n, p = 32, 4
    raw = rng.normal(size=(n, p))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    x = q[:, :p] * np.sqrt(n)  # columns: mean ~0, x_j'x_j = n, orthogonal
    x -= x.mean(axis=0)
    y = rng.normal(size=n)
    yc = y - y.mean()
    beta_ols = x.T @ yc / n
    lam = 0.12
    model = fit(Lasso(lam=lam, max_iter=5000, tol=1e-13), x, y)
    expected = np.sign(beta_ols) * np.maximum(np.abs(beta_ols) - lam, 0.0)
    assert np.max(np.abs(model.coef - expected)) < 1e-8


def test_lasso_kkt_conditions_at_convergence():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 8))
    y = x @ np.array([2.0, -1.0, 0, 0, 0.5, 0, 0, 0]) + rng.normal(size=60)
    x = np.hstack([x, np.full((60, 1), 3.0)])  # a constant column: skipped
    lam = 0.15
    model = fit(Lasso(lam=lam, max_iter=5000, tol=1e-12), x, y)
    assert model.coef[8] == 0.0
    xc = x - x.mean(axis=0)
    resid = y - predict(model, x)
    grad = xc.T @ resid / 60
    for j in range(9):
        if model.coef[j] == 0.0:
            assert abs(grad[j]) <= lam + 1e-6
        else:
            assert grad[j] == pytest.approx(lam * np.sign(model.coef[j]), abs=1e-6)


def test_lasso_skips_a_column_constant_up_to_rounding():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 3))
    y = x @ np.array([1.0, 2.0, 3.0]) + rng.normal(size=60)
    # sixty 0.1s: the mean is not exact, so the centred mean square is ~1e-33, not 0
    with_constant = np.hstack([x, np.full((60, 1), 0.1)])
    spec = Lasso(lam=0.0, max_iter=5000, tol=1e-12)
    model = fit(spec, with_constant, y)
    assert model.coef[3] == 0.0
    np.testing.assert_allclose(model.coef[:3], fit(spec, x, y).coef, rtol=0, atol=1e-12)


def test_lasso_nonconvergence_carries_partial_state():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    with pytest.raises(NonConvergence) as excinfo:
        fit(Lasso(lam=1e-6, max_iter=1, tol=1e-15), x, y)
    assert excinfo.value.partial is not None
    assert excinfo.value.partial.coef.shape == (5,)


# --- kernel machine ----------------------------------------------------------

def test_kernel_single_point_dual_solve():
    model = fit(KernelMachine(bandwidth=1.0, lam=1.0),
                np.array([[0.0]]), np.array([3.0]))
    pred = predict(model, np.array([[0.0]]))
    assert pred[0] == pytest.approx(1.5, abs=1e-12)  # 3 / (k(0) + 1)


def test_kernel_interpolates_as_lambda_vanishes():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    model = fit(KernelMachine(bandwidth=0.5, lam=1e-10), x, y)
    assert np.max(np.abs(predict(model, x) - y)) < 1e-4


def test_kernel_matches_direct_dual_solve():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    bw, lam = 0.3, 0.7
    model = fit(KernelMachine(bandwidth=bw, lam=lam), x, y)
    gram = np.exp(-bw * ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    alpha = np.linalg.solve(gram + lam * np.eye(20), y)
    xq = rng.normal(size=(5, 3))
    kq = np.exp(-bw * ((xq[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    assert np.max(np.abs(predict(model, xq) - kq @ alpha)) < 1e-8


def test_kernel_epsilon_insensitive_fits_reasonably():
    rng = np.random.default_rng(8)
    x = np.linspace(-2, 2, 40).reshape(-1, 1)
    y = np.sin(x).ravel()
    spec = KernelMachine(
        bandwidth=2.0, lam=1.0,
        loss=EpsilonInsensitiveLoss(epsilon=0.01, c=10.0, max_iter=2000),
    )
    model = fit(spec, x, y)
    mse = np.mean((predict(model, x) - y) ** 2)
    assert mse < 0.01


def test_kernel_spec_validation():
    with pytest.raises(InvalidSpec):
        fit(KernelMachine(bandwidth=0.0, lam=1.0), np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(InvalidSpec):
        fit(KernelMachine(bandwidth=1.0, lam=0.0), np.zeros((2, 1)), np.zeros(2))


# --- mlp -----------------------------------------------------------------------

def _flatten(ws):
    return np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in ws])


def _unflatten(vec, template):
    out, i = [], 0
    for w, b in template:
        new_w = vec[i:i + w.size].reshape(w.shape)
        i += w.size
        new_b = vec[i:i + b.size]
        i += b.size
        out.append((new_w, new_b))
    return out


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_mlp_gradient_matches_finite_differences(activation):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    weights = mlp_init_weights(3, (4, 3), seed=11)
    _, grads = mlp_loss_and_grad(weights, x, y, l2=0.2, activation=activation)
    theta = _flatten(weights)
    analytic = _flatten(grads)
    h = 1e-5
    numeric = np.zeros_like(theta)
    for i in range(len(theta)):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += h
        minus[i] -= h
        lp, _ = mlp_loss_and_grad(_unflatten(plus, weights), x, y, 0.2, activation)
        lm, _ = mlp_loss_and_grad(_unflatten(minus, weights), x, y, 0.2, activation)
        numeric[i] = (lp - lm) / (2 * h)
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
    assert rel.max() < 1e-4


def test_mlp_no_hidden_layers_matches_ridge():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(60, 3))
    y = x @ np.array([1.0, -0.5, 0.25]) + 0.3 + rng.normal(size=60) * 0.05
    l2 = 0.5
    spec = Mlp(hidden=(), step_size=0.05, epochs=3000, batch=60, seed=1, l2=l2)
    model = fit(spec, x, y)
    ridge = fit(Ridge(lam=l2), x, y)
    assert np.max(np.abs(model.weights[0][0].ravel() - ridge.coef)) < 1e-4
    assert model.weights[0][1][0] == pytest.approx(ridge.intercept, abs=1e-4)


def test_mlp_deterministic_given_seed():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    spec = Mlp(hidden=(8,), epochs=5, batch=8, seed=3)
    a = fit(spec, x, y)
    b = fit(spec, x, y)
    for (wa, ba), (wb, bb) in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)


def test_mlp_training_reduces_loss():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(80, 2))
    y = np.tanh(x[:, 0]) - 0.5 * x[:, 1]
    spec = Mlp(hidden=(16,), step_size=0.05, epochs=100, batch=20, seed=2)
    model = fit(spec, x, y)
    assert model.loss_trace[-1] < model.loss_trace[0]


def test_mlp_divergence_raises_nonconvergence():
    import warnings
    rng = np.random.default_rng(13)
    x = rng.normal(size=(20, 2)) * 10
    y = rng.normal(size=20) * 10
    spec = Mlp(hidden=(8,), step_size=1e6, epochs=50, batch=20, seed=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonConvergence):
            fit(spec, x, y)
    assert caught == []


@pytest.mark.parametrize("call", [
    lambda w, x, y: mlp_forward(w, x, "sigmoid"),
    lambda w, x, y: mlp_loss_and_grad(w, x, y, 0.0, "sigmoid"),
])
def test_mlp_functions_reject_unknown_activation(call):
    weights = mlp_init_weights(2, (3,), seed=0)
    with pytest.raises(InvalidSpec, match="unknown activation 'sigmoid'"):
        call(weights, np.zeros((4, 2)), np.zeros(4))


# --- oracle / predict ----------------------------------------------------------

def test_oracle_spec_predicts_from_function():
    spec = Oracle(fn=lambda x: x[:, 0] * 2.0)
    model = fit(spec, np.ones((3, 2)), np.zeros(3))
    out = predict(model, np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(out, [2.0, 4.0])


@pytest.mark.parametrize("x, y, error, match", [
    (np.zeros(4), np.zeros(4), DimensionMismatch, "2-d"),
    (np.zeros((4, 2)), np.zeros(3), DimensionMismatch, "4 rows, y has 3"),
    (np.zeros((0, 2)), np.zeros(0), InvalidSpec, "at least one training row"),
    (np.array([[0.0, np.nan], [1.0, 2.0]]), np.zeros(2), InvalidSpec, "finite"),
    (np.zeros((2, 2)), np.array([0.0, np.inf]), InvalidSpec, "finite"),
], ids=["1-d-x", "rows", "no-rows", "nan-x", "inf-y"])
def test_fit_rejects_bad_training_data(x, y, error, match):
    with pytest.raises(error, match=match):
        fit(Ridge(lam=1.0), x, y)


def test_fit_rejects_an_unregistered_spec_type():
    with pytest.raises(InvalidSpec, match="unknown learner spec"):
        fit(object(), np.zeros((3, 1)), np.zeros(3))


def test_predict_dimension_mismatch():
    model = fit(Ridge(lam=1.0), np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros((2, 3)))


# --- cross-validated risk -------------------------------------------------------

def _cv_risk(spec, x, y, v_blocks, seed):
    """A candidate's cross-validated risk as the super learner reports it."""
    sl = SuperLearner(candidates=(spec,), v_blocks=v_blocks, seed=seed)
    return fit(sl, x, y).report.risks[0]


def test_cv_risk_perfect_learner_is_zero():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(40, 2))
    y = 3.0 * x[:, 0]
    spec = Oracle(fn=lambda x: 3.0 * x[:, 0])
    assert _cv_risk(spec, x, y, v_blocks=5, seed=0) == pytest.approx(0.0, abs=1e-24)


def test_cv_risk_constant_zero_learner_matches_variance():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(4000, 2))
    y = rng.normal(size=4000)  # mean 0, variance 1
    spec = Oracle(fn=lambda x: np.zeros(len(x)))
    risk = _cv_risk(spec, x, y, v_blocks=5, seed=1)
    mc_se = np.std(y ** 2, ddof=1) / np.sqrt(len(y))
    assert abs(risk - 1.0) < 3 * mc_se + abs(np.mean(y ** 2) - 1.0)


def test_cv_risk_leave_one_out_runs():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    risk = _cv_risk(Ridge(lam=1.0), x, y, v_blocks=5, seed=2)
    assert np.isfinite(risk)


def test_cv_risk_deterministic():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    a = _cv_risk(Ridge(lam=0.5), x, y, v_blocks=3, seed=9)
    b = _cv_risk(Ridge(lam=0.5), x, y, v_blocks=3, seed=9)
    assert a == b


# --- super learner ---------------------------------------------------------------

def test_selector_picks_dominant_candidate():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(50, 2))
    y = 2.0 * x[:, 1]
    perfect = Oracle(fn=lambda x: 2.0 * x[:, 1])
    zero = Oracle(fn=lambda x: np.zeros(len(x)))
    model = fit(SuperLearner(candidates=(perfect, zero), seed=0), x, y)
    assert model.report.chosen == 0
    assert model.report.risks[0] <= model.report.risks.min()
    assert np.allclose(model.report.weights, [1.0, 0.0])
    assert np.max(np.abs(predict(model, x) - y)) < 1e-12


def test_selector_tie_goes_to_lowest_index():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    same = Oracle(fn=lambda x: np.zeros(len(x)))
    model = fit(SuperLearner(candidates=(same, same), seed=1), x, y)
    assert model.report.chosen == 0


def test_single_candidate_behaves_like_that_candidate():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    solo = fit(SuperLearner(candidates=(Ridge(lam=0.5),), seed=2), x, y)
    direct = fit(Ridge(lam=0.5), x, y)
    xq = rng.normal(size=(6, 3))
    assert np.max(np.abs(predict(solo, xq) - predict(direct, xq))) < 1e-12


def test_failing_candidate_gets_infinite_risk():
    rng = np.random.default_rng(21)
    x = np.hstack([rng.normal(size=(30, 1))] * 2)  # rank deficient
    y = rng.normal(size=30)
    bad = Ridge(lam=0.0)
    good = Ridge(lam=1.0)
    model = fit(SuperLearner(candidates=(bad, good), seed=3), x, y)
    assert np.isinf(model.report.risks[0])
    assert model.report.chosen == 1
    with pytest.raises(InvalidSpec, match="every super learner candidate failed"):
        fit(SuperLearner(candidates=(bad, bad), seed=3), x, y)


def test_convex_weights_duplicated_candidates_equivalent():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(50, 2))
    y = x[:, 0] + rng.normal(size=50) * 0.1
    ridge = Ridge(lam=0.3)
    blended = fit(
        SuperLearner(candidates=(ridge, ridge), mode="convex_weights", seed=4),
        x, y,
    )
    single = fit(ridge, x, y)
    xq = rng.normal(size=(8, 2))
    assert np.max(np.abs(predict(blended, xq) - predict(single, xq))) < 1e-8
    w = blended.report.weights
    assert np.all(w >= -1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-10)


def test_convex_weights_never_worse_than_best_single():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(80, 3))
    y = x @ np.array([1.0, 0.5, -0.25]) + rng.normal(size=80) * 0.2
    spec = SuperLearner(
        candidates=(Ridge(lam=10.0), Lasso(lam=0.05), Ridge(lam=0.01)),
        mode="convex_weights", seed=5,
    )
    from dmlspss.learners import crossfit
    from dmlspss.support_points import random_kfold

    model = fit(spec, x, y)
    plan = random_kfold(80, spec.v_blocks, spec.seed)
    p_cols = [
        crossfit(c, x, y, plan) for c in spec.candidates
    ]
    p_mat = np.column_stack(p_cols)
    stacked = np.sum((y - p_mat @ model.report.weights) ** 2)
    singles = [np.sum((y - col) ** 2) for col in p_cols]
    assert stacked <= min(singles) + 1e-8


def test_super_learner_spss_blocks():
    rng = np.random.default_rng(26)
    x = rng.normal(size=(60, 2))
    y = x[:, 0] + rng.normal(size=60) * 0.1
    spec = SuperLearner(candidates=(Ridge(lam=0.1), Ridge(lam=50.0)),
                        v_blocks=3, seed=1, cv_splitter="spss")
    model = fit(spec, x, y)
    assert model.report.chosen == 0  # light penalty wins on linear data
    again = fit(spec, x, y)
    assert np.array_equal(model.report.risks, again.report.risks)
    with pytest.raises(InvalidSpec):
        fit(SuperLearner(candidates=(Ridge(),), cv_splitter="bogus"),
            x, y)


def test_super_learner_rejects_nesting_and_empty():
    with pytest.raises(InvalidSpec):
        fit(SuperLearner(candidates=()), np.zeros((5, 1)), np.zeros(5))
    inner = SuperLearner(candidates=(Ridge(),))
    with pytest.raises(InvalidSpec):
        fit(SuperLearner(candidates=(inner,)), np.zeros((5, 1)), np.zeros(5))


def test_fits_are_repeatable_bitwise():
    rng = np.random.default_rng(25)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    for spec in (
        Ridge(lam=0.5),
        Lasso(lam=0.05, max_iter=2000),
        KernelMachine(bandwidth=0.5, lam=0.5),
        Mlp(hidden=(4,), epochs=3, batch=10, seed=7),
    ):
        a, b = fit(spec, x, y), fit(spec, x, y)
        xq = rng.normal(size=(4, 3))
        assert np.array_equal(a.predict(xq), b.predict(xq))


# --- pinned cross-validation outputs ------------------------------------------------

def _always_fails(x):
    raise SingularSystem("this candidate never predicts")


def _pinned_xy():
    rng = np.random.default_rng(61)
    x = rng.normal(size=(61, 3))
    y = np.sin(x[:, 0]) + x[:, 1] * x[:, 2] + rng.normal(size=61) * 0.3
    return x, y


def _sha(*arrays):
    import hashlib
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


# sha256 of (risks, weights, chosen, predictions) computed before the
# super learner's CV and the DML cross-fit shared one out-of-fold loop
# (residual-update lasso), and with the covariance-update lasso where the
# random-block cases moved in the last bits
SL_PINNED = {
    ("selector", "random", False, "residual"): "1d6747616fe6e0f9",
    ("selector", "random", True, "residual"): "9ab31d8ae92d9f22",
    ("convex_weights", "random", False, "residual"): "040905c2f9061a82",
    ("convex_weights", "random", True, "residual"): "437340c456b61f30",
    ("selector", "random", False, "shipped"): "de75adaceb7b7be7",
    ("selector", "random", True, "shipped"): "f94bd85ade1e9e22",
    ("convex_weights", "random", False, "shipped"): "72bc14d677850a6b",
    ("convex_weights", "random", True, "shipped"): "02cf923d64e33d3b",
    ("selector", "spss", False, "shipped"): "1cdbf629a95ee34f",
    ("selector", "spss", True, "shipped"): "ff61953777a533f2",
    ("convex_weights", "spss", False, "shipped"): "7613b53b0040e4a0",
    ("convex_weights", "spss", True, "shipped"): "ed4f1db680838738",
}


def _pinned_case(mode, cv_splitter, failing, lasso):
    name = f"{mode}-{cv_splitter}-{failing}"
    return pytest.param(mode, cv_splitter, failing, lasso,
                        id=name if lasso == "shipped" else f"{name}-residual_lasso")


@pytest.mark.parametrize("mode, cv_splitter, failing, lasso",
                         [_pinned_case(*key) for key in sorted(SL_PINNED)],
                         indirect=["lasso"])
def test_super_learner_report_is_pinned(mode, cv_splitter, failing, lasso):
    x, y = _pinned_xy()
    candidates = [Ridge(lam=0.5), Lasso(lam=0.05), KernelMachine(bandwidth=0.5),
                  Mlp(hidden=(8,), epochs=20, batch=16, seed=2)]
    if failing:
        candidates.insert(2, Oracle(fn=_always_fails))
    spec = SuperLearner(candidates=tuple(candidates), v_blocks=3, mode=mode,
                        seed=7, cv_splitter=cv_splitter)
    model = fit(spec, x, y)
    report = model.report
    assert np.isinf(report.risks).sum() == int(failing)
    digest = _sha(report.risks, report.weights, [report.chosen], model.predict(x[:9]))
    assert digest == SL_PINNED[mode, cv_splitter, failing, lasso]


def test_cv_risk_is_pinned():
    # pinned from the former stand-alone cv_risk; the super learner's
    # report reproduces it, and so does the definition spelled out: the
    # mean over random blocks of each block's out-of-fold squared error
    x, y = _pinned_xy()
    specs = (Ridge(lam=0.3), Lasso(lam=0.02),
             KernelMachine(bandwidth=0.4, loss=EpsilonInsensitiveLoss(epsilon=0.05)))
    got = [float(_cv_risk(s, x, y, v_blocks=4, seed=3)).hex() for s in specs]
    assert got == ["0x1.f439e60905519p-2", "0x1.f677aeb9d6fe6p-2",
                   "0x1.96a6e54b3cd8fp-3"]
    plan = random_kfold(len(y), 4, 3)
    by_definition = [float(plan.means((crossfit(s, x, y, plan) - y) ** 2).mean()).hex()
                     for s in specs]
    assert by_definition == got


# --- pinned MLP, SVR-dual and simplex-weight outputs -------------------------------
# computed before the MLP paths shared one forward pass and backprop, and
# the SVR dual and the simplex weights shared one proximal-gradient loop

MLP_PINNED = {
    "tanh_two_layers_l2": (Mlp(hidden=(6, 5), activation="tanh", step_size=0.02,
                               epochs=12, batch=8, seed=4, l2=0.3), "f9a2fd9ab82966ec"),
    "no_hidden_l2": (Mlp(hidden=(), step_size=0.05, epochs=10, batch=16, seed=1,
                         l2=0.2), "65ae8c038de058d7"),
    "relu_two_layers": (Mlp(hidden=(7, 3), step_size=0.01, epochs=8, batch=10,
                            seed=9), "ad104a8dc04f52b6"),
}


@pytest.mark.parametrize("name", sorted(MLP_PINNED))
def test_mlp_loss_trace_and_predictions_are_pinned(name):
    x, y = _pinned_xy()
    spec, digest = MLP_PINNED[name]
    model = fit(spec, x, y)
    assert _sha(model.loss_trace, model.predict(x[:9])) == digest


# max_iter=7 stops before convergence; 5000 converges after 243 steps
@pytest.mark.parametrize("max_iter, digest", [(7, "12ddfc2522765aa4"),
                                              (5000, "228cf2c7319e41d3")])
def test_svr_dual_coefficients_are_pinned(max_iter, digest):
    x, y = _pinned_xy()
    spec = KernelMachine(bandwidth=0.7, lam=1.0, loss=EpsilonInsensitiveLoss(
        epsilon=0.1, c=0.5, max_iter=max_iter))
    assert _sha(fit(spec, x[:30], y[:30]).dual_coef) == digest


# the default max_iter converges after 430 steps; max_iter=3 stops early
@pytest.mark.parametrize("max_iter, expected", [
    (20000, ["0x1.374bee8c20c00p-1", "0x1.d4687dc3caa58p-3",
             "0x1.88e518542dd6ap-4", "0x1.13ea77c336de8p-4"]),
    (3, ["0x1.e601f43755581p-1", "0x1.2658a5d209fe6p-8",
         "0x1.0109ae1f49084p-6", "0x1.f521a18189766p-6"]),
])
def test_simplex_least_squares_weights_are_pinned(max_iter, expected):
    x, y = _pinned_xy()
    rng = np.random.default_rng(12)
    p_mat = np.column_stack([y + rng.normal(size=61) * s for s in (0.3, 0.5, 0.8, 1.2)])
    got = _simplex_least_squares(p_mat, y, max_iter=max_iter)
    assert [float(v).hex() for v in got] == expected
