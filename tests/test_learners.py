"""Tests for the regression learners and the super learner."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from dmlspss import learners, support_points
from dmlspss.errors import (
    DataError,
    DmlSpssError,
    InvalidSpec,
    NonConvergence,
    NumericError,
)
from dmlspss.learners import (
    EpsilonInsensitiveLoss,
    KernelMachine,
    Lasso,
    Mlp,
    Oracle,
    Ridge,
    SquaredLoss,
    SuperLearner,
    _fit_lasso,
    _simplex_least_squares,
    crossfit,
    fit,
    fit_many,
    mlp_init_weights,
    mlp_loss_and_grad,
)
from dmlspss.simulate import ScenarioConfig, draw_dataset
from dmlspss.support_points import random_kfold

from conftest import (
    _REF_ACTIVATIONS,
    _ref_backprop,
    _ref_forward,
    _reference_mlp,
    reference_fit,
)


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
    fitted = model.predict(x)
    assert np.max(np.abs(fitted - (xc @ expected + y.mean()))) < 1e-10


def test_ridge_zero_lambda_rank_deficient():
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(NumericError, match="ridge with lambda=0 on a rank-deficient design"):
        fit(Ridge(lam=0.0), x, np.array([1.0, 2.0, 3.0]))


def _overflowing_x1():
    """60 s1 rows whose first covariate is scaled by 1e200, so its square
    overflows, and the treatment, which that covariate drives."""
    d, _ = draw_dataset(ScenarioConfig("s1", 3, 60), seed=1)
    return d.x * [1e200, 1.0, 1.0], d.t


def test_ridge_with_overflowing_moments_is_a_numeric_error():
    # the overflowed x1 would otherwise get coefficient 0, silently
    x, t = _overflowing_x1()
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match="ridge: the centred design's moments x'x, x'y overflow"):
        fit(Ridge(lam=0.01), x, t)


def test_super_learner_counts_an_overflowing_ridge_as_failed():
    x, t = _overflowing_x1()
    zero = Oracle(fn=lambda q: np.zeros(len(q)))
    with np.errstate(over="ignore"):
        model = fit(SuperLearner(candidates=(Ridge(lam=0.01), zero), v_blocks=2), x, t)
    assert np.isinf(model.report.risks[0]) and np.isfinite(model.report.risks[1])
    assert model.report.chosen == 1


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
    resid = y - model.predict(x)
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


def test_lasso_with_non_finite_coefficients_does_not_converge():
    # x1's square overflows, so its coefficient is NaN; a NaN change must
    # not pass for no change
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 3)) * np.array([1e200, 1.0, 1.0])
    y = x[:, 1] + rng.normal(size=60)
    with np.errstate(all="ignore"), pytest.raises(
            NonConvergence, match="non-finite coefficients") as excinfo:
        fit(Lasso(), x, y)
    assert not np.isfinite(excinfo.value.partial.coef).all()


@pytest.mark.parametrize("column, lam", [(0, 0.1), (2, 0.1), (1, 0.0)])
def test_lasso_overflowing_column_raises_diverged(column, lam):
    # the column's square overflows, so its rho is NaN; the soft threshold
    # must keep it NaN, not snap it to zero and report a converged fit
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 3))
    y = x[:, 1] + rng.normal(size=60)
    x[:, column] *= 1e200
    with np.errstate(all="ignore"), pytest.raises(NonConvergence) as excinfo:
        _fit_lasso(Lasso(lam=lam), x, y)
    assert str(excinfo.value) == "lasso diverged (non-finite coefficients)"
    assert np.isnan(excinfo.value.partial.coef[column])


# --- kernel machine ----------------------------------------------------------

def test_kernel_single_point_dual_solve():
    model = fit(KernelMachine(bandwidth=1.0, lam=1.0),
                np.array([[0.0]]), np.array([3.0]))
    pred = model.predict(np.array([[0.0]]))
    assert pred[0] == pytest.approx(1.5, abs=1e-12)  # 3 / (k(0) + 1)


def test_kernel_interpolates_as_lambda_vanishes():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    model = fit(KernelMachine(bandwidth=0.5, lam=1e-10), x, y)
    assert np.max(np.abs(model.predict(x) - y)) < 1e-4


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
    assert np.max(np.abs(model.predict(xq) - kq @ alpha)) < 1e-8


def test_kernel_squared_loss_dual_is_the_direct_solve_bitwise():
    # the Gram matrix and its ridge diagonal are built in place, with the
    # same operations as exp(-bw * D) and gram + lam * I
    rng = np.random.default_rng(10)
    x = rng.normal(size=(257, 4))
    y = rng.normal(size=257)
    bw, lam = 0.3, 0.7
    gram = np.exp(-bw * cdist(x, x, "sqeuclidean"))
    expected = np.linalg.solve(gram + lam * np.eye(257), y)
    model = fit(KernelMachine(bandwidth=bw, lam=lam), x, y)
    assert model.dual_coef.tobytes() == expected.tobytes()
    xq = rng.normal(size=(7, 4))
    kq = np.exp(-bw * cdist(xq, x, "sqeuclidean"))
    assert model.predict(xq).tobytes() == (kq @ expected).tobytes()


@pytest.mark.parametrize("loss", [SquaredLoss(), EpsilonInsensitiveLoss(max_iter=5)],
                         ids=["squared", "epsilon_insensitive"])
def test_kernel_fit_beyond_physical_memory_raises_before_allocating(monkeypatch, loss):
    # 300 rows: the Gram matrix and LAPACK's copy of it, 2 * 8 * 300^2 bytes
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(300, 3)), rng.normal(size=300)
    spec = KernelMachine(loss=loss)
    expected = fit(spec, x, y).dual_coef
    need = 2 * 8 * 300 * 300

    def no_distances(*args):
        raise AssertionError("an n x n array was built")

    with monkeypatch.context() as m:
        m.setattr(support_points, "_physical_memory", lambda: need - 1)
        m.setattr(learners, "_cdist", no_distances)
        with pytest.raises(DataError,
                           match=r"kernel machine's fit on n=300 rows needs 0\.00144 GB"):
            fit(spec, x, y)
    for probe in (need, None):  # exactly enough, or sysconf unavailable
        monkeypatch.setattr(support_points, "_physical_memory", lambda: probe)
        assert fit(spec, x, y).dual_coef.tobytes() == expected.tobytes()


@pytest.mark.parametrize("loss", [SquaredLoss(), EpsilonInsensitiveLoss(max_iter=5)],
                         ids=["squared", "epsilon_insensitive"])
def test_kernel_fit_holds_one_n_by_n_array(loss):
    n = 600
    rng = np.random.default_rng(12)
    x, y = rng.normal(size=(n, 5)), rng.normal(size=n)
    fit(KernelMachine(loss=loss), x[:5], y[:5])  # SciPy's import is not the fit's
    tracemalloc.start()
    try:
        fit(KernelMachine(loss=loss), x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n * n


def test_kernel_epsilon_insensitive_fits_reasonably():
    rng = np.random.default_rng(8)
    x = np.linspace(-2, 2, 40).reshape(-1, 1)
    y = np.sin(x).ravel()
    spec = KernelMachine(
        bandwidth=2.0, lam=0.1,
        loss=EpsilonInsensitiveLoss(epsilon=0.01, max_iter=2000),
    )
    model = fit(spec, x, y)
    mse = np.mean((model.predict(x) - y) ** 2)
    assert mse < 0.01


def test_svr_lambda_bounds_the_dual():
    # lam is the SVR's penalty: its dual coefficients lie in [-1/lam, 1/lam]
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 2))
    y = 3.0 * np.sin(x[:, 0]) + rng.normal(scale=0.5, size=40)
    duals = {}
    for lam in (1.0, 4.0):
        spec = KernelMachine(bandwidth=0.5, lam=lam, loss=EpsilonInsensitiveLoss())
        duals[lam] = fit(spec, x, y).dual_coef
        assert np.max(np.abs(duals[lam])) <= 1.0 / lam
    assert np.max(np.abs(duals[4.0])) == 0.25  # the box binds
    assert not np.array_equal(duals[1.0], duals[4.0])


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
    start = mlp_init_weights(2, spec.hidden, spec.seed + 1)  # the fit's first weights
    before, _ = mlp_loss_and_grad(start, x, y, spec.l2, spec.activation)
    after, _ = mlp_loss_and_grad(model.weights, x, y, spec.l2, spec.activation)
    assert after < 0.5 * before


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
    lambda w, x, y: Mlp(activation="sigmoid"),
    lambda w, x, y: mlp_loss_and_grad(w, x, y, 0.0, "sigmoid"),
])
def test_mlp_functions_reject_unknown_activation(call):
    weights = mlp_init_weights(2, (3,), seed=0)
    with pytest.raises(InvalidSpec, match="unknown activation 'sigmoid'"):
        call(weights, np.zeros((4, 2)), np.zeros(4))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("l2", [0.0, 0.3])
def test_mlp_gradient_and_sgd_step_are_bitwise_the_reference(l2, activation):
    # at l2 = 0 no penalty term is added, so a zero gradient entry may
    # differ in sign from the reference's; the step's weights may not
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
    weights = mlp_init_weights(3, (5, 4), seed=2)
    weights[0][0][:, 1] = 0.0  # a unit whose output and gradient are zero
    weights[1][0][2] = -0.0
    act, deriv = _REF_ACTIVATIONS[activation]
    outs = _ref_forward(weights, x, act)
    want = _ref_backprop(weights, outs, outs[-1] - y, l2, deriv)
    _, got = mlp_loss_and_grad(weights, x, y, l2, activation)
    pairs = [(a, g, r) for layer, gl, rl in zip(weights, got, want)
             for a, g, r in zip(layer, gl, rl)]
    assert any((g == 0.0).any() for _, g, _ in pairs)
    for a, g, r in pairs:
        assert np.array_equal(g, r)
        assert (a - 0.1 * g).tobytes() == (a - 0.1 * r).tobytes()


# --- oracle / predict ----------------------------------------------------------

def test_oracle_spec_predicts_from_function():
    spec = Oracle(fn=lambda x: x[:, 0] * 2.0)
    model = fit(spec, np.ones((3, 2)), np.zeros(3))
    out = model.predict(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(out, [2.0, 4.0])


@pytest.mark.parametrize("x, y, error, match", [
    (np.zeros(4), np.zeros(4), DataError, "x must be a 2-d matrix"),
    (np.zeros((4, 2)), np.zeros(3), DataError, "x has 4 rows, y has 3"),
    (np.zeros((0, 2)), np.zeros(0), InvalidSpec, "at least one training row"),
    (np.array([[0.0, np.nan], [1.0, 2.0]]), np.zeros(2), InvalidSpec, "finite"),
    (np.zeros((2, 2)), np.array([0.0, np.inf]), InvalidSpec, "finite"),
], ids=["1-d-x", "rows", "no-rows", "nan-x", "inf-y"])
def test_fit_rejects_bad_training_data(x, y, error, match):
    with pytest.raises(error, match=match):
        fit(Ridge(lam=1.0), x, y)


@pytest.mark.parametrize("build, match", [
    (lambda: EpsilonInsensitiveLoss(epsilon=-0.1), "bad epsilon-insensitive loss"),
    (lambda: KernelMachine(loss="squared"), "unknown kernel loss 'squared'"),
    (lambda: SuperLearner(candidates=(Ridge(),), mode="stack"),
     "unknown super learner mode 'stack'"),
    (lambda: Oracle(), "oracle spec needs a callable"),
], ids=["epsilon-negative", "kernel-loss-name", "sl-mode", "oracle-no-function"])
def test_learner_specs_reject_bad_settings(build, match):
    with pytest.raises(InvalidSpec, match=match):
        build()


def test_fit_rejects_an_unregistered_spec_type():
    with pytest.raises(InvalidSpec, match="unknown learner spec"):
        fit(object(), np.zeros((3, 1)), np.zeros(3))


def _integer_field_cases():
    # every int field of each learner spec, and each entry of Mlp.hidden
    specs = {
        Lasso: ("max_iter",),
        EpsilonInsensitiveLoss: ("max_iter",),
        Mlp: ("epochs", "batch", "seed"),
        SuperLearner: ("v_blocks", "seed"),
    }
    for cls, names in specs.items():
        base = {"candidates": (Ridge(),)} if cls is SuperLearner else {}
        for name in names:
            for bad in (2.5, True):
                yield pytest.param(cls, {**base, name: bad},
                                   id=f"{cls.__name__}-{name}-{bad}")
    for bad in (2.5, True):
        yield pytest.param(Mlp, {"hidden": (4, bad)}, id=f"Mlp-hidden-{bad}")


@pytest.mark.parametrize("cls, kwargs", _integer_field_cases())
def test_integer_spec_fields_reject_floats_and_bools(cls, kwargs):
    # 2.5 blocks once fitted on 2; a True batch trained with batch 1
    with pytest.raises(InvalidSpec, match="must be (an integer|integers), got"):
        cls(**kwargs)


def test_integer_spec_fields_take_numpy_integers():
    spec = Mlp(hidden=(np.int64(3),), epochs=np.int32(2), batch=np.int64(8))
    assert fit(spec, np.ones((4, 2)), np.zeros(4)).training_dims == (4, 2)


def test_predict_dimension_mismatch():
    model = fit(Ridge(lam=1.0), np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(DataError, match="model was trained with p=2, got p=3"):
        model.predict(np.zeros((2, 3)))
    with pytest.raises(DataError, match="x must be a 2-d matrix"):
        model.predict(np.zeros(2))


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
    assert np.max(np.abs(model.predict(x) - y)) < 1e-12


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
    assert np.max(np.abs(solo.predict(xq) - direct.predict(xq))) < 1e-12


def test_failing_candidate_gets_infinite_risk():
    rng = np.random.default_rng(21)
    x = np.hstack([rng.normal(size=(30, 1))] * 2)  # rank deficient
    y = rng.normal(size=30)
    bad = Ridge(lam=0.0)
    good = Ridge(lam=1.0)
    model = fit(SuperLearner(candidates=(bad, good), seed=3), x, y)
    assert np.isinf(model.report.risks[0])
    assert model.report.chosen == 1
    with pytest.raises(NumericError, match="every super learner candidate failed"):
        fit(SuperLearner(candidates=(bad, bad), seed=3), x, y)
    nan = Oracle(fn=lambda q: np.full(len(q), np.nan))  # fits, to no finite risk
    with pytest.raises(NonConvergence, match=r"every super learner candidate failed "
                       r"to fit; the first: candidate 0 \(Oracle\) has CV risk nan"):
        fit(SuperLearner(candidates=(nan,), seed=3), x, y)


@pytest.mark.parametrize("candidates", [(Ridge(),), (Ridge(), KernelMachine())],
                         ids=["ridge", "ridge and kernel"])
def test_every_candidate_overflowing_is_a_numeric_error(candidates):
    # a valid spec on data too large to square: a numeric failure, not a
    # configuration error
    rng = np.random.default_rng(28)
    x = rng.normal(size=(30, 2))
    y = (x[:, 0] + rng.normal(size=30)) * 1e200
    with np.errstate(all="ignore"), pytest.raises(
            NonConvergence, match=r"failed to fit; the first: candidate 0 \(Ridge\) "
            "has CV risk inf"):
        fit(SuperLearner(candidates=candidates, v_blocks=3), x, y)


@pytest.mark.parametrize("mode", ["selector", "convex_weights"])
def test_candidate_with_non_finite_risk_is_not_ranked(mode):
    # the NaN candidate fits, but to a NaN risk: it keeps risk inf and
    # neither wins the choice nor takes a weight
    rng = np.random.default_rng(27)
    x = rng.normal(size=(40, 2))
    y = x[:, 0] + rng.normal(size=40) * 0.5
    nan = Oracle(fn=lambda q: np.full(len(q), np.nan))
    spec = SuperLearner(candidates=(Ridge(lam=1.0), nan), v_blocks=2, mode=mode)
    model = fit(spec, x, y)
    assert np.isfinite(model.report.risks[0]) and model.report.risks[1] == np.inf
    assert model.report.chosen == 0
    assert model.report.weights.tolist() == [1.0, 0.0]
    assert np.array_equal(model.predict(x), fit(Ridge(lam=1.0), x, y).predict(x))


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
    assert np.max(np.abs(blended.predict(xq) - single.predict(xq))) < 1e-8
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
    raise NumericError("this candidate never predicts")


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
# random-block cases moved in the last bits ("random": the CV blocks' kind,
# now the only one)
SL_PINNED = {
    ("selector", "random", False, "residual"): "1d6747616fe6e0f9",
    ("selector", "random", True, "residual"): "9ab31d8ae92d9f22",
    ("convex_weights", "random", False, "residual"): "040905c2f9061a82",
    ("convex_weights", "random", True, "residual"): "437340c456b61f30",
    ("selector", "random", False, "shipped"): "de75adaceb7b7be7",
    ("selector", "random", True, "shipped"): "f94bd85ade1e9e22",
    ("convex_weights", "random", False, "shipped"): "72bc14d677850a6b",
    ("convex_weights", "random", True, "shipped"): "02cf923d64e33d3b",
}


def _pinned_case(mode, blocks, failing, lasso):
    name = f"{mode}-{blocks}-{failing}"
    return pytest.param(mode, blocks, failing, lasso,
                        id=name if lasso == "shipped" else f"{name}-residual_lasso")


@pytest.mark.parametrize("mode, blocks, failing, lasso",
                         [_pinned_case(*key) for key in sorted(SL_PINNED)],
                         indirect=["lasso"])
def test_super_learner_report_is_pinned(mode, blocks, failing, lasso):
    x, y = _pinned_xy()
    candidates = [Ridge(lam=0.5), Lasso(lam=0.05), KernelMachine(bandwidth=0.5),
                  Mlp(hidden=(8,), epochs=20, batch=16, seed=2)]
    if failing:
        candidates.insert(2, Oracle(fn=_always_fails))
    spec = SuperLearner(candidates=tuple(candidates), v_blocks=3, mode=mode, seed=7)
    model = fit(spec, x, y)
    report = model.report
    assert np.isinf(report.risks).sum() == int(failing)
    digest = _sha(report.risks, report.weights, [report.chosen], model.predict(x[:9]))
    assert digest == SL_PINNED[mode, blocks, failing, lasso]


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
# the SVR dual and simplex-weight pins were computed before those shared
# one proximal-gradient loop; the MLP pins hash the weights and the
# predictions, computed while the fit still checked its loss every epoch

MLP_PINNED = {
    "tanh_two_layers_l2": (Mlp(hidden=(6, 5), activation="tanh", step_size=0.02,
                               epochs=12, batch=8, seed=4, l2=0.3), "652c586b38b02c5b"),
    "no_hidden_l2": (Mlp(hidden=(), step_size=0.05, epochs=10, batch=16, seed=1,
                         l2=0.2), "d513ff8fc9e570c5"),
    "relu_two_layers": (Mlp(hidden=(7, 3), step_size=0.01, epochs=8, batch=10,
                            seed=9), "fd2d6cf9d7f804ce"),
}


@pytest.mark.parametrize("name", sorted(MLP_PINNED))
def test_mlp_weights_and_predictions_are_pinned(name):
    x, y = _pinned_xy()
    spec, digest = MLP_PINNED[name]
    model = fit(spec, x, y)
    layers = [a for layer in model.weights for a in layer]
    assert _sha(*layers, model.predict(x[:9])) == digest


# step sizes from stable to a first-batch overflow
MLP_GRID = [
    Mlp(hidden=hidden, activation=activation, step_size=step, epochs=epochs,
        batch=16, seed=3, l2=l2)
    for activation in ("relu", "tanh")
    for hidden in ((), (8,), (6, 5))
    for l2 in (0.0, 0.3)
    for epochs in (1, 5)
    for step in (0.01, 0.5, 1e6, 1e300)
]


def test_mlp_matches_the_per_epoch_reference():
    # the reference checks the loss after every epoch, the fit after the
    # last one: same weights, or the same NonConvergence
    x, y = _pinned_xy()
    raised = 0
    for spec in MLP_GRID:
        try:
            got = fit(spec, x, y)
        except NonConvergence as exc:
            with pytest.raises(NonConvergence) as ref:
                _reference_mlp(spec, x, y)
            assert str(ref.value) == str(exc), spec
            raised += 1
            continue
        want = _reference_mlp(spec, x, y)
        for (gw, gb), (ww, wb) in zip(got.weights, want.weights):
            assert np.array_equal(gw, ww) and np.array_equal(gb, wb), spec
    assert 0 < raised < len(MLP_GRID)


def test_mlp_fit_runs_one_full_data_forward_pass(monkeypatch):
    # 61 rows in batches of 16 make 4 batches an epoch; 5 epochs make 20
    # batch passes, then one pass over all rows for the loss
    from dmlspss import learners
    x, y = _pinned_xy()
    calls = []
    forward = learners._forward

    def counted(weights, xs, act):
        calls.append(len(xs))
        return forward(weights, xs, act)

    monkeypatch.setattr(learners, "_forward", counted)
    fit(Mlp(hidden=(4,), epochs=5, batch=16, seed=1), x, y)
    assert len(calls) == 5 * 4 + 1
    assert calls.count(61) == 1 and calls[-1] == 61


@pytest.mark.parametrize("spec", [
    Ridge(lam=0.5),
    Mlp(hidden=(4,), epochs=3, batch=8, seed=1),
    SuperLearner(candidates=(Ridge(lam=0.5), Mlp(hidden=(4,), epochs=3, batch=8)),
                 v_blocks=3, mode="convex_weights", seed=2),
], ids=["default-loop", "mlp", "super-learner"])
def test_fit_many_gives_each_task_its_own_fit_or_error(spec):
    x, y = _pinned_xy()
    tasks = [(np.arange(40), y[:40]), (np.arange(2), y[:2]), (slice(None), y),
             (np.array([5, 9, 1]), np.array([0.0, np.nan, 1.0])),
             (np.arange(39), y[1:40])]
    got = fit_many(spec, x, tasks)
    assert len(got) == len(tasks)
    for (rows, target), out in zip(tasks, got):
        try:
            want = reference_fit(spec, x[rows], target)
        except DmlSpssError as exc:  # 2 rows for 3 blocks; a NaN target
            assert (type(out), str(out)) == (type(exc), str(exc))
            continue
        assert out.predict(x).tobytes() == want.predict(x).tobytes()
        assert out.training_dims == want.training_dims


def test_crossfit_fits_every_fold_before_raising_the_first_error(monkeypatch):
    """fit_many fits each task whatever the others gave, so a failing fold
    does not stop the later folds' fits: crossfit makes all K fits, then
    raises the first fold's error."""
    x, y = _pinned_xy()
    plan = random_kfold(len(y), 3, 0)
    real_fit, calls = learners.fit, []

    def fit_failing_first(spec, xs, ys):
        calls.append(len(ys))
        if len(calls) == 1:
            raise NonConvergence("first fold")
        return real_fit(spec, xs, ys)

    monkeypatch.setattr(learners, "fit", fit_failing_first)
    with pytest.raises(NonConvergence, match="first fold"):
        crossfit(Ridge(), x, y, plan)
    assert calls == [len(y) - len(fold) for fold in plan.folds]


# max_iter=7 stops before convergence; 5000 converges after 243 steps
@pytest.mark.parametrize("max_iter, digest", [(7, "12ddfc2522765aa4"),
                                              (5000, "228cf2c7319e41d3")])
def test_svr_dual_coefficients_are_pinned(max_iter, digest):
    x, y = _pinned_xy()
    spec = KernelMachine(bandwidth=0.7, lam=2.0, loss=EpsilonInsensitiveLoss(
        epsilon=0.1, max_iter=max_iter))
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
