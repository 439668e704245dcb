"""Shared test fixtures: the residual-update lasso kept as the reference
for ``learners._fit_lasso`` (coordinate descent by covariance updates),
the covariance-update loop as it ran with one temporary per update, kept
as the bitwise reference for ``_fit_lasso`` (one reused buffer), a fixture that makes ``fit`` dispatch ``Lasso`` specs to it, the
seven-operation exchange polish kept as the reference for
``support_points._exchange_polish`` (one scaled add and one minimum per
visit), the MLP fit that checks its loss after every epoch, kept as the
reference for the MLP fit (one check, after the last), and the
MLP fit, cross-fit and super learner as they ran one fit per loop, kept
as the reference for ``learners.fit_many`` (every fit of one spec in one
loop)."""

import math

import numpy as np
import pytest

from dmlspss.data import DEGENERATE_SCALE, standardize
from dmlspss.errors import DataError, DmlSpssError, InvalidSpec, NonConvergence
from dmlspss.learners import (
    MODE_SELECTOR,
    CvRiskReport,
    Lasso,
    LinearModel,
    Mlp,
    MlpModel,
    SuperLearner,
    SuperLearnerModel,
    _check_xy,
    _fit_lasso,
    _simplex_least_squares,
    fit,
    mlp_init_weights,
)
from dmlspss.support_points import (
    SPLIT_SPSS,
    PolishStats,
    SpConfig,
    _cdist,
    _physical_memory,
    random_kfold,
    spss_kfold_cloud,
)


def _soft_threshold(z: float, gamma: float) -> float:
    return np.sign(z) * max(abs(z) - gamma, 0.0)


def _residual_lasso(spec: Lasso, x, y) -> LinearModel:
    """Coordinate descent on (1/(2n))||y - Xb||^2 + lam*||b||_1.

    The intercept is unpenalized (handled by centering).  Raises
    NonConvergence, carrying the partial model, if the sweep-to-sweep
    coefficient change has not dropped below tol within max_iter sweeps.
    """
    x, y = _check_xy(x, y)
    n, p = x.shape
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    yc = y - y_mean
    col_sq = (xc ** 2).sum(axis=0) / n

    coef = np.zeros(p)
    resid = yc.copy()
    converged = False
    for _ in range(spec.max_iter):
        max_delta = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = coef[j]
            rho = xc[:, j] @ resid / n + col_sq[j] * old
            new = _soft_threshold(rho, spec.lam) / col_sq[j]
            if new != old:
                resid -= xc[:, j] * (new - old)
                coef[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < spec.tol:
            converged = True
            break
    intercept = y_mean - x_mean @ coef
    model = LinearModel(spec, coef, intercept, (n, p))
    if not converged:
        raise NonConvergence(
            f"lasso did not converge in {spec.max_iter} sweeps", partial=model
        )
    return model


def _covariance_lasso(spec: Lasso, x, y) -> LinearModel:
    """Coordinate descent by covariance updates on
    (1/(2n))||y - Xb||^2 + lam*||b||_1: c -= G[j]*d through a temporary
    per update, soft threshold by ``max``.  Raises NonConvergence, carrying
    the partial model, on a non-finite coefficient or after max_iter
    sweeps."""
    x, y = _check_xy(x, y)
    n, p = x.shape
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    gram = xc.T @ xc
    corr = xc.T @ (y - y_mean)
    gram /= n
    corr /= n
    col_sq = gram.diagonal().tolist()
    active = [j for j in range(p) if col_sq[j] >= DEGENERATE_SCALE ** 2]

    coef = [0.0] * p
    converged = False
    for _ in range(spec.max_iter):
        max_delta = 0.0
        for j in active:
            old = coef[j]
            rho = corr.item(j) + col_sq[j] * old
            new = math.copysign(max(abs(rho) - spec.lam, 0.0), rho) / col_sq[j]
            if new != old:
                corr -= gram[j] * (new - old)
                coef[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < spec.tol:
            converged = True
            break
    coef = np.array(coef)
    intercept = y_mean - x_mean @ coef
    model = LinearModel(spec, coef, intercept, (n, p))
    if not np.isfinite(coef).all():
        raise NonConvergence("lasso diverged (non-finite coefficients)", partial=model)
    if not converged:
        raise NonConvergence(
            f"lasso did not converge in {spec.max_iter} sweeps", partial=model
        )
    return model


@pytest.fixture
def lasso(request):
    """Select the lasso that ``fit`` runs for ``Lasso`` specs: "shipped"
    (``_fit_lasso``) or "residual" (``_residual_lasso``, registered for the
    test and replaced by ``_fit_lasso`` afterwards)."""
    if request.param == "residual":
        fit.register(Lasso, _residual_lasso)
    try:
        yield request.param
    finally:
        fit.register(Lasso, _fit_lasso)


def _reference_polish(
    full: np.ndarray, idx: np.ndarray, max_passes: int
) -> tuple[np.ndarray, PolishStats]:
    """Greedy row swaps that strictly lower the subset's energy distance.

    Each pass offers every selected row its best replacement and accepts
    strict improvements.  Deterministic (ascending row order,
    lowest-index ties) and monotone in the subset energy; costs one
    N x N distance matrix, whose row sums give the energy distance of
    the seeded and of the polished rows to ``full``.  Raises
    DataError, before allocating, when that matrix and its
    N x m column copy need more bytes than the machine's physical memory.
    """
    big_n = full.shape[0]
    m = len(idx)
    need, have = 8 * big_n * (big_n + m), _physical_memory()
    if have is not None and need > have:
        raise DataError(
            f"the support-points polish of n={big_n} rows needs {need / 1e9:.3g} GB "
            f"for its distances, more than the {have / 1e9:.3g} GB of physical memory"
        )
    dists = _cdist(full, full)
    a = dists.sum(axis=1)  # distances from each row to all rows
    selected = np.zeros(big_n, dtype=bool)
    selected[idx] = True
    b = dists[:, selected].sum(axis=1)  # ... and to the selected rows
    attract_w = 2.0 / (m * big_n)
    within_w = 2.0 / (m * m)
    within_full = a.sum() / (big_n * big_n)

    def energy() -> float:  # energy_two_sample(full[selected], full)
        return float(attract_w * a[selected].sum() - b[selected].sum() / (m * m)
                     - within_full)

    init_energy = energy()
    passes = swaps = 0
    converged = False
    while passes < max_passes and not converged:
        passes += 1
        before = swaps
        for u in np.flatnonzero(selected):
            delta = attract_w * (a - a[u]) - within_w * (b - dists[u] - b[u])
            delta[selected] = np.inf
            v = int(np.argmin(delta))
            if delta[v] < -1e-12:
                selected[u] = False
                selected[v] = True
                b += dists[v] - dists[u]
                swaps += 1
        converged = swaps == before
    return np.flatnonzero(selected), PolishStats(
        idx, passes, swaps, converged, init_energy, energy())


# --- one MLP fit, one cross-fit and one super learner per loop -----------

_REF_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0).astype(float)),
    "tanh": (np.tanh, lambda a: 1.0 - a ** 2),
}


def _ref_forward(weights: list, x: np.ndarray, act) -> list:
    """Every layer's output, input first: [x, a_1, ..., a_{L-1}, out]."""
    outs = [x]
    for w, b in weights[:-1]:
        outs.append(act(outs[-1] @ w + b))
    w, b = weights[-1]
    outs.append((outs[-1] @ w + b).reshape(-1))
    return outs


def _ref_backprop(weights: list, outs: list, resid: np.ndarray, l2: float, deriv) -> list:
    """Gradient of the batch loss, from the forward pass's layer outputs
    and residual, in the [(W, b), ...] layout."""
    m = resid.shape[0]
    delta = resid[:, None] / m
    grads = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        w = weights[layer][0]
        grads[layer] = (outs[layer].T @ delta + (l2 / m) * w, delta.sum(axis=0))
        if layer:
            delta = (delta @ w.T) * deriv(outs[layer])
    return grads


def _ref_mlp_loss(resid: np.ndarray, weights: list, l2: float) -> float:
    """(1/(2m))||resid||^2 + (l2/(2m))*sum||W||^2 over the m residuals."""
    m = resid.shape[0]
    loss = (resid @ resid) / (2.0 * m)
    loss += l2 / (2.0 * m) * sum(float((w ** 2).sum()) for w, _ in weights)
    return loss


class _RefMlpModel(MlpModel):
    def _predict(self, x):
        act = _REF_ACTIVATIONS[self.spec.activation][0]
        return _ref_forward(self.weights, x, act)[-1]


def _reference_fit_mlp(spec, x, y) -> MlpModel:
    """Mini-batch SGD on the squared loss; fully determined by spec.seed.

    The loss is checked once, after the last epoch: a non-finite one raises
    NonConvergence (final weights as partial), with no numpy overflow warning."""
    x, y = _check_xy(x, y)
    n, p = x.shape
    rng = np.random.default_rng(spec.seed)
    weights = mlp_init_weights(p, spec.hidden, spec.seed + 1)
    act, deriv = _REF_ACTIVATIONS[spec.activation]

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(spec.epochs):
            order = rng.permutation(n)
            for start in range(0, n, spec.batch):
                batch = order[start:start + spec.batch]
                outs = _ref_forward(weights, x[batch], act)
                grads = _ref_backprop(weights, outs, outs[-1] - y[batch], spec.l2, deriv)
                for (w, b), (gw, gb) in zip(weights, grads):
                    w -= spec.step_size * gw
                    b -= spec.step_size * gb
        loss = _ref_mlp_loss(_ref_forward(weights, x, act)[-1] - y, weights, spec.l2)
    model = _RefMlpModel(spec, weights, (n, p))
    if not np.isfinite(loss):
        raise NonConvergence("mlp training diverged (non-finite loss)", partial=model)
    return model


def reference_fit(spec, x, y):
    """``fit``, with MLPs and super learners fitted by the references."""
    if isinstance(spec, Mlp):
        return _reference_fit_mlp(spec, x, y)
    if isinstance(spec, SuperLearner):
        return _reference_super_learner(spec, x, y)
    return fit(spec, x, y)


def reference_crossfit(spec, x, y, plan) -> np.ndarray:
    """Out-of-fold predictions: row i is predicted by ``spec`` fitted on
    the complement of row i's fold in ``plan``."""
    preds = np.empty(plan.n_total)
    for k, fold in enumerate(plan.folds):
        comp = plan.complement(k)
        preds[fold] = reference_fit(spec, x[comp], y[comp]).predict(x[fold])
    return preds


def _reference_super_learner(spec: SuperLearner, x, y) -> SuperLearnerModel:
    """Cross-validated ensemble over the candidate specs.

    Selector mode refits the minimum-risk candidate on all data (ties go
    to the lowest index).  Convex-weights mode solves the simplex-
    constrained least squares of y on out-of-fold candidate predictions
    and blends full-data refits.  A candidate whose fit raises, or whose
    risk is not finite (a NonConvergence naming it), fails: it keeps
    infinite risk and is neither chosen nor weighted.  If every candidate
    fails, the first failure is raised again, tagged in place (same class).
    """
    x, y = _check_xy(x, y)
    n = x.shape[0]
    if n < spec.v_blocks:
        raise InvalidSpec(f"need n >= v_blocks, got n={n}, v_blocks={spec.v_blocks}")
    if spec.cv_splitter == SPLIT_SPSS:
        cloud, _ = standardize(np.hstack([x, y[:, None]]))
        plan = spss_kfold_cloud(cloud, spec.v_blocks, SpConfig(seed=spec.seed))
    else:
        plan = random_kfold(n, spec.v_blocks, spec.seed)

    n_cand = len(spec.candidates)
    risks = np.full(n_cand, np.inf)
    ranked = {}  # candidate index -> out-of-fold predictions, finite risks only
    failures = []
    for i, cand in enumerate(spec.candidates):
        try:
            oof = reference_crossfit(cand, x, y, plan)
            risk = plan.means((oof - y) ** 2).mean()
            if not np.isfinite(risk):
                raise NonConvergence(f"candidate {i} ({type(cand).__name__}) has CV "
                                     f"risk {risk}")
        except (DmlSpssError, np.linalg.LinAlgError) as exc:
            failures.append(exc)
            continue
        risks[i] = risk
        ranked[i] = oof

    if not ranked:
        first = failures[0]
        first.args = (f"every super learner candidate failed to fit; the first: {first}",)
        raise first

    chosen = int(np.argmin(risks))
    weights = np.zeros(n_cand)
    if spec.mode == MODE_SELECTOR:
        weights[chosen] = 1.0
    else:
        weights[list(ranked)] = _simplex_least_squares(
            np.column_stack(list(ranked.values())), y)

    models = [
        reference_fit(spec.candidates[i], x, y) if weights[i] != 0.0 else None
        for i in range(n_cand)
    ]
    report = CvRiskReport(risks=risks, chosen=chosen, weights=weights)
    return SuperLearnerModel(spec, models, report, x.shape)


def _reference_mlp(spec, x, y) -> MlpModel:
    """Mini-batch SGD on the squared loss; fully determined by spec.seed.

    After every epoch, the loss over all rows; the first that is not
    finite raises NonConvergence, carrying that epoch's weights."""
    x, y = _check_xy(x, y)
    n, p = x.shape
    rng = np.random.default_rng(spec.seed)
    weights = mlp_init_weights(p, spec.hidden, spec.seed + 1)
    act, deriv = _REF_ACTIVATIONS[spec.activation]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(spec.epochs):
            order = rng.permutation(n)
            for start in range(0, n, spec.batch):
                batch = order[start:start + spec.batch]
                outs = _ref_forward(weights, x[batch], act)
                grads = _ref_backprop(weights, outs, outs[-1] - y[batch], spec.l2, deriv)
                for (w, b), (gw, gb) in zip(weights, grads):
                    w -= spec.step_size * gw
                    b -= spec.step_size * gb
            epoch_loss = _ref_mlp_loss(_ref_forward(weights, x, act)[-1] - y, weights,
                                       spec.l2)
            if not np.isfinite(epoch_loss):
                raise NonConvergence(
                    "mlp training diverged (non-finite loss)",
                    partial=_RefMlpModel(spec, weights, (n, p)),
                )
    return _RefMlpModel(spec, weights, (n, p))
