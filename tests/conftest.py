"""Shared test fixtures: the residual-update lasso kept as the reference
for ``learners._fit_lasso`` (coordinate descent by covariance updates),
a fixture that makes ``fit`` dispatch ``Lasso`` specs to it, the
seven-operation exchange polish kept as the reference for
``support_points._exchange_polish`` (one scaled add and one minimum per
visit), and the MLP fit that checks its loss after every epoch, kept as
the reference for ``learners._fit_mlp`` (one check, after the last)."""

import numpy as np
import pytest

from dmlspss.errors import NonConvergence, TooLargeForMemory
from dmlspss.learners import (
    Lasso,
    LinearModel,
    MlpModel,
    _activation,
    _backprop,
    _check_xy,
    _fit_lasso,
    _forward,
    _mlp_loss,
    fit,
    mlp_init_weights,
)
from dmlspss.support_points import PolishStats, _cdist, _physical_memory


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
    TooLargeForMemory, before allocating, when that matrix and its
    N x m column copy need more bytes than the machine's physical memory.
    """
    big_n = full.shape[0]
    m = len(idx)
    need, have = 8 * big_n * (big_n + m), _physical_memory()
    if have is not None and need > have:
        raise TooLargeForMemory(
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


def _reference_mlp(spec, x, y) -> MlpModel:
    """Mini-batch SGD on the squared loss; fully determined by spec.seed.

    After every epoch, the loss over all rows; the first that is not
    finite raises NonConvergence, carrying that epoch's weights."""
    x, y = _check_xy(x, y)
    n, p = x.shape
    rng = np.random.default_rng(spec.seed)
    weights = mlp_init_weights(p, spec.hidden, spec.seed + 1)
    act, deriv = _activation(spec.activation)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(spec.epochs):
            order = rng.permutation(n)
            for start in range(0, n, spec.batch):
                batch = order[start:start + spec.batch]
                outs = _forward(weights, x[batch], act)
                grads = _backprop(weights, outs, outs[-1] - y[batch], spec.l2, deriv)
                for (w, b), (gw, gb) in zip(weights, grads):
                    w -= spec.step_size * gw
                    b -= spec.step_size * gb
            epoch_loss = _mlp_loss(_forward(weights, x, act)[-1] - y, weights, spec.l2)
            if not np.isfinite(epoch_loss):
                raise NonConvergence(
                    "mlp training diverged (non-finite loss)",
                    partial=MlpModel(spec, weights, (n, p)),
                )
    return MlpModel(spec, weights, (n, p))
