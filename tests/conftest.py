"""Shared test fixtures: the residual-update lasso kept as the reference
for ``learners._fit_lasso`` (coordinate descent by covariance updates),
and a fixture that makes ``fit`` dispatch ``Lasso`` specs to it."""

import numpy as np
import pytest

from dmlspss.errors import NonConvergence
from dmlspss.learners import Lasso, LinearModel, _check_xy, _fit_lasso, fit


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
