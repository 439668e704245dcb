"""Orthogonal-score estimation of the treatment coefficient.

The partially linear model Y = T*beta + g(X) + U, T = m(X) + V is
estimated by cross-fitting: ``learners.crossfit`` trains each nuisance
regression on each fold's complement and predicts the fold's rows, so a
:class:`NuisanceFit` holds full-length out-of-fold vectors (row i is
predicted by the model trained without row i's fold).  The estimating
equation mean(psi) = 0 is solved either per fold and averaged (DML1) or
pooled (DML2), where the pooled mean is the equal-weight mean of the
fold means (``FoldPlan.means``).  Scores are
linear in beta, psi = psi_a*beta + psi_b, so every solve is a ratio of
means (one routine for DML1, DML2 and the IV-type preliminary beta).
The variance estimator is the sandwich mean(psi^2) / j_hat^2 with j_hat
the pooled mean of psi_a.  Scores are quadratic in m_hat, so the
orthogonality diagnostic is their exact derivative along a direction,
not a finite difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .data import Dataset
from .errors import (
    DegenerateAggregate,
    DegenerateFold,
    DegenerateJacobian,
    DimensionMismatch,
    FoldTooSmall,
    InvalidAlpha,
    InvalidConfig,
)
from .learners import crossfit
from .learners import fit  # unused here; kept as dml.fit for bench/tracing.py
from .support_points import FoldPlan

SCORE_PARTIALLING_OUT = "partialling_out"
SCORE_IV_TYPE = "iv_type"
ALG_DML1 = "dml1"
ALG_DML2 = "dml2"

DEGENERACY_EPS = 1e-12


@dataclass(frozen=True)
class NuisanceFit:
    """Out-of-fold nuisance predictions, one entry per row of the sample.

    ``ell_hat`` holds E[Y|X] predictions for the partialling-out score;
    ``g_hat`` holds g(X) predictions for the IV-type score.
    """

    m_hat: np.ndarray
    ell_hat: Optional[np.ndarray] = None
    g_hat: Optional[np.ndarray] = None


@dataclass(frozen=True)
class DmlEstimate:
    beta: float
    sigma_hat: float
    n_total: int
    k: int
    algorithm: str
    score: str
    ci: tuple  # (lo, hi, alpha)
    j_hat: float
    per_fold_beta: Optional[np.ndarray] = None

    @property
    def se(self) -> float:
        return self.sigma_hat / np.sqrt(self.n_total)


def _outcome_residual(y: np.ndarray, nuis: NuisanceFit, kind: str) -> np.ndarray:
    """y minus the outcome nuisance the score uses: ``ell_hat`` for
    partialling-out, ``g_hat`` for IV-type."""
    name = {SCORE_PARTIALLING_OUT: "ell_hat", SCORE_IV_TYPE: "g_hat"}.get(kind)
    if name is None:
        raise InvalidConfig(f"unknown score kind {kind!r}")
    if getattr(nuis, name) is None:
        raise InvalidConfig(f"{kind} score needs {name}")
    fit = np.asarray(getattr(nuis, name), dtype=float).reshape(-1)
    if len(fit) != len(y):
        raise DimensionMismatch(f"{name} length mismatch")
    return y - fit


def score_components(y, t, nuis: NuisanceFit, kind: str, beta: float):
    """Evaluate (psi_a, psi_b, psi) elementwise; psi = psi_a*beta + psi_b."""
    y = np.asarray(y, dtype=float).reshape(-1)
    t = np.asarray(t, dtype=float).reshape(-1)
    m_hat = np.asarray(nuis.m_hat, dtype=float).reshape(-1)
    if not len(y) == len(t) == len(m_hat):
        raise DimensionMismatch("y, t, and nuisance predictions must align")
    t_res = t - m_hat
    y_res = _outcome_residual(y, nuis, kind)
    psi_a = -t_res ** 2 if kind == SCORE_PARTIALLING_OUT else -t * t_res
    psi_b = y_res * t_res
    psi = psi_a * beta + psi_b
    return psi_a, psi_b, psi


def _solve(plan: FoldPlan, psi_a: np.ndarray, psi_b: np.ndarray, algorithm: str):
    """Solve mean(psi_a)*beta + mean(psi_b) = 0 over the plan's fold means:
    pooled (DML2: ``(beta, None)``) or per fold and averaged (DML1:
    ``(beta, per_fold_betas)``)."""
    means_a, means_b = plan.means(psi_a), plan.means(psi_b)
    if algorithm == ALG_DML1:
        if np.any(np.abs(means_a) <= DEGENERACY_EPS):
            bad = int(np.argmin(np.abs(means_a)))
            raise DegenerateFold(
                f"fold {bad}: mean psi_a ~ 0, no treatment variation after "
                "residualization"
            )
        per_fold = -means_b / means_a
        return float(per_fold.mean()), per_fold
    pooled_a = means_a.mean()
    if abs(pooled_a) <= DEGENERACY_EPS:
        raise DegenerateAggregate(
            "pooled mean psi_a ~ 0, no treatment variation after residualization"
        )
    return float(-means_b.mean() / pooled_a), None


def _sandwich(plan: FoldPlan, psi_a, psi_b, beta: float) -> tuple[float, float]:
    """(sigma2_hat, j_hat) at ``beta`` from the score components."""
    j_hat = plan.means(psi_a).mean()
    if abs(j_hat) <= DEGENERACY_EPS:
        raise DegenerateJacobian("pooled mean psi_a ~ 0")
    psi = psi_a * beta + psi_b
    sigma2_hat = float(plan.means(psi ** 2).mean() / j_hat ** 2)
    return sigma2_hat, float(j_hat)


def fit_nuisances_crossfit(
    d: Dataset, plan: FoldPlan, spec_m, spec_ell, kind: str
) -> NuisanceFit:
    """Train nuisance learners on each fold's complement, predict the fold
    (``learners.crossfit``: every m fit, then every ell fit).

    The IV-type score needs g(X) = E[Y - T*beta | X], which itself
    involves beta, so it is built in two passes: partialling-out
    nuisances first, a preliminary pooled beta from them, then
    g_hat = ell_hat - beta_prelim * m_hat.
    """
    if kind not in (SCORE_PARTIALLING_OUT, SCORE_IV_TYPE):
        raise InvalidConfig(f"unknown score kind {kind!r}")
    if plan.n_total != d.n:
        raise DimensionMismatch(f"plan covers {plan.n_total} rows, data has {d.n}")
    for k, fold in enumerate(plan.folds):
        if d.n - len(fold) < 2:
            raise FoldTooSmall(
                f"fold {k}: complement has {d.n - len(fold)} rows, need at least 2"
            )
    m_hat = crossfit(spec_m, d.x, d.t, plan)
    ell_hat = crossfit(spec_ell, d.x, d.y, plan)
    po = NuisanceFit(m_hat=m_hat, ell_hat=ell_hat)
    if kind == SCORE_PARTIALLING_OUT:
        return po
    psi_a, psi_b, _ = score_components(d.y, d.t, po, SCORE_PARTIALLING_OUT, beta=0.0)
    beta_prelim, _ = _solve(plan, psi_a, psi_b, ALG_DML2)
    return NuisanceFit(m_hat=m_hat, g_hat=ell_hat - beta_prelim * m_hat)


def dml1_estimate(
    d: Dataset, plan: FoldPlan, nuis: NuisanceFit, kind: str,
    alpha: float = 0.05,
) -> DmlEstimate:
    """Solve the estimating equation per fold and average the solutions."""
    return _estimate(d, plan, nuis, kind, ALG_DML1, alpha)


def dml2_estimate(
    d: Dataset, plan: FoldPlan, nuis: NuisanceFit, kind: str,
    alpha: float = 0.05,
) -> DmlEstimate:
    """Solve the pooled estimating equation across folds."""
    return _estimate(d, plan, nuis, kind, ALG_DML2, alpha)


def _estimate(d, plan, nuis, kind, algorithm, alpha) -> DmlEstimate:
    """Evaluate the scores once; solve, then attach the sandwich inference."""
    psi_a, psi_b, _ = score_components(d.y, d.t, nuis, kind, beta=0.0)
    beta, per_fold = _solve(plan, psi_a, psi_b, algorithm)
    sigma2_hat, j_hat = _sandwich(plan, psi_a, psi_b, beta)
    lo, hi = confidence_interval(beta, sigma2_hat, d.n, alpha)
    return DmlEstimate(
        beta=beta,
        sigma_hat=float(np.sqrt(sigma2_hat)),
        n_total=d.n,
        k=plan.k,
        algorithm=algorithm,
        score=kind,
        ci=(lo, hi, alpha),
        j_hat=j_hat,
        per_fold_beta=per_fold,
    )


def variance_estimate(
    est_beta: float, d: Dataset, plan: FoldPlan, nuis: NuisanceFit,
    kind: str,
) -> tuple[float, float]:
    """Sandwich variance at the reported beta.

    sigma2_hat = (1/K) sum_k mean_k(psi^2) / j_hat^2 with
    j_hat = (1/K) sum_k mean_k(psi_a); scalar-parameter case.
    """
    psi_a, psi_b, _ = score_components(d.y, d.t, nuis, kind, beta=0.0)
    return _sandwich(plan, psi_a, psi_b, est_beta)


def confidence_interval(
    beta: float, sigma2_hat: float, n_total: int, alpha: float
) -> tuple[float, float]:
    """Two-sided normal interval beta +- z_{1-alpha/2} * sqrt(sigma2/N)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    if sigma2_hat < 0:
        raise InvalidConfig(f"sigma2_hat must be >= 0, got {sigma2_hat}")
    if n_total < 1:
        raise InvalidConfig(f"n_total must be >= 1, got {n_total}")
    z = ndtri(1.0 - alpha / 2.0)
    if not np.isfinite(z):
        raise InvalidAlpha(f"alpha={alpha} is too small for a finite z_(1-alpha/2)")
    half = z * np.sqrt(sigma2_hat / n_total)
    return float(beta - half), float(beta + half)


def orthogonality_diagnostic(
    d: Dataset, plan: FoldPlan, nuis: NuisanceFit, kind: str,
    beta: Optional[float] = None, direction: Optional[np.ndarray] = None,
) -> float:
    """First-order sensitivity of the pooled mean score to the treatment model.

    The absolute derivative in r of the pooled mean score at the fitted
    beta when m_hat is shifted by r * direction, in closed form: psi is
    quadratic in m_hat, so it is the pooled mean of
    (2*beta*(t - m_hat) - (y - ell_hat)) * direction for partialling-out
    and of (beta*t - (y - g_hat)) * direction for IV-type.  Near zero for
    orthogonal scores with good nuisances, bounded away from zero for a
    naive unresidualized score on confounded data.
    """
    y_res = _outcome_residual(d.y, nuis, kind)
    if beta is None:
        beta = dml2_estimate(d, plan, nuis, kind).beta
    if direction is None:
        direction = np.ones(d.n)
    direction = np.asarray(direction, dtype=float).reshape(-1)
    if len(direction) != d.n:
        raise DimensionMismatch("direction must have one entry per row")
    if kind == SCORE_PARTIALLING_OUT:
        lever = 2.0 * beta * (d.t - nuis.m_hat)
    else:
        lever = beta * d.t
    return abs(float(plan.means((lever - y_res) * direction).mean()))
