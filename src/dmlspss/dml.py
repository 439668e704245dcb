"""Orthogonal-score estimation of the treatment coefficient.

The partially linear model Y = T*beta + g(X) + U, T = m(X) + V is
estimated by cross-fitting: nuisance regressions are trained on each
fold's complement and predict the fold's rows, so a :class:`NuisanceFit`
holds full-length out-of-fold vectors (row i is predicted by the model
trained without row i's fold).  The estimating equation mean(psi) = 0 is
solved either per fold and averaged (DML1) or pooled (DML2), where the
pooled mean is the equal-weight mean of the fold means.  Scores are
linear in beta, psi = psi_a*beta + psi_b, so every solve is a ratio of
means.  The variance estimator is the sandwich mean(psi^2) / j_hat^2
with j_hat the pooled mean of psi_a.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.stats import norm

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
from .learners import fit
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


def score_components(y, t, nuis: NuisanceFit, kind: str, beta: float):
    """Evaluate (psi_a, psi_b, psi) elementwise; psi = psi_a*beta + psi_b."""
    y = np.asarray(y, dtype=float).reshape(-1)
    t = np.asarray(t, dtype=float).reshape(-1)
    m_hat = np.asarray(nuis.m_hat, dtype=float).reshape(-1)
    if not len(y) == len(t) == len(m_hat):
        raise DimensionMismatch("y, t, and nuisance predictions must align")
    t_res = t - m_hat
    if kind == SCORE_PARTIALLING_OUT:
        if nuis.ell_hat is None:
            raise InvalidConfig("partialling-out score needs ell_hat")
        y_res = y - np.asarray(nuis.ell_hat, dtype=float).reshape(-1)
        if len(y_res) != len(y):
            raise DimensionMismatch("ell_hat length mismatch")
        psi_a = -t_res ** 2
        psi_b = y_res * t_res
    elif kind == SCORE_IV_TYPE:
        if nuis.g_hat is None:
            raise InvalidConfig("iv-type score needs g_hat")
        g_hat = np.asarray(nuis.g_hat, dtype=float).reshape(-1)
        if len(g_hat) != len(y):
            raise DimensionMismatch("g_hat length mismatch")
        psi_a = -t * t_res
        psi_b = (y - g_hat) * t_res
    else:
        raise InvalidConfig(f"unknown score kind {kind!r}")
    psi = psi_a * beta + psi_b
    return psi_a, psi_b, psi


def _fold_means(plan: FoldPlan, v: np.ndarray) -> np.ndarray:
    """Per-fold means of a full-length vector, in fold order."""
    if len(v) != plan.n_total:
        raise DimensionMismatch(f"plan covers {plan.n_total} rows, got {len(v)}")
    return np.array([v[f].mean() for f in plan.folds])


def _fold_score_means(d: Dataset, plan: FoldPlan, nuis: NuisanceFit, kind: str):
    """Fold means of psi_a and psi_b (psi at beta=0 gives psi_b)."""
    psi_a, psi_b, _ = score_components(d.y, d.t, nuis, kind, beta=0.0)
    return _fold_means(plan, psi_a), _fold_means(plan, psi_b)


def fit_nuisances_crossfit(
    d: Dataset, plan: FoldPlan, spec_m, spec_ell, kind: str
) -> NuisanceFit:
    """Train nuisance learners on each fold's complement, predict the fold.

    The IV-type score needs g(X) = E[Y - T*beta | X], which itself
    involves beta, so it is built in two passes: partialling-out
    nuisances first, a preliminary pooled beta from them, then
    g_hat = ell_hat - beta_prelim * m_hat.
    """
    if kind not in (SCORE_PARTIALLING_OUT, SCORE_IV_TYPE):
        raise InvalidConfig(f"unknown score kind {kind!r}")
    if plan.n_total != d.n:
        raise DimensionMismatch(f"plan covers {plan.n_total} rows, data has {d.n}")
    m_hat = np.empty(d.n)
    ell_hat = np.empty(d.n)
    for k, fold in enumerate(plan.folds):
        comp = plan.complement(k)
        if len(comp) < 2:
            raise FoldTooSmall(
                f"fold {k}: complement has {len(comp)} rows, need at least 2"
            )
        m_hat[fold] = fit(spec_m, d.x[comp], d.t[comp]).predict(d.x[fold])
        ell_hat[fold] = fit(spec_ell, d.x[comp], d.y[comp]).predict(d.x[fold])
    po = NuisanceFit(m_hat=m_hat, ell_hat=ell_hat)
    if kind == SCORE_PARTIALLING_OUT:
        return po
    means_a, means_b = _fold_score_means(d, plan, po, SCORE_PARTIALLING_OUT)
    pooled_a = means_a.mean()
    if abs(pooled_a) <= DEGENERACY_EPS:
        raise DegenerateAggregate("no treatment variation after residualization")
    beta_prelim = -means_b.mean() / pooled_a
    return NuisanceFit(m_hat=m_hat, g_hat=ell_hat - beta_prelim * m_hat)


def dml1_estimate(
    d: Dataset, plan: FoldPlan, nuis: NuisanceFit, kind: str,
    alpha: float = 0.05,
) -> DmlEstimate:
    """Solve the estimating equation per fold and average the solutions."""
    means_a, means_b = _fold_score_means(d, plan, nuis, kind)
    if np.any(np.abs(means_a) <= DEGENERACY_EPS):
        bad = int(np.argmin(np.abs(means_a)))
        raise DegenerateFold(
            f"fold {bad}: mean psi_a ~ 0, no treatment variation after "
            "residualization"
        )
    per_fold = -means_b / means_a
    beta = float(per_fold.mean())
    return _attach_inference(
        beta, d, plan, nuis, kind, ALG_DML1, alpha, per_fold_beta=per_fold
    )


def dml2_estimate(
    d: Dataset, plan: FoldPlan, nuis: NuisanceFit, kind: str,
    alpha: float = 0.05,
) -> DmlEstimate:
    """Solve the pooled estimating equation across folds."""
    means_a, means_b = _fold_score_means(d, plan, nuis, kind)
    pooled_a = means_a.mean()
    if abs(pooled_a) <= DEGENERACY_EPS:
        raise DegenerateAggregate(
            "pooled mean psi_a ~ 0, no treatment variation after residualization"
        )
    beta = float(-means_b.mean() / pooled_a)
    return _attach_inference(beta, d, plan, nuis, kind, ALG_DML2, alpha)


def _attach_inference(beta, d, plan, nuis, kind, algorithm, alpha,
                      per_fold_beta=None) -> DmlEstimate:
    sigma2_hat, j_hat = variance_estimate(beta, d, plan, nuis, kind)
    lo, hi = confidence_interval(beta, sigma2_hat, d.n, alpha)
    return DmlEstimate(
        beta=beta,
        sigma_hat=float(np.sqrt(sigma2_hat)),
        n_total=d.n,
        k=plan.k,
        algorithm=algorithm,
        score=kind,
        ci=(lo, hi, alpha),
        j_hat=float(j_hat),
        per_fold_beta=per_fold_beta,
    )


def variance_estimate(
    est_beta: float, d: Dataset, plan: FoldPlan, nuis: NuisanceFit,
    kind: str,
) -> tuple[float, float]:
    """Sandwich variance at the reported beta.

    sigma2_hat = (1/K) sum_k mean_k(psi^2) / j_hat^2 with
    j_hat = (1/K) sum_k mean_k(psi_a); scalar-parameter case.
    """
    psi_a, _, psi = score_components(d.y, d.t, nuis, kind, beta=est_beta)
    j_hat = _fold_means(plan, psi_a).mean()
    if abs(j_hat) <= DEGENERACY_EPS:
        raise DegenerateJacobian("pooled mean psi_a ~ 0")
    sigma2_hat = float(_fold_means(plan, psi ** 2).mean() / j_hat ** 2)
    return sigma2_hat, float(j_hat)


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
    z = norm.ppf(1.0 - alpha / 2.0)
    half = z * np.sqrt(sigma2_hat / n_total)
    return float(beta - half), float(beta + half)


def orthogonality_diagnostic(
    d: Dataset, plan: FoldPlan, nuis: NuisanceFit, kind: str,
    eps: float, beta: Optional[float] = None,
    direction: Optional[np.ndarray] = None,
) -> float:
    """Numerical check of first-order insensitivity to the treatment model.

    Central-difference derivative of the pooled mean score at the fitted
    beta when m_hat is shifted by r * direction; near zero for orthogonal
    scores with good nuisances, bounded away from zero for a naive
    unresidualized score on confounded data.
    """
    if not 0.0 < eps <= 0.1:
        raise InvalidConfig(f"eps must be in (0, 0.1], got {eps}")
    if beta is None:
        beta = dml2_estimate(d, plan, nuis, kind).beta
    if direction is None:
        direction = np.ones(d.n)
    direction = np.asarray(direction, dtype=float).reshape(-1)
    if len(direction) != d.n:
        raise DimensionMismatch("direction must have one entry per row")

    def mean_score(r: float) -> float:
        shifted = replace(nuis, m_hat=nuis.m_hat + r * direction)
        _, _, psi = score_components(d.y, d.t, shifted, kind, beta=beta)
        return _fold_means(plan, psi).mean()

    return abs((mean_score(eps) - mean_score(-eps)) / (2.0 * eps))
