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
the pooled mean of psi_a, from the scores the solve used; every
:class:`DmlEstimate` carries ``sigma_hat``, ``j_hat`` and ``ci``.
Scores are quadratic in m_hat, so the orthogonality diagnostic is their
exact derivative along a direction, not a finite difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, NumericError
from .learners import crossfit
from .learners import fit  # unused here; kept as dml.fit for bench/tracing.py
from .support_points import FoldPlan

SCORE_PARTIALLING_OUT = "partialling_out"
SCORE_IV_TYPE = "iv_type"
ALG_DML1 = "dml1"
ALG_DML2 = "dml2"
SCORES = (SCORE_PARTIALLING_OUT, SCORE_IV_TYPE)
ALGORITHMS = (ALG_DML1, ALG_DML2)

DEGENERACY_EPS = 1e-12

# Cephes ndtri: rational approximations of the standard normal quantile,
# P0/Q0 for |y - 0.5| <= 0.5 - exp(-2), P1/Q1 and P2/Q2 in the tail
# variable z = sqrt(-2 log y) below and above 8.  Each Q starts with the
# leading 1 that Cephes leaves implicit (its p1evl).
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242e0


def ndtri(y0: float) -> float:
    """Standard normal quantile, a port of the Cephes ``ndtri`` that
    ``scipy.special.ndtri`` evaluates, with the same operations in the
    same order: -inf at 0, inf at 1, nan outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 <= y0 <= 1.0:
        return math.nan
    upper = y0 > 1.0 - _EXP_MINUS_2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_MINUS_2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * np.polyval(_NDTRI_P0, y2) / np.polyval(_NDTRI_Q0, y2))
        return float(x * _SQRT_2PI)
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = float(x0 - z * np.polyval(p, z) / np.polyval(q, z))
    return x if upper else -x


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
        raise ConfigError(f"unknown score kind {kind!r}")
    if getattr(nuis, name) is None:
        raise ConfigError(f"{kind} score needs {name}")
    fit = np.asarray(getattr(nuis, name), dtype=float).reshape(-1)
    if len(fit) != len(y):
        raise DataError(f"{name} length mismatch")
    return y - fit


def score_components(y, t, nuis: NuisanceFit, kind: str, beta: float):
    """Evaluate (psi_a, psi_b, psi) elementwise; psi = psi_a*beta + psi_b."""
    y = np.asarray(y, dtype=float).reshape(-1)
    t = np.asarray(t, dtype=float).reshape(-1)
    m_hat = np.asarray(nuis.m_hat, dtype=float).reshape(-1)
    if not len(y) == len(t) == len(m_hat):
        raise DataError("y, t, and nuisance predictions must align")
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
            raise NumericError(
                f"fold {bad}: mean psi_a ~ 0, no treatment variation after "
                "residualization"
            )
        per_fold = -means_b / means_a
        return float(per_fold.mean()), per_fold
    pooled_a = means_a.mean()
    if abs(pooled_a) <= DEGENERACY_EPS:
        raise NumericError(
            "pooled mean psi_a ~ 0, no treatment variation after residualization"
        )
    return float(-means_b.mean() / pooled_a), None


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
    if kind not in SCORES:
        raise ConfigError(f"unknown score kind {kind!r}")
    if plan.n_total != d.n:
        raise DataError(f"plan covers {plan.n_total} rows, data has {d.n}")
    for k, fold in enumerate(plan.folds):
        if d.n - len(fold) < 2:
            raise DataError(
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
    """Evaluate the scores once; solve, then attach the sandwich inference.
    Raises NumericError if beta or sigma^2 is not finite (say, the data or
    a nuisance fit overflowed)."""
    psi_a, psi_b, _ = score_components(d.y, d.t, nuis, kind, beta=0.0)
    beta, per_fold = _solve(plan, psi_a, psi_b, algorithm)
    j_hat = plan.means(psi_a).mean()
    if abs(j_hat) <= DEGENERACY_EPS:  # DML1 only: DML2's solve checks it first
        raise NumericError("pooled mean psi_a ~ 0")
    psi = psi_a * beta + psi_b
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        j_sq = float(j_hat ** 2)
        sigma2_hat = float(plan.means(psi ** 2).mean() / j_sq)
    # an overflowing j_hat^2 would pass sigma^2 = 0 for a finite variance
    for name, value in (("beta", beta), ("sigma^2", sigma2_hat), ("j_hat^2", j_sq)):
        if not math.isfinite(value):
            raise NumericError(f"{algorithm} estimate: {name} is {value!r}, not finite")
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
        per_fold_beta=per_fold,
    )


def check_alpha(alpha: float, name: str = "alpha") -> None:
    """Raise ConfigError, naming the setting ``name``, unless
    0 < alpha < 1 and 1 - alpha/2 < 1, so that z_{1-alpha/2} is finite."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"{name}: must be in (0, 1), got {alpha!r}")
    if not 1.0 - alpha / 2.0 < 1.0:
        raise ConfigError(
            f"{name}: too small for a finite normal quantile, got {alpha!r}")


def confidence_interval(
    beta: float, sigma2_hat: float, n_total: int, alpha: float
) -> tuple[float, float]:
    """Two-sided normal interval beta +- z_{1-alpha/2} * sqrt(sigma2/N)."""
    check_alpha(alpha)
    if sigma2_hat < 0:
        raise ConfigError(f"sigma2_hat must be >= 0, got {sigma2_hat}")
    if n_total < 1:
        raise ConfigError(f"n_total must be >= 1, got {n_total}")
    half = ndtri(1.0 - alpha / 2.0) * np.sqrt(sigma2_hat / n_total)
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
        raise DataError("direction must have one entry per row")
    if kind == SCORE_PARTIALLING_OUT:
        lever = 2.0 * beta * (d.t - nuis.m_hat)
    else:
        lever = beta * d.t
    return abs(float(plan.means((lever - y_res) * direction).mean()))
