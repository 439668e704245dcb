"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in captured output) and then asserts, so the suite doubles as a
checklist.  Criteria 2 and 3 are Monte Carlo studies and dominate the
runtime; everything else finishes in seconds.
"""

import numpy as np
import pytest

from dmlspss.data import Dataset, standardize
from dmlspss.dml import (
    SCORE_PARTIALLING_OUT,
    NuisanceFit,
    dml1_estimate,
    dml2_estimate,
)
from dmlspss.learners import (
    Lasso,
    Mlp,
    Oracle,
    Ridge,
    SuperLearner,
    fit,
    mlp_init_weights,
    mlp_loss_and_grad,
)
from dmlspss.simulate import (
    McConfig,
    ScenarioConfig,
    draw_dataset,
    oracle_learner_specs,
    run_monte_carlo,
)
from dmlspss.support_points import (
    FoldPlan,
    SpConfig,
    compute_support_points,
    energy_two_sample,
    random_kfold,
    random_subset,
    spss_split,
)

THREADS = 2  # worker threads for the Monte Carlo criteria


def _random_nuis(plan, rng):
    """Random out-of-fold nuisances, drawn fold by fold (m_hat, then
    ell_hat) and scattered into full-length vectors."""
    m_hat, ell_hat = np.empty(plan.n_total), np.empty(plan.n_total)
    for f in plan.folds:
        m_hat[f] = rng.normal(size=len(f))
        ell_hat[f] = rng.normal(size=len(f))
    return NuisanceFit(m_hat=m_hat, ell_hat=ell_hat)


def _verdict(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -------------------------------------------------------------------------
# 1. metric reconciliation
# -------------------------------------------------------------------------

def test_criterion_01_metric_reconciliation():
    cfg = ScenarioConfig(scenario="s1", p=4, n=100)
    spec_m, spec_ell = oracle_learner_specs(cfg)
    row = run_monte_carlo(McConfig(
        scenario=cfg, learner_m=spec_m, learner_ell=spec_ell,
        reps=50, splitter="random", master_seed=11,
    ))
    identity_ok = (
        abs(row.mse - (row.bias ** 2 + row.se ** 2)) < 1e-12
        and abs(row.se_adjusted - row.se / np.sqrt(row.n)) < 1e-12
    )
    # published-table reconstructions: SE-adjusted = SE/sqrt(N) and
    # MSE = bias^2 + SE^2 reproduce the printed values within one unit
    # of the last printed decimal (1e-4)
    recon_ok = (
        abs(0.0882 / np.sqrt(100) - 0.0089) <= 1e-4
        and abs(0.0382 / np.sqrt(500) - 0.0018) <= 1e-4
        and abs(0.0294 / np.sqrt(1000) - 0.0009) <= 1e-4
        and abs((0.1769 ** 2 + 0.0779 ** 2) - 0.0374) <= 1e-4
    )
    _verdict(
        1, identity_ok and recon_ok,
        f"mse/se_adjusted identities exact; table reconstructions within "
        f"print precision (identities={identity_ok}, tables={recon_ok})",
    )


# -------------------------------------------------------------------------
# 2. oracle-nuisance validity
# -------------------------------------------------------------------------

def test_criterion_02_oracle_nuisance_validity():
    cfg = ScenarioConfig(scenario="s1", p=20, n=1000)
    spec_m, spec_ell = oracle_learner_specs(cfg)
    row = run_monte_carlo(
        McConfig(scenario=cfg, learner_m=spec_m, learner_ell=spec_ell,
                 reps=500, k=2, splitter="random", master_seed=0),
        threads=THREADS,
    )
    ok = abs(row.bias) < 0.005 and 0.93 <= row.coverage <= 0.97
    _verdict(
        2, ok,
        f"true-nuisance run: |bias|={abs(row.bias):.5f} (<0.005), "
        f"coverage={row.coverage:.3f} (in [0.93, 0.97]), "
        f"{row.wall_time_s:.0f}s",
    )


# -------------------------------------------------------------------------
# 3. super-learner cell at desk scale
# -------------------------------------------------------------------------

def test_criterion_03_super_learner_cell():
    cfg = ScenarioConfig(scenario="s1", p=20, n=1000)
    ensemble = SuperLearner(
        candidates=(
            Ridge(lam=1e-3),
            Lasso(lam=0.01, max_iter=2000),
            Mlp(hidden=(16,), step_size=0.01, epochs=40, batch=128, seed=0),
        ),
        v_blocks=3, seed=0,
    )
    row = run_monte_carlo(
        McConfig(scenario=cfg, learner_m=ensemble, learner_ell=ensemble,
                 reps=200, k=2, splitter="spss", master_seed=0,
                 sp_max_iter=60, sp_tol=1e-7),
        threads=THREADS,
    )
    ok = row.mse <= 0.01
    _verdict(
        3, ok,
        f"super-learner nuisances with SPSS K=2, 200 reps: "
        f"mse={row.mse:.4f} (<=0.01), bias={row.bias:.4f}, "
        f"{row.wall_time_s:.0f}s",
    )


# -------------------------------------------------------------------------
# 4. splitting representativeness
# -------------------------------------------------------------------------

def test_criterion_04_spss_representativeness():
    cfg = ScenarioConfig(scenario="s1", p=20, n=1000)
    d, _ = draw_dataset(cfg, seed=100)
    cloud, _ = standardize(np.hstack([d.t[:, None], d.x, d.y[:, None]]))
    size = 200
    wins = 0
    sp_energies, random_energies = [], []
    for trial in range(100):
        result = spss_split(
            d, size / d.n,
            SpConfig(seed=trial, max_iter=40, tol=1e-6),
        )
        e_sp = energy_two_sample(cloud[result.test_idx], cloud)
        e_rand = energy_two_sample(
            cloud[random_subset(d.n, size, seed=trial)], cloud
        )
        sp_energies.append(e_sp)
        random_energies.append(e_rand)
        wins += e_sp < e_rand
    below_median = np.median(sp_energies) < np.median(random_energies)
    ok = wins >= 95 and below_median
    _verdict(
        4, ok,
        f"support-point test sets beat matched random subsets on energy in "
        f"{wins}/100 trials (>=95); median {np.median(sp_energies):.4f} vs "
        f"{np.median(random_energies):.4f}",
    )


# -------------------------------------------------------------------------
# 5. solver soundness
# -------------------------------------------------------------------------

def test_criterion_05_mm_solver_soundness():
    rng = np.random.default_rng(7)
    monotone = True
    for seed in range(100):
        n = int(rng.integers(8, 40))
        dim = int(rng.integers(1, 4))
        pts = int(rng.integers(1, min(8, n) + 1))
        full = rng.normal(size=(n, dim)) * rng.uniform(0.5, 3.0)
        res = compute_support_points(
            full, SpConfig(n_points=pts, seed=seed, max_iter=50)
        )
        if np.any(np.diff(res.objective_trace) > 1e-12):
            monotone = False
            break

    tight = SpConfig(n_points=1, seed=1, max_iter=2000, tol=1e-13)
    res_a = compute_support_points(np.array([[-1.0], [0.0], [1.0]]), tight)
    res_b = compute_support_points(np.array([[0.0], [1.0], [5.0]]), tight)
    # symmetric 2-d instance: the geometric median is the center
    diamond = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    res_c = compute_support_points(
        diamond, SpConfig(n_points=1, seed=2, max_iter=2000, tol=1e-13)
    )
    medians_ok = (
        abs(res_a.points[0, 0]) < 1e-6
        and abs(res_b.points[0, 0] - 1.0) < 1e-6
        and np.max(np.abs(res_c.points[0])) < 1e-6
    )
    _verdict(
        5, monotone and medians_ok,
        f"objective trace non-increasing on 100 instances ({monotone}); "
        f"single-point solutions match medians ({medians_ok})",
    )


# -------------------------------------------------------------------------
# 6. energy-distance axioms
# -------------------------------------------------------------------------

def _energy_reference(a, b):
    cross = sum(np.linalg.norm(ai - bj) for ai in a for bj in b)
    within_a = sum(np.linalg.norm(x1 - x2) for x1 in a for x2 in a)
    within_b = sum(np.linalg.norm(x1 - x2) for x1 in b for x2 in b)
    return (2 * cross / (len(a) * len(b)) - within_a / len(a) ** 2
            - within_b / len(b) ** 2)


def test_criterion_06_energy_axioms():
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(100):
        m, n, dim = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 4)
        a = rng.normal(size=(m, dim))
        b = rng.normal(size=(n, dim))
        e = energy_two_sample(a, b)
        ok &= e >= -1e-12
        ok &= abs(e - energy_two_sample(b, a)) <= 1e-12
        ok &= abs(e - _energy_reference(a, b)) <= 1e-12
        shuffled = a[rng.permutation(m)]
        ok &= abs(energy_two_sample(a, shuffled)) <= 1e-12
        if not ok:
            break
    _verdict(6, bool(ok), "nonnegativity, symmetry, multiset identity, and "
                          "double-summation oracle agreement on 100 instances")


# -------------------------------------------------------------------------
# 7. estimator algebra
# -------------------------------------------------------------------------

def test_criterion_07_dml_algebra():
    rng = np.random.default_rng(17)

    # K = 1: both estimators coincide
    n = 30
    d = Dataset(y=rng.normal(size=n), t=rng.normal(size=n),
                x=rng.normal(size=(n, 2)))
    plan1 = FoldPlan(folds=(np.arange(n),))
    nuis1 = NuisanceFit(m_hat=rng.normal(size=n), ell_hat=rng.normal(size=n))
    e1 = dml1_estimate(d, plan1, nuis1, SCORE_PARTIALLING_OUT)
    e2 = dml2_estimate(d, plan1, nuis1, SCORE_PARTIALLING_OUT)
    k1_ok = abs(e1.beta - e2.beta) < 1e-12

    # moment conditions at the returned solutions
    plan = random_kfold(n, 3, seed=3)
    nuis = _random_nuis(plan, rng)
    est1 = dml1_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    est2 = dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    from dmlspss.dml import score_components
    fold_resid = max(
        abs(score_components(d.y, d.t, nuis, SCORE_PARTIALLING_OUT,
                             est1.per_fold_beta[k])[2][f].mean())
        for k, f in enumerate(plan.folds)
    )
    psi2 = score_components(d.y, d.t, nuis, SCORE_PARTIALLING_OUT, est2.beta)[2]
    pooled_resid = abs(np.mean([psi2[f].mean() for f in plan.folds]))
    moments_ok = fold_resid < 1e-10 and pooled_resid < 1e-10

    # engineered two-fold instance with fold means (-1, 2) and (-3, 2)
    t = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.0])
    y = np.array([2.0, 2.0, 2.0, 2.0, 8.0, 0.0, 0.0, 0.0])
    hd = Dataset(y=y, t=t, x=np.zeros((8, 1)))
    hplan = FoldPlan(folds=(np.arange(0, 4), np.arange(4, 8)))
    hnuis = NuisanceFit(m_hat=np.zeros(8), ell_hat=np.zeros(8))
    h1 = dml1_estimate(hd, hplan, hnuis, SCORE_PARTIALLING_OUT)
    h2 = dml2_estimate(hd, hplan, hnuis, SCORE_PARTIALLING_OUT)
    hand_ok = h1.beta == 4.0 / 3.0 and h2.beta == 1.0

    _verdict(
        7, k1_ok and moments_ok and hand_ok,
        f"K=1 identity ({k1_ok}); fold/pooled moments at solution "
        f"<=1e-10 ({moments_ok}); two-fold hand instance gives "
        f"4/3 and 1 exactly ({hand_ok})",
    )


# -------------------------------------------------------------------------
# 8. variance and confidence interval formulas
# -------------------------------------------------------------------------

def test_criterion_08_variance_and_ci():
    rng = np.random.default_rng(19)
    sandwich_ok = True
    for _ in range(20):
        n = int(rng.integers(12, 40))
        d = Dataset(y=rng.normal(size=n), t=rng.normal(size=n),
                    x=rng.normal(size=(n, 2)))
        plan = random_kfold(n, int(rng.integers(2, 5)), seed=int(rng.integers(100)))
        nuis = _random_nuis(plan, rng)
        est = dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
        sigma2, j_hat = est.sigma_hat ** 2, est.j_hat
        from dmlspss.dml import score_components
        psi = score_components(d.y, d.t, nuis, SCORE_PARTIALLING_OUT, est.beta)[2]
        mean_sq = np.mean([(psi[f] ** 2).mean() for f in plan.folds])
        sandwich_ok &= abs(sigma2 * j_hat ** 2 - mean_sq) < 1e-12

    d = Dataset(y=[2.0, 5.0], t=[1.0, 2.0], x=[[0.0], [0.0]])
    plan = FoldPlan(folds=(np.arange(2),))
    nuis = NuisanceFit(m_hat=np.zeros(2), ell_hat=np.zeros(2))
    est = dml2_estimate(d, plan, nuis, SCORE_PARTIALLING_OUT)
    sigma2 = est.sigma_hat ** 2
    lo, hi, _ = est.ci
    worked_ok = (
        abs(est.beta - 2.4) < 1e-12
        and abs(sigma2 - 0.0256) < 1e-12
        and abs(lo - 2.17825) < 1e-5
        and abs(hi - 2.62175) < 1e-5
    )
    _verdict(
        8, bool(sandwich_ok) and worked_ok,
        f"sandwich identity to 1e-12 on 20 instances ({bool(sandwich_ok)}); "
        f"worked instance beta=2.4, sigma2=0.0256, "
        f"ci=({lo:.5f}, {hi:.5f}) ({worked_ok})",
    )


# -------------------------------------------------------------------------
# 9. learner oracles
# -------------------------------------------------------------------------

def test_criterion_09_learner_oracles():
    rng = np.random.default_rng(23)

    # ridge vs normal equations
    x = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    model = fit(Ridge(lam=0.9), x, y)
    xc = x - x.mean(axis=0)
    expected = np.linalg.solve(xc.T @ xc + 0.9 * np.eye(5),
                               xc.T @ (y - y.mean()))
    ridge_ok = np.max(np.abs(model.coef - expected)) < 1e-10

    # lasso KKT and threshold
    lam = 0.12
    lasso = fit(Lasso(lam=lam, max_iter=5000, tol=1e-12), x, y)
    resid = y - lasso.predict(x)
    grad = xc.T @ resid / len(y)
    kkt_ok = all(
        abs(grad[j]) <= lam + 1e-6 if lasso.coef[j] == 0.0
        else abs(grad[j] - lam * np.sign(lasso.coef[j])) <= 1e-6
        for j in range(5)
    )
    lam_max = np.max(np.abs(xc.T @ (y - y.mean()))) / len(y)
    all_zero = np.all(fit(Lasso(lam=lam_max * (1 + 1e-10)), x, y).coef == 0.0)

    # kernel machine vs direct dual solve
    from dmlspss.learners import KernelMachine
    bw, klam = 0.4, 0.6
    kmodel = fit(KernelMachine(bandwidth=bw, lam=klam), x, y)
    gram = np.exp(-bw * ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    alpha = np.linalg.solve(gram + klam * np.eye(len(y)), y)
    xq = rng.normal(size=(7, 5))
    kq = np.exp(-bw * ((xq[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    kernel_ok = np.max(np.abs(kmodel.predict(xq) - kq @ alpha)) < 1e-8

    # mlp gradients vs central differences
    wts = mlp_init_weights(3, (4,), seed=5)
    gx = rng.normal(size=(6, 3))
    gy = rng.normal(size=6)
    _, grads = mlp_loss_and_grad(wts, gx, gy, l2=0.1, activation="tanh")
    flat = lambda ws: np.concatenate([np.concatenate([w.ravel(), b]) for w, b in ws])
    theta = flat(wts)
    analytic = flat(grads)
    numeric = np.zeros_like(theta)
    h = 1e-5
    for i in range(len(theta)):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += h
        minus[i] -= h

        def unflat(vec):
            out, pos = [], 0
            for w, b in wts:
                nw = vec[pos:pos + w.size].reshape(w.shape)
                pos += w.size
                nb = vec[pos:pos + b.size]
                pos += b.size
                out.append((nw, nb))
            return out

        lp, _ = mlp_loss_and_grad(unflat(plus), gx, gy, 0.1, "tanh")
        lm, _ = mlp_loss_and_grad(unflat(minus), gx, gy, 0.1, "tanh")
        numeric[i] = (lp - lm) / (2 * h)
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
    mlp_ok = rel.max() < 1e-4

    # selector always reports the minimum-risk candidate
    y_lin = x @ np.array([1.0, 0, 0, 0, 0]) + rng.normal(size=40) * 0.01
    sl = fit(
        SuperLearner(
            candidates=(Oracle(fn=lambda q: np.zeros(len(q))),
                        Ridge(lam=0.1), Ridge(lam=100.0)),
            seed=2,
        ),
        x, y_lin,
    )
    selector_ok = sl.report.chosen == int(np.argmin(sl.report.risks))

    ok = ridge_ok and kkt_ok and all_zero and kernel_ok and mlp_ok and selector_ok
    _verdict(
        9, ok,
        f"ridge={ridge_ok}, lasso kkt={kkt_ok}, lambda_max zeroing={all_zero}, "
        f"kernel dual={kernel_ok}, mlp gradients={mlp_ok}, "
        f"selector={selector_ok}",
    )


# -------------------------------------------------------------------------
# 10. thread-count determinism
# -------------------------------------------------------------------------

def test_criterion_10_thread_determinism():
    cfg = ScenarioConfig(scenario="s1", p=5, n=120)
    mc = McConfig(
        scenario=cfg, learner_m=Ridge(lam=1.0), learner_ell=Ridge(lam=1.0),
        reps=20, k=2, splitter="spss", master_seed=42,
        sp_max_iter=30, sp_tol=1e-6,
    )
    rows = [run_monte_carlo(mc, threads=t) for t in (1, 2, 8)]

    def strip(row):
        return {
            key: getattr(row, key)
            for key in ("scenario", "p", "n", "method", "splitter", "bias",
                        "se", "se_adjusted", "mse", "coverage",
                        "mean_model_se", "reps", "master_seed")
        }

    ok = strip(rows[0]) == strip(rows[1]) == strip(rows[2])
    _verdict(10, ok, "simulate cell bitwise identical across 1, 2, and 8 "
                     "threads (wall time excluded)")
