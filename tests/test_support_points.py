"""Tests for energy distance, the support-points solver, and splitting."""

from dataclasses import replace

import numpy as np
import pytest

from dmlspss.data import Dataset, standardize
from dmlspss.errors import DimensionMismatch, InvalidConfig, InvalidFraction
from dmlspss.simulate import ScenarioConfig, draw_dataset, mix_seed
from dmlspss.support_points import (
    FoldPlan,
    SpConfig,
    _exchange_polish,
    compute_support_points,
    energy_two_sample,
    random_kfold,
    random_subset,
    snap_to_rows,
    sp_objective,
    spss_kfold,
    spss_split,
)


def energy_reference(a, b):
    """Direct double-summation oracle, independent of the vectorized path."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    cross = sum(
        np.linalg.norm(ai - bj) for ai in a for bj in b
    ) / (len(a) * len(b))
    within_a = sum(
        np.linalg.norm(ai - aj) for ai in a for aj in a
    ) / len(a) ** 2
    within_b = sum(
        np.linalg.norm(bi - bj) for bi in b for bj in b
    ) / len(b) ** 2
    return 2 * cross - within_a - within_b


# --- energy distance -------------------------------------------------------

def test_energy_identical_sets_is_zero():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(7, 3))
    assert abs(energy_two_sample(pts, pts)) < 1e-12


def test_energy_single_points():
    assert energy_two_sample([[0.0]], [[1.0]]) == pytest.approx(2.0, abs=1e-12)


def test_energy_two_vs_one():
    value = energy_two_sample([[0.0], [2.0]], [[1.0]])
    assert value == pytest.approx(1.0, abs=1e-12)


def test_energy_axioms_and_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m, n, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 4)
        a = rng.normal(size=(m, d))
        b = rng.normal(size=(n, d))
        e_ab = energy_two_sample(a, b)
        assert e_ab >= -1e-12
        assert e_ab == pytest.approx(energy_two_sample(b, a), abs=1e-12)
        assert e_ab == pytest.approx(energy_reference(a, b), abs=1e-12)


def test_energy_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        energy_two_sample(np.zeros((2, 2)), np.zeros((2, 3)))


# --- sp objective ----------------------------------------------------------

def test_sp_objective_point_values():
    assert sp_objective([[0.0]], [[0.0]]) == pytest.approx(0.0, abs=1e-12)
    assert sp_objective([[0.0]], [[-1.0], [1.0]]) == pytest.approx(2.0, abs=1e-12)
    full = [[0.0], [1.0]]
    assert sp_objective(full, full) == pytest.approx(0.5, abs=1e-12)


def test_sp_objective_differs_from_energy_by_constant():
    rng = np.random.default_rng(5)
    full = rng.normal(size=(12, 2))
    const = None
    for _ in range(8):
        cand = rng.normal(size=(5, 2))
        diff = sp_objective(cand, full) - energy_two_sample(cand, full)
        if const is None:
            const = diff
        assert diff == pytest.approx(const, abs=1e-10)


# --- solver ----------------------------------------------------------------

def test_single_point_is_one_dim_median():
    full = np.array([[-1.0], [0.0], [1.0]])
    res = compute_support_points(full, SpConfig(n_points=1, seed=3, max_iter=500))
    assert abs(res.points[0, 0] - 0.0) < 1e-6

    full = np.array([[0.0], [1.0], [5.0]])
    res = compute_support_points(full, SpConfig(n_points=1, seed=3, max_iter=500))
    assert abs(res.points[0, 0] - 1.0) < 1e-6


def test_full_size_candidate_attains_zero_energy():
    rng = np.random.default_rng(11)
    full = rng.normal(size=(15, 2))
    res = compute_support_points(full, SpConfig(n_points=15, seed=4))
    assert energy_two_sample(res.points, full) <= 1e-8


def test_trace_monotone_and_below_init():
    rng = np.random.default_rng(9)
    for seed in range(10):
        n = int(rng.integers(10, 40))
        d = int(rng.integers(1, 4))
        full = rng.normal(size=(n, d))
        cfg = SpConfig(n_points=min(5, n), seed=seed, max_iter=60)
        res = compute_support_points(full, cfg)
        trace = res.objective_trace
        assert np.all(np.diff(trace) <= 1e-12)
        assert sp_objective(res.points, full) <= trace[0] + 1e-12


def test_rejected_ascent_step_is_not_converged():
    full = np.random.default_rng(0).standard_normal((60, 1))
    cfg = SpConfig(n_points=10, max_iter=500, tol=1e-15, seed=0)
    res = compute_support_points(full, cfg)
    # stopped early by a rejected step, neither by tol nor by max_iter
    assert res.iterations == 18
    assert not res.converged


def test_solver_deterministic():
    rng = np.random.default_rng(2)
    full = rng.normal(size=(30, 3))
    cfg = SpConfig(n_points=6, seed=17)
    a = compute_support_points(full, cfg)
    b = compute_support_points(full, cfg)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.objective_trace, b.objective_trace)


def test_scale_equivariance():
    # fixed iteration count: both runs must stop at the same step for the
    # per-iteration equivariance of the update map to be visible
    rng = np.random.default_rng(21)
    full = rng.normal(size=(40, 2))
    cfg = SpConfig(n_points=5, seed=8, max_iter=40, tol=1e-15)
    base = compute_support_points(full, cfg)
    scaled = compute_support_points(3.0 * full, cfg)
    assert base.iterations == scaled.iterations
    assert np.max(np.abs(scaled.points - 3.0 * base.points)) < 3.0 * 1e-6


def test_solver_config_validation():
    full = np.zeros((4, 1))
    with pytest.raises(InvalidConfig):
        compute_support_points(full, SpConfig(n_points=5))
    with pytest.raises(InvalidConfig):
        compute_support_points(full, SpConfig(n_points=2, tol=0.0))
    with pytest.raises(InvalidConfig):
        compute_support_points(full, SpConfig(n_points=0))


# --- snapping ----------------------------------------------------------------

def test_snap_exact_rows():
    rng = np.random.default_rng(3)
    full = rng.normal(size=(8, 2))
    idx = snap_to_rows(full[[5, 2, 7]], full)
    assert list(idx) == [5, 2, 7]


def test_snap_tie_breaks_to_lowest_row():
    full = np.array([[0.0], [2.0], [9.0]])
    # the point at 1.0 is equidistant to rows 0 and 1
    idx = snap_to_rows(np.array([[1.0]]), full)
    assert idx[0] == 0


def test_snap_sequential_without_replacement():
    full = np.array([[0.0], [1.0], [10.0], [11.0]])
    # both points are nearest to row 0; the second must take its next-best
    idx = snap_to_rows(np.array([[0.1], [0.2]]), full)
    assert list(idx) == [0, 1]


def brute_force_sequential(points, full):
    """Plain-python re-statement of the snapping rule."""
    used = set()
    out = []
    for pt in points:
        best_j, best_d = None, np.inf
        for j, row in enumerate(full):
            if j in used:
                continue
            dist = np.linalg.norm(pt - row)
            if dist < best_d - 1e-15:
                best_j, best_d = j, dist
        out.append(best_j)
        used.add(best_j)
    return out


def test_snap_matches_reference_on_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(20):
        full = rng.normal(size=(6, 2))
        points = rng.normal(size=(4, 2))
        assert list(snap_to_rows(points, full)) == brute_force_sequential(points, full)


# --- splitting ---------------------------------------------------------------

def _small_dataset(seed=0, n=20, p=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        y=rng.normal(size=n), t=rng.normal(size=n), x=rng.normal(size=(n, p))
    )


def test_spss_split_partitions():
    d = _small_dataset(n=4)
    res = spss_split(d, 0.5, SpConfig(seed=1))
    assert len(res.test_idx) == 2 and len(res.train_idx) == 2
    assert len(np.intersect1d(res.test_idx, res.train_idx)) == 0
    assert np.array_equal(
        np.sort(np.concatenate([res.test_idx, res.train_idx])), np.arange(4)
    )


def test_spss_split_bad_fraction():
    d = _small_dataset(n=10)
    with pytest.raises(InvalidFraction):
        spss_split(d, 0.01, SpConfig(seed=1))  # rounds to 0
    with pytest.raises(InvalidFraction):
        spss_split(d, 0.999, SpConfig(seed=1))  # rounds to n


def test_spss_split_deterministic():
    d = _small_dataset(n=30)
    a = spss_split(d, 0.3, SpConfig(seed=9))
    b = spss_split(d, 0.3, SpConfig(seed=9))
    assert np.array_equal(a.test_idx, b.test_idx)


def test_spss_split_more_representative_than_random_median():
    cfg = ScenarioConfig(scenario="s1", p=5, n=300)
    d, _ = draw_dataset(cfg, seed=4)
    res = spss_split(d, 0.2, SpConfig(seed=2, max_iter=80, tol=1e-7))
    cloud, _ = standardize(np.hstack([d.t[:, None], d.x, d.y[:, None]]))
    e_sp = energy_two_sample(cloud[res.test_idx], cloud)
    e_rand = [
        energy_two_sample(cloud[random_subset(d.n, len(res.test_idx), s)], cloud)
        for s in range(50)
    ]
    assert e_sp < np.median(e_rand)


def test_spss_split_polish_stats():
    d = _small_dataset(seed=3, n=40)
    cloud, _ = standardize(np.hstack([d.t[:, None], d.x, d.y[:, None]]))
    res = spss_split(d, 0.25, SpConfig(seed=4))
    stats = res.polish
    assert np.array_equal(stats.init_idx, random_subset(d.n, 10, 4))
    assert stats.swaps >= 1 and stats.converged
    assert 2 <= stats.passes <= SpConfig().polish_passes
    assert energy_two_sample(cloud[res.test_idx], cloud) < energy_two_sample(
        cloud[stats.init_idx], cloud
    )
    # one pass that swaps has not shown that no swap helps
    one = spss_split(d, 0.25, SpConfig(seed=4, polish_passes=1)).polish
    assert (one.passes, one.converged) == (1, False)
    none = spss_split(d, 0.25, SpConfig(seed=4, polish_passes=0))
    assert np.array_equal(none.test_idx, stats.init_idx)
    assert (none.polish.swaps, none.polish.converged) == (0, False)


def _mm_snap_polish_rows(cloud, m, cfg):
    """Rows the split path chose while it ran the MM solver: support
    points, sequential nearest-row snapping, then the exchange polish."""
    sp = compute_support_points(cloud, replace(cfg, n_points=m))
    snapped = np.sort(snap_to_rows(sp.points, cloud))
    rows, _ = _exchange_polish(cloud, snapped, cfg.polish_passes)
    return rows


def test_polish_only_split_matches_mm_pipeline_at_p20():
    # criterion-3 cell (K=2 folds) and criterion-4 trials (test sets):
    # at p=20 the MM points snap back to the seeded rows, so dropping the
    # MM step must leave the selected rows bitwise unchanged
    scenario = ScenarioConfig(scenario="s1", p=20, n=1000)
    for rep in range(3):
        rep_seed = mix_seed(0, rep)
        d, _ = draw_dataset(scenario, mix_seed(rep_seed, 1))
        cloud, _ = standardize(np.hstack([d.t[:, None], d.x, d.y[:, None]]))
        cfg = SpConfig(seed=mix_seed(rep_seed, 2), max_iter=60, tol=1e-7)
        plan = spss_kfold(d, 2, cfg)
        old_fold = _mm_snap_polish_rows(cloud, 500, cfg)
        assert np.array_equal(plan.folds[0], old_fold)
        assert np.array_equal(plan.folds[1], np.setdiff1d(np.arange(d.n), old_fold))

    d, _ = draw_dataset(scenario, seed=100)
    cloud, _ = standardize(np.hstack([d.t[:, None], d.x, d.y[:, None]]))
    for trial in range(3):
        cfg = SpConfig(seed=trial, max_iter=40, tol=1e-6)
        result = spss_split(d, 0.2, cfg)
        assert np.array_equal(result.test_idx, _mm_snap_polish_rows(cloud, 200, cfg))


def test_spss_kfold_matches_split_at_k2():
    d = _small_dataset(seed=5, n=24)
    plan = spss_kfold(d, 2, SpConfig(seed=6))
    split = spss_split(d, 0.5, SpConfig(seed=6))
    assert np.array_equal(plan.folds[0], split.test_idx)
    assert np.array_equal(plan.folds[1], split.train_idx)


def test_spss_kfold_partition_properties():
    for seed, n, k in [(0, 20, 4), (1, 23, 3), (2, 10, 5)]:
        d = _small_dataset(seed=seed, n=n)
        plan = spss_kfold(d, k, SpConfig(seed=seed))
        sizes = [len(f) for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1
        assert np.array_equal(
            np.sort(np.concatenate(plan.folds)), np.arange(n)
        )


def _digest(*arrays):
    import hashlib
    text = "|".join(",".join(str(int(i)) for i in a) for a in arrays)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pinned_dataset():
    rng = np.random.default_rng(2024)
    return Dataset(y=rng.normal(size=61), t=rng.normal(size=61),
                   x=rng.normal(size=(61, 3)))


def test_spss_kfold_rows_are_pinned():
    # rows chosen before spss_split and spss_kfold shared one peeling routine
    plan = spss_kfold(_pinned_dataset(), 3, SpConfig(seed=5))
    assert [len(f) for f in plan.folds] == [21, 20, 20]
    assert _digest(*plan.folds) == "309039418e51118b"


def test_spss_split_rows_and_polish_are_pinned():
    res = spss_split(_pinned_dataset(), 0.3, SpConfig(seed=6))
    assert len(res.test_idx) == 18
    assert _digest(res.test_idx, res.train_idx) == "ab24f3076a39dc0e"
    stats = res.polish
    assert _digest(stats.init_idx) == "b927d4fb33759fe9"
    assert (stats.passes, stats.swaps, stats.converged) == (5, 20, True)


def test_spss_kfold_tiny_folds():
    d = _small_dataset(n=8)
    plan = spss_kfold(d, 4, SpConfig(seed=0))
    assert [len(f) for f in plan.folds] == [2, 2, 2, 2]


def test_spss_kfold_rejects_bad_k():
    d = _small_dataset(n=10)
    with pytest.raises(InvalidConfig):
        spss_kfold(d, 6, SpConfig(seed=0))  # K > n/2
    with pytest.raises(InvalidConfig):
        spss_kfold(d, 1, SpConfig(seed=0))


def test_random_kfold_basics():
    plan = random_kfold(4, 2, seed=0)
    assert sorted(len(f) for f in plan.folds) == [2, 2]
    again = random_kfold(4, 2, seed=0)
    for f1, f2 in zip(plan.folds, again.folds):
        assert np.array_equal(f1, f2)
    uneven = random_kfold(5, 2, seed=1)
    assert sorted(len(f) for f in uneven.folds) == [2, 3]


def test_fold_plan_validation():
    with pytest.raises(InvalidConfig):
        FoldPlan(folds=(np.array([0, 1]), np.array([1, 2])))  # overlap
    with pytest.raises(InvalidConfig):
        FoldPlan(folds=(np.array([0, 1, 2, 3]), np.array([4,])))  # spread > 1


def test_energy_two_sample_is_pinned():
    # computed before energy_two_sample shared the MM criterion's formula
    rng = np.random.default_rng(33)
    got = [float(energy_two_sample(rng.normal(size=(m, 3)), rng.normal(size=(n, 3)))).hex()
           for m, n in ((1, 1), (5, 9), (17, 4), (30, 30))]
    assert got == ["0x1.25671849bc33bp+1", "0x1.5ecf3a3dc86e8p-1",
                   "0x1.fe90f7a89664cp-2", "0x1.205201b246bb0p-2"]
