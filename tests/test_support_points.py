"""Tests for energy distance, the support-points solver, and splitting."""

import importlib.machinery
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from dmlspss.data import Dataset, standardize
from dmlspss import support_points
from dmlspss.errors import ConfigError, DataError
from dmlspss.simulate import ScenarioConfig, draw_dataset, mix_seed
from dmlspss.support_points import (
    FoldPlan,
    SpConfig,
    _cdist,
    _distance_module,
    _exchange_polish,
    _objective_from_dists,
    _peel,
    compute_support_points,
    energy_two_sample,
    random_kfold,
    random_subset,
    snap_to_rows,
    spss_kfold,
    spss_kfold_cloud,
    spss_split,
)

from conftest import _reference_polish


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
    assert energy_two_sample(pts, pts) == 0.0
    assert energy_two_sample(pts, pts.copy()) == 0.0


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
    with pytest.raises(DataError, match="point sets have dimensions 2 and 3"):
        energy_two_sample(np.zeros((2, 2)), np.zeros((2, 3)))


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
        final = _objective_from_dists(cdist(res.points, full), cdist(res.points, res.points))
        assert final <= trace[0] + 1e-12


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
    with pytest.raises(ConfigError, match="n_points=5 exceeds data size 4"):
        compute_support_points(full, SpConfig(n_points=5))
    with pytest.raises(ConfigError, match="tol must be positive, got 0.0"):
        compute_support_points(full, SpConfig(n_points=2, tol=0.0))
    with pytest.raises(ConfigError, match="n_points must be positive, got 0"):
        compute_support_points(full, SpConfig(n_points=0))


@pytest.mark.parametrize("call, match", [
    (lambda: compute_support_points(np.zeros((4, 1)), SpConfig(n_points=2, max_iter=0)),
     "max_iter must be positive, got 0"),
    (lambda: snap_to_rows(np.zeros((3, 1)), np.zeros((2, 1))),
     "cannot snap 3 points to 2 rows"),
    (lambda: random_subset(5, 6, seed=0), r"subset size 6 outside \[1, 5\]"),
    (lambda: random_subset(5, 0, seed=0), r"subset size 0 outside \[1, 5\]"),
], ids=["max-iter", "snap-too-many", "subset-too-large", "subset-empty"])
def test_support_points_reject_bad_sizes(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


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
    with pytest.raises(ConfigError, match=r"test size 0 outside \[2, 8\]"):
        spss_split(d, 0.01, SpConfig(seed=1))  # rounds to 0
    with pytest.raises(ConfigError, match=r"test size 10 outside \[2, 8\]"):
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
    assert 2 <= stats.passes <= SpConfig.polish_passes == 30
    assert energy_two_sample(cloud[res.test_idx], cloud) < energy_two_sample(
        cloud[stats.init_idx], cloud
    )
    # one pass that swaps has not shown that no swap helps
    _, (one,) = _peel(cloud, (10, 30), 4, 1)
    assert (one.passes, one.converged) == (1, False)
    (none_test, _), (none,) = _peel(cloud, (10, 30), 4, 0)
    assert np.array_equal(none_test, stats.init_idx)
    assert (none.swaps, none.converged) == (0, False)


@pytest.mark.parametrize("n, p", [(12, 1), (61, 3), (300, 5), (800, 20)])
@pytest.mark.parametrize("passes", [0, 1, 30])
def test_polish_energies_match_energy_two_sample(n, p, passes):
    # the polish's O(m) energies from its row sums, against the direct
    # formula on the rows it returns and on the seeded rows
    d = _small_dataset(seed=n + p, n=n, p=p)
    cloud, _ = standardize(np.hstack([d.t[:, None], d.x, d.y[:, None]]))

    def check(rows, init_rows, polish, pool):
        assert polish.init_energy == pytest.approx(
            energy_two_sample(pool[init_rows], pool), rel=1e-10)
        assert polish.energy == pytest.approx(
            energy_two_sample(pool[rows], pool), rel=1e-10)
        assert polish.energy <= polish.init_energy

    # a 20% test set, as spss_split peels it, and three SPSS folds
    n_test = int(np.floor(0.2 * n + 0.5))
    (test, _), (split,) = _peel(cloud, (n_test, n - n_test), n, passes)
    folds, stats = _peel(cloud, [len(f) for f in np.array_split(cloud, 3)], n, passes)
    if passes == SpConfig.polish_passes:  # the bound the split routines use
        res = spss_split(d, 0.2, SpConfig(seed=n))
        assert np.array_equal(test, res.test_idx)
        assert np.array_equal(split.init_idx, res.polish.init_idx)
        assert replace(split, init_idx=None) == replace(res.polish, init_idx=None)
        plan = spss_kfold_cloud(cloud, 3, SpConfig(seed=n))
        assert all(np.array_equal(a, b) for a, b in zip(folds, plan.folds))
    check(test, split.init_idx, split, cloud)
    # the first of three SPSS folds is polished against the whole cloud,
    # the second against the rows the first left
    check(folds[0], stats[0].init_idx, stats[0], cloud)
    left = np.setdiff1d(np.arange(n), folds[0])
    check(np.searchsorted(left, folds[1]), np.searchsorted(left, stats[1].init_idx),
          stats[1], cloud[left])


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
    with pytest.raises(ConfigError, match="need 2 <= K <= n/2, got K=6 with n=10"):
        spss_kfold(d, 6, SpConfig(seed=0))  # K > n/2
    with pytest.raises(ConfigError, match="need 2 <= K <= n/2, got K=1 with n=10"):
        spss_kfold(d, 1, SpConfig(seed=0))


def test_polish_ranks_exact_ties_by_the_energy_change():
    # in one dimension the energy change is piecewise linear in the row
    # swapped in, so rows on a flat stretch tie exactly: rows 0 and 4 here
    # when row 1 is visited.  The score's rounding alone would take row 4;
    # the change itself, as the reference computes it, takes row 0
    cloud, _ = standardize(np.random.default_rng(8).normal(size=(6, 1)))
    rows, stats = _exchange_polish(cloud, np.array([1, 2, 5]), 30)
    ref_rows, ref = _reference_polish(cloud, np.array([1, 2, 5]), 30)
    assert rows.tolist() == ref_rows.tolist() == [0, 2, 5]
    assert (stats.swaps, stats.energy) == (ref.swaps, ref.energy) == (1, 0.05693309227431631)


def test_polish_ranks_like_the_reference_when_one_row_is_left_over():
    # n = 1 (mod 256) on tied one-column data: unless the row sums add the
    # selected rows in the reference's order at every n, other rows win ties
    for n in (257, 513):
        cloud, _ = standardize(np.round(np.random.default_rng(0).normal(size=(n, 1)), 1))
        idx = random_subset(n, 58, 0)
        rows, stats = _exchange_polish(cloud, idx, 30)
        ref_rows, ref = _reference_polish(cloud, idx, 30)
        assert rows.tolist() == ref_rows.tolist()
        assert (stats.passes, stats.swaps, stats.converged) == (
            ref.passes, ref.swaps, ref.converged)
        assert (stats.init_energy, stats.energy) == (ref.init_energy, ref.energy)


def test_polish_beyond_physical_memory_raises_before_allocating(monkeypatch):
    # the first of two 200-row folds of 400 rows: the 400 x 400 distances,
    # 8 * 400^2 bytes
    d, _ = draw_dataset(ScenarioConfig(scenario="s1", p=3, n=400), seed=1)
    expected = [f.tolist() for f in spss_kfold(d, 2, SpConfig(seed=1)).folds]
    need = 8 * 400 * 400
    monkeypatch.setattr(support_points, "_physical_memory", lambda: need - 1)
    with pytest.raises(DataError, match=r"n=400 rows needs 0\.00128 GB"):
        spss_kfold(d, 2, SpConfig(seed=1))
    for probe in (need, None):  # exactly enough, or sysconf unavailable
        monkeypatch.setattr(support_points, "_physical_memory", lambda: probe)
        assert [f.tolist() for f in spss_kfold(d, 2, SpConfig(seed=1)).folds] == expected


def test_random_kfold_basics():
    plan = random_kfold(4, 2, seed=0)
    assert sorted(len(f) for f in plan.folds) == [2, 2]
    again = random_kfold(4, 2, seed=0)
    for f1, f2 in zip(plan.folds, again.folds):
        assert np.array_equal(f1, f2)
    uneven = random_kfold(5, 2, seed=1)
    assert sorted(len(f) for f in uneven.folds) == [2, 3]


def test_fold_plan_validation():
    with pytest.raises(ConfigError, match="folds must partition 0..n-1 without overlap"):
        FoldPlan(folds=(np.array([0, 1]), np.array([1, 2])))  # overlap
    with pytest.raises(ConfigError, match=r"fold sizes may differ by at most 1, got \[4, 1\]"):
        FoldPlan(folds=(np.array([0, 1, 2, 3]), np.array([4,])))  # spread > 1
    with pytest.raises(ConfigError, match="none empty"):
        FoldPlan(folds=([0], []))  # an empty fold
    with pytest.raises(ConfigError, match="none empty"):
        FoldPlan(folds=([],))  # no rows at all


def test_energy_two_sample_is_pinned():
    # computed before energy_two_sample shared the MM criterion's formula
    rng = np.random.default_rng(33)
    got = [float(energy_two_sample(rng.normal(size=(m, 3)), rng.normal(size=(n, 3)))).hex()
           for m, n in ((1, 1), (5, 9), (17, 4), (30, 30))]
    assert got == ["0x1.25671849bc33bp+1", "0x1.5ecf3a3dc86e8p-1",
                   "0x1.fe90f7a89664cp-2", "0x1.205201b246bb0p-2"]


@pytest.mark.parametrize("m, n", [(257, 3), (5, 600), (700, 300)])
def test_energy_in_row_blocks_matches_the_full_matrices(m, n):
    # above 256 rows the sums run a block of rows at a time
    rng = np.random.default_rng(m + n)
    a, b = rng.normal(size=(m, 4)), rng.normal(size=(n, 4)) + 0.3
    full = 2 * cdist(a, b).mean() - cdist(a, a).mean() - cdist(b, b).mean()
    assert energy_two_sample(a, b) == pytest.approx(full, rel=1e-12, abs=0)


# --- the distance kernel ---------------------------------------------------------

def _distance_cases():
    rng = np.random.default_rng(5)
    big, dup = rng.normal(size=(257, 6)), rng.normal(size=(4, 3))
    return {
        "1x1": (rng.normal(size=(1, 3)), rng.normal(size=(1, 3))),
        "1xN": (rng.normal(size=(1, 5)), rng.normal(size=(40, 5))),
        "p=1": (rng.normal(size=(9, 1)), rng.normal(size=(7, 1))),
        "257 rows": (big, big[::-1] + 0.5),
        "non-contiguous": (big[::2, 1::2], big[1::3, ::2]),
        "fortran order": (np.asfortranarray(big[:30]), big[100:120]),
        "duplicate rows": (np.vstack([dup, dup[:2]]), dup),
        "near 1e150": (rng.normal(size=(6, 3)) * 1e150, rng.normal(size=(5, 3)) * 1e150),
        "near 1e-150": (rng.normal(size=(6, 3)) * 1e-150, rng.normal(size=(5, 3)) * 1e-150),
    }


@pytest.mark.parametrize("metric", ["euclidean", "sqeuclidean"])
@pytest.mark.parametrize("case", list(_distance_cases()))
def test_cdist_is_bitwise_scipys(metric, case):
    a, b = _distance_cases()[case]
    got, want = _cdist(a, b, metric), cdist(a, b, metric)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if case == "duplicate rows":
        assert (got[np.arange(6), [0, 1, 2, 3, 0, 1]] == 0.0).all()


def test_cdist_then_scipys_import_give_the_same_bits():
    # the module is loaded from its file and not registered, so a later
    # import of scipy.spatial.distance works and computes the same distances
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from dmlspss.support_points import _cdist\n"
        "rng = np.random.default_rng(3)\n"
        "a, b = rng.normal(size=(30, 4)), rng.normal(size=(300, 4))\n"
        "metrics = ('euclidean', 'sqeuclidean')\n"
        "first = [_cdist(a, b, m).tobytes() for m in metrics]\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "from scipy.spatial.distance import cdist\n"
        "print([cdist(a, b, m).tobytes() == got == _cdist(a, b, m).tobytes()\n"
        "       for m, got in zip(metrics, first)])\n"
    )
    src = os.path.dirname(os.path.dirname(support_points.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[True, True]"


_DISTANCE_MODULE = "scipy.spatial._distance_pybind"


def test_distance_module_is_left_out_of_sys_modules(monkeypatch):
    # SciPy built with pybind11 3 uses multi-phase init, which leaves the
    # module out of sys.modules; built with pybind11 2, single-phase init
    # puts it there as it is created.  Mimic that: either way it is taken out
    create = importlib.machinery.ExtensionFileLoader.create_module

    def single_phase(self, spec):
        module = create(self, spec)
        sys.modules[spec.name] = module
        return module

    a, b = np.eye(2), np.ones((1, 2))
    monkeypatch.delitem(sys.modules, _DISTANCE_MODULE)
    for init in (create, single_phase):
        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "create_module", init)
        module = _distance_module.__wrapped__()
        assert _DISTANCE_MODULE not in sys.modules
        assert module.cdist_euclidean(a, b).tobytes() == cdist(a, b).tobytes()


def test_distance_module_is_scipys_once_scipy_spatial_is_imported():
    # this module imports scipy.spatial.distance, so SciPy's module is there
    assert _distance_module.__wrapped__() is sys.modules[_DISTANCE_MODULE]


def test_missing_distance_module_names_the_directory_searched(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, _DISTANCE_MODULE)
    (tmp_path / "spatial").mkdir()
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(support_points.importlib.util, "find_spec", lambda name: fake)
    where = re.escape(str(tmp_path / "spatial"))
    with pytest.raises(ImportError, match=f"_distance_pybind in {where}$"):
        _distance_module.__wrapped__()
