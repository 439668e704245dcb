"""Energy distance, support-points optimization, and sample splitting.

Support points are the point set minimizing the empirical energy distance
to a data cloud.  :func:`compute_support_points` finds them by
majorization-minimization (MM): each sweep replaces every point with the
minimizer of a separable convex surrogate (quadratic majorant for the
attraction term, tangent plane for the concave repulsion term), which
guarantees a non-increasing objective.  :func:`snap_to_rows` projects
points onto distinct data rows.  :func:`energy_two_sample` is that
criterion minus the within-data mean, so both come from one formula.

The splitting operations (:func:`spss_split`, :func:`spss_kfold`) are one
operation, :func:`_peel`: it takes parts of given sizes off the cloud in
turn, each a seeded random row subset of the rows left, refined by a
greedy exchange polish that strictly lowers its energy distance to them.
They skip the MM solver because, at p=20, snapping its points returns
the seeded rows, so only the polish changes the subset.

All randomness is confined to seeds in :class:`SpConfig`; every operation
is a pure, deterministic function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.distance import cdist

from .data import Dataset, standardize
from .errors import DimensionMismatch, InvalidConfig, InvalidFraction

# the MM update omits point pairs closer than this, so it stays finite
_ZERO_DIST_EPS = 1e-10

@dataclass(frozen=True)
class SpConfig:
    """Configuration for support-points computation and splitting.

    The splitting operations read only ``seed`` (the random row subset
    the polish starts from) and ``polish_passes`` (the bound on greedy
    row-exchange passes; 0 keeps the seeded rows).  ``n_points``,
    ``max_iter`` and ``tol`` configure :func:`compute_support_points`,
    which starts from ``n_points`` seeded random rows.
    """

    n_points: int = 0
    max_iter: int = 200
    tol: float = 1e-8  # relative objective change
    seed: int = 0
    polish_passes: int = 30


@dataclass(frozen=True)
class SpResult:
    """Support points plus the per-iteration objective trace."""

    points: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool  # the relative objective change fell below tol


@dataclass(frozen=True)
class PolishStats:
    """What the exchange polish did to a seeded row subset."""

    init_idx: np.ndarray  # the seeded rows it started from, sorted
    passes: int  # passes run, the last one included
    swaps: int  # accepted row exchanges
    converged: bool  # a pass made no swap: no single exchange helps


@dataclass(frozen=True)
class SplitResult:
    """Disjoint test/train row indices covering the whole sample."""

    test_idx: np.ndarray
    train_idx: np.ndarray
    polish: PolishStats = field(compare=False)


@dataclass(frozen=True)
class FoldPlan:
    """A partition of row indices {0..n-1} into K folds of near-equal size."""

    folds: tuple

    def __post_init__(self):
        folds = tuple(np.asarray(f, dtype=int) for f in self.folds)
        object.__setattr__(self, "folds", folds)
        if len(folds) < 1:
            raise InvalidConfig("fold plan needs at least one fold")
        all_idx = np.concatenate(folds)
        n = len(all_idx)
        if len(np.unique(all_idx)) != n or all_idx.min() != 0 or all_idx.max() != n - 1:
            raise InvalidConfig("folds must partition 0..n-1 without overlap")
        sizes = [len(f) for f in folds]
        if max(sizes) - min(sizes) > 1:
            raise InvalidConfig(f"fold sizes may differ by at most 1, got {sizes}")

    @property
    def n_total(self) -> int:
        return sum(len(f) for f in self.folds)

    @property
    def k(self) -> int:
        return len(self.folds)

    def complement(self, k: int) -> np.ndarray:
        return np.sort(np.concatenate([f for i, f in enumerate(self.folds) if i != k]))

    def means(self, v: np.ndarray) -> np.ndarray:
        """Per-fold means of a full-length vector, in fold order."""
        if len(v) != self.n_total:
            raise DimensionMismatch(f"plan covers {self.n_total} rows, got {len(v)}")
        return np.array([v[f].mean() for f in self.folds])


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(
            f"point sets have dimensions {a.shape[1]} and {b.shape[1]}"
        )
    return a, b


def energy_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Empirical two-sample energy distance between point sets.

    2 * mean cross-distance - mean within-a distance - mean within-b
    distance, with 1/(m*N), 1/m^2, 1/N^2 conventions (self-distances
    included in the denominators).  Zero exactly on identical multisets.
    """
    a, b = _check_same_dim(a, b)
    within_b = cdist(b, b).sum() / (b.shape[0] ** 2)
    return float(_objective_from_dists(cdist(a, b), cdist(a, a)) - within_b)


def _subset_energies(cloud: np.ndarray, subsets) -> list:
    """``energy_two_sample(cloud[rows], cloud)`` for each row subset, all
    sliced from one N x N distance matrix."""
    dists = cdist(cloud, cloud)
    within = dists.sum() / (cloud.shape[0] ** 2)
    return [float(_objective_from_dists(dists[rows], dists[np.ix_(rows, rows)]) - within)
            for rows in subsets]


def sp_objective(candidate: np.ndarray, full: np.ndarray) -> float:
    """Two-term support-points criterion (energy distance up to a constant).

    (2/(n*N)) * sum of candidate-to-data distances minus (1/n^2) * sum of
    within-candidate distances; differs from :func:`energy_two_sample` by
    the within-data mean, which is constant in the candidate.
    """
    candidate, full = _check_same_dim(candidate, full)
    return float(_objective_from_dists(cdist(candidate, full),
                                       cdist(candidate, candidate)))


def _objective_from_dists(d_xf: np.ndarray, d_pp: np.ndarray) -> float:
    n, big_n = d_xf.shape
    return d_xf.sum() * 2.0 / (n * big_n) - d_pp.sum() / (n * n)


def compute_support_points(full: np.ndarray, cfg: SpConfig) -> SpResult:
    """Minimize the support-points criterion over point sets of fixed size.

    Parallel MM sweep: every point moves to the weighted combination of
    data attractions (1/distance weights) and a repulsion displacement
    from the other current points.  Pairs closer than ``_ZERO_DIST_EPS``
    (1e-10) are omitted from the update so it stays finite;
    a revert-and-stop safeguard makes the recorded objective trace
    non-increasing unconditionally.
    """
    full = np.atleast_2d(np.asarray(full, dtype=float))
    big_n = full.shape[0]
    if cfg.n_points < 1:
        raise InvalidConfig(f"n_points must be positive, got {cfg.n_points}")
    if cfg.n_points > big_n:
        raise InvalidConfig(f"n_points={cfg.n_points} exceeds data size {big_n}")
    if cfg.tol <= 0:
        raise InvalidConfig(f"tol must be positive, got {cfg.tol}")
    if cfg.max_iter < 1:
        raise InvalidConfig(f"max_iter must be positive, got {cfg.max_iter}")

    eps = _ZERO_DIST_EPS
    n = cfg.n_points
    ratio = big_n / n

    rng = np.random.default_rng(cfg.seed)
    pts = full[rng.choice(big_n, size=n, replace=False)].copy()
    d_xf = cdist(pts, full)
    d_pp = cdist(pts, pts)
    obj = _objective_from_dists(d_xf, d_pp)
    trace = [obj]
    converged = False
    iterations = 0

    for _ in range(cfg.max_iter):
        inv_xf = np.where(d_xf >= eps, 1.0 / np.maximum(d_xf, eps), 0.0)
        inv_pp = np.where(d_pp >= eps, 1.0 / np.maximum(d_pp, eps), 0.0)
        collided = (d_xf < eps).sum(axis=1).astype(float)
        denom = inv_xf.sum(axis=1)
        attract = inv_xf @ full
        repel = pts * inv_pp.sum(axis=1)[:, None] - inv_pp @ pts
        safe = denom > 0
        target = pts.copy()
        target[safe] = (ratio * repel[safe] + attract[safe]) / denom[safe, None]
        # Collided data terms (distance < eps, i.e. the point sits on a
        # data row) equal ||y - y0|| exactly, so keeping them in the
        # surrogate turns the update into a soft-thresholded move: the
        # point leaves its row only when the pull of the remaining terms
        # exceeds the kink's resistance.  This preserves the exact MM
        # descent guarantee from a rows-as-initialization start.
        move = target - pts
        dist = np.linalg.norm(move, axis=1)
        factor = np.ones(n)
        kinked = (collided > 0) & (dist > 0) & safe
        factor[kinked] = np.clip(
            1.0 - collided[kinked] / (denom[kinked] * dist[kinked]), 0.0, 1.0
        )
        new_pts = pts + factor[:, None] * move

        new_d_xf = cdist(new_pts, full)
        new_d_pp = cdist(new_pts, new_pts)
        new_obj = _objective_from_dists(new_d_xf, new_d_pp)
        if new_obj > obj:  # rejected ascent step: stopped, not converged
            break

        pts, d_xf, d_pp = new_pts, new_d_xf, new_d_pp
        iterations += 1
        trace.append(new_obj)
        rel_change = abs(obj - new_obj) / max(abs(obj), 1e-12)
        obj = new_obj
        if rel_change < cfg.tol:
            converged = True
            break

    return SpResult(
        points=pts,
        objective_trace=np.array(trace),
        iterations=iterations,
        converged=converged,
    )


def snap_to_rows(points: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Assign each point to a distinct data row by sequential nearest neighbor.

    Points are processed in index order; each takes its nearest still-unused
    row, ties broken by lowest row index.
    """
    points, full = _check_same_dim(points, full)
    n, big_n = points.shape[0], full.shape[0]
    if n > big_n:
        raise InvalidConfig(f"cannot snap {n} points to {big_n} rows")
    dists = cdist(points, full)
    used = np.zeros(big_n, dtype=bool)
    out = np.empty(n, dtype=int)
    for i in range(n):
        row = np.where(used, np.inf, dists[i])
        j = int(np.argmin(row))  # argmin returns the first (lowest) index on ties
        out[i] = j
        used[j] = True
    return out


def _exchange_polish(
    full: np.ndarray, idx: np.ndarray, max_passes: int
) -> tuple[np.ndarray, PolishStats]:
    """Greedy row swaps that strictly lower the subset's energy distance.

    Each pass offers every selected row its best replacement and accepts
    strict improvements.  Deterministic (ascending row order,
    lowest-index ties) and monotone in the subset energy; costs one
    N x N distance matrix.
    """
    big_n = full.shape[0]
    m = len(idx)
    if max_passes < 1 or m >= big_n:
        return idx, PolishStats(init_idx=idx, passes=0, swaps=0, converged=False)
    dists = cdist(full, full)
    a = dists.sum(axis=1)
    selected = np.zeros(big_n, dtype=bool)
    selected[idx] = True
    b = dists[:, selected].sum(axis=1)
    attract_w = 2.0 / (m * big_n)
    within_w = 2.0 / (m * m)
    swaps = 0
    for passes in range(1, max_passes + 1):
        before = swaps
        for u in np.sort(np.flatnonzero(selected)):
            delta = attract_w * (a - a[u]) - within_w * (b - dists[u] - b[u])
            delta[selected] = np.inf
            v = int(np.argmin(delta))
            if delta[v] < -1e-12:
                selected[u] = False
                selected[v] = True
                b += dists[v] - dists[u]
                swaps += 1
        if swaps == before:
            break
    return np.flatnonzero(selected), PolishStats(idx, passes, swaps, swaps == before)


def _peel(cloud: np.ndarray, sizes, seed: int, passes: int) -> tuple[list, list]:
    """Peel row subsets of the given sizes off ``cloud`` in turn: part j is
    the seeded random subset (seed ``seed + j``) of the rows left, polished
    by row exchange against them; the last part is the rest.  Returns the
    parts and each polished part's PolishStats, in sorted rows of ``cloud``."""
    remaining = np.arange(cloud.shape[0])
    parts, stats = [], []
    for j, size in enumerate(sizes[:-1]):
        init = random_subset(len(remaining), size, seed + j)
        local, polish = _exchange_polish(cloud[remaining], init, passes)
        parts.append(remaining[local])
        stats.append(replace(polish, init_idx=remaining[init]))
        remaining = np.setdiff1d(remaining, parts[-1])
    parts.append(remaining)
    return parts, stats


def _joint_cloud(d: Dataset) -> np.ndarray:
    """The standardized (treatment, covariates, outcome) cloud."""
    cloud, _ = standardize(np.hstack([d.t[:, None], d.x, d.y[:, None]]))
    return cloud


def spss_split(d: Dataset, test_fraction: float, cfg: SpConfig) -> SplitResult:
    """Split a dataset into train/test via support points.

    The joint (treatment, covariates, outcome) cloud is standardized; a
    random row subset of the requested test size, drawn from
    ``cfg.seed``, is polished by row exchange (at most
    ``cfg.polish_passes`` passes) and becomes the test set, the rest the
    training set.  ``result.polish`` reports the polish.  Each side must
    get at least 2 rows, or ``InvalidFraction`` is raised.
    """
    n = d.n
    n_test = int(np.floor(test_fraction * n + 0.5))
    if not 2 <= n_test <= n - 2:
        raise InvalidFraction(
            f"test_fraction={test_fraction} gives test size {n_test} "
            f"outside [2, {n - 2}]: each side needs at least 2 rows"
        )
    (test_idx, train_idx), (polish,) = _peel(
        _joint_cloud(d), (n_test, n - n_test), cfg.seed, cfg.polish_passes
    )
    return SplitResult(test_idx=test_idx, train_idx=train_idx, polish=polish)


def spss_kfold_cloud(cloud: np.ndarray, k: int, cfg: SpConfig) -> FoldPlan:
    """K near-equal folds peeled from an already-standardized point cloud
    by :func:`_peel`: fold k is the polished subset seeded by
    ``cfg.seed + k`` (as in :func:`spss_split`), the last fold the rest."""
    n = cloud.shape[0]
    if k < 2 or k > n // 2:
        raise InvalidConfig(f"need 2 <= K <= n/2, got K={k} with n={n}")
    base, rem = divmod(n, k)
    sizes = [base + 1 if i < rem else base for i in range(k)]
    folds, _ = _peel(cloud, sizes, cfg.seed, cfg.polish_passes)
    return FoldPlan(folds=tuple(folds))


def spss_kfold(d: Dataset, k: int, cfg: SpConfig) -> FoldPlan:
    """Build K cross-fitting folds by sequentially peeling polished row
    subsets from the standardized joint (treatment, covariates, outcome)
    cloud, seeded by ``cfg.seed``; see :func:`spss_kfold_cloud`."""
    return spss_kfold_cloud(_joint_cloud(d), k, cfg)


def random_kfold(n: int, k: int, seed: int) -> FoldPlan:
    """Uniformly shuffled K-fold partition of 0..n-1 (the usual baseline)."""
    if k < 2 or k > n:
        raise InvalidConfig(f"need 2 <= K <= n, got K={k} with n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = tuple(np.sort(f) for f in np.array_split(perm, k))
    return FoldPlan(folds=folds)


def random_subset(n: int, size: int, seed: int) -> np.ndarray:
    """Uniform random subset of row indices, for baseline comparisons."""
    if not 1 <= size <= n:
        raise InvalidConfig(f"subset size {size} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=size, replace=False))
