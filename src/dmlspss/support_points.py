"""Energy distance, support-points optimization, and sample splitting.

Support points are the point set minimizing the empirical energy distance
to a data cloud.  :func:`compute_support_points` finds them by
majorization-minimization (MM): each sweep replaces every point with the
minimizer of a separable convex surrogate (quadratic majorant for the
attraction term, tangent plane for the concave repulsion term), which
guarantees a non-increasing objective.  :func:`snap_to_rows` projects
points onto distinct data rows.  :func:`energy_two_sample` is that
criterion minus the within-data mean; it sums its distances
``_BLOCK_ROWS`` rows at a time, so it holds no N x N matrix.

The splitting operations (:func:`spss_split`, :func:`spss_kfold`) are one
operation, :func:`_peel`: it takes parts of given sizes off the cloud in
turn, each a seeded random row subset of the rows left, refined by a
greedy exchange polish that strictly lowers its energy distance to them.
The polish holds one N x N distance matrix (8*N^2 bytes) and N-length
row sums, built by the row add that updates them on a swap; a visit of
a selected row is one scaled add of its distances to a kept score
vector and one minimum over the N rows.  It reports the energy distance
before and after from its row sums, so no caller computes a second
N x N matrix.  The splits skip the MM solver because, at p=20,
snapping its points returns the seeded rows, so only the polish changes
the subset.

Every distance comes from :func:`_cdist`, bitwise
``scipy.spatial.distance.cdist``: it calls the compiled function that
``cdist`` calls, from SciPy's one compiled distance module, which
:func:`_distance_module` loads from its file without importing the
``scipy.spatial`` package.

All randomness comes from integer seeds: :class:`SpConfig`'s ``seed`` for
the support points and SPSS splits, and the ``seed`` argument of
:func:`random_kfold` and :func:`random_subset`; every operation is a
pure, deterministic function of its inputs.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, standardize
from .errors import ConfigError, DataError

# the MM update omits point pairs closer than this, so it stays finite
_ZERO_DIST_EPS = 1e-10
# rows per block when the energy distance sums a set of distances
_BLOCK_ROWS = 256
SPLIT_SPSS = "spss"
SPLIT_RANDOM = "random"
# splitter -> the fewest rows each of its folds may have
FOLD_ROWS = {SPLIT_SPSS: 2, SPLIT_RANDOM: 1}
SPLITTERS = tuple(FOLD_ROWS)


@functools.cache
def _distance_module():
    """SciPy's compiled distance module, ``scipy.spatial._distance_pybind``,
    loaded from its file on the first call.

    ``cdist`` needs only this module, but importing ``scipy.spatial``
    also loads ``_ckdtree``, ``_qhull``, ``scipy.sparse`` and ``numpy.ma``,
    which take longer than a 1k-row SPSS ``estimate`` spends on its work.
    ``find_spec("scipy")`` finds SciPy without importing it; a
    ``FileFinder`` over the extension suffixes finds the module's file in
    ``scipy/spatial/`` and builds its spec under the module's real name,
    as an import would.  The module is left out of ``sys.modules``: an
    extension with single-phase init (SciPy built with pybind11 2.x)
    puts itself there as it loads, so it is taken out again.  A later
    import of ``scipy.spatial`` then loads its own copy of the same
    compiled functions.  When ``scipy.spatial`` is already imported, its
    module is returned.  Raises ImportError, naming the directory
    searched, when the module is not there.
    """
    name = "scipy.spatial._distance_pybind"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(f"SciPy is not installed: no {name}")
    where = os.path.join(scipy.submodule_search_locations[0], "spatial")
    spec = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader,
                importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled module {name} in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


def _cdist(a: np.ndarray, b: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """``scipy.spatial.distance.cdist(a, b, metric)`` for ``metric``
    ``"euclidean"`` or ``"sqeuclidean"``: the compiled ``cdist_<metric>``
    that it dispatches to, on the same ``np.asarray`` inputs, so bitwise
    its result.  See :func:`_distance_module`."""
    return getattr(_distance_module(), f"cdist_{metric}")(np.asarray(a), np.asarray(b))


def _physical_memory():
    """Bytes of physical memory, or None where ``sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(need: int, who: str, what: str) -> None:
    """Raise DataError when ``who`` needs ``need`` bytes for
    ``what``, more than the machine's physical memory."""
    have = _physical_memory()
    if have is not None and need > have:
        raise DataError(f"{who} needs {need / 1e9:.3g} GB for {what}, more "
                                f"than the {have / 1e9:.3g} GB of physical memory")


@dataclass(frozen=True)
class SpConfig:
    """Configuration for support-points computation and splitting.

    The splitting operations read only ``seed``, the random row subset
    the polish starts from; they bound the greedy row exchange by the
    constant ``polish_passes = 30`` passes.  ``n_points``, ``max_iter``
    and ``tol`` configure :func:`compute_support_points`, which starts
    from ``n_points`` seeded random rows.
    """

    n_points: int = 0
    max_iter: int = 200
    tol: float = 1e-8  # relative objective change
    seed: int = 0
    polish_passes = 30


@dataclass(frozen=True)
class SpResult:
    """Support points plus the per-iteration objective trace."""

    points: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool  # the relative objective change fell below tol


@dataclass(frozen=True)
class PolishStats:
    """What the exchange polish did to a seeded row subset.  Its energies
    are ``energy_two_sample(rows, pool)``, ``pool`` being the rows it chose
    from (the whole cloud for a split or a first fold), from its row sums."""

    init_idx: np.ndarray  # the seeded rows it started from, sorted
    passes: int  # passes run, the last one included
    swaps: int  # accepted row exchanges
    converged: bool  # a pass made no swap: no single exchange helps
    init_energy: float  # energy distance of the seeded rows to the pool
    energy: float  # energy distance of the polished rows to the pool


@dataclass(frozen=True)
class SplitResult:
    """Disjoint test/train row indices covering the whole sample."""

    test_idx: np.ndarray
    train_idx: np.ndarray
    polish: PolishStats = field(compare=False)


@dataclass(frozen=True)
class FoldPlan:
    """A partition of rows {0..n-1} into K non-empty folds of near-equal size."""

    folds: tuple

    def __post_init__(self):
        folds = tuple(np.asarray(f, dtype=int) for f in self.folds)
        object.__setattr__(self, "folds", folds)
        sizes = [len(f) for f in folds]
        if not sizes or min(sizes) == 0:
            raise ConfigError(
                f"fold plan needs one or more folds, none empty, got sizes {sizes}")
        all_idx = np.concatenate(folds)
        if not np.array_equal(np.sort(all_idx), np.arange(len(all_idx))):
            raise ConfigError("folds must partition 0..n-1 without overlap")
        if max(sizes) - min(sizes) > 1:
            raise ConfigError(f"fold sizes may differ by at most 1, got {sizes}")

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
            raise DataError(f"plan covers {self.n_total} rows, got {len(v)}")
        return np.array([v[f].mean() for f in self.folds])


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise DataError(
            f"point sets have dimensions {a.shape[1]} and {b.shape[1]}"
        )
    return a, b


def energy_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Empirical two-sample energy distance between point sets.

    2 * mean cross-distance - mean within-a distance - mean within-b
    distance, with 1/(m*N), 1/m^2, 1/N^2 conventions (self-distances
    included in the denominators).  Exactly 0 when ``a`` and ``b`` hold
    the same rows in the same order; the same rows in another order add
    their distances in another order, so give 0 only within rounding,
    possibly slightly negative.  Each sum adds whole distance blocks of
    ``_BLOCK_ROWS`` rows, so it needs O(``_BLOCK_ROWS`` * N) memory, not
    an N x N matrix.  Raises DataError when either set is empty.
    """
    a, b = _check_same_dim(a, b)
    for name, points in (("a", a), ("b", b)):
        if points.size == 0:  # no rows, or (from an empty list) no coordinates
            raise DataError(f"point set {name} is empty")
    m, big_n = len(a), len(b)
    return float(_dist_sum(a, b) * 2.0 / (m * big_n) - _dist_sum(a, a) / (m * m)
                 - _dist_sum(b, b) / (big_n ** 2))


def _dist_sum(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of the distances from each row of ``a`` to each row of ``b``."""
    return sum(_cdist(a[r:r + _BLOCK_ROWS], b).sum()
               for r in range(0, len(a), _BLOCK_ROWS))


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
        raise ConfigError(f"n_points must be positive, got {cfg.n_points}")
    if cfg.n_points > big_n:
        raise ConfigError(f"n_points={cfg.n_points} exceeds data size {big_n}")
    if cfg.tol <= 0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
    if cfg.max_iter < 1:
        raise ConfigError(f"max_iter must be positive, got {cfg.max_iter}")

    eps = _ZERO_DIST_EPS
    n = cfg.n_points
    ratio = big_n / n

    rng = np.random.default_rng(cfg.seed)
    pts = full[rng.choice(big_n, size=n, replace=False)].copy()
    d_xf = _cdist(pts, full)
    d_pp = _cdist(pts, pts)
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

        new_d_xf = _cdist(new_pts, full)
        new_d_pp = _cdist(new_pts, new_pts)
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
        raise ConfigError(f"cannot snap {n} points to {big_n} rows")
    dists = _cdist(points, full)
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

    Each pass offers every selected row u (those selected when the pass
    starts, ascending) its best replacement and accepts strict
    improvements.  Swapping u for v changes the energy by
    ``w_a*(a[v] - a[u]) - w_b*(b[v] - d[u, v] - b[u])``, where ``a`` and
    ``b`` are the row sums of distances to all rows and to the selected
    rows.  Apart from terms in u alone that is the score
    ``c[v] + w_b*d[u, v]``, with ``c = w_a*a - w_b*b`` and selected rows
    masked to +inf, so a visit is one scaled add into a reused buffer and
    one minimum.  Only when the least score offers a swap are the rows
    scoring within rounding slack of it ranked by the change itself
    (lowest index on ties): the polish picks the rows that ranking every
    row by the change would.  ``b`` adds up the selected rows of distances
    in ascending order, as a swap updates it; a swap recomputes ``c``.

    Deterministic and monotone in the subset energy; costs one N x N
    distance matrix, whose row sums give the energy distance of the
    seeded and of the polished rows to ``full``.  Raises
    DataError, before allocating, when that matrix's 8*N^2 bytes
    exceed the machine's physical memory.
    """
    big_n = full.shape[0]
    m = len(idx)
    _check_memory(8 * big_n * big_n, f"the support-points polish of n={big_n} rows",
                  "its distance matrix")
    dists = _cdist(full, full)
    a = dists.sum(axis=1)  # distances from each row to all rows
    selected = np.zeros(big_n, dtype=bool)
    selected[idx] = True
    b = np.zeros(big_n)  # ... and to the selected rows (dists is symmetric)
    for j in np.flatnonzero(selected):
        b += dists[j]
    attract_w = 2.0 / (m * big_n)
    within_w = 2.0 / (m * m)
    within_full = a.sum() / (big_n * big_n)
    # 1e-13 of the largest term either form of the change adds: far above
    # their rounding errors (a few ulps of it), so every row the change
    # could rank first scores within this of the least score
    slack = 1e-13 * (attract_w * a.max() + within_w * (m + 1) * dists.max())

    def energy() -> float:  # energy_two_sample(full[selected], full)
        return float(attract_w * a[selected].sum() - b[selected].sum() / (m * m)
                     - within_full)

    def score() -> np.ndarray:  # c, the part of a swap's change that is v's alone
        c = attract_w * a - within_w * b
        c[selected] = np.inf
        return c

    init_energy = energy()
    c, buf = score(), np.empty(big_n)
    passes = swaps = 0
    converged = False
    while passes < max_passes and not converged:
        passes += 1
        before = swaps
        for u in np.flatnonzero(selected):
            du = dists[u]
            np.multiply(du, within_w, out=buf)
            buf += c
            least = buf.min()  # +inf when every row is selected
            # the least change is about least - (w_a*a[u] - w_b*b[u]); below
            # -1e-12 + slack, rank the rows scoring within slack of it by the change
            if least - (attract_w * a[u] - within_w * b[u]) < slack - 1e-12:
                near = np.flatnonzero(buf <= least + slack)
                change = attract_w * (a[near] - a[u]) - within_w * (
                    b[near] - du[near] - b[u])
                k = int(change.argmin())  # the lowest row on ties
                if change[k] < -1e-12:
                    v = near[k]
                    selected[u] = False
                    selected[v] = True
                    b += dists[v] - du
                    c = score()
                    swaps += 1
        converged = swaps == before
    return np.flatnonzero(selected), PolishStats(
        idx, passes, swaps, converged, init_energy, energy())


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
        remaining = np.delete(remaining, local)
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
    ``SpConfig.polish_passes`` passes) and becomes the test set, the rest
    the training set.  ``result.polish`` reports the polish.  Each side must
    get at least 2 rows, or ``ConfigError`` is raised.
    """
    n = d.n
    n_test = int(np.floor(test_fraction * n + 0.5))
    if not 2 <= n_test <= n - 2:
        raise ConfigError(
            f"test_fraction={test_fraction} gives test size {n_test} "
            f"outside [2, {n - 2}]: each side needs at least 2 rows"
        )
    (test_idx, train_idx), (polish,) = _peel(
        _joint_cloud(d), (n_test, n - n_test), cfg.seed, SpConfig.polish_passes
    )
    return SplitResult(test_idx=test_idx, train_idx=train_idx, polish=polish)


def check_fold_count(n: int, k: int, splitter: str) -> None:
    """Raise ConfigError unless ``n`` rows make ``k`` folds of ``splitter``,
    each of ``FOLD_ROWS[splitter]`` rows or more: random folds need
    2 <= K <= n, SPSS folds 2 <= K <= n/2."""
    rows = FOLD_ROWS[splitter]
    top, bound = n // rows, "n" if rows == 1 else f"n/{rows}"
    if not 2 <= k <= top:
        raise ConfigError(f"need 2 <= K <= {bound}, got K={k} with n={n}")


def spss_kfold_cloud(cloud: np.ndarray, k: int, cfg: SpConfig) -> FoldPlan:
    """K near-equal folds peeled from an already-standardized point cloud
    by :func:`_peel`: fold k is the polished subset seeded by
    ``cfg.seed + k`` (as in :func:`spss_split`), the last fold the rest."""
    n = cloud.shape[0]
    check_fold_count(n, k, SPLIT_SPSS)
    base, rem = divmod(n, k)
    sizes = [base + 1 if i < rem else base for i in range(k)]
    folds, _ = _peel(cloud, sizes, cfg.seed, SpConfig.polish_passes)
    return FoldPlan(folds=tuple(folds))


def spss_kfold(d: Dataset, k: int, cfg: SpConfig) -> FoldPlan:
    """Build K cross-fitting folds by sequentially peeling polished row
    subsets from the standardized joint (treatment, covariates, outcome)
    cloud, seeded by ``cfg.seed``; see :func:`spss_kfold_cloud`."""
    return spss_kfold_cloud(_joint_cloud(d), k, cfg)


def random_kfold(n: int, k: int, seed: int) -> FoldPlan:
    """Uniformly shuffled K-fold partition of 0..n-1 (the usual baseline)."""
    check_fold_count(n, k, SPLIT_RANDOM)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = tuple(np.sort(f) for f in np.array_split(perm, k))
    return FoldPlan(folds=folds)


def random_subset(n: int, size: int, seed: int) -> np.ndarray:
    """Uniform random subset of row indices, for baseline comparisons."""
    if not 1 <= size <= n:
        raise ConfigError(f"subset size {size} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=size, replace=False))
