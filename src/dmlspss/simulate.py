"""Data-generating processes and the Monte Carlo replication harness.

Two synthetic scenarios share the partially linear structure
Y = T*beta0 + g(X) + U, T = m(X) + V with beta0 = 0.5 and
AR(1)-correlated Gaussian covariates; they differ only in the
correlation decay (0.7 vs 0.5) and in whether the disturbances U, V are
correlated (0 vs 0.3).  :func:`cross_fitted_estimate` is the one
split -> cross-fit -> estimate routine, for ``dmlspss estimate`` and for
every replication, so an estimate on a replication's data and split seed
reproduces its beta bit for bit.  The harness replicates draw -> that
routine over seeded replications and aggregates bias, spread, mse, and
coverage for one (scenario, p, n) cell, serially or in worker processes
forked with ``os.fork`` that send their results back through pipes, with
bitwise the same result.

Reported metrics: bias = mean(beta_hat) - beta0, se = sample standard
deviation of beta_hat across replications, se_adjusted = se / sqrt(n),
mse = bias^2 + se^2.  The model-based standard error is averaged
separately as mean_model_se.

What s2 estimates: its U and V (unit variances) have correlation 0.3, so
E[U | X, T] != 0 and the partially linear model's estimand is
beta0 + cov(U, V) / Var(V) = 0.5 + 0.3 = 0.8, not beta0.  Bias and
coverage are still measured against beta0 = 0.5, so an s2 row's bias
includes that +0.3: s2 is a stress test of a misspecified model.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import pickle
import select
import signal
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset
from .dml import (
    ALG_DML1,
    ALG_DML2,
    ALGORITHMS,
    SCORE_PARTIALLING_OUT,
    SCORES,
    DmlEstimate,
    check_alpha,
    dml1_estimate,
    dml2_estimate,
    fit_nuisances_crossfit,
)
from .errors import ConfigError, WorkerDied
from .learners import (
    KernelMachine,
    Lasso,
    Oracle,
    Ridge,
    SuperLearner,
    require_integers,
)
from .support_points import SpConfig, check_fold_count, random_kfold, spss_kfold
from .support_points import SPLIT_RANDOM, SPLIT_SPSS, SPLITTERS  # re-exported

SCENARIO_1 = "s1"
SCENARIO_2 = "s2"

_MASK64 = (1 << 64) - 1
_SCENARIO_PARAMS = {SCENARIO_1: (0.7, 0.0), SCENARIO_2: (0.5, 0.3)}  # (rho, uv_corr)
SCENARIOS = tuple(_SCENARIO_PARAMS)


@dataclass(frozen=True)
class ScenarioConfig:
    """One synthetic-data cell: scenario variant plus dimensions.

    The scenario fixes the covariates' AR(1) decay ``rho`` and the U-V
    correlation ``uv_corr``: 0.7 and 0.0 for s1, 0.5 and 0.3 for s2.
    Both share ``beta0 = 0.5``; the nuisance functions read covariate
    ``linear_coord = 1`` linearly and ``logistic_coord = min(3, p)``
    through the logistic function (both 1-based).
    """

    scenario: str
    p: int
    n: int

    beta0 = 0.5
    linear_coord = 1

    def __post_init__(self):
        require_integers(self, ConfigError)
        if self.scenario not in _SCENARIO_PARAMS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.p < 1 or self.n < 2:
            raise ConfigError(f"need p >= 1 and n >= 2, got p={self.p}, n={self.n}")

    @property
    def rho(self) -> float:
        return _SCENARIO_PARAMS[self.scenario][0]

    @property
    def uv_corr(self) -> float:
        return _SCENARIO_PARAMS[self.scenario][1]

    @property
    def logistic_coord(self) -> int:
        return min(3, self.p)


def _learner_specs(cfg):
    """Both learner specs of ``cfg``, each followed by its super-learner
    candidates."""
    for learner in (cfg.learner_m, cfg.learner_ell):
        yield learner
        if isinstance(learner, SuperLearner):
            yield from learner.candidates


def check_run(cfg, n: int, p: int) -> None:
    """Raise ConfigError unless :func:`cross_fitted_estimate` can run
    ``cfg`` on n rows of p covariates: known choices, ``alpha`` in (0, 1),
    K against n (every fold complement keeps 2 rows, and a row for each
    of a super learner's CV blocks), and a penalty on every
    ridge and lasso when p >= n (on a nuisance ridge, when p >= the
    n - ceil(n/K) rows a fold trains on)."""
    if cfg.splitter not in SPLITTERS:
        raise ConfigError(f"unknown splitter {cfg.splitter!r}")
    if cfg.score not in SCORES:
        raise ConfigError(f"unknown score {cfg.score!r}")
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")
    check_alpha(cfg.alpha)
    k = cfg.k
    check_fold_count(n, k, cfg.splitter)
    rows = n - -(-n // k)  # the largest fold's complement
    if rows < 2:
        raise ConfigError(
            f"need n - ceil(n/K) >= 2 rows to train on, got K={k} with n={n}"
        )
    for spec in _learner_specs(cfg):
        if isinstance(spec, (Ridge, Lasso)) and spec.lam == 0.0 and p >= n:
            raise ConfigError(
                f"{spec_label(spec)} with lambda=0 is not allowed when p={p} >= n={n}"
            )
        if isinstance(spec, SuperLearner):
            if rows < spec.v_blocks:
                raise ConfigError(
                    f"{spec_label(spec)} v_blocks={spec.v_blocks} needs {spec.v_blocks} "
                    f"rows to train on, but n={n} with K={k} leaves {rows}"
                )
    for spec in (cfg.learner_m, cfg.learner_ell):
        if isinstance(spec, Ridge) and spec.lam == 0.0 and p >= rows:
            raise ConfigError(f"{spec_label(spec)} with lambda=0 is not allowed when "
                                f"p={p} >= the {rows} rows a fold trains on (n={n}, K={k})")


@dataclass(frozen=True)
class McConfig:
    """Full recipe for one Monte Carlo cell; the int fields (integers,
    not floats or bools), ``reps`` and, by :func:`check_run`, every
    setting against the cell's n and p are checked when it is built,
    before any replication runs."""

    scenario: ScenarioConfig
    learner_m: object
    learner_ell: object
    reps: int = 500
    k: int = 2
    splitter: str = SPLIT_SPSS
    score: str = SCORE_PARTIALLING_OUT
    algorithm: str = ALG_DML2
    master_seed: int = 0
    alpha: float = 0.05
    # MM solver knobs, accepted but unused: the SPSS splitter skips MM
    sp_max_iter: int = 100
    sp_tol: float = 1e-7

    def __post_init__(self):
        require_integers(self, ConfigError)
        if self.reps < 2:
            raise ConfigError(f"reps must be >= 2, got {self.reps}")
        check_run(self, self.scenario.n, self.scenario.p)


@dataclass(frozen=True)
class SimulationRow:
    scenario: str
    p: int
    n: int
    method: str
    splitter: str
    bias: float
    se: float
    se_adjusted: float
    mse: float
    coverage: float
    mean_model_se: float
    wall_time_s: float
    reps: int
    master_seed: int


REPORT_COLUMNS = tuple(f.name for f in fields(SimulationRow))
_FLOAT_COLUMNS = {f.name for f in fields(SimulationRow) if f.type in (float, "float")}


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(master_seed: int, index: int) -> int:
    """Avalanche mix of (master seed, index): distinct across indices."""
    return _splitmix64((master_seed & _MASK64) ^ _splitmix64(index & _MASK64))


def ar1_covariance(rho: float, p: int) -> np.ndarray:
    """AR(1) covariance with entries rho^|j-k| (unit diagonal)."""
    if not -1.0 < rho < 1.0:
        raise ConfigError(f"rho must be in (-1, 1), got {rho}")
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _expit(v: float) -> float:
    """The logistic function as ``scipy.special.expit`` computes it,
    1 / (1 + exp(-v)) with the C library's ``exp``, so bitwise equal to
    it; NumPy's own vectorized ``exp`` differs in the last bit."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # exp(-v) above the float range
        return 0.0


def _truth_arrays(x: np.ndarray, cfg: ScenarioConfig):
    """True (g0, m0) at each row of ``x``."""
    lin = x[:, cfg.linear_coord - 1]
    logistic = np.array([_expit(v) for v in x[:, cfg.logistic_coord - 1].tolist()])
    g0 = logistic + 0.25 * lin
    m0 = lin + 0.25 * logistic
    return g0, m0


@dataclass(frozen=True)
class TruthRecord:
    beta0: float
    g0: np.ndarray
    m0: np.ndarray


def draw_dataset(cfg: ScenarioConfig, seed: int) -> tuple[Dataset, TruthRecord]:
    """Draw one dataset from the scenario; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    sigma = ar1_covariance(cfg.rho, cfg.p)
    chol = np.linalg.cholesky(sigma)
    x = rng.standard_normal((cfg.n, cfg.p)) @ chol.T

    uv_cov = np.array([[1.0, cfg.uv_corr], [cfg.uv_corr, 1.0]])
    uv = rng.standard_normal((cfg.n, 2)) @ np.linalg.cholesky(uv_cov).T

    g0, m0 = _truth_arrays(x, cfg)
    t = m0 + uv[:, 1]
    y = t * cfg.beta0 + g0 + uv[:, 0]
    return Dataset(y=y, t=t, x=x), TruthRecord(beta0=cfg.beta0, g0=g0, m0=m0)


def oracle_learner_specs(cfg: ScenarioConfig) -> tuple[Oracle, Oracle]:
    """Learner specs that return the true m0 and ell0 = beta0*m0 + g0.

    Plugging these into the cross-fitting harness isolates the estimator
    itself from nuisance-estimation error.
    """

    def m_fn(x):
        g0, m0 = _truth_arrays(np.asarray(x, dtype=float), cfg)
        return m0

    def ell_fn(x):
        g0, m0 = _truth_arrays(np.asarray(x, dtype=float), cfg)
        return cfg.beta0 * m0 + g0

    return Oracle(fn=m_fn), Oracle(fn=ell_fn)


def spec_label(spec) -> str:
    """Short human-readable tag for a learner spec, used in reports: the
    lower-cased class name, ``kernel``, or ``sl(<candidate tags>)``."""
    if isinstance(spec, SuperLearner):
        return f"sl({'+'.join(spec_label(c) for c in spec.candidates)})"
    if isinstance(spec, KernelMachine):
        return "kernel"
    return type(spec).__name__.lower()


def cross_fitted_estimate(d: Dataset, cfg, seed: int) -> DmlEstimate:
    """The estimator on one dataset: K folds of ``d`` from ``cfg.splitter``
    (SPSS or random) and ``seed``, both nuisances fitted on each fold's
    complement, then DML1 or DML2.  ``cfg`` supplies ``splitter``,
    ``learner_m``, ``learner_ell``, ``k``, ``score``, ``algorithm`` and
    ``alpha``: a :class:`McConfig` for a replication, the CLI's run config
    for ``dmlspss estimate``.  :func:`check_run` checks them against ``d``
    before the split."""
    check_run(cfg, d.n, d.p)
    if cfg.splitter == SPLIT_SPSS:
        plan = spss_kfold(d, cfg.k, SpConfig(seed=seed))
    else:
        plan = random_kfold(d.n, cfg.k, seed)
    nuis = fit_nuisances_crossfit(d, plan, cfg.learner_m, cfg.learner_ell, cfg.score)
    estimate = dml1_estimate if cfg.algorithm == ALG_DML1 else dml2_estimate
    return estimate(d, plan, nuis, cfg.score, alpha=cfg.alpha)


def _run_one_rep(mc: McConfig, rep: int):
    rep_seed = mix_seed(mc.master_seed, rep)
    d, _ = draw_dataset(mc.scenario, mix_seed(rep_seed, 1))
    est = cross_fitted_estimate(d, mc, mix_seed(rep_seed, 2))
    lo, hi, _ = est.ci
    covered = lo <= mc.scenario.beta0 <= hi
    return est.beta, est.se, covered


def _fork_map(fn, count: int, workers: int):
    """``fn(0), ..., fn(count - 1)`` in ``workers`` forked children, in
    task order, up to the first task that failed or was lost.

    Child ``w`` runs tasks ``w``, ``w + workers``, ... and writes each
    result, pickled, to its own pipe as soon as it has it; a task that
    raises is sent as ``None`` (its exception may not survive pickling)
    and ends the child, which always leaves through ``os._exit``.  ``fn``
    reaches the children through the fork, so only results cross the
    pipes.  The parent reads every pipe as data arrives and stops at the
    first task, in order, that failed or whose child ended without
    sending it.  Returns the results before that task and whether it was
    lost (its child died) rather than failed.  A fork that fails raises
    :class:`WorkerDied` naming its errno.  Every child started is killed
    and reaped, and every pipe closed, before this returns or raises,
    ``KeyboardInterrupt`` included.
    """
    pipes = []  # (read fd, pid), one per child in worker order
    try:
        for w in range(workers):
            r, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(r)
                os.close(wfd)
                raise WorkerDied(f"could not start a worker process: {exc}") from exc
            if pid == 0:
                code = 1
                try:
                    for fd in [r] + [fd for fd, _ in pipes]:
                        os.close(fd)
                    with os.fdopen(wfd, "wb") as out:
                        for task in range(w, count, workers):
                            try:
                                result = fn(task)
                            except Exception:
                                result = None
                            data = pickle.dumps((task, result))
                            out.write(len(data).to_bytes(8, "little") + data)
                            out.flush()
                            if result is None:
                                break
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            pipes.append((r, pid))

        buffers = {r: bytearray() for r, _ in pipes}
        received, ended, results = {}, set(), []
        poller = select.poll()
        for r in buffers:
            poller.register(r, select.POLLIN)
        while len(results) < count:
            task = len(results)
            if task in received:
                if received[task] is None:
                    return results, False
                results.append(received.pop(task))
                continue
            if pipes[task % workers][0] in ended:
                return results, True
            for r, _ in poller.poll():
                chunk = os.read(r, 1 << 16)
                if not chunk:
                    poller.unregister(r)
                    ended.add(r)
                    continue
                buf = buffers[r]
                buf += chunk
                while len(buf) >= 8:
                    size = 8 + int.from_bytes(buf[:8], "little")
                    if len(buf) < size:
                        break
                    done, result = pickle.loads(buf[8:size])
                    received[done] = result
                    del buf[:size]
        return results, False
    finally:
        for r, pid in pipes:
            os.close(r)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS keeps
    one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_monte_carlo(mc: McConfig, threads: int = 1) -> SimulationRow:
    """Replicate one cell and aggregate; bitwise independent of ``threads``.

    Replication ``rep`` draws its data from seed
    ``mix_seed(mix_seed(master_seed, rep), 1)`` and runs
    :func:`cross_fitted_estimate` with split seed
    ``mix_seed(mix_seed(master_seed, rep), 2)``, so replications are
    independent tasks.  They run in ``min(threads, reps, CPUs available)``
    worker processes forked with ``os.fork`` (:func:`_fork_map`), all
    started at once, or serially when that is 1 or where ``os.fork`` is
    missing: ``mc``, which may hold unpicklable ``Oracle`` closures,
    reaches them through the fork, only result tuples are pickled, and
    results fold in rep order.  NumPy's lazily loaded ``numpy.random``,
    which every data draw uses, is imported before the fork, so the
    workers inherit it.  A worker loads SciPy's compiled distance module
    on its first distance (SPSS folds or a kernel machine), from its
    file, in about 1 ms; a cell without one loads no SciPy.
    A replication that fails in a worker is run again here, so its
    exception is raised with its type, attributes and traceback
    unchanged.  A worker process that dies before sending a replication,
    or a fork that fails, raises :class:`WorkerDied`, the former naming
    the first replication without a result; that replication is not run
    again here.
    """
    start = time.perf_counter()

    def guarded(rep):
        try:
            return _run_one_rep(mc, rep)
        except Exception as exc:
            # tag in place: keeps the type (the CLI exit code) and attributes,
            # and calls no constructor of unknown signature
            exc.args = (
                f"replication {rep} (seed {mix_seed(mc.master_seed, rep)}): {exc}",
            )
            raise

    results = []
    workers = min(threads, mc.reps, _available_cpus())
    if workers > 1 and hasattr(os, "fork"):
        # imported before the fork, so the workers inherit it; else each
        # worker of every call imports it again.  NumPy loads numpy.random
        # lazily, and the data draw needs it.
        import numpy.random  # noqa: F401

        results, lost = _fork_map(functools.partial(_run_one_rep, mc), mc.reps, workers)
        if lost:
            rep = len(results)
            raise WorkerDied(
                f"a worker process died; replication {rep} (seed "
                f"{mix_seed(mc.master_seed, rep)}) has no result"
            )
    # serial path, and the rest after a replication failed in a worker
    results += [guarded(rep) for rep in range(len(results), mc.reps)]

    betas = np.array([r[0] for r in results])
    model_ses = np.array([r[1] for r in results])
    covered = np.array([r[2] for r in results], dtype=float)

    bias = float(betas.mean() - mc.scenario.beta0)
    se = float(betas.std(ddof=1))
    return SimulationRow(
        scenario=mc.scenario.scenario,
        p=mc.scenario.p,
        n=mc.scenario.n,
        method=f"{spec_label(mc.learner_m)}|{spec_label(mc.learner_ell)}",
        splitter=mc.splitter,
        bias=bias,
        se=se,
        se_adjusted=float(se / np.sqrt(mc.scenario.n)),
        mse=bias * bias + se * se,
        coverage=float(covered.mean()),
        mean_model_se=float(model_ses.mean()),
        wall_time_s=time.perf_counter() - start,
        reps=mc.reps,
        master_seed=mc.master_seed,
    )


def emit_report(rows, fmt: str = "csv") -> bytes:
    """Serialize simulation rows with a stable column order.

    CSV rounds reals to 4 decimals for table reconciliation; JSON keeps
    full precision and round-trips exactly.
    """
    rows = list(rows)
    if not rows:
        raise ConfigError("report needs at least one row")
    if fmt == "json":
        return json.dumps([asdict(r) for r in rows], indent=2).encode()
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(REPORT_COLUMNS)
    for r in rows:
        record = []
        for col in REPORT_COLUMNS:
            value = getattr(r, col)
            record.append(f"{value:.4f}" if col in _FLOAT_COLUMNS else value)
        writer.writerow(record)
    return buf.getvalue().encode()
