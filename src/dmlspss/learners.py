"""Nuisance-function regressors behind a uniform fit/predict interface.

Four base learners (ridge, lasso, RBF kernel machine, multilayer
perceptron) plus a cross-validated super learner that selects the
minimum-risk candidate or blends candidates with simplex weights.  Every
fit is deterministic given the spec (including its seed) and the data.
Specs check their hyperparameters when built (NaN, infinite, or a float
or bool where an integer belongs) and raise ``InvalidSpec``.

``fit_many(spec, x, tasks)`` fits one spec per task ``(rows, y)`` of a
shared ``x``, each fit bitwise as if alone: the MLP trains its tasks in
stacked SGD loops, and the super learner makes one ``fit_many`` call per
candidate.  ``crossfit`` is the one out-of-fold loop, behind the DML
nuisances and the super learner's risks (``CvRiskReport.risks``).  The
MLP's predictions, ``mlp_loss_and_grad`` and SGD share one ``_forward``
and one ``_backprop``; the SVR dual and the simplex weights share one
proximal-gradient loop.  A kernel fit checks first that its n x n Gram
matrix fits in physical memory.

``fit`` and ``fit_many`` dispatch on the spec type
(``functools.singledispatch``); a kind registered with ``fit`` alone
takes ``fit_many``'s loop over ``fit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import singledispatch
from typing import Callable, Union

import numpy as np

from .errors import (
    DataError,
    DmlSpssError,
    InvalidSpec,
    NonConvergence,
    NumericError,
)
from .data import DEGENERATE_SCALE, standardize
from .support_points import (SPLIT_RANDOM, SPLIT_SPSS, SPLITTERS, SpConfig, _cdist,
                             _check_memory, random_kfold, spss_kfold_cloud)

ACT_RELU = "relu"
ACT_TANH = "tanh"
MODE_SELECTOR = "selector"
MODE_CONVEX_WEIGHTS = "convex_weights"

# activation -> (function, which may overwrite its argument; its derivative
# as a function of its output, a factor to multiply by)
_ACTIVATIONS = {
    ACT_RELU: (lambda z: np.maximum(z, 0.0, out=z), lambda a: a > 0),
    ACT_TANH: (np.tanh, lambda a: 1.0 - a ** 2),
}


def _activation(name: str):
    if name not in _ACTIVATIONS:
        raise InvalidSpec(f"unknown activation {name!r}")
    return _ACTIVATIONS[name]


# --------------------------------------------------------------------------
# specs
# --------------------------------------------------------------------------

def _is_integer(value) -> bool:
    import numbers  # NumPy has loaded it already

    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_integers(obj, error) -> None:
    """Raise ``error`` unless each int field of ``obj`` holds an integer:
    a float or bool passes range checks, then truncates or fails mid-run."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in (int, "int") and not _is_integer(value):
            raise error(
                f"{type(obj).__name__} {f.name} must be an integer, got {value!r}")


def _require_finite(spec) -> None:
    """Reject a NaN or infinite float field, which would pass a range
    check, and a non-integer in an int field."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidSpec(
                f"{type(spec).__name__} {f.name} must be finite, got {value}")
    require_integers(spec, InvalidSpec)


@dataclass(frozen=True)
class Ridge:
    lam: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if self.lam < 0:
            raise InvalidSpec(f"ridge lambda must be >= 0, got {self.lam}")


@dataclass(frozen=True)
class Lasso:
    lam: float = 0.1
    max_iter: int = 1000
    tol: float = 1e-7

    def __post_init__(self):
        _require_finite(self)
        if self.lam < 0 or self.max_iter < 1 or self.tol <= 0:
            raise InvalidSpec(f"bad lasso spec {self}")


@dataclass(frozen=True)
class SquaredLoss:
    pass


@dataclass(frozen=True)
class EpsilonInsensitiveLoss:
    """SVR loss max(|r| - epsilon, 0); the dual box is 1/KernelMachine.lam."""

    epsilon: float = 0.1
    max_iter: int = 500

    def __post_init__(self):
        _require_finite(self)
        if self.epsilon < 0 or self.max_iter < 1:
            raise InvalidSpec(f"bad epsilon-insensitive loss {self}")


@dataclass(frozen=True)
class KernelMachine:
    """RBF kernel regressor: k(x, z) = exp(-bandwidth * ||x - z||^2),
    minimizing the summed loss (half the squared error, or the
    epsilon-insensitive loss) plus (lam/2)||f||^2.  Under the latter the
    SVR box is C = 1/lam (Smola & Scholkopf 2004)."""

    bandwidth: float = 1.0
    lam: float = 1.0
    loss: Union[SquaredLoss, EpsilonInsensitiveLoss] = SquaredLoss()

    def __post_init__(self):
        _require_finite(self)
        if self.bandwidth <= 0 or self.lam <= 0:
            raise InvalidSpec(f"kernel bandwidth and lambda must be > 0, got {self}")
        if not isinstance(self.loss, (SquaredLoss, EpsilonInsensitiveLoss)):
            raise InvalidSpec(f"unknown kernel loss {self.loss!r}")


@dataclass(frozen=True)
class Mlp:
    hidden: tuple = (32, 32)
    activation: str = ACT_RELU
    step_size: float = 1e-3
    epochs: int = 200
    batch: int = 32
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if not all(_is_integer(h) for h in self.hidden):
            raise InvalidSpec(f"hidden sizes must be integers, got {self.hidden}")
        if any(h < 1 for h in self.hidden):
            raise InvalidSpec(f"hidden sizes must be positive, got {self.hidden}")
        _activation(self.activation)
        if (self.step_size <= 0 or self.epochs < 1 or self.batch < 1 or self.l2 < 0
                or self.seed < 0):
            raise InvalidSpec(f"bad mlp spec {self}")


@dataclass(frozen=True)
class SuperLearner:
    candidates: tuple = ()
    v_blocks: int = 5
    mode: str = MODE_SELECTOR
    seed: int = 0
    cv_splitter: str = SPLIT_RANDOM  # SPLIT_SPSS peels blocks by support points

    def __post_init__(self):
        require_integers(self, InvalidSpec)
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise InvalidSpec("super learner needs at least one candidate")
        if any(isinstance(c, SuperLearner) for c in self.candidates):
            raise InvalidSpec("super learner candidates may not be nested")
        if self.v_blocks < 2:
            raise InvalidSpec(f"v_blocks must be >= 2, got {self.v_blocks}")
        if self.seed < 0:
            raise InvalidSpec(f"super learner seed must be >= 0, got {self.seed}")
        if self.mode not in (MODE_SELECTOR, MODE_CONVEX_WEIGHTS):
            raise InvalidSpec(f"unknown super learner mode {self.mode!r}")
        if self.cv_splitter not in SPLITTERS:
            raise InvalidSpec(f"unknown cv splitter {self.cv_splitter!r}")


@dataclass(frozen=True)
class Oracle:
    """Known-truth regressor: predictions come from a fixed function of x.

    Used to inject true nuisance functions in simulation studies and tests.
    """

    fn: Callable[[np.ndarray], np.ndarray] = None

    def __post_init__(self):
        if not callable(self.fn):
            raise InvalidSpec("oracle spec needs a callable")


def _check_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2:
        raise DataError("x must be a 2-d matrix")
    if x.shape[0] != len(y):
        raise DataError(f"x has {x.shape[0]} rows, y has {len(y)}")
    if x.shape[0] < 1:
        raise InvalidSpec("need at least one training row")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidSpec("training data must be finite")
    return x, y


# --------------------------------------------------------------------------
# fitted models
# --------------------------------------------------------------------------

class FittedModel:
    """Immutable fitted predictor; subclasses implement ``_predict``."""

    spec = None
    training_dims = None  # (n, p)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise DataError("x must be a 2-d matrix")
        if x.shape[1] != self.training_dims[1]:
            raise DataError(
                f"model was trained with p={self.training_dims[1]}, "
                f"got p={x.shape[1]}"
            )
        return self._predict(x)

    def _predict(self, x):  # pragma: no cover - abstract
        raise NotImplementedError


class LinearModel(FittedModel):
    def __init__(self, spec, coef, intercept, dims):
        self.spec = spec
        self.coef = coef
        self.intercept = intercept
        self.training_dims = dims

    def _predict(self, x):
        return x @ self.coef + self.intercept


class KernelModel(FittedModel):
    def __init__(self, spec, x_train, dual_coef, dims):
        self.spec = spec
        self.x_train = x_train
        self.dual_coef = dual_coef
        self.training_dims = dims

    def _predict(self, x):
        k = _rbf_kernel(x, self.x_train, self.spec.bandwidth)
        return k @ self.dual_coef


class MlpModel(FittedModel):
    def __init__(self, spec, weights, dims):
        self.spec = spec
        self.weights = weights
        self.training_dims = dims

    def _predict(self, x):
        return _forward(self.weights, x, _activation(self.spec.activation)[0])[-1]


class OracleModel(FittedModel):
    def __init__(self, spec, dims):
        self.spec = spec
        self.training_dims = dims

    def _predict(self, x):
        out = np.asarray(self.spec.fn(x), dtype=float).reshape(-1)
        if len(out) != x.shape[0]:
            raise DataError("oracle function returned wrong length")
        return out


@dataclass(frozen=True)
class CvRiskReport:
    """Cross-validated risks per candidate plus the resulting weights."""

    risks: np.ndarray
    chosen: int
    weights: np.ndarray


class SuperLearnerModel(FittedModel):
    def __init__(self, spec, models, report, dims):
        self.spec = spec
        self.models = models  # fitted candidate models; None where weight is 0
        self.report = report
        self.training_dims = dims

    def _predict(self, x):
        out = np.zeros(x.shape[0])
        for w, m in zip(self.report.weights, self.models):
            if w != 0.0 and m is not None:
                out += w * m.predict(x)
        return out


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

_FIT_ERRORS = (DmlSpssError, np.linalg.LinAlgError)  # a fit's outcome, not a bug


@singledispatch
def fit(spec, x, y) -> FittedModel:
    """Fit a learner spec on (x, y) and return an immutable FittedModel."""
    raise InvalidSpec(f"unknown learner spec {spec!r}")


@singledispatch
def fit_many(spec, x, tasks) -> list:
    """Fit ``spec`` to each task ``(rows, y)`` of the iterable ``tasks``,
    ``y`` the target of ``x[rows]``.  Returns per task the model or the
    DmlSpssError or LinAlgError its fit raised, bitwise what ``fit`` gives
    it alone."""
    x = np.asarray(x, dtype=float)
    outcomes = []
    for rows, y in tasks:
        try:
            outcomes.append(fit(spec, x[rows], y))
        except _FIT_ERRORS as exc:
            outcomes.append(exc)
    return outcomes


def _raise_first(outcomes: list) -> list:
    """The outcomes, once none is an error; else the first error, raised."""
    for out in outcomes:
        if isinstance(out, Exception):
            raise out
    return outcomes


def _centred(x, y):
    """Column means, the centred design and its moments for the linear
    learners: (x_mean, y_mean, xc, xc'xc, xc'(y - y_mean))."""
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    return x_mean, y_mean, xc, xc.T @ xc, xc.T @ (y - y_mean)


@fit.register
def _fit_ridge(spec: Ridge, x, y) -> LinearModel:
    x, y = _check_xy(x, y)
    n, p = x.shape
    x_mean, y_mean, xc, gram, corr = _centred(x, y)
    if not (np.isfinite(gram).all() and np.isfinite(corr).all()):
        raise NumericError("ridge: the centred design's moments x'x, x'y overflow")
    if spec.lam == 0.0 and np.linalg.matrix_rank(xc) < p:
        raise NumericError("ridge with lambda=0 on a rank-deficient design")
    coef = np.linalg.solve(gram + spec.lam * np.eye(p), corr)
    return LinearModel(spec, coef, y_mean - x_mean @ coef, (n, p))


@fit.register
def _fit_lasso(spec: Lasso, x, y) -> LinearModel:
    """Coordinate descent by covariance updates on
    (1/(2n))||y - Xb||^2 + lam*||b||_1 (Friedman, Hastie & Tibshirani 2010).

    G = Xc'Xc/n and c = Xc'yc/n are formed once; c then holds
    Xc'(yc - Xc b)/n, and moving b_j by d updates it as c -= G[j]*d, so a
    coordinate step costs O(p), not O(n).  The intercept is unpenalized
    (handled by centering).  A column that is constant up to rounding
    (centred mean square below ``DEGENERATE_SCALE**2``, the test
    ``standardize`` uses) keeps coefficient 0.  Raises NonConvergence,
    carrying the partial model, if the sweep-to-sweep coefficient change
    has not dropped below tol within max_iter sweeps, or if a coefficient
    is not finite (a NaN change would otherwise pass for no change).
    """
    x, y = _check_xy(x, y)
    n, p = x.shape
    x_mean, y_mean, _, gram, corr = _centred(x, y)
    gram /= n
    corr /= n
    col_sq = gram.diagonal().tolist()
    active = [j for j in range(p) if col_sq[j] >= DEGENERATE_SCALE ** 2]

    coef = [0.0] * p
    lam = spec.lam
    coords = [(j, col_sq[j], gram[j]) for j in active]
    corr_at = memoryview(corr)  # reads c_j as a Python float
    step = np.empty(p)  # G[j]*d, so an update allocates nothing
    converged = False
    for _ in range(spec.max_iter):
        max_delta = 0.0
        for j, sq, row in coords:
            old = coef[j]
            rho = corr_at[j] + sq * old
            shrunk = abs(rho) - lam
            # soft threshold; a NaN rho fails the test and stays NaN
            new = (math.copysign(0.0, rho) if shrunk <= 0.0
                   else math.copysign(shrunk, rho) / sq)
            if new != old:
                delta = new - old
                np.subtract(corr, np.multiply(row, delta, out=step), out=corr)
                coef[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < spec.tol:
            converged = True
            break
    coef = np.array(coef)
    intercept = y_mean - x_mean @ coef
    model = LinearModel(spec, coef, intercept, (n, p))
    if not np.isfinite(coef).all():
        raise NonConvergence("lasso diverged (non-finite coefficients)", partial=model)
    if not converged:
        raise NonConvergence(
            f"lasso did not converge in {spec.max_iter} sweeps", partial=model
        )
    return model


def _rbf_kernel(a: np.ndarray, b: np.ndarray, bandwidth: float) -> np.ndarray:
    k = _cdist(a, b, "sqeuclidean")  # scaled and exponentiated in place
    return np.exp(np.multiply(k, -bandwidth, out=k), out=k)


@fit.register
def _fit_kernel(spec: KernelMachine, x, y) -> KernelModel:
    x, y = _check_xy(x, y)
    n, p = x.shape
    _check_memory(2 * 8 * n * n, f"the kernel machine's fit on n={n} rows",
                  "its Gram matrix and the copy LAPACK works on")
    gram = _rbf_kernel(x, x, spec.bandwidth)
    if isinstance(spec.loss, SquaredLoss):
        # kernel ridge dual solve: alpha = (K + lam*I)^-1 y
        gram.flat[:: n + 1] += spec.lam
        dual = np.linalg.solve(gram, y)
        return KernelModel(spec, x.copy(), dual, (n, p))
    # epsilon-insensitive SVR dual in beta = alpha - alpha*:
    # min 0.5 b'Kb - y'b + eps*||b||_1 over the box [-C, C]^n, C = 1/lam;
    # its prox is a soft threshold, then a clip to the box.
    loss, box = spec.loss, 1.0 / spec.lam

    def prox(z, lip):
        shrunk = np.sign(z) * np.maximum(np.abs(z) - loss.epsilon / lip, 0.0)
        return np.clip(shrunk, -box, box)

    beta = _proximal_gradient(gram, y, prox, np.zeros(n), 1e-12, loss.max_iter)
    return KernelModel(spec, x.copy(), beta, (n, p))


def _proximal_gradient(gram, lin, prox, x, tol, max_iter) -> np.ndarray:
    """Minimize 0.5 x'Gx - lin'x + h(x) from ``x`` by proximal gradient with
    step 1/L, L the largest eigenvalue of G (Parikh & Boyd 2014): x <-
    prox(x - (Gx - lin)/L, L), ``prox(z, L)`` the proximal map of h/L.
    Stops when no coordinate moves by ``tol``, else after ``max_iter``."""
    lip = max(float(np.linalg.eigvalsh(gram)[-1]), 1e-12)
    for _ in range(max_iter):
        new = prox(x - (gram @ x - lin) / lip, lip)
        if np.max(np.abs(new - x)) < tol:
            return new
        x = new
    return x


# --- multilayer perceptron -------------------------------------------------

def mlp_init_weights(p: int, hidden, seed: int) -> list:
    """Seeded layer weights [(W, b), ...] with 1/sqrt(fan_in) scaling."""
    rng = np.random.default_rng(seed)
    sizes = [p, *hidden, 1]
    weights = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
        weights.append((w, np.zeros(fan_out)))
    return weights


def _forward(weights: list, x: np.ndarray, act) -> list:
    """Every layer's output, input first: [x, a_1, ..., a_{L-1}, out].
    ``x`` is an (m, p) batch, or (F, m, p) for stacked weights, W
    (F, fan_in, fan_out) and b (F, fan_out): the same gemm per slice."""
    outs = [x]
    for w, b in weights[:-1]:
        z = outs[-1] @ w
        z += b[..., None, :]
        outs.append(act(z))
    w, b = weights[-1]
    outs.append((outs[-1] @ w + b[..., None, :])[..., 0])
    return outs


def _backprop(weights: list, outs: list, resid: np.ndarray, l2: float, deriv) -> list:
    """Gradient of the batch loss, from the forward pass's layer outputs
    (overwritten) and residual, in the [(W, b), ...] layout."""
    m = resid.shape[-1]
    delta = resid[..., None] / m
    grads = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        w = weights[layer][0]
        gw = outs[layer].swapaxes(-1, -2) @ delta
        if l2:
            gw += (l2 / m) * w
        # einsum sums the m rows in order, bitwise as .sum does at width >= 2
        # but not at width 1 (NumPy 2.4.6, random shapes: 0 of 4500 differ at
        # width >= 2, 1451 of 1500 at width 1), so a width-1 layer keeps .sum
        gb = (delta.sum(axis=-2) if delta.shape[-1] == 1
              else np.einsum("...mh->...h", delta))
        grads[layer] = (gw, gb)
        if layer:
            factor = deriv(outs[layer])
            w_t = w.swapaxes(-1, -2)
            if w_t.shape[-2] == 1:
                delta = np.multiply(delta, w_t, out=outs[layer])
            else:
                delta = np.matmul(delta, w_t, out=outs[layer])
            delta *= factor
    return grads


def _mlp_loss(resid: np.ndarray, weights: list, l2: float) -> float:
    """(1/(2m))||resid||^2 + (l2/(2m))*sum||W||^2 over the m residuals."""
    m = resid.shape[0]
    loss = (resid @ resid) / (2.0 * m)
    loss += l2 / (2.0 * m) * sum(float((w ** 2).sum()) for w, _ in weights)
    return loss


def mlp_loss_and_grad(weights: list, x: np.ndarray, y: np.ndarray,
                      l2: float, activation: str):
    """Batch squared loss (1/(2m))||out - y||^2 + (l2/(2m))*sum||W||^2
    and its gradient by backpropagation, in the same [(W, b), ...] layout.
    Bias terms are unpenalized.  At l2 = 0 no penalty term is added, so a
    zero gradient entry may carry either sign.
    """
    act, deriv = _activation(activation)
    outs = _forward(weights, x, act)
    resid = outs[-1] - y
    return _mlp_loss(resid, weights, l2), _backprop(weights, outs, resid, l2, deriv)


# bytes of batches (x and each layer's output) one stacked SGD step may hold:
# wider stacks make fewer NumPy calls per fit, and use more memory
_STACK_BYTES = 1 << 18


@fit_many.register
def _fit_many_mlp(spec: Mlp, x, tasks) -> list:
    """Mini-batch SGD on the squared loss, determined by spec.seed; tasks
    train largest first, ``_STACK_BYTES`` of batches at a time.  A task
    whose loss after the last epoch is not finite gets a NonConvergence
    (final weights as partial), with no numpy overflow warning."""
    x = np.asarray(x, dtype=float)
    outcomes, live = [], []  # live: (task index, rows, y)
    for f, (rows, y) in enumerate(tasks):
        outcomes.append(None)
        try:
            live.append((f, rows, _check_xy(x[rows], y)[1]))
        except _FIT_ERRORS as exc:
            outcomes[f] = exc
    if not live:
        return outcomes
    live.sort(key=lambda task: -len(task[2]))  # stable: equal sizes keep their order
    p, act = x.shape[1], _activation(spec.activation)[0]
    step_bytes = 8 * min(spec.batch, len(live[0][2])) * (p + sum(spec.hidden) + 1)
    width = max(1, _STACK_BYTES // step_bytes)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(live), width):
            stack = live[lo:lo + width]
            weights = _sgd(spec, x, [task[1:] for task in stack])
            for i, (f, rows, y) in enumerate(stack):
                own = [(w[i], b[i]) for w, b in weights]
                out = _forward(own, x[rows], act)[-1]
                loss = _mlp_loss(out - y, own, spec.l2)
                model = MlpModel(spec, own, (len(y), p))
                outcomes[f] = model if np.isfinite(loss) else NonConvergence(
                    "mlp training diverged (non-finite loss)", partial=model)
    return outcomes


def _runs(values: list) -> list:
    """(lo, hi) of each run of equal consecutive values."""
    cuts = [i for i in range(1, len(values)) if values[i] != values[i - 1]]
    return list(zip([0, *cuts], [*cuts, len(values)]))


def _sgd(spec: Mlp, x: np.ndarray, stack: list) -> list:
    """SGD epochs of one MLP per task ``(rows, y)`` of ``stack`` (largest
    first) in one loop; returns the stacked weights.  Tasks taking equal
    batches are one slice, gathered from ``x`` into one buffer; equal row
    counts share each epoch's permutation (same seed, same stream)."""
    sizes = [len(y) for _, y in stack]
    p, batch = x.shape[1], spec.batch
    weights = [tuple(np.repeat(a[None], len(stack), axis=0) for a in layer)
               for layer in mlp_init_weights(p, spec.hidden, spec.seed + 1)]
    act, deriv = _activation(spec.activation)
    # one permutation stream per row count, over (row indices, targets)
    groups = [(lo, hi, np.random.default_rng(spec.seed),
               np.stack([np.arange(len(x))[rows] for rows, _ in stack[lo:hi]]),
               np.stack([y for _, y in stack[lo:hi]])) for lo, hi in _runs(sizes)]
    order_rows = np.empty((len(stack), sizes[0]), dtype=np.intp)
    order_y = np.empty((len(stack), sizes[0]))
    x_buf = np.empty(len(stack) * min(batch, sizes[0]) * p)
    steps = []  # an epoch's (row indices, targets, x batch, weights) per slice
    for start in range(0, sizes[0], batch):
        ms = [min(batch, n - start) for n in sizes if n > start]
        for lo, hi in _runs(ms):
            stop = start + ms[lo]
            steps.append((order_rows[lo:hi, start:stop], order_y[lo:hi, start:stop],
                          x_buf[:(hi - lo) * ms[lo] * p].reshape(hi - lo, ms[lo], p),
                          [(w[lo:hi], b[lo:hi]) for w, b in weights]))
    for _ in range(spec.epochs):
        for lo, hi, rng, group_rows, group_y in groups:
            perm = rng.permutation(group_rows.shape[1])
            order_rows[lo:hi, :len(perm)] = group_rows[:, perm]
            order_y[lo:hi, :len(perm)] = group_y[:, perm]
        for idx, yb, xb, part in steps:
            # "clip" (the indices are valid) skips "raise"'s buffered copy
            np.take(x, idx, axis=0, out=xb, mode="clip")
            outs = _forward(part, xb, act)
            grads = _backprop(part, outs, outs[-1] - yb, spec.l2, deriv)
            for (w, b), (gw, gb) in zip(part, grads):  # fresh arrays: scale in place
                gw *= spec.step_size
                w -= gw
                gb *= spec.step_size
                b -= gb
    return weights


@fit.register
def _fit_oracle(spec: Oracle, x, y) -> OracleModel:
    x, y = _check_xy(x, y)
    return OracleModel(spec, x.shape)


# --- cross-fitting and the super learner ----------------------------------

def crossfit(spec, x, y, plan) -> np.ndarray:
    """Out-of-fold predictions: row i is predicted by ``spec`` fitted on
    the complement of row i's fold in ``plan``; the K fits make one
    ``fit_many`` call, and the first error in fold order is raised."""
    return _raise_first(_out_of_fold(spec, x, [(np.arange(len(y)), y, plan)]))[0]


def _out_of_fold(spec, x, jobs) -> list:
    """Per job ``(rows, y, plan)``, the out-of-fold predictions of
    ``x[rows]`` or the first error in fold order, from one ``fit_many``
    call."""
    pairs = ((rows[comp], y[comp]) for rows, y, plan in jobs
             for comp in map(plan.complement, range(plan.k)))
    fitted = iter(fit_many(spec, x, pairs))
    outcomes = []
    for rows, y, plan in jobs:
        models = [next(fitted) for _ in plan.folds]
        preds = np.empty(plan.n_total)
        try:
            for fold, model in zip(plan.folds, models):
                if isinstance(model, Exception):
                    raise model
                preds[fold] = model.predict(x[rows[fold]])
        except _FIT_ERRORS as exc:
            preds = exc
        outcomes.append(preds)
    return outcomes


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(v) + 1)
    rho = np.nonzero(u * idx > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _simplex_least_squares(p_mat: np.ndarray, y: np.ndarray,
                           tol: float = 1e-8, max_iter: int = 20000) -> np.ndarray:
    """Projected gradient for min ||y - Pw||^2 over the probability simplex.

    Starts at the best single column, so the solution is never worse than
    any individual candidate.
    """
    sses = ((y[:, None] - p_mat) ** 2).sum(axis=0)
    w0 = np.zeros(p_mat.shape[1])
    w0[int(np.argmin(sses))] = 1.0
    return _proximal_gradient(p_mat.T @ p_mat, p_mat.T @ y,
                              lambda z, lip: _project_simplex(z), w0, tol, max_iter)


@fit.register(Mlp)
@fit.register(SuperLearner)
def _fit_one(spec, x, y) -> FittedModel:
    """``fit_many`` with one task of every row."""
    return _raise_first(fit_many(spec, x, [(slice(None), y)]))[0]


@fit_many.register
def _fit_many_super_learner(spec: SuperLearner, x, tasks) -> list:
    """Cross-validated ensemble over the candidate specs, per task.

    Selector mode refits the minimum-risk candidate (ties to the lowest
    index); convex-weights mode blends refits by simplex least squares on
    out-of-fold predictions.  A candidate that raises or has a non-finite
    risk fails: infinite risk, never weighted.  If all fail, the task gets
    the first failure, tagged in place.  Each candidate makes one
    ``fit_many`` call over every (task, block) and one for its refits."""
    x = np.asarray(x, dtype=float)
    outcomes, jobs = [], []  # jobs: (task index, rows, y, plan)
    for f, (rows, y) in enumerate(tasks):
        outcomes.append(None)
        try:
            xt, y = _check_xy(x[rows], y)
            if len(y) < spec.v_blocks:
                raise InvalidSpec(
                    f"need n >= v_blocks, got n={len(y)}, v_blocks={spec.v_blocks}")
            if spec.cv_splitter == SPLIT_SPSS:
                cloud, _ = standardize(np.hstack([xt, y[:, None]]))
                plan = spss_kfold_cloud(cloud, spec.v_blocks,
                                         SpConfig(seed=spec.seed))
            else:
                plan = random_kfold(len(y), spec.v_blocks, spec.seed)
            jobs.append((f, np.arange(len(x))[rows], y, plan))
        except _FIT_ERRORS as exc:
            outcomes[f] = exc
    oofs = [_out_of_fold(cand, x, [job[1:] for job in jobs]) for cand in spec.candidates]

    weights = np.zeros((len(jobs), len(spec.candidates)))
    reports = {}
    for j, (f, _, y, plan) in enumerate(jobs):
        risks = np.full(len(spec.candidates), np.inf)
        ranked, failures = {}, []  # candidate index -> out-of-fold predictions
        for i, oof in enumerate(col[j] for col in oofs):
            if not isinstance(oof, Exception):
                risk = plan.means((oof - y) ** 2).mean()
                if np.isfinite(risk):
                    risks[i], ranked[i] = risk, oof
                    continue
                name = type(spec.candidates[i]).__name__
                oof = NonConvergence(f"candidate {i} ({name}) has CV risk {risk}")
            failures.append(oof)
        try:
            if not ranked:
                first = failures[0]
                first.args = (f"every super learner candidate failed to fit; the "
                              f"first: {first}",)
                raise first
            if spec.mode == MODE_SELECTOR:
                weights[j, np.argmin(risks)] = 1.0
            else:
                weights[j, list(ranked)] = _simplex_least_squares(
                    np.column_stack(list(ranked.values())), y)
            reports[j] = CvRiskReport(risks=risks, chosen=int(np.argmin(risks)),
                                      weights=weights[j])
        except _FIT_ERRORS as exc:
            outcomes[f] = exc

    refits = [iter(fit_many(cand, x, [jobs[j][1:3] for j in reports if weights[j, i]]))
              for i, cand in enumerate(spec.candidates)]
    for j, report in reports.items():
        models = [next(refits[i]) if w else None for i, w in enumerate(weights[j])]
        failed = [m for m in models if isinstance(m, Exception)]
        f, y = jobs[j][0], jobs[j][2]
        outcomes[f] = failed[0] if failed else SuperLearnerModel(
            spec, models, report, (len(y), x.shape[1]))
    return outcomes
