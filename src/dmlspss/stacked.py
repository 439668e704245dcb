"""Stacked fits: many fits of one learner spec in one loop.

``learners.fit_many`` hands MLP and super-learner tasks here, importing
this module on the first such fit.  The MLP trains its tasks in stacked
SGD loops, weights held as (F, fan_in, fan_out) arrays and each batch
gathered from the shared ``x``; the super learner makes one ``fit_many``
call per candidate over every (task, CV block) pair and one for the
refits.  Each outcome is bitwise what ``fit`` gives its task alone.
``_forward``, ``_backprop``, ``standardize`` and ``spss_kfold_cloud`` are
called through ``learners``, so test code and bench tracing that replace
them there see these calls too.
"""

from __future__ import annotations

import numpy as np

from . import learners
from .errors import InvalidSpec, NonConvergence
from .learners import (
    _FIT_ERRORS,
    MODE_SELECTOR,
    CvRiskReport,
    Mlp,
    MlpModel,
    SuperLearner,
    SuperLearnerModel,
    _activation,
    _check_xy,
    _mlp_loss,
    _out_of_fold,
    _simplex_least_squares,
    fit_many,
    mlp_init_weights,
)
from .support_points import SPLIT_SPSS, SpConfig, random_kfold

# bytes of batches (x and each layer's output) one stacked SGD step may hold:
# wider stacks make fewer NumPy calls per fit, and use more memory
_STACK_BYTES = 1 << 18


def fit_many_mlp(spec: Mlp, x, tasks) -> list:
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
                out = learners._forward(own, x[rows], act)[-1]
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
            outs = learners._forward(part, xb, act)
            grads = learners._backprop(part, outs, outs[-1] - yb, spec.l2, deriv)
            for (w, b), (gw, gb) in zip(part, grads):  # fresh arrays: scale in place
                gw *= spec.step_size
                w -= gw
                gb *= spec.step_size
                b -= gb
    return weights


def fit_many_super_learner(spec: SuperLearner, x, tasks) -> list:
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
                cloud, _ = learners.standardize(np.hstack([xt, y[:, None]]))
                plan = learners.spss_kfold_cloud(cloud, spec.v_blocks,
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
