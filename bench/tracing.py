"""Spans recorded from outside the program, and the per-layer metrics built from them.

The tracer replaces module attributes at the places where callers look
the public functions up (``simulate.spss_kfold``, ``dml.fit``, ...), so
nothing under ``src/`` changes.  Spans are kept in memory and written out
when the run ends.  A layer's self time is its span minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from dmlspss import cli, dml, learners, simulate, support_points


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(float)
        self.op_id = None
        self._op_span = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # Spans opened in a worker thread of the simulate pool have no
        # parent on their own stack; they belong to the current operation.
        parent = stack[-1] if stack else self._op_span
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, self.op_id, threading.get_ident())
            )

    @contextmanager
    def operation(self, op_id: int):
        self.op_id = op_id
        with self.span("op") as sid:
            self._op_span = sid
            try:
                yield
            finally:
                self._op_span = None
                self.op_id = None

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def thread_state(self) -> threading.local:
        return self._local

    def patch(self, targets, name, before=None, after=None) -> None:
        """Wrap ``module.attr`` for each (module, attr) in ``targets``.

        ``name`` is a span name or a function of the call's arguments.
        ``before(args)`` returns a state handed to
        ``after(args, result, state)``.
        """
        for module, attr in targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, before, after))

    def _wrapper(self, original, name, before, after):
        def traced(*args, **kwargs):
            state = before(args) if before else None
            with self.span(name(args) if callable(name) else name):
                result = original(*args, **kwargs)
            if after:
                after(args, result, state)
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self):
        try:
            install(self)
            yield
        finally:
            self.restore()

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _fit_name(args) -> str:
    return f"learners.fit.{type(args[0]).__name__.lower()}"


def _mm_evaluations(res, tol: float) -> int:
    """Distance evaluations of one MM solve: the initial one, one per
    accepted step, and one for a final rejected step."""
    trace = res.objective_trace
    tol_stop = (
        res.converged and len(trace) >= 2
        and abs(trace[-2] - trace[-1]) / max(abs(trace[-2]), 1e-12) < tol
    )
    return 1 + res.iterations + int(res.converged and not tol_stop)


def install(tracer: Tracer) -> None:
    """Wrap every public layer function at the places its callers use."""
    add = tracer.add
    local = tracer.thread_state()
    mb = 8 / 1e6  # float64 megabytes per distance

    def run_mc_before(args):
        return time.process_time()

    def run_mc_after(args, row, cpu0):
        add("simulate.cpu_s", time.process_time() - cpu0)

    tracer.patch([(simulate, "run_monte_carlo")], "simulate.run_monte_carlo",
                 before=run_mc_before, after=run_mc_after)
    tracer.patch([(simulate, "draw_dataset")], "simulate.draw_dataset")

    tracer.patch([(simulate, "spss_kfold"), (cli, "spss_kfold")],
                 "support_points.spss_kfold")
    tracer.patch([(simulate, "random_kfold"), (cli, "random_kfold")],
                 "support_points.random_kfold")

    def cloud_before(args):
        local.snaps = []

    def cloud_after(args, plan, state):
        cloud, k, cfg = args[0], args[1], args[2]
        n = cloud.shape[0]
        snaps, local.snaps = local.snaps, None
        taken = np.zeros(0, dtype=int)
        for j, local_idx in enumerate(snaps[: k - 1]):
            remaining = np.setdiff1d(np.arange(n), taken)
            snapped = remaining[local_idx]
            add("support_points.polish_swaps",
                len(np.setdiff1d(snapped, plan.folds[j])))
            if cfg.polish_passes >= 1 and len(plan.folds[j]) < len(remaining):
                add("support_points.dist_mb", len(remaining) ** 2 * mb)
            taken = np.concatenate([taken, plan.folds[j]])

    tracer.patch(
        [(support_points, "spss_kfold_cloud"), (learners, "spss_kfold_cloud")],
        "support_points.spss_kfold_cloud", before=cloud_before, after=cloud_after,
    )

    def mm_after(args, res, state):
        full, cfg = args[0], args[1]
        m, big_n = cfg.n_points, full.shape[0]
        add("support_points.mm_iters", res.iterations)
        add("support_points.mm_converged", int(res.converged))
        add("support_points.dist_mb",
            _mm_evaluations(res, cfg.tol) * (m * big_n + m * m) * mb)

    tracer.patch([(support_points, "compute_support_points")],
                 "support_points.compute_support_points", after=mm_after)

    def snap_after(args, idx, state):
        points, full = args[0], args[1]
        add("support_points.dist_mb", len(points) * len(full) * mb)
        if getattr(local, "snaps", None) is not None:
            local.snaps.append(np.asarray(idx))

    tracer.patch([(support_points, "snap_to_rows")], "support_points.snap_to_rows",
                 after=snap_after)

    def fit_after(args, model, state):
        if isinstance(args[0], learners.SuperLearner):
            risks = model.report.risks
            add("learners.sl_candidates", len(risks))
            add("learners.sl_failed", int(np.sum(~np.isfinite(risks))))

    tracer.patch([(learners, "fit"), (dml, "fit")], _fit_name, after=fit_after)

    tracer.patch([(simulate, "fit_nuisances_crossfit"), (dml, "fit_nuisances_crossfit")],
                 "dml.fit_nuisances_crossfit")
    tracer.patch(
        [(simulate, "dml1_estimate"), (simulate, "dml2_estimate"),
         (dml, "dml1_estimate"), (dml, "dml2_estimate")],
        "dml.estimate",
    )

    def load_after(args, d, state):
        add("data.csv_bytes", os.path.getsize(args[0]))
        add("data.csv_rows", d.n)

    tracer.patch([(cli, "load_csv")], "data.load_csv", after=load_after)
    tracer.patch(
        [(support_points, "standardize"), (learners, "standardize"), (cli, "standardize")],
        "data.standardize",
    )
    tracer.patch([(cli, "parse_config")], "cli.parse_config")
    tracer.patch([(cli, "main")], "cli.main")


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


# Per-layer metric name -> unit, in report order.  Times and counts are
# per operation of the traced phase.
PER_LAYER_UNITS = {
    "support_points.mm_s": "s/op",
    "support_points.mm_calls": "count/op",
    "support_points.mm_iters": "iter/call",
    "support_points.mm_converged_frac": "frac",
    "support_points.snap_s": "s/op",
    "support_points.polish_s": "s/op",
    "support_points.split_s": "s/op",
    "support_points.random_kfold_s": "s/op",
    "support_points.polish_swaps": "count/op",
    "support_points.dist_mb_computed": "MB/op",
    "learners.fit_s.ridge": "s/op",
    "learners.fit_s.lasso": "s/op",
    "learners.fit_s.mlp": "s/op",
    "learners.fit_calls.ridge": "count/op",
    "learners.fit_calls.lasso": "count/op",
    "learners.fit_calls.mlp": "count/op",
    "learners.fit_calls.superlearner": "count/op",
    "learners.sl_self_s": "s/op",
    "learners.sl_failed_frac": "frac",
    "dml.crossfit_s": "s/op",
    "dml.crossfit_self_s": "s/op",
    "dml.estimate_s": "s/op",
    "dml.beta_rmse": "coef",
    "data.load_csv_s": "s/op",
    "data.load_csv_rows_per_s": "1/s",
    "data.csv_bytes": "B/op",
    "data.standardize_s": "s/op",
    "cli.import_s": "s",
    "cli.parse_config_s": "s/op",
    "cli.main_self_s": "s/op",
    "simulate.draw_s": "s/op",
    "simulate.mc_wall_s": "s/op",
    "simulate.cpu_per_wall": "ratio",
    "trace.overhead_frac": "frac",
}


def layer_metrics(tracer: Tracer, n_ops: int) -> tuple[dict, list]:
    """Per-operation layer numbers from the recorded spans and counts.

    Returns the values and the names that do not apply to this workload
    (the layer never ran); those read 0.
    """
    self_t = _self_times(tracer.spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for s in tracer.spans:
        total[s.name] += s.end - s.start
        self_total[s.name] += self_t[s.id]
        calls[s.name] += 1
    c = tracer.counts
    per_op = 1.0 / n_ops
    out, not_applicable = {}, []

    def put(name, value, applies):
        out[name] = float(value) if applies else 0.0
        if not applies:
            not_applicable.append(name)

    mm = "support_points.compute_support_points"
    put("support_points.mm_s", total[mm] * per_op, calls[mm])
    put("support_points.mm_calls", calls[mm] * per_op, calls[mm])
    put("support_points.mm_iters", c["support_points.mm_iters"] / max(calls[mm], 1), calls[mm])
    put("support_points.mm_converged_frac",
        c["support_points.mm_converged"] / max(calls[mm], 1), calls[mm])
    snap = "support_points.snap_to_rows"
    put("support_points.snap_s", total[snap] * per_op, calls[snap])
    cloud = "support_points.spss_kfold_cloud"
    put("support_points.polish_s", self_total[cloud] * per_op, calls[cloud])
    split = "support_points.spss_kfold"
    put("support_points.split_s", total[split] * per_op, calls[split])
    rk = "support_points.random_kfold"
    put("support_points.random_kfold_s", total[rk] * per_op, calls[rk])
    put("support_points.polish_swaps", c["support_points.polish_swaps"] * per_op, calls[cloud])
    put("support_points.dist_mb_computed", c["support_points.dist_mb"] * per_op,
        calls[mm] or calls[snap] or calls[cloud])
    for kind in ("ridge", "lasso", "mlp"):
        name = f"learners.fit.{kind}"
        put(f"learners.fit_s.{kind}", total[name] * per_op, calls[name])
    for kind in ("ridge", "lasso", "mlp", "superlearner"):
        name = f"learners.fit.{kind}"
        put(f"learners.fit_calls.{kind}", calls[name] * per_op, calls[name])
    sl = "learners.fit.superlearner"
    put("learners.sl_self_s", self_total[sl] * per_op, calls[sl])
    put("learners.sl_failed_frac",
        c["learners.sl_failed"] / max(c["learners.sl_candidates"], 1), calls[sl])
    cf = "dml.fit_nuisances_crossfit"
    put("dml.crossfit_s", total[cf] * per_op, calls[cf])
    put("dml.crossfit_self_s", self_total[cf] * per_op, calls[cf])
    put("dml.estimate_s", total["dml.estimate"] * per_op, calls["dml.estimate"])
    load = "data.load_csv"
    put("data.load_csv_s", total[load] * per_op, calls[load])
    put("data.load_csv_rows_per_s", c["data.csv_rows"] / max(total[load], 1e-12), calls[load])
    put("data.csv_bytes", c["data.csv_bytes"] * per_op, calls[load])
    std = "data.standardize"
    put("data.standardize_s", total[std] * per_op, calls[std])
    pc = "cli.parse_config"
    put("cli.parse_config_s", total[pc] * per_op, calls[pc])
    put("cli.main_self_s", self_total["cli.main"] * per_op, calls["cli.main"])
    draw = "simulate.draw_dataset"
    put("simulate.draw_s", total[draw] * per_op, calls[draw])
    mc = "simulate.run_monte_carlo"
    put("simulate.mc_wall_s", total[mc] * per_op, calls[mc])
    put("simulate.cpu_per_wall", c["simulate.cpu_s"] / max(total[mc], 1e-12), calls[mc])
    return out, not_applicable
