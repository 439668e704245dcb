"""Benchmark of dmlspss: one workload per run, untraced or traced.

Run from the repository root (the package is imported from ``src/``):

    python3 bench/run.py --workload mc_spss_sl --seed 1 --seconds 10 --trace 0

The load is a closed loop: one operation at a time from this process.
Inputs come from ``--seed``; operations run for ``--seconds`` (at least
the workload's scored operations, whatever the time) and every output is
checked.  The run prints a full report (environment, parameters, every
metric with its unit, failures, the estimate digest), then, as the last
line, one JSON object: with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.

The traced run runs each operation twice on the same input, once
untraced and once with the span wrappers installed, in alternating
order, so the tracing overhead is measured on identical inputs.  Both
run the program in-process (``cli.main`` for the estimate workloads), because a
child process cannot be wrapped from outside.  Spans are written to
``.bench_work/trace-<workload>-<seed>.json``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

WORKLOADS = ("mc_spss_sl", "mc_random_sl", "estimate_random_16k")
SETUP_REPEATS = 3
WORK_DIR = ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "DMLSPSS_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "reps_per_s": "1/s",
                    "peak_rss_mb": "MB"}
# Reported with the end-to-end metrics but not gated: they are fixed by
# the seed, so their spread across seeds is the estimator's, not noise.
QUALITY_UNITS = {"failed_frac": "frac", "beta_rmse": "coef", "fold_energy_ratio": "ratio"}


def _read(path: str):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    quota = _read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        q, p = (_read(f"/sys/fs/cgroup/cpu/cpu.cfs_{k}_us") for k in ("quota", "period"))
        quota = f"{q} {p}" if q is not None else "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota": quota,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


@dataclass
class Attempt:
    index: int
    traced: bool
    seconds: float
    result: object = None  # the workload's OpResult when the operation succeeded
    error: str = ""


def run_ops(wl, in_process, seconds, min_ops, tracer=None) -> list:
    """Closed loop: one operation at a time, at least ``min_ops`` of them
    and until ``seconds`` have passed.  With a tracer, each operation runs
    twice on the same input, untraced and traced, in alternating order."""
    attempts = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        sides = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in sides:
            with tracer.installed() if traced else nullcontext(), \
                    tracer.operation(i) if traced else nullcontext():
                start = time.perf_counter()
                try:
                    result, error = wl.run(i, in_process), ""
                except Exception as exc:  # a failed operation is counted; the run goes on
                    result, error = None, f"op {i}: {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            attempts.append(Attempt(i, traced, elapsed, result, error))
        i += 1
    return attempts


def scored(wl, attempts) -> dict:
    """beta RMSE and digest over the first ``scored_ops`` untraced operations."""
    first = [a.result for a in attempts
             if a.result and not a.traced and a.index < wl.scored_ops]
    n_betas = sum(r.betas for r in first)
    digest = hashlib.sha256("\n".join(r.digest for r in first).encode()).hexdigest()
    return {
        "beta_rmse": math.sqrt(sum(r.sq_err for r in first) / n_betas) if n_betas else None,
        "beta_digest": digest[:16],
        "scored_betas": n_betas,
    }


def import_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter importing ``dmlspss.cli``, which is
    what this benchmark and the ``dmlspss`` command both import."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dmlspss.cli"], env=env,
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "dmlspss", "__init__.py")):
        print("bench: src/dmlspss not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    wl = workloads.make(args.workload, args.toy)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # Set-up is importing the package and generating the inputs; each is
        # repeated and its median taken, the import in fresh interpreters.
        imports, gen = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds(workloads.child_env()))
            start = time.perf_counter()
            wl.setup(args.seed, workdir)
            gen.append(time.perf_counter() - start)
        setup = {"import_s": statistics.median(imports), "generate_s": statistics.median(gen)}
        setup["setup_s"] = setup["import_s"] + setup["generate_s"]
        if args.trace:
            report, last = traced_run(args, wl, setup)
        else:
            report, last = untraced_run(args, wl, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["environment"] = environment()
    print(json.dumps(report, indent=1))
    print(json.dumps(last))
    return 0


def _report_head(args, wl) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "toy": args.toy, "params": wl.params()}


def _quality(wl, attempts) -> tuple[dict, list]:
    """Seed-fixed quality numbers and the checks on them."""
    failed = sum(1 for a in attempts if a.error)
    q = {"failed_frac": failed / len(attempts), **scored(wl, attempts)}
    problems = []
    if q["beta_rmse"] is None:
        problems.append("no scored estimate completed")
    q["fold_energy_ratio"] = ratio = wl.fold_energy_ratio()
    # the paper's claim: support-points folds are more representative than
    # random subsets of the same size
    if ratio is not None and not ratio < 1.0:
        problems.append(f"SPSS folds no better than random subsets: ratio {ratio}")
    return q, problems


def _quality_report(quality) -> tuple[dict, list]:
    """Quality numbers with units, and those that do not apply."""
    values = {k: {"value": quality[k], "unit": u} for k, u in QUALITY_UNITS.items()}
    return values, [k for k in QUALITY_UNITS if quality[k] is None]


def _end_to_end(attempts, setup: dict) -> dict:
    """Every attempt's time counts, failed or not.  Peak memory is the
    median over operations of the estimate child's peak when there is a
    child, else this process's peak."""
    times = [a.seconds for a in attempts]
    results = [a.result for a in attempts if a.result]
    rss = statistics.median([r.child_rss_mb for r in results] or [0.0])
    if not rss:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup["setup_s"],
        "op_s_p50": statistics.median(times),
        "reps_per_s": sum(r.betas for r in results) / sum(times),
        "peak_rss_mb": rss,
    }


def _with_units(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def untraced_run(args, wl, setup):
    attempts = run_ops(wl, in_process=False, seconds=args.seconds, min_ops=wl.scored_ops)
    failures = [a.error for a in attempts if a.error]
    e2e = _end_to_end(attempts, setup)
    quality, problems = _quality(wl, attempts)
    quality_units, not_applicable = _quality_report(quality)
    report = _report_head(args, wl)
    report.update({
        "end_to_end": _with_units(e2e, END_TO_END_UNITS),
        "setup_parts_s": setup,
        "op_s_samples": len(attempts),
        "quality": quality_units,
        "beta_digest": quality["beta_digest"],
        "not_applicable": not_applicable,
        "failures": failures + problems,
    })
    last = {"correct": not failures and not problems, "attempted": len(attempts),
            "failed": len(failures), "metrics": _with_units(e2e, END_TO_END_UNITS)}
    return report, last


def traced_run(args, wl, setup):
    import tracing

    tracer = tracing.Tracer()
    attempts = run_ops(wl, in_process=True, seconds=args.seconds, min_ops=wl.scored_ops,
                       tracer=tracer)
    plain = [a for a in attempts if not a.traced]
    traced = [a for a in attempts if a.traced]
    failures = [("traced " if a.traced else "") + a.error for a in attempts if a.error]
    problems = []
    by_index = {a.index: a for a in plain}
    for b in traced:
        a = by_index[b.index]
        if a.result and b.result and a.result.digest != b.result.digest:
            problems.append(f"op {b.index}: traced result {b.result.digest} "
                            f"differs from untraced {a.result.digest}")
    paired = [b.seconds / by_index[b.index].seconds for b in traced]
    quality, q_problems = _quality(wl, attempts)
    problems += q_problems

    layers, not_applicable = tracing.layer_metrics(tracer, len(traced))
    layers["dml.beta_rmse"] = quality["beta_rmse"] or 0.0
    layers["cli.import_s"] = setup["import_s"]
    layers["trace.overhead_frac"] = statistics.median(paired) - 1.0

    t0 = min((s.start for s in tracer.spans), default=0.0)
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join(WORK_DIR, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
        json.dump([{**s._asdict(), "start": s.start - t0, "end": s.end - t0}
                   for s in tracer.spans], fh)

    e2e_plain = _end_to_end(plain, setup)
    e2e_traced = _end_to_end(traced, setup)
    per_layer = _with_units(layers, tracing.PER_LAYER_UNITS)
    quality_units, quality_na = _quality_report(quality)
    report = _report_head(args, wl)
    report.update({
        "per_layer": per_layer,
        "not_applicable": not_applicable + quality_na,
        "tracing_overhead": {
            "untraced_in_process": _with_units(e2e_plain, END_TO_END_UNITS),
            "traced": _with_units(e2e_traced, END_TO_END_UNITS),
            "op_s_p50_delta_s": e2e_traced["op_s_p50"] - e2e_plain["op_s_p50"],
            "paired_op_ratio_p50": layers["trace.overhead_frac"] + 1.0,
        },
        "spans": len(tracer.spans),
        "quality": quality_units,
        "beta_digest": quality["beta_digest"],
        "failures": failures + problems,
    })
    last = {"correct": not failures and not problems, "attempted": len(attempts),
            "failed": len(failures), "metrics": per_layer}
    return report, last


if __name__ == "__main__":
    sys.exit(main())
