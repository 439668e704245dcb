"""The benchmark's workloads: inputs generated from the seed, one
operation, and the checks on its output.

Every operation uses a fresh seed derived from the workload seed and its
index, so a run of a given seed always sees the same inputs in the same
order.  The first ``scored_ops`` operations of a run are always
completed; their estimates give the run's beta RMSE and digest, which
are therefore fixed by the seed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np

from dmlspss import cli, simulate
from dmlspss.data import standardize, write_csv
from dmlspss.learners import Lasso, Mlp, Ridge, SuperLearner
from dmlspss.support_points import SpConfig, energy_two_sample, random_subset

BETA0 = 0.5


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


@dataclass
class OpResult:
    betas: int              # estimates this operation produced
    sq_err: float           # sum of (beta_hat - BETA0)^2 over them
    digest: str             # exact (hex) form of the outputs
    child_rss_mb: float = 0.0


def op_seed(seed: int, i: int) -> int:
    return simulate.mix_seed(seed, i) >> 33  # 31 bits, fits any int parser


def child_env() -> dict:
    """Environment for a child interpreter that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    return env


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def super_learner(toy: bool) -> SuperLearner:
    """The criterion-3 super learner (ridge, lasso, one-layer MLP)."""
    return SuperLearner(
        candidates=(
            Ridge(lam=1e-3),
            Lasso(lam=0.01, max_iter=2000),
            Mlp(hidden=(16,), step_size=0.01, epochs=3 if toy else 40,
                batch=128, seed=0),
        ),
        v_blocks=3, seed=0,
    )


class MonteCarlo:
    """One operation is ``simulate.run_monte_carlo`` on one cell."""

    def __init__(self, splitter: str, threads: int, scored_ops: int, toy: bool):
        self.splitter = splitter
        self.threads = threads
        self.scored_ops = scored_ops
        self.toy = toy
        n, p = (200, 5) if toy else (1000, 20)
        self.reps = 2
        self.cell = simulate.ScenarioConfig(scenario="s1", p=p, n=n)
        self.sp_max_iter = 5 if toy else 60
        self.seed = 0
        self.template = None

    def params(self) -> dict:
        return {
            "operation": "simulate.run_monte_carlo",
            "scenario": "s1", "p": self.cell.p, "n": self.cell.n, "k": 2,
            "splitter": self.splitter, "sp_max_iter": self.sp_max_iter,
            "sp_tol": 1e-7, "learners": "sl(ridge 1e-3, lasso 0.01, mlp(16))",
            "v_blocks": 3, "score": "partialling_out", "algorithm": "dml2",
            "threads": self.threads, "reps_per_op": self.reps,
            "scored_ops": self.scored_ops,
        }

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        sl = super_learner(self.toy)
        self.template = simulate.McConfig(
            scenario=self.cell, learner_m=sl, learner_ell=sl, reps=self.reps,
            k=2, splitter=self.splitter, sp_max_iter=self.sp_max_iter, sp_tol=1e-7,
        )

    def run(self, i: int, in_process: bool) -> OpResult:
        mc = replace(self.template, master_seed=op_seed(self.seed, i))
        row = simulate.run_monte_carlo(mc, threads=self.threads)
        values = (row.bias, row.se, row.mse, row.coverage, row.mean_model_se)
        if not _finite(*values):
            raise CheckFailed(f"non-finite Monte Carlo row {row}")
        if row.reps != self.reps or row.master_seed != mc.master_seed:
            raise CheckFailed(f"row has reps={row.reps}, seed={row.master_seed}")
        if not 0.0 <= row.coverage <= 1.0 or row.se < 0 or row.mean_model_se <= 0:
            raise CheckFailed(f"Monte Carlo row out of range {row}")
        # sum of squared errors of the reps' estimates, from their mean and
        # sample standard deviation
        sq_err = self.reps * row.bias ** 2 + (self.reps - 1) * row.se ** 2
        return OpResult(self.reps, sq_err,
                        " ".join(float(v).hex() for v in values))

    def fold_energy_ratio(self):
        """Energy of the first operation's SPSS folds against the full
        standardized (t, x, y) cloud, over the same for size-matched
        random subsets; None for random folds.  The folds are rebuilt
        with the seeds ``simulate`` derives for each replication."""
        if self.splitter != "spss":
            return None
        master = op_seed(self.seed, 0)
        fold_e, rand_e = [], []
        for rep in range(self.reps):
            rep_seed = simulate.mix_seed(master, rep)
            d, _ = simulate.draw_dataset(self.cell, simulate.mix_seed(rep_seed, 1))
            plan = simulate.spss_kfold(
                d, 2, SpConfig(seed=simulate.mix_seed(rep_seed, 2),
                               max_iter=self.sp_max_iter, tol=1e-7),
            )
            cloud, _ = standardize(np.column_stack([d.t, d.x, d.y]))
            for j, fold in enumerate(plan.folds):
                fold_e.append(energy_two_sample(cloud[fold], cloud))
                sub = random_subset(d.n, len(fold), simulate.mix_seed(rep_seed, 10 + j))
                rand_e.append(energy_two_sample(cloud[sub], cloud))
        return float(np.mean(fold_e) / np.mean(rand_e))


class Estimate:
    """One operation is one ``dmlspss estimate`` with random K=2 folds on a
    generated CSV: a child process when untraced, ``cli.main`` in-process
    when traced."""

    def __init__(self, n: int, score: str, algorithm: str, scored_ops: int, toy: bool):
        self.n = 300 if toy else n
        self.score = score
        self.algorithm = algorithm
        self.scored_ops = scored_ops
        self.seed = 0
        self.paths = {}
        self.env = {}

    def params(self) -> dict:
        return {
            "operation": "dmlspss --config run.ini --seed S --out est.json estimate data.csv",
            "scenario": "s1", "p": 20, "n": self.n, "k": 2, "split": "random",
            "learners": "ridge 1e-3 (both nuisances)", "score": self.score,
            "algorithm": self.algorithm, "scored_ops": self.scored_ops,
        }

    def fold_energy_ratio(self):
        """Random folds: there is no support-points claim to check."""
        return None

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.env = child_env()
        cfg = simulate.ScenarioConfig(scenario="s1", p=20, n=self.n)
        d, _ = simulate.draw_dataset(cfg, op_seed(seed, 1 << 20))
        self.paths = {
            "csv": os.path.join(workdir, "data.csv"),
            "ini": os.path.join(workdir, "run.ini"),
            "out": os.path.join(workdir, "est.json"),
            "err": os.path.join(workdir, "stderr.txt"),
        }
        write_csv(self.paths["csv"], d)
        covariates = ",".join(f"x{j + 1}" for j in range(d.p))
        with open(self.paths["ini"], "w") as fh:
            fh.write(
                f"[data]\noutcome = y\ntreatment = t\ncovariates = {covariates}\n\n"
                "[split]\nmethod = random\nk = 2\nseed = 0\n\n"
                "[learner_m]\nkind = ridge\nlambda = 0.001\n\n"
                "[learner_ell]\nkind = ridge\nlambda = 0.001\n\n"
                f"[dml]\nalgorithm = {self.algorithm}\nscore = {self.score}\n"
            )

    def run(self, i: int, in_process: bool) -> OpResult:
        out = self.paths["out"]
        if os.path.exists(out):
            os.remove(out)
        argv = ["--config", self.paths["ini"], "--seed", str(op_seed(self.seed, i)),
                "--out", out, "estimate", self.paths["csv"]]
        rss_mb = 0.0
        if in_process:
            code = cli.main(argv)
        else:
            with open(self.paths["err"], "w") as err:
                child = subprocess.Popen(
                    [sys.executable, "-m", "dmlspss.cli", *argv],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=err, env=self.env,
                )
                # wait4 gives this child's own peak resident set
                _, status, usage = os.wait4(child.pid, 0)
            child.returncode = code = os.waitstatus_to_exitcode(status)
            rss_mb = usage.ru_maxrss / 1024.0
        if code != 0:
            tail = ""
            if not in_process:
                with open(self.paths["err"]) as fh:
                    tail = fh.read()[-500:]
            raise CheckFailed(f"estimate exited {code}: {tail}")
        with open(out) as fh:
            rec = json.load(fh)
        beta, se, ci = rec.get("beta"), rec.get("se"), rec.get("ci")
        if not (_finite(beta, se) and se > 0 and isinstance(ci, list) and len(ci) == 2
                and _finite(*ci) and ci[0] < beta < ci[1]):
            raise CheckFailed(f"bad estimate {rec}")
        expect = {"n": self.n, "K": 2, "algorithm": self.algorithm,
                  "score": self.score, "splitter": "random"}
        wrong = {k: rec.get(k) for k, v in expect.items() if rec.get(k) != v}
        if wrong:
            raise CheckFailed(f"estimate record has {wrong}, expected {expect}")
        return OpResult(1, (beta - BETA0) ** 2,
                        " ".join(float(v).hex() for v in (beta, se)), rss_mb)


def make(name: str, toy: bool):
    if name == "mc_spss_sl":
        return MonteCarlo("spss", threads=2, scored_ops=2, toy=toy)
    if name == "mc_random_sl":
        return MonteCarlo("random", threads=1, scored_ops=4, toy=toy)
    if name == "estimate_random_16k":
        return Estimate(16000, "iv_type", "dml1", scored_ops=2, toy=toy)
    raise KeyError(name)

