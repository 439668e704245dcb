"""Command-line entry point: split, estimate, simulate, energy.

Configuration is a sectioned key=value file (INI syntax) with sections
``data``, ``split``, ``learner_m``, ``learner_ell``, ``dml``,
``simulate``, and ``runtime``.  Unknown sections or keys are rejected at
parse time, and all randomness flows from seeds in the config (or the
--seed override); nothing depends on the clock or OS entropy.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.  Diagnostics go to stderr, results to stdout or --out.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import dml as dml_mod
from .data import (
    ColumnSchema,
    Dataset,
    load_csv,
    read_csv_matrix,
    standardize,  # unused here; kept as cli.standardize for bench/tracing.py
    subset_rows,
    write_csv,
)
from .errors import (
    ConfigError,
    DataError,
    DmlSpssError,
    InvalidAlpha,
    NumericError,
)
from .learners import (
    EpsilonInsensitiveLoss,
    KernelMachine,
    Lasso,
    Mlp,
    Oracle,
    Ridge,
    SquaredLoss,
    SuperLearner,
)
from .simulate import (
    McConfig,
    ScenarioConfig,
    emit_report,
    run_monte_carlo,
)
from .support_points import (
    SpConfig,
    _joint_cloud,
    energy_two_sample,
    random_kfold,
    random_subset,
    spss_kfold,
    spss_split,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_SECTIONS = {
    "data": {"path", "outcome", "treatment", "covariates"},
    "split": {"method", "test_fraction", "k", "seed", "include_y"},
    "dml": {"algorithm", "score", "alpha"},
    "simulate": {"scenario", "p_list", "n_list", "reps", "master_seed"},
    "runtime": {"threads"},
}

_LEARNER_KEYS = {
    "ridge": {"lambda"},
    "lasso": {"lambda", "max_iter", "tol"},
    "kernel": {"bandwidth", "lambda", "loss", "epsilon", "c", "max_iter"},
    "mlp": {"hidden", "activation", "step_size", "epochs", "batch", "seed", "l2"},
    "superlearner": {"v_blocks", "mode", "seed", "cv_splitter"},
    "zero": set(),
}


@dataclass
class RunConfig:
    """Validated, typed view of a parsed config file."""

    data_path: Optional[str] = None
    schema: Optional[ColumnSchema] = None
    split_method: str = "spss"
    test_fraction: float = 0.2
    k: int = 2
    seed: int = 0
    include_y: bool = True
    learner_m: Optional[object] = None
    learner_ell: Optional[object] = None
    algorithm: str = dml_mod.ALG_DML2
    score: str = dml_mod.SCORE_PARTIALLING_OUT
    alpha: float = 0.05
    sim_scenarios: tuple = ()
    p_list: tuple = ()
    n_list: tuple = ()
    reps: int = 100
    master_seed: int = 0
    threads: int = 1


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_num(raw: str, key: str, kind):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}")


def _parse_enum(raw: str, key: str, allowed) -> str:
    value = raw.strip().lower()
    if value not in allowed:
        raise ConfigError(f"{key}: expected one of {sorted(allowed)}, got {raw!r}")
    return value


def _zero_fn(x):
    return np.zeros(np.asarray(x).shape[0])


def _learner_from_items(items: dict, where: str):
    kind = items.pop("kind", None)
    if kind is None:
        raise ConfigError(f"{where}: missing 'kind'")
    kind = _parse_enum(kind, f"{where}.kind", _LEARNER_KEYS.keys())
    unknown = set(items) - _LEARNER_KEYS[kind]
    if unknown:
        raise ConfigError(f"{where}: unknown keys for {kind}: {sorted(unknown)}")
    if kind == "ridge":
        return Ridge(lam=_parse_num(items.get("lambda", "1.0"), where, float))
    if kind == "lasso":
        return Lasso(
            lam=_parse_num(items.get("lambda", "0.1"), where, float),
            max_iter=_parse_num(items.get("max_iter", "1000"), where, int),
            tol=_parse_num(items.get("tol", "1e-7"), where, float),
        )
    if kind == "kernel":
        loss_name = _parse_enum(
            items.get("loss", "squared"), f"{where}.loss",
            {"squared", "epsilon_insensitive"},
        )
        if loss_name == "squared":
            loss = SquaredLoss()
        else:
            loss = EpsilonInsensitiveLoss(
                epsilon=_parse_num(items.get("epsilon", "0.1"), where, float),
                c=_parse_num(items.get("c", "1.0"), where, float),
                max_iter=_parse_num(items.get("max_iter", "500"), where, int),
            )
        return KernelMachine(
            bandwidth=_parse_num(items.get("bandwidth", "1.0"), where, float),
            lam=_parse_num(items.get("lambda", "1.0"), where, float),
            loss=loss,
        )
    if kind == "mlp":
        hidden_raw = items.get("hidden", "32,32").strip()
        hidden = tuple(
            _parse_num(h, f"{where}.hidden", int)
            for h in hidden_raw.split(",") if h.strip()
        )
        return Mlp(
            hidden=hidden,
            activation=_parse_enum(
                items.get("activation", "relu"), f"{where}.activation",
                {"relu", "tanh"},
            ),
            step_size=_parse_num(items.get("step_size", "1e-3"), where, float),
            epochs=_parse_num(items.get("epochs", "200"), where, int),
            batch=_parse_num(items.get("batch", "32"), where, int),
            seed=_parse_num(items.get("seed", "0"), where, int),
            l2=_parse_num(items.get("l2", "0.0"), where, float),
        )
    if kind == "zero":
        return Oracle(fn=_zero_fn)
    raise AssertionError(kind)  # superlearner handled by the caller


def _learner_from_section(section: dict, where: str):
    """Build a learner spec from one config section (handles nesting)."""
    items = dict(section)
    kind = items.get("kind", "")
    if kind.strip().lower() == "superlearner":
        candidates = {}
        plain = {}
        for key, value in items.items():
            if key.startswith("candidate."):
                parts = key.split(".", 2)
                if len(parts) != 3:
                    raise ConfigError(f"{where}: bad candidate key {key!r}")
                candidates.setdefault(parts[1], {})[parts[2]] = value
            else:
                plain[key] = value
        if not candidates:
            raise ConfigError(f"{where}: superlearner needs candidate.* keys")
        plain.pop("kind")
        unknown = set(plain) - _LEARNER_KEYS["superlearner"]
        if unknown:
            raise ConfigError(f"{where}: unknown keys: {sorted(unknown)}")
        cand_specs = tuple(
            _learner_from_items(candidates[tag], f"{where}.candidate.{tag}")
            for tag in sorted(candidates)
        )
        return SuperLearner(
            candidates=cand_specs,
            v_blocks=_parse_num(plain.get("v_blocks", "5"), where, int),
            mode=_parse_enum(
                plain.get("mode", "selector"), f"{where}.mode",
                {"selector", "convex_weights"},
            ),
            seed=_parse_num(plain.get("seed", "0"), where, int),
            cv_splitter=_parse_enum(
                plain.get("cv_splitter", "random"), f"{where}.cv_splitter",
                {"random", "spss"},
            ),
        )
    return _learner_from_items(items, where)


def parse_config(path) -> RunConfig:
    """Read and validate a config file; unknown sections/keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")
    if not read:
        raise ConfigError(f"config file not found: {path}")

    cfg = RunConfig()
    for section in parser.sections():
        if section in ("learner_m", "learner_ell"):
            spec = _learner_from_section(dict(parser[section]), section)
            setattr(cfg, section, spec)
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        for key, value in parser[section].items():
            if key not in allowed:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            _apply_key(cfg, section, key, value)

    if cfg.data_path is not None and cfg.schema is None:
        raise ConfigError("[data] path given without outcome/treatment/covariates")
    return cfg


def _apply_key(cfg: RunConfig, section: str, key: str, value: str):
    where = f"[{section}] {key}"
    if section == "data":
        if key == "path":
            cfg.data_path = value.strip()
        else:
            pending = getattr(cfg, "_pending_schema", {})
            pending[key] = value
            cfg._pending_schema = pending
            if {"outcome", "treatment", "covariates"} <= set(pending):
                cfg.schema = ColumnSchema(
                    outcome=pending["outcome"].strip(),
                    treatment=pending["treatment"].strip(),
                    covariates=tuple(
                        c.strip() for c in pending["covariates"].split(",")
                        if c.strip()
                    ),
                )
    elif section == "split":
        if key == "method":
            cfg.split_method = _parse_enum(value, where, {"spss", "random", "both"})
        elif key == "test_fraction":
            cfg.test_fraction = _parse_num(value, where, float)
        elif key == "k":
            cfg.k = _parse_num(value, where, int)
        elif key == "seed":
            cfg.seed = _parse_num(value, where, int)
        elif key == "include_y":
            cfg.include_y = _parse_bool(value, where)
    elif section == "dml":
        if key == "algorithm":
            cfg.algorithm = _parse_enum(
                value, where, {dml_mod.ALG_DML1, dml_mod.ALG_DML2}
            )
        elif key == "score":
            cfg.score = _parse_enum(
                value, where,
                {dml_mod.SCORE_PARTIALLING_OUT, dml_mod.SCORE_IV_TYPE},
            )
        elif key == "alpha":
            cfg.alpha = _parse_num(value, where, float)
            if not 0.0 < cfg.alpha < 1.0:
                raise InvalidAlpha(f"{where}: must be in (0, 1), got {value!r}")
    elif section == "simulate":
        if key == "scenario":
            names = [s.strip().lower() for s in value.split(",") if s.strip()]
            for name in names:
                if name not in ("s1", "s2"):
                    raise ConfigError(f"{where}: unknown scenario {name!r}")
            cfg.sim_scenarios = tuple(names)
        elif key == "p_list":
            cfg.p_list = tuple(
                _parse_num(v, where, int) for v in value.split(",") if v.strip()
            )
        elif key == "n_list":
            cfg.n_list = tuple(
                _parse_num(v, where, int) for v in value.split(",") if v.strip()
            )
        elif key == "reps":
            cfg.reps = _parse_num(value, where, int)
        elif key == "master_seed":
            cfg.master_seed = _parse_num(value, where, int)
    elif section == "runtime":
        cfg.threads = _parse_num(value, where, int)


def _load_dataset(cfg: RunConfig, input_csv: Optional[str]) -> Dataset:
    path = input_csv or cfg.data_path
    if path is None:
        raise ConfigError("no input CSV: pass one on the command line "
                          "or set [data] path")
    if cfg.schema is None:
        raise ConfigError("[data] outcome/treatment/covariates are required")
    return load_csv(path, cfg.schema)


def _build_plan(cfg: RunConfig, d: Dataset, seed: int):
    if cfg.split_method == "random":
        return random_kfold(d.n, cfg.k, seed)
    return spss_kfold(d, cfg.k, SpConfig(seed=seed), include_y=cfg.include_y)


def cmd_split(cfg: RunConfig, input_csv, out_dir, seed: int) -> int:
    d = _load_dataset(cfg, input_csv)
    result = spss_split(
        d, cfg.test_fraction, SpConfig(seed=seed), include_y=cfg.include_y
    )
    out = Path(out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "train.csv", subset_rows(d, result.train_idx))
    write_csv(out / "test.csv", subset_rows(d, result.test_idx))

    cloud = _joint_cloud(d, cfg.include_y)
    n_test = len(result.test_idx)
    baseline = random_subset(d.n, n_test, seed)
    polish = result.polish
    sidecar = {
        "seed": seed,
        "n_test": n_test,
        "n_train": int(len(result.train_idx)),
        "polish_passes": polish.passes,
        "polish_swaps": polish.swaps,
        "polish_converged": polish.converged,
        "energy_init_vs_full": energy_two_sample(cloud[polish.init_idx], cloud),
        "energy_test_vs_full": energy_two_sample(cloud[result.test_idx], cloud),
        "energy_random_vs_full": energy_two_sample(cloud[baseline], cloud),
    }
    with open(out / "split.json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
    print(f"wrote {out / 'train.csv'}, {out / 'test.csv'}, {out / 'split.json'}")
    return EXIT_OK


def cmd_estimate(cfg: RunConfig, input_csv, out_path, seed: int) -> int:
    if cfg.learner_m is None or cfg.learner_ell is None:
        raise ConfigError("estimate needs [learner_m] and [learner_ell] sections")
    d = _load_dataset(cfg, input_csv)
    start = time.perf_counter()
    plan = _build_plan(cfg, d, seed)
    nuis = dml_mod.fit_nuisances_crossfit(
        d, plan, cfg.learner_m, cfg.learner_ell, cfg.score
    )
    estimator = (
        dml_mod.dml1_estimate if cfg.algorithm == dml_mod.ALG_DML1
        else dml_mod.dml2_estimate
    )
    est = estimator(d, plan, nuis, cfg.score, alpha=cfg.alpha)
    record = {
        "beta": est.beta,
        "se": float(est.se),
        "ci": [est.ci[0], est.ci[1]],
        "alpha": est.ci[2],
        "K": est.k,
        "algorithm": est.algorithm,
        "score": est.score,
        "splitter": cfg.split_method,
        "seed": seed,
        "n": est.n_total,
        "wall_time_s": time.perf_counter() - start,
    }
    text = json.dumps(record, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_path, fmt: str, seed: int,
                 threads: int) -> int:
    if cfg.learner_m is None or cfg.learner_ell is None:
        raise ConfigError("simulate needs [learner_m] and [learner_ell] sections")
    if not (cfg.sim_scenarios and cfg.p_list and cfg.n_list):
        raise ConfigError("[simulate] scenario, p_list, and n_list are required")
    splitters = (
        ("spss", "random") if cfg.split_method == "both" else (cfg.split_method,)
    )
    rows = []
    for scen in cfg.sim_scenarios:
        for p in cfg.p_list:
            for n in cfg.n_list:
                for splitter in splitters:
                    mc = McConfig(
                        scenario=ScenarioConfig(scenario=scen, p=p, n=n),
                        learner_m=cfg.learner_m,
                        learner_ell=cfg.learner_ell,
                        reps=cfg.reps,
                        k=cfg.k,
                        splitter=splitter,
                        score=cfg.score,
                        algorithm=cfg.algorithm,
                        master_seed=seed,
                        alpha=cfg.alpha,
                        include_y=cfg.include_y,
                    )
                    rows.append(run_monte_carlo(mc, threads=threads))
    payload = emit_report(rows, fmt)
    if out_path:
        Path(out_path).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode())
    return EXIT_OK


def cmd_energy(a_csv, b_csv) -> int:
    a = read_csv_matrix(a_csv)
    b = read_csv_matrix(b_csv)
    print(repr(energy_two_sample(a, b)))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmlspss",
        description="Treatment-effect estimation with support-points "
                    "sample splitting",
    )
    parser.add_argument("--config", help="path to INI config file")
    parser.add_argument("--out", help="output file (or directory for split)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, help="override config seeds")
    parser.add_argument("--threads", type=int, help="worker threads")
    sub = parser.add_subparsers(dest="command", required=True)

    p_split = sub.add_parser("split", help="support-points train/test split")
    p_split.add_argument("input", nargs="?", help="input CSV")

    p_est = sub.add_parser("estimate", help="cross-fitted effect estimate")
    p_est.add_argument("input", nargs="?", help="input CSV")

    sub.add_parser("simulate", help="Monte Carlo study over a config grid")

    p_energy = sub.add_parser("energy", help="two-sample energy distance")
    p_energy.add_argument("a", help="first point-set CSV")
    p_energy.add_argument("b", help="second point-set CSV")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "energy":
            return cmd_energy(args.a, args.b)
        cfg = parse_config(args.config) if args.config else RunConfig()
        threads = args.threads
        if threads is None:
            env = os.environ.get("DMLSPSS_THREADS")
            threads = _parse_num(env, "DMLSPSS_THREADS", int) if env else cfg.threads
        if args.command == "split":
            seed = args.seed if args.seed is not None else cfg.seed
            return cmd_split(cfg, args.input, args.out, seed)
        if args.command == "estimate":
            seed = args.seed if args.seed is not None else cfg.seed
            return cmd_estimate(cfg, args.input, args.out, seed)
        if args.command == "simulate":
            seed = args.seed if args.seed is not None else cfg.master_seed
            return cmd_simulate(cfg, args.out, args.format, seed, threads)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DmlSpssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
