"""Command-line entry point: split, estimate, simulate, energy.

Configuration is an INI file parsed straight into a frozen RunConfig,
which checks every setting when built.  Each run setting is declared
once, as a RunConfig field carrying its INI key, value kind and allowed
values (``_setting``; a list setting's values bound each element), and
the key table ``_RUN_KEYS`` is read off those fields.  ``simulate``
gives each Monte Carlo cell every McConfig field that RunConfig declares
too, so ``estimate`` and each cell read a setting under one name.  A
``[learner_m]``/``[learner_ell]`` section's keys are the fields of the
chosen spec class (``lambda`` for ``lam``), parsed like their defaults.
Unknown sections or keys are errors.  All randomness flows from seeds
in the config (or the --seed override).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure, 5 a simulate worker process died.  Diagnostics go to stderr,
results (of every command) to stdout or --out, which is checked before
any data is read.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from dataclasses import field as dataclass_field
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
    InvalidSpec,
    NumericError,
    WorkerDied,
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
    SCENARIOS,
    SPLIT_SPSS,
    SPLITTERS,
    McConfig,
    ScenarioConfig,
    cross_fitted_estimate,
    emit_report,
    run_monte_carlo,
)
from .support_points import (
    SpConfig,
    energy_two_sample,
    random_kfold,  # unused here; kept as cli.random_kfold for bench/tracing.py
    spss_kfold,  # unused here; kept as cli.spss_kfold for bench/tracing.py
    spss_split,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_WORKER = 5


def _setting(section: str, key: str, kind, default, choices=None):
    """A RunConfig field read from the INI key ``[section] key`` as ``kind``
    (see _parse) and, when ``choices`` is given, allowed only those values."""
    return dataclass_field(default=default, metadata={
        "ini": (section, key), "kind": kind, "choices": choices})


@dataclass(frozen=True)
class RunConfig:
    """Validated, typed view of a parsed config file; ``__post_init__``
    checks every setting, and ``schema`` is built from the column names.
    Each field but the learner specs declares its INI key with _setting."""

    data_path: Optional[str] = _setting("data", "path", str, None)
    outcome: Optional[str] = _setting("data", "outcome", str, None)
    treatment: Optional[str] = _setting("data", "treatment", str, None)
    covariates: Optional[tuple] = _setting("data", "covariates", (str,), None)
    splitter: str = _setting("split", "method", str.lower, SPLIT_SPSS,
                             (*SPLITTERS, "both"))
    test_fraction: float = _setting("split", "test_fraction", float, 0.2)
    k: int = _setting("split", "k", int, 2)
    seed: int = _setting("split", "seed", int, 0)
    learner_m: Optional[object] = None
    learner_ell: Optional[object] = None
    algorithm: str = _setting("dml", "algorithm", str.lower, dml_mod.ALG_DML2,
                              dml_mod.ALGORITHMS)
    score: str = _setting("dml", "score", str.lower, dml_mod.SCORE_PARTIALLING_OUT,
                          dml_mod.SCORES)
    alpha: float = _setting("dml", "alpha", float, 0.05)
    sim_scenarios: tuple = _setting("simulate", "scenario", (str.lower,), (), SCENARIOS)
    p_list: tuple = _setting("simulate", "p_list", (int,), ())
    n_list: tuple = _setting("simulate", "n_list", (int,), ())
    reps: int = _setting("simulate", "reps", int, 100)
    master_seed: int = _setting("simulate", "master_seed", int, 0)
    threads: int = _setting("runtime", "threads", int, 1)

    def __post_init__(self):
        for f in fields(self):
            allowed = f.metadata.get("choices")
            if allowed is not None:  # each element, for a list setting
                value = getattr(self, f.name)
                values = value if isinstance(f.metadata["kind"], tuple) else (value,)
                self._require(set(values) <= set(allowed), f.name,
                              f"expected one of {list(allowed)}")
        dml_mod.check_alpha(self.alpha, _KEY_OF["alpha"])
        self._require(self.k >= 2, "k", "must be >= 2")
        self._require(0.0 < self.test_fraction < 1.0, "test_fraction",
                      "must be in (0, 1)")
        self._require(self.threads >= 1, "threads", "must be >= 1")
        self._require(self.seed >= 0, "seed", "must be >= 0")
        try:
            schema = self.schema
        except DataError as exc:
            raise ConfigError(f"[data] {exc}") from None
        if schema is None and self.data_path is not None:
            raise ConfigError("[data] path given without outcome/treatment/covariates")

    def _require(self, ok: bool, field: str, rule: str):
        if not ok:
            raise ConfigError(f"{_KEY_OF[field]}: {rule}, got {getattr(self, field)!r}")

    @property
    def schema(self) -> Optional[ColumnSchema]:
        if None in (self.outcome, self.treatment, self.covariates):
            return None
        return ColumnSchema(self.outcome, self.treatment, self.covariates)


# (section, key) -> (RunConfig field, value kind), from the declarations
# above; the [learner_m] and [learner_ell] sections are built by _learner.
_RUN_KEYS = {f.metadata["ini"]: (f.name, f.metadata["kind"])
             for f in fields(RunConfig) if f.metadata}
_KEY_OF = {name: "[%s] %s" % key for key, (name, _) in _RUN_KEYS.items()}
_RUN_FIELDS = {f.name for f in fields(RunConfig)}


def _parse(raw: str, kind, where: str):
    """Parse one INI value as ``kind``: int, float, str (verbatim),
    str.lower (a case-insensitive word), or ``(kind,)`` for a comma list."""
    if isinstance(kind, tuple):
        return tuple(_parse(v, kind[0], where) for v in raw.split(",") if v.strip())
    value = raw.strip()
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {raw!r}") from None


def _kind_of(default):
    """The value kind of a spec field, read off its default."""
    if isinstance(default, tuple):
        return (_kind_of(default[0]),)
    return {int: int, float: float, str: str.lower}[type(default)]


def _zero_fn(x):
    return np.zeros(np.asarray(x).shape[0])


_LEARNERS = {"ridge": Ridge, "lasso": Lasso, "kernel": KernelMachine,
             "mlp": Mlp, "superlearner": SuperLearner, "zero": Oracle}
_LOSSES = {"squared": SquaredLoss, "epsilon_insensitive": EpsilonInsensitiveLoss}
_INI_KEY = {"lam": "lambda"}  # spec field -> INI key, where they differ


def _choose(table: dict, raw: str, where: str):
    name = raw.strip().lower()
    if name not in table:
        raise ConfigError(f"{where}: expected one of {sorted(table)}, got {raw!r}")
    return table[name]


def _ini_keys(cls) -> dict:
    return {_INI_KEY.get(f.name, f.name): f for f in fields(cls)}


def _spec(cls, items: dict, where: str, **fixed):
    """``cls(**fixed, **items)``: each key names a field of ``cls`` and is
    parsed like that field's default."""
    settable = {k: f for k, f in _ini_keys(cls).items() if f.name not in fixed}
    for key, raw in items.items():
        if key not in settable:
            raise ConfigError(f"{where}{key}: unknown key for {cls.__name__}")
        field = settable[key]
        fixed[field.name] = _parse(raw, _kind_of(field.default), f"{where}{key}")
    return cls(**fixed)


def _learner(items: dict, where: str):
    """Build a learner spec from one section's items; ``where`` prefixes
    every key in messages (``"[learner_m] "``, ``"[learner_m] candidate.1."``)."""
    items = dict(items)
    cls = _choose(_LEARNERS, items.pop("kind", ""), f"{where}kind")
    if cls is Oracle:
        return _spec(Oracle, items, where, fn=_zero_fn)
    if cls is KernelMachine:
        own = _ini_keys(KernelMachine)
        loss_cls = (_choose(_LOSSES, items.pop("loss"), f"{where}loss")
                    if "loss" in items else type(KernelMachine().loss))
        loss = _spec(loss_cls, {k: v for k, v in items.items() if k not in own}, where)
        return _spec(KernelMachine, {k: v for k, v in items.items() if k in own},
                     where, loss=loss)
    if cls is SuperLearner:
        groups = {}
        for key in [k for k in items if k.startswith("candidate.")]:
            tag, _, sub = key[len("candidate."):].partition(".")
            if not (sub and tag.removeprefix("-").isdecimal()):
                raise ConfigError(f"{where}{key}: expected candidate.<integer>.<key>")
            groups.setdefault(tag, {})[sub] = items.pop(key)
        candidates = tuple(_learner(groups[tag], f"{where}candidate.{tag}.")
                           for tag in sorted(groups, key=int))
        return _spec(SuperLearner, items, where, candidates=candidates)
    return _spec(cls, items, where)


def parse_config(path) -> RunConfig:
    """Read and validate a config file; unknown sections/keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}")
    if not read:
        raise ConfigError(f"config file not found: {path}")

    sections = {section for section, _ in _RUN_KEYS}
    values = {}
    for section in parser.sections():
        items = dict(parser[section])
        if section in ("learner_m", "learner_ell"):
            try:
                values[section] = _learner(items, f"[{section}] ")
            except InvalidSpec as exc:
                raise InvalidSpec(f"[{section}] {exc}") from None
            continue
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in items.items():
            if (section, key) not in _RUN_KEYS:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            field, kind = _RUN_KEYS[section, key]
            values[field] = _parse(raw, kind, f"[{section}] {key}")
    return RunConfig(**values)


def _load_dataset(cfg: RunConfig, input_csv: Optional[str]) -> Dataset:
    path = input_csv or cfg.data_path
    if path is None:
        raise ConfigError("no input CSV: pass one on the command line "
                          "or set [data] path")
    if cfg.schema is None:
        raise ConfigError("[data] outcome/treatment/covariates are required")
    return load_csv(path, cfg.schema)


def _check_out(path: Optional[str], directory: bool) -> None:
    """Raise DataError, before any work, unless ``--out`` can be written: for
    ``split`` a directory, or a new path whose deepest existing part is a
    writable directory; else a file in an existing writable directory."""
    if path is None:
        return
    out = Path(path)
    if directory:
        base = next(p for p in (out, *out.parents) if p.exists())
        if not (base.is_dir() and os.access(base, os.W_OK)):
            raise DataError(f"--out {path}: expected a writable directory or a new "
                            "path in one")
    elif out.is_dir() or not out.parent.is_dir() or not os.access(out.parent, os.W_OK):
        raise DataError(f"--out {path}: expected a file in an existing writable directory")


def _write(text: str, out_path) -> None:
    """Write ``text`` and a newline to ``out_path``, or to stdout."""
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def cmd_split(cfg: RunConfig, input_csv, out_dir) -> int:
    d = _load_dataset(cfg, input_csv)
    result = spss_split(d, cfg.test_fraction, SpConfig(seed=cfg.seed))
    out = Path(out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "train.csv", subset_rows(d, result.train_idx))
    write_csv(out / "test.csv", subset_rows(d, result.test_idx))

    polish = result.polish
    # the polish starts from random_subset(n, n_test, seed), the random baseline
    sidecar = {
        "seed": cfg.seed,
        "n_test": len(result.test_idx),
        "n_train": len(result.train_idx),
        "polish_passes": polish.passes,
        "polish_swaps": polish.swaps,
        "polish_converged": polish.converged,
        "energy_init_vs_full": polish.init_energy,
        "energy_test_vs_full": polish.energy,
        "energy_random_vs_full": polish.init_energy,
    }
    with open(out / "split.json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
    print(f"wrote {out / 'train.csv'}, {out / 'test.csv'}, {out / 'split.json'}")
    return EXIT_OK


def cmd_estimate(cfg: RunConfig, input_csv, out_path) -> int:
    if cfg.splitter not in SPLITTERS:
        raise ConfigError(
            f"[split] method: estimate needs {' or '.join(SPLITTERS)}, "
            f"got {cfg.splitter!r}"
        )
    d = _load_dataset(cfg, input_csv)
    start = time.perf_counter()
    est = cross_fitted_estimate(d, cfg, cfg.seed)
    record = {
        "beta": est.beta,
        "se": float(est.se),
        "ci": [est.ci[0], est.ci[1]],
        "alpha": est.ci[2],
        "K": est.k,
        "algorithm": est.algorithm,
        "score": est.score,
        "splitter": cfg.splitter,
        "seed": cfg.seed,
        "n": est.n_total,
        "wall_time_s": time.perf_counter() - start,
    }
    _write(json.dumps(record, indent=2), out_path)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_path, fmt: str) -> int:
    if not (cfg.sim_scenarios and cfg.p_list and cfg.n_list):
        raise ConfigError("[simulate] scenario, p_list, and n_list are required")
    splitters = SPLITTERS if cfg.splitter == "both" else (cfg.splitter,)
    # a cell takes each McConfig field that RunConfig declares; all are checked first
    shared = {f.name: getattr(cfg, f.name) for f in fields(McConfig)
              if f.name in _RUN_FIELDS}
    cells = [McConfig(**{**shared, "scenario": ScenarioConfig(scen, p, n),
                         "splitter": splitter})
             for scen in cfg.sim_scenarios for p in cfg.p_list for n in cfg.n_list
             for splitter in splitters]
    rows = [run_monte_carlo(mc, threads=cfg.threads) for mc in cells]
    payload = emit_report(rows, fmt)
    if out_path:
        Path(out_path).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode())
    return EXIT_OK


def cmd_energy(a_csv, b_csv, out_path) -> int:
    a = read_csv_matrix(a_csv)
    b = read_csv_matrix(b_csv)
    _write(repr(energy_two_sample(a, b)), out_path)
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
    parser.add_argument("--threads", type=int,
                        help="simulate: worker processes for the replications")
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
            _check_out(args.out, directory=False)
            return cmd_energy(args.a, args.b, args.out)
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.threads is not None:
            cfg = replace(cfg, threads=args.threads)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed, master_seed=args.seed)
        _check_out(args.out, directory=args.command == "split")
        if args.command == "split":
            return cmd_split(cfg, args.input, args.out)
        if cfg.learner_m is None or cfg.learner_ell is None:
            raise ConfigError(
                f"{args.command} needs [learner_m] and [learner_ell] sections")
        if args.command == "estimate":
            return cmd_estimate(cfg, args.input, args.out)
        return cmd_simulate(cfg, args.out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except WorkerDied as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except DmlSpssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
