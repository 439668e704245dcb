"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dmlspss import cli, simulate, support_points
from dmlspss.cli import (
    EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_WORKER, main, parse_config,
)
from dmlspss.data import ColumnSchema, Dataset, write_csv
from dmlspss.errors import ConfigError, WorkerDied
from dmlspss.learners import (
    EpsilonInsensitiveLoss,
    KernelMachine,
    Lasso,
    Mlp,
    Oracle,
    Ridge,
    SquaredLoss,
    SuperLearner,
)
from dmlspss.support_points import energy_two_sample


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _make_dataset_csv(path, n=10, seed=0, noiseless=True):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    t = rng.normal(size=n)
    y = 0.5 * t if noiseless else 0.5 * t + rng.normal(size=n)
    _write_csv(
        path, ["y", "t", "x1", "x2"],
        [[y[i], t[i], x[i, 0], x[i, 1]] for i in range(n)],
    )


def _base_config(tmp_path, csv_path, extra=""):
    text = f"""
[data]
path = {csv_path}
outcome = y
treatment = t
covariates = x1,x2

[split]
method = random
test_fraction = 0.3
k = 2
seed = 3

[learner_m]
kind = zero

[learner_ell]
kind = zero

[dml]
algorithm = dml2
score = partialling_out
alpha = 0.05
{extra}
"""
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


# --- split -------------------------------------------------------------------

def test_split_writes_expected_sizes(tmp_path):
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=10)
    cfg = _base_config(tmp_path, csv_path)
    out = tmp_path / "split_out"
    rc = main(["--config", str(cfg), "--out", str(out), "split"])
    assert rc == 0
    test_rows = (out / "test.csv").read_text().strip().splitlines()
    train_rows = (out / "train.csv").read_text().strip().splitlines()
    assert len(test_rows) - 1 == 3
    assert len(train_rows) - 1 == 7
    sidecar = json.loads((out / "split.json").read_text())
    assert sidecar["seed"] == 3
    assert sidecar["n_test"] == 3
    assert sidecar["energy_test_vs_full"] <= sidecar["energy_init_vs_full"]
    assert sidecar["energy_test_vs_full"] <= sidecar["energy_random_vs_full"]


def test_split_too_small_side_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=4)
    cfg = _base_config(tmp_path, csv_path).read_text().replace(
        "test_fraction = 0.3", "test_fraction = 0.25"
    )
    cfg_path = tmp_path / "small.ini"
    cfg_path.write_text(cfg)
    out = tmp_path / "split_out"
    rc = main(["--config", str(cfg_path), "--out", str(out), "split"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "test size 1" in err and "Traceback" not in err
    assert not (out / "train.csv").exists() and not (out / "test.csv").exists()


def test_split_rerun_is_identical(tmp_path):
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=12, seed=5)
    cfg = _base_config(tmp_path, csv_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out_a), "split"]) == 0
    assert main(["--config", str(cfg), "--out", str(out_b), "split"]) == 0
    assert (out_a / "test.csv").read_text() == (out_b / "test.csv").read_text()
    assert (out_a / "train.csv").read_text() == (out_b / "train.csv").read_text()



def test_split_json_bytes_are_pinned(tmp_path):
    # computed before the sidecar energies shared one N x N distance matrix
    import hashlib
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=40, seed=8, noiseless=False)
    cfg = _base_config(tmp_path, csv_path)
    out = tmp_path / "split_out"
    assert main(["--config", str(cfg), "--out", str(out), "split"]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()[:16]
               for f in ("split.json", "test.csv", "train.csv")}
    assert digests == {"split.json": "8d0143190663a5aa",
                       "test.csv": "a216e8765c20bb56",
                       "train.csv": "c9ac8b7159240f44"}

# --- estimate -----------------------------------------------------------------

def test_estimate_noiseless_recovers_half(tmp_path, capsys):
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=20, noiseless=True)
    cfg = _base_config(tmp_path, csv_path)
    rc = main(["--config", str(cfg), "estimate"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert abs(record["beta"] - 0.5) < 1e-6
    assert record["K"] == 2
    assert record["algorithm"] == "dml2"
    assert record["splitter"] == "random"


def test_estimate_alpha_flag_changes_multiplier(tmp_path, capsys):
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=60, seed=2, noiseless=False)
    cfg = _base_config(tmp_path, csv_path).read_text().replace(
        "alpha = 0.05", "alpha = 0.10"
    )
    cfg_path = tmp_path / "run10.ini"
    cfg_path.write_text(cfg)
    rc = main(["--config", str(cfg_path), "estimate"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    lo, hi = record["ci"]
    multiplier = (hi - lo) / (2 * record["se"])
    assert multiplier == pytest.approx(1.644854, abs=1e-6)


def test_estimate_missing_column_exits_3(tmp_path, capsys):
    csv_path = tmp_path / "in.csv"
    _write_csv(csv_path, ["y", "x1", "x2"], [[1, 2, 3], [4, 5, 6]])
    cfg = _base_config(tmp_path, csv_path)
    rc = main(["--config", str(cfg), "estimate"])
    assert rc == EXIT_DATA
    assert "'t'" in capsys.readouterr().err


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL],
                         ids=["numpy-reader", "csv-reader"])
def test_bom_headed_csv_and_config_load(tmp_path, capsys, quoting):
    # Excel's "CSV UTF-8" and Notepad start a file with a byte order mark
    csv_path = tmp_path / "in.csv"
    with open(csv_path, "w", newline="", encoding="utf-8-sig") as fh:
        csv.writer(fh, quoting=quoting).writerows([["y", "t", "x1", "x2"], *[
            [0.5 * i, i, i % 3, i % 5] for i in range(20)]])
    cfg = _base_config(tmp_path, csv_path)
    cfg.write_text(cfg.read_text(), encoding="utf-8-sig")
    assert main(["--config", str(cfg), "estimate"]) == 0
    assert abs(json.loads(capsys.readouterr().out)["beta"] - 0.5) < 1e-6


@pytest.mark.parametrize("command", ["estimate", "split"])
@pytest.mark.parametrize("rows_before", [0, 3000])
def test_latin1_csv_exits_3(tmp_path, capsys, command, rows_before):
    # the byte is read with the header, or after NumPy's reader has started
    csv_path = tmp_path / "in.csv"
    csv_path.write_bytes(b"y,t,x1,x2\n" + b"1,2,3,4\n" * rows_before
                         + b"5,6,7,8\n1,2,3,\xe9\n")
    cfg = _base_config(tmp_path, csv_path)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), command])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {csv_path}: 'utf-8' codec can't decode byte 0xe9")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "split"])
def test_repeated_header_name_exits_3(tmp_path, capsys, command):
    csv_path = tmp_path / "in.csv"
    _write_csv(csv_path, ["y", "t", "x1", "x1", "x2"],
               [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [1, 3, 5, 7, 9]])
    cfg = _base_config(tmp_path, csv_path)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), command])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "'x1' repeated in header" in err


def test_estimate_rejects_simulate_only_split_before_reading(tmp_path, capsys):
    # "both" is a simulate setting; the CSV does not exist, so reading it
    # first would exit 3
    cfg = _base_config(tmp_path, tmp_path / "missing.csv")
    cfg.write_text(cfg.read_text().replace("method = random", "method = both"))
    rc = main(["--config", str(cfg), "estimate"])
    assert rc == EXIT_CONFIG
    assert "[split] method" in capsys.readouterr().err


@pytest.mark.parametrize("splitter, score, algorithm", [
    ("spss", "partialling_out", "dml2"),
    ("random", "iv_type", "dml1"),
])
def test_estimate_reproduces_a_replication_bitwise(tmp_path, capsys, splitter, score,
                                                  algorithm):
    # estimate and every replication run simulate.cross_fitted_estimate
    mc = simulate.McConfig(
        scenario=simulate.ScenarioConfig("s2", 3, 90), learner_m=Ridge(lam=0.001),
        learner_ell=Ridge(lam=0.001), reps=2, k=3, splitter=splitter, score=score,
        algorithm=algorithm, master_seed=11)
    rep = 1
    rep_seed = simulate.mix_seed(mc.master_seed, rep)
    d, _ = simulate.draw_dataset(mc.scenario, simulate.mix_seed(rep_seed, 1))
    write_csv(tmp_path / "rep.csv", d)
    (tmp_path / "run.ini").write_text(
        "[data]\noutcome = y\ntreatment = t\ncovariates = x1,x2,x3\n"
        f"[split]\nmethod = {splitter}\nk = 3\nseed = {simulate.mix_seed(rep_seed, 2)}\n"
        "[learner_m]\nkind = ridge\nlambda = 0.001\n"
        "[learner_ell]\nkind = ridge\nlambda = 0.001\n"
        f"[dml]\nalgorithm = {algorithm}\nscore = {score}\n")
    beta, se, _ = simulate._run_one_rep(mc, rep)
    rc = main(["--config", str(tmp_path / "run.ini"), "estimate", str(tmp_path / "rep.csv")])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["beta"].hex(), record["se"].hex()) == (beta.hex(), float(se).hex())


@pytest.mark.parametrize("command", ["split", "estimate"])
def test_polish_beyond_physical_memory_exits_3_and_writes_nothing(
        tmp_path, capsys, monkeypatch, command):
    # 400 rows need more than 8 * 400 * 400 bytes for their distances alone
    monkeypatch.setattr(support_points, "_physical_memory", lambda: 1_000_000)
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=400, seed=2, noiseless=False)
    cfg = _base_config(tmp_path, csv_path)
    cfg.write_text(cfg.read_text().replace("method = random", "method = spss"))
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out), command])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error:")
    assert re.search(r"n=400 rows needs [0-9.]+ GB", err)
    assert not out.exists()


def test_kernel_fit_beyond_physical_memory_exits_3_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    # random K=2 folds of 400 rows: a kernel fit on a 200-row fold complement
    # needs 2 * 8 * 200^2 bytes for its Gram matrix and LAPACK's copy
    monkeypatch.setattr(support_points, "_physical_memory", lambda: 2 * 8 * 200 * 200 - 1)
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=400, seed=2, noiseless=False)
    cfg = _base_config(tmp_path, csv_path)
    cfg.write_text(cfg.read_text().replace("kind = zero", "kind = kernel"))
    out = tmp_path / "est.json"
    rc = main(["--config", str(cfg), "--out", str(out), "estimate"])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error:")
    assert "kernel machine's fit on n=200 rows needs 0.00064 GB" in err
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before --out was checked")


@pytest.mark.parametrize("case", ["missing directory", "a directory", "unwritable"])
@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_bad_out_file_exits_3_before_any_work(tmp_path, capsys, monkeypatch, command,
                                               case):
    monkeypatch.setattr(cli, "load_csv", _no_work)
    monkeypatch.setattr(cli, "run_monte_carlo", _no_work)
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=40, seed=2, noiseless=False)
    cfg = _base_config(tmp_path, csv_path, SIM_EXTRA)
    out = {"missing directory": tmp_path / "missing" / "out.txt",
           "a directory": tmp_path, "unwritable": tmp_path / "out.txt"}[case]
    if case == "unwritable":  # a permission bit would not stop root
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    before = sorted(tmp_path.iterdir())
    rc = main(["--config", str(cfg), "--out", str(out), command])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: --out {out}: expected a file in an existing writable directory\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_missing_learner_section_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                         command):
    monkeypatch.setattr(cli, "load_csv", _no_work)
    monkeypatch.setattr(cli, "run_monte_carlo", _no_work)
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=40, seed=2, noiseless=False)
    cfg = _base_config(tmp_path, csv_path, SIM_EXTRA)
    cfg.write_text(cfg.read_text().replace("[learner_ell]\nkind = zero\n", ""))
    assert main(["--config", str(cfg), command]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {command} needs [learner_m] and [learner_ell] sections\n")


_COLUMNS = "[data]\noutcome = y\ntreatment = t\ncovariates = x1,x2\n"


@pytest.mark.parametrize("ini, command, message", [
    ("[data]\npath = in.csv\n", ["estimate"],
     "[data] path given without outcome/treatment/covariates"),
    (_COLUMNS, ["estimate"],
     "no input CSV: pass one on the command line or set [data] path"),
    ("", ["estimate", "in.csv"], "[data] outcome/treatment/covariates are required"),
    (_COLUMNS + "[simulate]\nreps = 3\n", ["simulate"],
     "[simulate] scenario, p_list, and n_list are required"),
], ids=["path without columns", "no csv and no path", "csv without columns",
        "simulate without lists"])
def test_missing_input_settings_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                       ini, command, message):
    monkeypatch.setattr(cli, "load_csv", _no_work)
    monkeypatch.setattr(cli, "run_monte_carlo", _no_work)
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini + "[learner_m]\nkind = zero\n[learner_ell]\nkind = zero\n")
    assert main(["--config", str(cfg), *command]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("under", [False, True], ids=["the file", "a path under it"])
def test_split_out_naming_a_file_exits_3_before_any_work(tmp_path, capsys, monkeypatch,
                                                         under):
    monkeypatch.setattr(cli, "load_csv", _no_work)
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=40, seed=2, noiseless=False)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "split" if under else taken
    rc = main(["--config", str(_base_config(tmp_path, csv_path)), "--out", str(out),
               "split"])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: --out {out}: expected a writable directory or a new path in one\n")
    assert taken.read_text() == "kept\n"


def test_estimate_on_three_rows_exits_2_before_splitting(tmp_path, capsys, monkeypatch):
    # random K=2 on 3 rows leaves a 1-row fold complement, as simulate rejects
    split = []
    monkeypatch.setattr(simulate, "random_kfold", lambda *a: split.append(a))
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=3, seed=2, noiseless=False)
    rc = main(["--config", str(_base_config(tmp_path, csv_path)), "estimate"])
    assert (rc, split) == (EXIT_CONFIG, [])
    assert ("need n - ceil(n/K) >= 2 rows to train on, got K=2 with n=3"
            in capsys.readouterr().err)


def test_estimate_with_unpenalized_ridge_and_p_at_least_n_exits_2_before_splitting(
        tmp_path, capsys, monkeypatch):
    split = []
    monkeypatch.setattr(simulate, "spss_kfold", lambda *a: split.append(a))
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(6, 8))  # y, t and six covariates
    csv_path = tmp_path / "in.csv"
    _write_csv(csv_path, ["y", "t", *(f"x{j}" for j in range(1, 7))], rows.tolist())
    cfg = _base_config(tmp_path, csv_path).read_text().replace(
        "method = random", "method = spss").replace(
        "covariates = x1,x2", "covariates = x1,x2,x3,x4,x5,x6").replace(
        "[learner_m]\nkind = zero", "[learner_m]\nkind = ridge\nlambda = 0")
    (tmp_path / "run.ini").write_text(cfg)
    rc = main(["--config", str(tmp_path / "run.ini"), "estimate"])
    assert (rc, split) == (EXIT_CONFIG, [])
    assert ("ridge with lambda=0 is not allowed when p=6 >= n=6"
            in capsys.readouterr().err)


def test_estimate_with_unpenalized_ridge_and_p_at_least_fold_rows_exits_2_before_splitting(
        tmp_path, capsys, monkeypatch):
    # p=20 < n=30, but K=2 folds train on 15 rows: the centred design is
    # rank-deficient on every fold complement
    split = []
    monkeypatch.setattr(simulate, "spss_kfold", lambda *a: split.append(a))
    rows = np.random.default_rng(5).normal(size=(30, 22))  # y, t and 20 covariates
    csv_path = tmp_path / "in.csv"
    covariates = [f"x{j}" for j in range(1, 21)]
    _write_csv(csv_path, ["y", "t", *covariates], rows.tolist())
    cfg = _base_config(tmp_path, csv_path).read_text().replace(
        "method = random", "method = spss").replace(
        "covariates = x1,x2", "covariates = " + ",".join(covariates)).replace(
        "[learner_ell]\nkind = zero", "[learner_ell]\nkind = ridge\nlambda = 0")
    (tmp_path / "run.ini").write_text(cfg)
    rc = main(["--config", str(tmp_path / "run.ini"), "estimate"])
    assert (rc, split) == (EXIT_CONFIG, [])
    assert capsys.readouterr().err == (
        "config error: ridge with lambda=0 is not allowed when p=20 >= the 15 rows "
        "a fold trains on (n=30, K=2)\n")


def test_estimate_checks_super_learner_blocks_before_splitting(tmp_path, capsys,
                                                               monkeypatch):
    # 60 rows in K=2 folds leave 30 to train on; 31 blocks need 31
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=60, seed=2, noiseless=False)
    cfg = _base_config(tmp_path, csv_path)
    cfg.write_text(cfg.read_text().replace(
        "[learner_ell]\nkind = zero", "[learner_ell]\nkind = superlearner\n"
        "candidate.1.kind = ridge\ncandidate.1.lambda = 0.001\nv_blocks = 31"))
    split = []
    monkeypatch.setattr(simulate, "random_kfold", lambda *a: split.append(a))
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "est.json"), "estimate"])
    assert (rc, split) == (EXIT_CONFIG, [])
    assert capsys.readouterr().err == (
        "config error: sl(ridge) v_blocks=31 needs 31 rows "
        "to train on, but n=60 with K=2 leaves 30\n")
    assert not (tmp_path / "est.json").exists()


def test_estimate_numeric_failure_exits_4(tmp_path, capsys):
    csv_path = tmp_path / "in.csv"
    rng = np.random.default_rng(1)
    x1 = rng.normal(size=12)
    _write_csv(
        csv_path, ["y", "t", "x1", "x2"],
        [[rng.normal(), rng.normal(), v, v] for v in x1],  # collinear
    )
    extra = ""
    cfg = _base_config(tmp_path, csv_path, extra).read_text().replace(
        "kind = zero", "kind = ridge\nlambda = 0.0", 1
    )
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(cfg)
    rc = main(["--config", str(cfg_path), "estimate"])
    assert rc == EXIT_NUMERIC



def test_diverging_mlp_exits_4_with_one_line(tmp_path, capsys):
    import warnings
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=40, seed=1, noiseless=False)
    cfg = _base_config(tmp_path, csv_path).read_text().replace(
        "kind = zero", "kind = mlp\nstep_size = 1e300", 1
    )
    cfg_path = tmp_path / "diverge.ini"
    cfg_path.write_text(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--config", str(cfg_path), "estimate"])
    assert rc == EXIT_NUMERIC
    assert caught == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numeric error: mlp training diverged")


def test_super_learner_of_a_diverging_mlp_exits_4(tmp_path, capsys):
    # the candidate's own error class, as for the bare MLP above
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=40, seed=1, noiseless=False)
    cfg = _base_config(tmp_path, csv_path).read_text().replace(
        "kind = zero", "kind = superlearner\ncandidate.1.kind = mlp\n"
        "candidate.1.step_size = 1e300", 1)
    cfg_path = tmp_path / "diverge.ini"
    cfg_path.write_text(cfg)
    assert main(["--config", str(cfg_path), "estimate"]) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric error: every super learner candidate failed to fit; "
        "the first: mlp training diverged (non-finite loss)\n")


@pytest.mark.parametrize("kind, column, error", [
    ("lasso", "x1", "lasso diverged (non-finite coefficients)"),
    ("ridge", "t", "dml2 estimate: sigma^2 is nan, not finite"),
    ("ridge", "x1", "ridge: the centred design's moments x'x, x'y overflow"),
], ids=["lasso, x1 scaled", "ridge, t scaled", "ridge, x1 scaled"])
def test_overflowing_data_exits_4_and_writes_nothing(tmp_path, kind, column, error):
    # a column scaled by 1e200 overflows when squared; the run must fail
    # rather than write NaN, which strict JSON parsers reject.  A subprocess,
    # so that NumPy's overflow warnings stay warnings.
    d, _ = simulate.draw_dataset(simulate.ScenarioConfig("s1", 3, 60), seed=1)
    scaled = {"y": d.y, "t": d.t, "x": d.x.copy()}
    if column == "t":
        scaled["t"] = d.t * 1e200
    else:
        scaled["x"][:, 0] *= 1e200
    write_csv(tmp_path / "big.csv", Dataset(**scaled))
    (tmp_path / "run.ini").write_text(
        "[data]\noutcome = y\ntreatment = t\ncovariates = x1,x2,x3\n\n"
        "[split]\nmethod = random\nk = 2\nseed = 1\n\n"
        f"[learner_m]\nkind = {kind}\nlambda = 0.01\n\n"
        f"[learner_ell]\nkind = {kind}\nlambda = 0.01\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = tmp_path / "big.json"
    run = subprocess.run(
        [sys.executable, "-m", "dmlspss.cli", "--config", str(tmp_path / "run.ini"),
         "--out", str(out), "estimate", str(tmp_path / "big.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == EXIT_NUMERIC
    assert run.stderr.splitlines()[-1] == f"numeric error: {error}"
    assert not out.exists()

# --- simulate ------------------------------------------------------------------

SIM_EXTRA = """
[simulate]
scenario = s1
p_list = 3
n_list = 60
reps = 4
master_seed = 7
"""


def test_simulate_single_cell(tmp_path, capsys):
    cfg = _base_config(tmp_path, tmp_path / "unused.csv", SIM_EXTRA)
    text = cfg.read_text().replace("kind = zero", "kind = ridge\nlambda = 1.0")
    cfg.write_text(text)
    rc = main(["--config", str(cfg), "simulate"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header + one row
    assert lines[0].startswith("scenario,p,n,method,splitter")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_out_file_holds_the_stdout_bytes(tmp_path, capsys, monkeypatch, fmt):
    cfg = _base_config(tmp_path, tmp_path / "unused.csv", SIM_EXTRA)
    cfg.write_text(cfg.read_text().replace("kind = zero", "kind = ridge\nlambda = 1.0"))
    run = cli.run_monte_carlo  # with its wall time fixed, two runs match
    monkeypatch.setattr(cli, "run_monte_carlo", lambda mc, threads: dataclasses.replace(
        run(mc, threads=threads), wall_time_s=0.0))
    out = tmp_path / "sim.out"
    assert main(["--config", str(cfg), "--format", fmt, "simulate"]) == 0
    printed = capsys.readouterr().out
    assert main(["--config", str(cfg), "--format", fmt, "--out", str(out),
                 "simulate"]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def test_simulate_checks_k_of_every_cell_before_running_any(tmp_path, capsys,
                                                            monkeypatch):
    # n=4 cannot take K=3 SPSS folds; the n=2000 cell must not run first
    extra = SIM_EXTRA.replace("p_list = 3", "p_list = 5").replace(
        "n_list = 60", "n_list = 2000,4").replace("reps = 4", "reps = 20")
    cfg = _base_config(tmp_path, tmp_path / "unused.csv", extra)
    text = cfg.read_text().replace("kind = zero", "kind = ridge\nlambda = 1.0")
    cfg.write_text(text.replace("method = random", "method = spss").replace(
        "k = 2", "k = 3"))
    ran = []
    monkeypatch.setattr(cli, "run_monte_carlo", lambda mc, threads: ran.append(mc))
    rc = main(["--config", str(cfg), "simulate"])
    assert (rc, ran) == (EXIT_CONFIG, [])
    err = capsys.readouterr().err
    assert err == "config error: need 2 <= K <= n/2, got K=3 with n=4\n"


def test_simulate_both_splitters_two_rows(tmp_path, capsys):
    cfg = _base_config(tmp_path, tmp_path / "unused.csv", SIM_EXTRA)
    text = cfg.read_text().replace("kind = zero", "kind = ridge\nlambda = 1.0")
    text = text.replace("method = random", "method = both")
    cfg.write_text(text)
    rc = main(["--config", str(cfg), "simulate"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    splitters = {line.split(",")[4] for line in lines[1:]}
    assert splitters == {"spss", "random"}


def test_every_shared_run_setting_reaches_the_simulate_cell(tmp_path, monkeypatch):
    # each McConfig field that RunConfig declares too, set away from both
    # defaults in the INI, must reach the cell that run_monte_carlo gets
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        "[split]\nmethod = random\nk = 3\n\n"
        "[learner_m]\nkind = ridge\nlambda = 0.5\n\n"
        "[learner_ell]\nkind = lasso\nlambda = 0.2\n\n"
        "[dml]\nalgorithm = dml1\nscore = iv_type\nalpha = 0.1\n\n"
        "[simulate]\nscenario = s2\np_list = 4\nn_list = 50\nreps = 7\n"
        "master_seed = 9\n")
    cells = []

    def record(mc, threads):
        cells.append(mc)
        return simulate.SimulationRow("s2", 4, 50, "m", "random", *[0.0] * 7, 7, 9)

    monkeypatch.setattr(cli, "run_monte_carlo", record)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "sim.csv"),
                 "simulate"]) == 0
    cfg = parse_config(cfg_path)
    (mc,) = cells
    shared = ({f.name for f in dataclasses.fields(simulate.McConfig)}
              & {f.name for f in dataclasses.fields(cli.RunConfig)})
    assert shared == {"learner_m", "learner_ell", "reps", "k", "splitter", "score",
                      "algorithm", "master_seed", "alpha"}
    defaults = (simulate.McConfig(mc.scenario, Ridge(), Ridge()), cli.RunConfig())
    for name in shared:
        assert getattr(mc, name) == getattr(cfg, name), name
        assert all(getattr(mc, name) != getattr(d, name) for d in defaults), name
    assert mc.scenario == simulate.ScenarioConfig("s2", 4, 50)


def test_simulate_deterministic_output(tmp_path, capsys):
    cfg = _base_config(tmp_path, tmp_path / "unused.csv", SIM_EXTRA)
    text = cfg.read_text().replace("kind = zero", "kind = ridge\nlambda = 1.0")
    cfg.write_text(text)

    def run_once(threads):
        rc = main(["--config", str(cfg), "--threads", threads,
                   "--format", "json", "simulate"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        for row in rows:
            row.pop("wall_time_s")
        return rows

    assert run_once("1") == run_once("2")


def test_simulate_checks_every_cell_before_running(tmp_path, capsys, monkeypatch):
    cfg = _base_config(tmp_path, tmp_path / "unused.csv", SIM_EXTRA)
    text = cfg.read_text().replace("kind = zero", "kind = ridge\nlambda = 1.0")
    cfg.write_text(text.replace("n_list = 60", "n_list = 60,1"))

    def no_run(*args, **kwargs):
        raise AssertionError("a cell ran before every cell was checked")

    monkeypatch.setattr(cli, "run_monte_carlo", no_run)
    rc = main(["--config", str(cfg), "simulate"])
    assert rc == EXIT_CONFIG
    assert "n=1" in capsys.readouterr().err


def test_simulate_checks_fold_complements_before_running(tmp_path, capsys, monkeypatch):
    # n=3 in K=2 random folds leaves 1 row to train on beside the 2-row
    # fold; that must fail as a config error before the n=300 cell runs
    cfg = _base_config(tmp_path, tmp_path / "unused.csv", SIM_EXTRA)
    text = cfg.read_text().replace("kind = zero", "kind = ridge\nlambda = 1.0")
    cfg.write_text(text.replace("n_list = 60", "n_list = 300,3"))

    def no_run(*args, **kwargs):
        raise AssertionError("a cell ran before every cell was checked")

    monkeypatch.setattr(cli, "run_monte_carlo", no_run)
    rc = main(["--config", str(cfg), "simulate"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: need n - ceil(n/K) >= 2 rows to train on, got K=2 with n=3\n")


def test_simulate_checks_regularization_before_running(tmp_path, capsys, monkeypatch):
    # the first cell (n=2000) is fine; the second (p=20 >= n=10) needs a
    # penalty, and must fail before the first one runs
    cfg = _base_config(tmp_path, tmp_path / "unused.csv", SIM_EXTRA)
    text = cfg.read_text().replace("kind = zero", "kind = ridge\nlambda = 0")
    text = text.replace("p_list = 3", "p_list = 20")
    cfg.write_text(text.replace("n_list = 60", "n_list = 2000,10"))

    def no_run(*args, **kwargs):
        raise AssertionError("a cell ran before every cell was checked")

    monkeypatch.setattr(cli, "run_monte_carlo", no_run)
    rc = main(["--config", str(cfg), "simulate"])
    assert rc == EXIT_CONFIG
    assert "lambda=0 is not allowed when p=20 >= n=10" in capsys.readouterr().err


def test_dead_worker_exits_5(tmp_path, capsys, monkeypatch):
    cfg = _base_config(tmp_path, tmp_path / "unused.csv", SIM_EXTRA)

    def died(*args, **kwargs):
        raise WorkerDied("a worker process died; replication 0 (seed 1) has no result")

    monkeypatch.setattr(cli, "run_monte_carlo", died)
    rc = main(["--config", str(cfg), "--threads", "2", "simulate"])
    assert rc == EXIT_WORKER == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("worker error: a worker process died; replication 0 (seed 1)")


# --- energy ----------------------------------------------------------------------

def test_energy_command_matches_library(tmp_path, capsys):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=(4, 2))
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_csv(a_path, ["c1", "c2"], a.tolist())
    _write_csv(b_path, ["c1", "c2"], b.tolist())
    rc = main(["energy", str(a_path), str(b_path)])
    assert rc == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(energy_two_sample(a, b), rel=1e-12)


def test_energy_writes_its_line_to_out(tmp_path, capsys):
    rng = np.random.default_rng(4)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_csv(a_path, ["c1", "c2"], rng.normal(size=(6, 2)).tolist())
    _write_csv(b_path, ["c1", "c2"], rng.normal(size=(4, 2)).tolist())
    assert main(["energy", str(a_path), str(b_path)]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "e.txt"
    assert main(["--out", str(out), "energy", str(a_path), str(b_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_energy_out_in_a_missing_directory_exits_3_before_reading(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr(cli, "read_csv_matrix", _no_work)
    out = tmp_path / "nodir" / "e.txt"
    before = sorted(tmp_path.iterdir())
    assert main(["--out", str(out), "energy", "a.csv", "b.csv"]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: --out {out}: expected a file in an existing writable directory\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_energy_non_finite_cell_exits_3(tmp_path, capsys, cell):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_csv(a_path, ["c1", "c2"], [[0.0, 1.0], [cell, 2.0]])
    _write_csv(b_path, ["c1", "c2"], [[0.5, 1.5], [1.0, 0.0]])
    rc = main(["energy", str(a_path), str(b_path)])
    assert rc == EXIT_DATA
    assert "line 3, column 'c1': non-finite value" in capsys.readouterr().err


def test_energy_holds_no_n_by_n_matrix_and_checks_no_memory(tmp_path, capsys,
                                                           monkeypatch):
    # 5 rows against 4,000: the 4000 x 4000 within-b distances alone would
    # be 8 * 4000^2 bytes; a block of rows at a time needs far less, and
    # no physical-memory check stands in the way
    rng = np.random.default_rng(5)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_csv(a_path, ["c1", "c2"], rng.normal(size=(5, 2)).tolist())
    _write_csv(b_path, ["c1", "c2"], rng.normal(size=(4000, 2)).tolist())
    monkeypatch.setattr(support_points, "_physical_memory", lambda: 1)
    tracemalloc.start()
    try:
        rc = main(["energy", str(a_path), str(b_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert np.isfinite(float(capsys.readouterr().out))
    assert peak < 8 * 4000 * 4000 / 4


def test_energy_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    # an allocation that fails below physical memory, as under a ulimit
    def no_memory(a, b):
        raise MemoryError("Unable to allocate 6.71 GiB for an array")

    monkeypatch.setattr(cli, "energy_two_sample", no_memory)
    a_path = tmp_path / "a.csv"
    _write_csv(a_path, ["c1"], [[0.0], [1.0]])
    assert main(["energy", str(a_path), str(a_path)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        "data error: Unable to allocate 6.71 GiB for an array\n")


# --- config parsing ----------------------------------------------------------------

def test_each_run_setting_declares_one_ini_key():
    declared = {f.name: f.metadata.get("ini") for f in dataclasses.fields(cli.RunConfig)}
    undeclared = {name for name, key in declared.items() if key is None}
    assert undeclared == {"learner_m", "learner_ell"}
    keys = [key for key in declared.values() if key is not None]
    assert len(set(keys)) == len(keys)
    assert {key: name for key, (name, _) in cli._RUN_KEYS.items()} == {
        key: name for name, key in declared.items() if key is not None}


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[split]\nmethod = random\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(cfg)


def test_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[mystery]\nkey = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(cfg)


def test_bad_enum_rejected_at_parse_time(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[dml]\nalgorithm = dml9\n")
    with pytest.raises(ConfigError, match="dml9"):
        parse_config(cfg)


@pytest.mark.parametrize("text, match", [
    ("[learner_m]\nkind = ridge\nlambda = -1\n", "lambda"),
    ("[learner_m]\nkind = lasso\ntol = 0\n", "lasso"),
    ("[learner_m]\nkind = kernel\nbandwidth = 0\n", "bandwidth"),
    # lambda is the SVR penalty; the box C = 1/lambda has no key of its own
    ("[learner_m]\nkind = kernel\nloss = epsilon_insensitive\nc = 1\n",
     r"\[learner_m\] c: unknown key for EpsilonInsensitiveLoss"),
    ("[learner_m]\nkind = mlp\nhidden = 0\n", "hidden"),
    ("[learner_m]\nkind = superlearner\nv_blocks = 1\n"
     "candidate.1.kind = ridge\n", "v_blocks"),
    ("[learner_m]\nkind = superlearner\ncandidate.1.kind = ridge\n"
     "candidate.1.lambda = -2\n", "lambda"),
    ("[dml]\nalpha = 1.5\n", "alpha"),
    ("[dml]\nalpha = 0\n", "alpha"),
    ("[dml]\nalpha = nan\n", "alpha"),
    ("[split]\nsp.max_iter = 40\n", "sp.max_iter"),
    ("[split]\ninclude_y = true\n", "include_y"),
    ("[learner_m]\nkind = superlearner\ncandidate.1.kind = superlearner\n"
     "candidate.1.candidate.1.kind = ridge\n", "may not be nested"),
    ("[learner_m]\nkind = superlearner\ncandidate.1.kind = superlearner\n",
     "needs at least one candidate"),
    ("[learner_m]\nkind = kernel\nloss = squared\nc = -5\n",
     r"\[learner_m\] c: unknown key for SquaredLoss"),
    ("[split]\nk = 1\n", r"\[split\] k: must be >= 2"),
    ("[split]\ntest_fraction = 5\n", r"\[split\] test_fraction: must be in \(0, 1\)"),
    ("[runtime]\nthreads = -3\n", r"\[runtime\] threads: must be >= 1"),
    ("[learner_m]\nkind = ridge\nlambda = abc\n",
     r"\[learner_m\] lambda: expected float, got 'abc'"),
    ("[learner_m]\nkind = superlearner\ncandidate.1.kind = ridge\n"
     "candidate.1.lambda = abc\n",
     r"\[learner_m\] candidate.1.lambda: expected float"),
    ("[learner_m]\nkind = superlearner\ncandidate.a.kind = ridge\n",
     r"\[learner_m\] candidate.a.kind: expected candidate.<integer>"),
    ("[simulate]\nscenario = s1,s3\n", r"\[simulate\] scenario"),
    ("[split]\nseed = -3\n", r"\[split\] seed: must be >= 0, got -3"),
    ("[learner_m]\nkind = mlp\nseed = -1\n", r"\[learner_m\] bad mlp spec .*seed=-1"),
    ("[learner_m]\nkind = superlearner\nseed = -2\ncandidate.1.kind = ridge\n",
     r"\[learner_m\] super learner seed must be >= 0, got -2"),
    ("[data]\noutcome = y\ntreatment = t\ncovariates = ,\n",
     r"\[data\] schema needs at least one covariate"),
    ("[data]\noutcome = y\ntreatment = y\ncovariates = x1\n",
     r"\[data\] schema names must be distinct"),
    ("[learner_m]\nkind = ridge\nlambda = nan\n",
     r"\[learner_m\] Ridge lam must be finite, got nan"),
    ("[learner_m]\nkind = lasso\ntol = nan\n", r"Lasso tol must be finite"),
    ("[learner_m]\nkind = kernel\nbandwidth = inf\n",
     r"KernelMachine bandwidth must be finite, got inf"),
    ("[learner_m]\nkind = mlp\nstep_size = nan\n", r"Mlp step_size must be finite"),
    ("[learner_m]\nkind = kernel\nloss = epsilon_insensitive\nepsilon = nan\n",
     r"EpsilonInsensitiveLoss epsilon must be finite"),
    ("[dml]\nalpha = 1e-17\n",
     r"\[dml\] alpha: too small for a finite normal quantile"),
    # a super learner's CV blocks are random folds; the key that chose them is gone
    ("[learner_m]\nkind = superlearner\ncv_splitter = spss\ncandidate.1.kind = ridge\n",
     r"\[learner_m\] cv_splitter: unknown key for SuperLearner"),
], ids=["ridge", "lasso", "kernel", "svr-loss", "mlp", "sl", "sl-candidate",
        "alpha-above", "alpha-zero", "alpha-nan", "dropped-sp-key",
        "dropped-include-y-key", "sl-nested", "sl-nested-bare", "squared-loss-key",
        "k-one", "test-fraction-five", "threads-negative", "typed-value-names-key",
        "candidate-value-names-key", "candidate-tag-not-integer",
        "unknown-scenario", "seed-negative", "mlp-seed-negative",
        "sl-seed-negative", "data-no-covariates", "data-repeated-name",
        "ridge-nan", "lasso-tol-nan", "kernel-bandwidth-inf", "mlp-step-nan",
        "svr-epsilon-nan", "alpha-tiny", "dropped-cv-splitter-key"])
def test_bad_values_rejected_at_parse_time(tmp_path, text, match):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=match):
        parse_config(cfg)


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[split]\nmethod = sideways\n")
    rc = main(["--config", str(cfg), "estimate"])
    assert rc == EXIT_CONFIG
    assert "sideways" in capsys.readouterr().err


@pytest.mark.parametrize("text, match", [
    ("[learner_m]\nkind = forest\n",
     "[learner_m] kind: expected one of ['kernel', 'lasso', 'mlp', 'ridge', "
     "'superlearner', 'zero'], got 'forest'"),
    ("[learner_m]\nkind = kernel\nloss = huber\n",
     "[learner_m] loss: expected one of ['epsilon_insensitive', 'squared'], got 'huber'"),
], ids=["learner-kind", "kernel-loss"])
def test_unknown_learner_name_exits_2_with_one_line(tmp_path, capsys, text, match):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "estimate"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {match}\n"


@pytest.mark.parametrize("command", ["split", "estimate"])
def test_negative_seed_flag_exits_2_before_reading(tmp_path, capsys, command):
    cfg = _base_config(tmp_path, tmp_path / "unused.csv")
    assert main(["--config", str(cfg), "--seed", "-3", command]) == EXIT_CONFIG
    assert "[split] seed: must be >= 0, got -3" in capsys.readouterr().err


def test_latin1_config_exits_2(tmp_path, capsys):
    cfg = _base_config(tmp_path, tmp_path / "unused.csv")
    cfg.write_bytes(b"; r\xe9sum\xe9 of the run\n" + cfg.read_bytes())
    assert main(["--config", str(cfg), "estimate"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: 'utf-8' codec can't decode byte 0xe9")


def test_missing_config_file_exit_code(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "nope.ini"), "estimate"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("source", ["flag", "ini"])
def test_zero_threads_exit_code(tmp_path, capsys, source):
    extra = SIM_EXTRA + ("\n[runtime]\nthreads = 0\n" if source == "ini" else "")
    cfg = _base_config(tmp_path, tmp_path / "unused.csv", extra)
    argv = ["--config", str(cfg), "simulate"]
    if source == "flag":
        argv = ["--threads", "0", *argv]
    assert main(argv) == EXIT_CONFIG
    assert "threads: must be >= 1, got 0" in capsys.readouterr().err


def test_superlearner_config_parsing(tmp_path):
    cfg = tmp_path / "sl.ini"
    cfg.write_text(
        "[learner_m]\n"
        "kind = superlearner\n"
        "v_blocks = 3\n"
        "mode = selector\n"
        "candidate.1.kind = ridge\n"
        "candidate.1.lambda = 0.5\n"
        "candidate.2.kind = lasso\n"
        "candidate.2.lambda = 0.05\n"
        "[learner_ell]\n"
        "kind = ridge\n"
        "lambda = 2.0\n"
    )
    parsed = parse_config(cfg)
    assert isinstance(parsed.learner_m, SuperLearner)
    assert parsed.learner_m.v_blocks == 3
    assert parsed.learner_m.candidates == (Ridge(lam=0.5), Lasso(lam=0.05))
    assert parsed.learner_ell == Ridge(lam=2.0)


def test_superlearner_candidates_ordered_by_integer_tag(tmp_path):
    cfg = tmp_path / "sl.ini"
    cfg.write_text("[learner_m]\nkind = superlearner\n" + "".join(
        f"candidate.{tag}.kind = ridge\ncandidate.{tag}.lambda = {tag}\n"
        for tag in (10, 2, 1, 9, 3, 8, 4, 7, 5, 6)
    ))
    lams = [c.lam for c in parse_config(cfg).learner_m.candidates]
    assert lams == [float(tag) for tag in range(1, 11)]


# --- config equivalence: the INI keys are the spec fields -------------------------

def _parse_text(tmp_path, text):
    path = tmp_path / "eq.ini"
    path.write_text(text)
    return parse_config(path)


@pytest.mark.parametrize("kind, expected", [
    ("ridge", Ridge()),
    ("lasso", Lasso()),
    ("kernel", KernelMachine()),
    ("mlp", Mlp()),
])
def test_kind_only_section_parses_to_spec_defaults(tmp_path, kind, expected):
    parsed = _parse_text(tmp_path, f"[learner_m]\nkind = {kind}\n").learner_m
    assert parsed == expected


def test_kind_only_superlearner_and_zero_use_spec_defaults(tmp_path):
    parsed = _parse_text(
        tmp_path,
        "[learner_m]\nkind = superlearner\ncandidate.1.kind = ridge\n"
        "[learner_ell]\nkind = zero\n",
    )
    assert parsed.learner_m == SuperLearner(candidates=(Ridge(),))
    assert isinstance(parsed.learner_ell, Oracle)
    assert np.array_equal(parsed.learner_ell.fn(np.ones((3, 2))), np.zeros(3))


@pytest.mark.parametrize("section, expected", [
    ("kind = Ridge\nlambda = 2.5\n", Ridge(lam=2.5)),
    ("kind = lasso\nlambda = 0.3\nmax_iter = 50\ntol = 1e-5\n",
     Lasso(lam=0.3, max_iter=50, tol=1e-5)),
    ("kind = kernel\nbandwidth = 0.5\nlambda = 2\nloss = squared\n",
     KernelMachine(bandwidth=0.5, lam=2.0, loss=SquaredLoss())),
    ("kind = kernel\nbandwidth = 0.5\nlambda = 2\nloss = Epsilon_Insensitive\n"
     "epsilon = 0.2\nmax_iter = 40\n",
     KernelMachine(bandwidth=0.5, lam=2.0, loss=EpsilonInsensitiveLoss(
         epsilon=0.2, max_iter=40))),
    ("kind = mlp\nhidden = 8, 4\nactivation = TANH\nstep_size = 0.01\n"
     "epochs = 5\nbatch = 16\nseed = 9\nl2 = 0.1\n",
     Mlp(hidden=(8, 4), activation="tanh", step_size=0.01, epochs=5, batch=16,
         seed=9, l2=0.1)),
    ("kind = superlearner\nv_blocks = 4\nmode = convex_weights\nseed = 2\n"
     "candidate.1.kind = lasso\ncandidate.1.lambda = 0.2\n"
     "candidate.2.kind = mlp\ncandidate.2.hidden = 16\n",
     SuperLearner(candidates=(Lasso(lam=0.2), Mlp(hidden=(16,))), v_blocks=4,
                  mode="convex_weights", seed=2)),
], ids=["ridge", "lasso", "kernel-squared", "kernel-epsilon", "mlp", "superlearner"])
def test_every_key_section_parses_to_explicit_spec(tmp_path, section, expected):
    assert _parse_text(tmp_path, "[learner_m]\n" + section).learner_m == expected


def _run_fields(cfg):
    names = ("data_path", "schema", "splitter", "test_fraction", "k", "seed",
             "learner_m", "learner_ell", "algorithm", "score", "alpha",
             "sim_scenarios", "p_list", "n_list", "reps", "master_seed", "threads")
    return {name: getattr(cfg, name) for name in names}


def test_readme_example_config_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert _run_fields(_parse_text(tmp_path, example)) == {
        "data_path": "data.csv",
        "schema": ColumnSchema("y", "t", ("x1", "x2", "x3")),
        "splitter": "spss", "test_fraction": 0.2, "k": 2, "seed": 7,
        "learner_m": SuperLearner(
            candidates=(Ridge(lam=0.001), Lasso(lam=0.01), Mlp(hidden=(16,))),
            v_blocks=5),
        "learner_ell": Ridge(lam=0.001),
        "algorithm": "dml2", "score": "partialling_out", "alpha": 0.05,
        "sim_scenarios": ("s1",), "p_list": (20,), "n_list": (100, 1000),
        "reps": 200, "master_seed": 42, "threads": 2,
    }


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(example, scope)
    lo, hi, _ = scope["est"].ci
    assert lo < scope["est"].beta < hi


def test_benchmark_estimate_config_parses(tmp_path):
    # the run.ini that the estimate_random_16k benchmark workload writes
    covariates = ",".join(f"x{j + 1}" for j in range(20))
    text = (
        f"[data]\noutcome = y\ntreatment = t\ncovariates = {covariates}\n\n"
        "[split]\nmethod = random\nk = 2\nseed = 0\n\n"
        "[learner_m]\nkind = ridge\nlambda = 0.001\n\n"
        "[learner_ell]\nkind = ridge\nlambda = 0.001\n\n"
        "[dml]\nalgorithm = dml1\nscore = iv_type\n"
    )
    assert _run_fields(_parse_text(tmp_path, text)) == {
        "data_path": None,
        "schema": ColumnSchema("y", "t", tuple(f"x{j + 1}" for j in range(20))),
        "splitter": "random", "test_fraction": 0.2, "k": 2, "seed": 0,
        "learner_m": Ridge(lam=0.001), "learner_ell": Ridge(lam=0.001),
        "algorithm": "dml1", "score": "iv_type", "alpha": 0.05,
        "sim_scenarios": (), "p_list": (), "n_list": (), "reps": 100,
        "master_seed": 0, "threads": 1,
    }


def test_cli_import_leaves_scipy_stats_out():
    # the normal quantile is a port of scipy.special.ndtri; scipy.stats alone
    # would add about 300 modules to every command's start-up
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, dmlspss.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["dmlspss", "dmlspss.cli"])
def test_import_loads_no_scipy(module):
    # SciPy's distance module is loaded where a distance is computed, never at
    # start-up; nor is the process pool, which simulate imports for two workers
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys, {module}; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_random_fold_ridge_estimate_loads_no_scipy(tmp_path):
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=40, seed=2, noiseless=False)
    cfg = _base_config(tmp_path, csv_path).read_text().replace(
        "kind = zero", "kind = ridge\nlambda = 0.001")
    (tmp_path / "run.ini").write_text(cfg)
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; from dmlspss.cli import main; "
            f"rc = main(['--config', {str(tmp_path / 'run.ini')!r}, "
            f"'--out', {str(tmp_path / 'est.json')!r}, 'estimate']); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')), "
            "'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0 [] False"


def test_distance_commands_load_no_scipy_package(tmp_path):
    # split, energy and an SPSS-fold estimate compute distances with SciPy's
    # compiled module, loaded from its file: no scipy module, nor numpy.ma
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=40, seed=2, noiseless=False)
    cfg = _base_config(tmp_path, csv_path).read_text().replace(
        "method = random", "method = spss")
    (tmp_path / "run.ini").write_text(cfg)
    run, out = str(tmp_path / "run.ini"), tmp_path / "split_out"
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; from dmlspss.cli import main; "
            f"rc = [main(['--config', {run!r}, '--out', {str(out)!r}, 'split']), "
            f"main(['energy', {str(out / 'train.csv')!r}, {str(out / 'test.csv')!r}]), "
            f"main(['--config', {run!r}, '--out', {str(tmp_path / 'est.json')!r}, "
            "'estimate'])]; "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0] [] False"
