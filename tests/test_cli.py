"""End-to-end tests of the command-line interface."""

import csv
import json

import numpy as np
import pytest

from dmlspss.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main, parse_config
from dmlspss.errors import ConfigError
from dmlspss.learners import Lasso, Ridge, SuperLearner
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


def test_split_rerun_is_identical(tmp_path):
    csv_path = tmp_path / "in.csv"
    _make_dataset_csv(csv_path, n=12, seed=5)
    cfg = _base_config(tmp_path, csv_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out_a), "split"]) == 0
    assert main(["--config", str(cfg), "--out", str(out_b), "split"]) == 0
    assert (out_a / "test.csv").read_text() == (out_b / "test.csv").read_text()
    assert (out_a / "train.csv").read_text() == (out_b / "train.csv").read_text()


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


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_energy_non_finite_cell_exits_3(tmp_path, capsys, cell):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_csv(a_path, ["c1", "c2"], [[0.0, 1.0], [cell, 2.0]])
    _write_csv(b_path, ["c1", "c2"], [[0.5, 1.5], [1.0, 0.0]])
    rc = main(["energy", str(a_path), str(b_path)])
    assert rc == EXIT_DATA
    assert "line 3, column 'c1': non-finite value" in capsys.readouterr().err


# --- config parsing ----------------------------------------------------------------

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
    ("[learner_m]\nkind = kernel\nloss = epsilon_insensitive\nc = -1\n",
     "epsilon-insensitive"),
    ("[learner_m]\nkind = mlp\nhidden = 0\n", "hidden"),
    ("[learner_m]\nkind = superlearner\nv_blocks = 1\n"
     "candidate.1.kind = ridge\n", "v_blocks"),
    ("[learner_m]\nkind = superlearner\ncandidate.1.kind = ridge\n"
     "candidate.1.lambda = -2\n", "lambda"),
    ("[dml]\nalpha = 1.5\n", "alpha"),
    ("[dml]\nalpha = 0\n", "alpha"),
    ("[dml]\nalpha = nan\n", "alpha"),
    ("[split]\nsp.max_iter = 40\n", "sp.max_iter"),
], ids=["ridge", "lasso", "kernel", "svr-loss", "mlp", "sl", "sl-candidate",
        "alpha-above", "alpha-zero", "alpha-nan", "dropped-sp-key"])
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


def test_missing_config_file_exit_code(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "nope.ini"), "estimate"])
    assert rc == EXIT_CONFIG


def test_bad_threads_env_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DMLSPSS_THREADS", "abc")
    cfg = _base_config(tmp_path, tmp_path / "unused.csv", SIM_EXTRA)
    rc = main(["--config", str(cfg), "simulate"])
    assert rc == EXIT_CONFIG
    assert "DMLSPSS_THREADS" in capsys.readouterr().err


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
