"""Property tests: SPSS and random folds partition the rows, the exchange
polish picks the reference polish's rows, the energy distance obeys its
axioms, the covariance-update lasso follows the residual-update
reference sweep for sweep and its one-buffer loop is bitwise the loop
with a temporary per update, the stacked MLP fits equal one fit per loop
bit for bit, einsum's bias-gradient row sum is bitwise ``.sum``'s at
width >= 2, the CSV writer and reader
round-trip, the reader's np.loadtxt path and csv-module path agree, a
config file either parses or fails as a configuration error, and the
command line ends with a documented exit code, never a traceback."""

import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlspss.cli import (
    _LEARNERS,
    _LOSSES,
    _RUN_KEYS,
    RunConfig,
    _ini_keys,
    main,
    parse_config,
)
from dmlspss import data as data_mod
from dmlspss import learners
from dmlspss.data import ColumnSchema, Dataset, load_csv, standardize, write_csv
from dmlspss.errors import ConfigError, DataError, DmlSpssError, NonConvergence
from dmlspss.learners import Lasso, Mlp, _fit_lasso, fit, fit_many
from dmlspss.support_points import (
    SpConfig,
    _exchange_polish,
    energy_two_sample,
    random_kfold,
    random_subset,
    spss_kfold,
    spss_split,
)

from conftest import (
    _covariance_lasso,
    _reference_fit_mlp,
    _reference_polish,
    _residual_lasso,
)

FEW = settings(max_examples=30, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def _dataset(n, p, seed):
    rng = np.random.default_rng(seed)
    return Dataset(y=rng.normal(size=n), t=rng.normal(size=n), x=rng.normal(size=(n, p)))


def _cloud(n, p, seed):
    return np.random.default_rng(seed).normal(size=(n, p))


@FEW
@given(st.data(), st.integers(1, 3), seeds)
def test_spss_kfold_partitions_rows(data, p, seed):
    k = data.draw(st.integers(2, 5), label="k")
    n = data.draw(st.integers(2 * k, 40), label="n")
    plan = spss_kfold(_dataset(n, p, seed), k, SpConfig(seed=seed % 1000))
    rows = np.concatenate(plan.folds)
    assert np.array_equal(np.sort(rows), np.arange(n))
    sizes = [len(f) for f in plan.folds]
    assert len(sizes) == k and max(sizes) - min(sizes) <= 1


@FEW
@given(st.data(), st.sampled_from([1, 2, 5, 20]), seeds, st.booleans())
def test_exchange_polish_picks_the_reference_rows(data, p, seed, rounded):
    # few rows, where one-dimensional clouds often tie exactly, or more than
    # 256, with n = 1 (mod 256) drawn often: the row sums' order must hold there too
    n = data.draw(st.one_of(st.integers(2, 40), st.integers(257, 600),
                            st.sampled_from([257, 513])), label="n")
    m = data.draw(st.integers(1, n), label="m")  # m = n leaves nothing to swap in
    cloud = _cloud(n, p, seed)
    if rounded:  # a coarse grid: exact distance ties
        cloud = np.round(cloud, 1)
    cloud, _ = standardize(cloud)
    idx = random_subset(n, m, seed % 1000)
    rows, stats = _exchange_polish(cloud, idx, 30)
    ref_rows, ref = _reference_polish(cloud, idx, 30)
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(stats.init_idx, ref.init_idx)
    assert (stats.passes, stats.swaps, stats.converged) == (ref.passes, ref.swaps, ref.converged)
    assert (stats.init_energy, stats.energy) == (ref.init_energy, ref.energy)  # bitwise


@FEW
@given(st.data(), st.integers(1, 3), seeds)
def test_spss_split_partitions_rows_from_the_seeded_draw(data, p, seed):
    n = data.draw(st.integers(4, 40), label="n")
    n_test = data.draw(st.integers(2, n - 2), label="n_test")
    split_seed = seed % 1000
    res = spss_split(_dataset(n, p, seed), n_test / n, SpConfig(seed=split_seed))
    assert len(res.test_idx) == n_test and len(res.train_idx) == n - n_test
    assert np.array_equal(
        np.sort(np.concatenate([res.test_idx, res.train_idx])), np.arange(n))
    assert np.array_equal(res.polish.init_idx, random_subset(n, n_test, split_seed))


pairs = st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4), seeds)


@FEW
@given(pairs)
def test_energy_symmetric_and_non_negative(pair):
    m, n, p, seed = pair
    a, b = _cloud(m, p, seed), _cloud(n, p, seed + 1) + 0.5
    e = energy_two_sample(a, b)
    assert e == pytest.approx(energy_two_sample(b, a), abs=1e-12)
    assert e >= -1e-12


@FEW
@given(st.integers(1, 12), st.integers(1, 4), seeds)
def test_energy_zero_on_shuffled_equal_multisets(m, p, seed):
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(max(1, m // 2), p))
    a = pool[rng.integers(0, len(pool), size=m)]  # repeated rows included
    assert energy_two_sample(a, a[rng.permutation(m)]) == pytest.approx(0.0, abs=1e-12)


@FEW
@given(pairs)
def test_energy_invariant_to_translation_and_rotation(pair):
    m, n, p, seed = pair
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(m, p)), rng.normal(size=(n, p))
    shift = rng.normal(size=p) * 10
    rotation, _ = np.linalg.qr(rng.normal(size=(p, p)))
    e = energy_two_sample(a, b)
    assert energy_two_sample(a + shift, b + shift) == pytest.approx(e, abs=1e-9)
    assert energy_two_sample(a @ rotation, b @ rotation) == pytest.approx(e, abs=1e-9)


@FEW
@given(st.data(), seeds)
def test_random_kfold_partitions_rows(data, seed):
    n = data.draw(st.integers(2, 60), label="n")
    k = data.draw(st.integers(2, n), label="k")
    plan = random_kfold(n, k, seed)
    assert np.array_equal(np.sort(np.concatenate(plan.folds)), np.arange(n))
    sizes = [len(f) for f in plan.folds]
    assert len(sizes) == k and max(sizes) - min(sizes) <= 1


# --- lasso --------------------------------------------------------------------------

def _partial_fit(fit_lasso, spec, x, y):
    try:
        return fit_lasso(spec, x, y)
    except NonConvergence as e:
        return e.partial


@FEW
@given(st.data(), seeds)
def test_covariance_lasso_follows_the_residual_reference(data, seed):
    n = data.draw(st.integers(2, 60), label="n")
    p = data.draw(st.integers(1, 25), label="p")
    lam = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), label="lam")
    shared = data.draw(st.floats(0.0, 0.9), label="shared")  # column correlation
    constant = data.draw(st.lists(st.integers(0, p - 1), max_size=2, unique=True),
                         label="constant columns")
    value = data.draw(st.sampled_from([3.0, -0.5, 0.0, 0.25]), label="constant")
    sweeps = data.draw(st.integers(1, 40), label="sweeps")
    rng = np.random.default_rng(seed)
    x = (np.sqrt(1 - shared) * rng.normal(size=(n, p))
         + np.sqrt(shared) * rng.normal(size=(n, 1)))
    y = x[:, :3] @ np.array([1.5, -1.0, 0.5])[:min(p, 3)] + rng.normal(size=n)
    x[:, constant] = value  # exactly centred, so both lassos skip it
    spec = Lasso(lam=lam, max_iter=sweeps, tol=1e-300)
    ref = _partial_fit(_residual_lasso, spec, x, y)
    got = _partial_fit(fit, spec, x, y)
    bound = 1e-12 * (1 + np.max(np.abs(ref.coef)))
    assert np.max(np.abs(got.coef - ref.coef)) <= bound
    assert abs(got.intercept - ref.intercept) <= bound
    assert np.all(got.coef[constant] == 0.0)
    if len(constant) < p:  # some column moves in the first sweep
        for fit_lasso in (fit, _residual_lasso):
            with pytest.raises(NonConvergence):
                fit_lasso(Lasso(lam=0.0, max_iter=1, tol=1e-300), x, y)


def _lasso_outcome(fit_lasso, spec, x, y):
    """(error message or None, coefficient bytes, intercept bytes, dims)."""
    try:
        model, message = fit_lasso(spec, x, y), None
    except NonConvergence as exc:
        model, message = exc.partial, str(exc)
    return (message, model.coef.tobytes(), np.float64(model.intercept).tobytes(),
            model.training_dims)


@FEW
@given(st.data(), seeds)
def test_lasso_is_bitwise_the_covariance_reference(data, seed):
    # lam 0, constant and overflowing columns, correlated columns (whose
    # coefficients enter and shrink back to zero), and max_iter stops
    n = data.draw(st.integers(2, 60), label="n")
    p = data.draw(st.integers(1, 25), label="p")
    lam = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), label="lam")
    shared = data.draw(st.floats(0.0, 0.95), label="shared")  # column correlation
    constant = data.draw(st.lists(st.integers(0, p - 1), max_size=2, unique=True),
                         label="constant columns")
    signal = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3,
                                unique=True), label="signal columns")
    overflow = data.draw(st.integers(0, 3), label="overflow") == 3
    spec = Lasso(lam=lam, max_iter=data.draw(st.integers(1, 60), label="sweeps"),
                 tol=data.draw(st.sampled_from([1e-300, 1e-7]), label="tol"))
    rng = np.random.default_rng(seed)
    x = (np.sqrt(1 - shared) * rng.normal(size=(n, p))
         + np.sqrt(shared) * rng.normal(size=(n, 1)))
    y = x[:, signal] @ np.array([1.5, -1.0, 0.5])[:len(signal)] + rng.normal(size=n)
    x[:, constant] = 0.25
    if overflow:  # its square overflows: a NaN coefficient
        x[:, data.draw(st.integers(0, p - 1), label="overflowing column")] *= 1e200
    with np.errstate(all="ignore"):
        want = _lasso_outcome(_covariance_lasso, spec, x, y)
        assert _lasso_outcome(_fit_lasso, spec, x, y) == want


# --- MLP bias gradient --------------------------------------------------------------

@FEW
@given(st.integers(1, 12), st.one_of(st.sampled_from([77, 78, 128]), st.integers(1, 333)),
       st.integers(2, 64), seeds)
def test_einsum_row_sum_is_bitwise_the_axis_sum(f, m, h, seed):
    # _backprop's hidden-layer bias gradient; values over seven decades,
    # so a different summation order would show in the last bits
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(f, m, h)) * 10.0 ** rng.integers(-3, 4, size=(f, m, h))
    for delta in (d, d[0]):  # stacked, and one fit's
        assert (np.einsum("...mh->...h", delta).tobytes()
                == delta.sum(axis=-2).tobytes())


# --- CSV round trip -----------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


def _schema(p):
    return ColumnSchema("y", "t", tuple(f"x{j + 1}" for j in range(p)))


def _layers(model):
    return [a.tobytes() for layer in model.weights for a in layer]


@FEW
@given(st.data(), seeds)
def test_stacked_mlp_fits_equal_one_fit_per_loop(data, seed):
    # ragged and repeated row counts, the activations, depths and penalties,
    # and one task whose targets overflow: it fails alone, with the
    # reference's message and partial weights
    spec = Mlp(hidden=data.draw(st.sampled_from([(), (8,), (6, 5)]), label="hidden"),
               activation=data.draw(st.sampled_from(["relu", "tanh"]),
                                    label="activation"),
               l2=data.draw(st.sampled_from([0.0, 0.3]), label="l2"),
               step_size=data.draw(st.sampled_from([0.01, 0.2]), label="step_size"),
               epochs=data.draw(st.integers(1, 4), label="epochs"),
               batch=data.draw(st.integers(1, 20), label="batch"),
               seed=data.draw(st.integers(0, 5), label="seed"))
    rng = np.random.default_rng(seed)
    n = 40
    x = rng.normal(size=(n, 3))
    sizes = data.draw(st.lists(st.integers(2, n), min_size=1, max_size=6), label="sizes")
    tasks = [(np.sort(rng.choice(n, size=m, replace=False)), rng.normal(size=m))
             for m in sizes]
    diverging = data.draw(st.integers(-1, len(tasks) - 1), label="diverging")
    if diverging >= 0:
        rows, y = tasks[diverging]
        tasks[diverging] = (rows, y * 1e300)
    # one task per stack, two, or every task in one
    two = 2 * 8 * min(spec.batch, max(sizes)) * (x.shape[1] + sum(spec.hidden) + 1)
    stack_bytes = data.draw(st.sampled_from([1, two, learners._STACK_BYTES]),
                            label="stack_bytes")
    with mock.patch.object(learners, "_STACK_BYTES", stack_bytes):
        got = fit_many(spec, x, tasks)
    assert len(got) == len(tasks)
    for (rows, y), out in zip(tasks, got):
        try:
            want = _reference_fit_mlp(spec, x[rows], y)
        except NonConvergence as exc:
            assert type(out) is NonConvergence and str(out) == str(exc)
            assert _layers(out.partial) == _layers(exc.partial)
            continue
        assert _layers(out) == _layers(want)
        assert out.training_dims == want.training_dims
    if diverging >= 0:
        assert isinstance(got[diverging], NonConvergence)


@FEW
@given(st.data(), st.integers(2, 8), st.integers(1, 3))
def test_csv_round_trips_bitwise(data, n, p):
    cells = np.array(data.draw(st.lists(finite, min_size=n * (p + 2),
                                        max_size=n * (p + 2)))).reshape(n, p + 2)
    d = Dataset(y=cells[:, 0], t=cells[:, 1], x=cells[:, 2:])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_csv(path, d)
        back = load_csv(path, _schema(p))
    for a, b in ((d.y, back.y), (d.t, back.t), (d.x, back.x)):
        assert a.tobytes() == b.tobytes()


@FEW
@given(st.data(), st.integers(2, 6), st.integers(1, 3), st.sampled_from(["nan", "inf", "-inf"]))
def test_csv_non_finite_cell_raises(data, n, p, cell):
    row = data.draw(st.integers(0, n - 1), label="row")
    col = data.draw(st.integers(0, p + 1), label="col")
    d = Dataset(y=np.ones(n), t=np.ones(n), x=np.ones((n, p)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_csv(path, d)
        lines = path.read_text().splitlines()
        cells = lines[row + 1].split(",")
        cells[col] = cell
        lines[row + 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"line {row + 2}, column .*non-finite value"):
            load_csv(path, _schema(p))


# --- CSV reader: NumPy's C parser and the csv module agree -------------------------

# every spelling both parsers accept for one value
_SPELLINGS = (repr, "{:e}".format, "{:E}".format, "{:+.17g}".format, "{:.3e}".format,
              lambda v: f" {v!r} ")


def _read_both(path, columns, min_rows):
    """read_csv_matrix as it runs, and with its np.loadtxt path refused,
    each as the matrix or the exception raised; and whether the first run
    used np.loadtxt's matrix."""
    took, real = [], data_mod._read_fast

    def spy(*args):
        table = real(*args)
        took.append(table is not None)
        return table

    outcomes = []
    for stand_in in (spy, lambda *args: None):
        with mock.patch.object(data_mod, "_read_fast", stand_in):
            try:
                outcomes.append(data_mod.read_csv_matrix(path, columns, min_rows))
            except DmlSpssError as exc:
                outcomes.append(exc)
    return outcomes, took == [True]


def _assert_same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        assert (type(a), str(a)) == (type(b), str(b))
    else:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


@st.composite
def _csv_texts(draw):
    """A valid headed CSV: exponent forms, signs, padding, blank lines, LF
    or CRLF; with the header and the columns read in a random order."""
    width = draw(st.integers(1, 5))
    header = [f"c{j}" for j in range(width)]
    nl = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 6))):
        values = draw(st.lists(st.floats(-1e300, 1e300), min_size=width, max_size=width))
        lines += [""] * draw(st.integers(0, 1))
        lines.append(",".join(draw(st.sampled_from(_SPELLINGS))(v) for v in values))
    columns = draw(st.permutations(header))[: draw(st.integers(1, width))]
    return nl.join(lines) + nl * draw(st.integers(0, 2)), columns


@FEW
@given(_csv_texts(), st.integers(1, 2))
def test_csv_fast_path_equals_csv_module_bitwise(text_columns, min_rows):
    text, columns = text_columns
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode())
        (fast, slow), took_fast = _read_both(path, columns, min_rows)
    if isinstance(slow, Exception):  # a single row with min_rows = 2
        assert "data rows" in str(slow)
    else:
        assert took_fast
    _assert_same(fast, slow)


# rows that np.loadtxt refuses (or, for nan and inf, whose matrix is not
# used); the csv module gives the answer, an error or a matrix
_TRAPS = {
    "extra cell": "1,2,3",
    "trailing comma": "1,2,",
    "short row": "1",
    "hash in an unused column": "1,# note",
    "quoted cell": '"1",2',
    "whitespace-only line": "   ",
    "underscore": "1_0,2",
    "nan": "nan,2",
    "inf": "1,-inf",
}


@pytest.mark.parametrize("trap", _TRAPS)
@settings(max_examples=5, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
                     min_size=1, max_size=3),
       spell=st.sampled_from(_SPELLINGS), crlf=st.booleans())
def test_csv_trap_rows_give_the_csv_module_result(trap, rows, spell, crlf):
    nl = "\r\n" if crlf else "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        for where in range(len(rows) + 1):  # the trap as each row in turn
            lines = [f"{spell(a)},{spell(b)}" for a, b in rows]
            lines.insert(where, _TRAPS[trap])
            path.write_bytes((nl.join(["a,b", *lines]) + nl).encode())
            (fast, slow), took_fast = _read_both(path, ["a"], 1)
            assert not took_fast
            _assert_same(fast, slow)


def test_csv_without_rows_gives_the_csv_module_error(tmp_path):
    path = tmp_path / "d.csv"
    none = "need at least 1 data rows, got 0"
    for text, message in (("a,b\n", none), ("a,b", none), ("a,b\r\n\r\n\n", none),
                          ("a,b\n\n  \n", "line 3 has 1 cells, header has 2"),
                          ("", "empty file, expected a header row")):  # no header either
        path.write_text(text)
        (fast, slow), took_fast = _read_both(path, None, 1)
        assert not took_fast
        assert isinstance(fast, DataError)
        assert message in str(fast)
        _assert_same(fast, slow)


_WRONG_SHAPES = {  # CSV text -> (min_rows, the error's message)
    "a,b\n1,2,3\n4,5,6\n": (1, "line 2 has 3 cells, header has 2"),  # rows too wide
    "a,b,c\n1,2\n4,5\n": (1, "line 2 has 2 cells, header has 3"),  # ... or narrow
    "a,b\n1,2\n": (2, "need at least 2 data rows, got 1"),  # fewer rows than asked for
}


@pytest.mark.parametrize("text, min_rows", [(t, m) for t, (m, _) in _WRONG_SHAPES.items()])
def test_csv_matrix_of_the_wrong_shape_gives_the_csv_module_error(tmp_path, text, min_rows):
    path = tmp_path / "d.csv"
    path.write_text(text)
    (fast, slow), took_fast = _read_both(path, ["a"], min_rows)
    assert not took_fast
    assert isinstance(fast, DataError)
    assert _WRONG_SHAPES[text][1] in str(fast)
    _assert_same(fast, slow)


# --- config files -------------------------------------------------------------------

_SECTION_KEY = {field: key for key, (field, _) in _RUN_KEYS.items()}
names = st.text(st.sampled_from("abxyz_019"), min_size=1, max_size=4)
fractions = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
int_lists = st.lists(st.integers(1, 10**6), max_size=3).map(tuple)
_RUN_VALUES = {
    "data_path": st.none() | names.map(lambda s: s + ".csv"),
    "splitter": st.sampled_from(["spss", "random", "both"]),
    "test_fraction": fractions,
    "k": st.integers(2, 10**6),
    "seed": st.integers(0, 2**64),
    "algorithm": st.sampled_from(["dml1", "dml2"]),
    "score": st.sampled_from(["partialling_out", "iv_type"]),
    "alpha": fractions.filter(lambda a: 1.0 - a / 2.0 < 1.0),  # finite z_(1-alpha/2)
    "sim_scenarios": st.lists(st.sampled_from(["s1", "s2"]), max_size=2).map(tuple),
    "p_list": int_lists,
    "n_list": int_lists,
    "reps": st.integers(2, 10**6),
    "master_seed": st.integers(-(2**64), 2**64),
    "threads": st.integers(1, 64),
}


def _ini(entries) -> str:
    """INI text from ((section, key), value) pairs; tuples become comma lists."""
    sections = {}
    for (section, key), value in entries:
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


def _parse_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(text)
        return parse_config(path)


@FEW
@given(st.fixed_dictionaries({}, optional=_RUN_VALUES),
       st.lists(names, min_size=3, max_size=5, unique=True))
def test_valid_run_settings_round_trip_through_ini(values, columns):
    values = {k: v for k, v in values.items() if v is not None}
    outcome, treatment, *covariates = columns
    values.update(outcome=outcome, treatment=treatment, covariates=tuple(covariates))
    expected = RunConfig(**values)
    entries = [(_SECTION_KEY[field], value) for field, value in values.items()]
    assert _parse_text(_ini(entries)) == expected


# per key: values that it accepts on their own (the column names may still
# collide); any key may instead get one from _ODD, which most keys reject
_ODD = ["", ",", "-3", "nan", "1e400", "abc", "y,y"]
_RUN_VALID = {
    ("data", "path"): ["data.csv"],
    ("data", "outcome"): ["y"],
    ("data", "treatment"): ["t", "y"],
    ("data", "covariates"): ["x1,x2", "x1, ,x2", "t"],
    ("split", "method"): ["spss", "random", "Both"],
    ("split", "test_fraction"): ["0.2"],
    ("split", "k"): ["2", "5"],
    ("split", "seed"): ["0", "7"],
    ("dml", "algorithm"): ["dml1", "DML2"],
    ("dml", "score"): ["iv_type", "partialling_out"],
    ("dml", "alpha"): ["0.05", "0.5"],
    ("simulate", "scenario"): ["s1", "s1,s2"],
    ("simulate", "p_list"): ["20", "1,5"],
    ("simulate", "n_list"): ["100", "10,1000"],
    ("simulate", "reps"): ["200", "2"],
    ("simulate", "master_seed"): ["42", "-1"],
    ("runtime", "threads"): ["2", "1"],
}
_LEARNER_VALID = {  # kind -> its keys' accepted values
    "ridge": {"lambda": ["0.1", "0"]},
    "lasso": {"lambda": ["0.1"], "tol": ["1e-6"], "max_iter": ["50"]},
    "kernel": {"bandwidth": ["0.5"], "lambda": ["2"], "loss": ["epsilon_insensitive"],
               "epsilon": ["0.1"], "max_iter": ["40"]},
    "mlp": {"hidden": ["16", "8,4"], "activation": ["relu", "TANH"],
            "step_size": ["0.01"], "epochs": ["5"], "batch": ["16"], "seed": ["3"],
            "l2": ["0.1"]},
    "superlearner": {"candidate.1.kind": ["ridge"], "candidate.1.lambda": ["0.5"],
                     "candidate.2.kind": ["mlp", "zero"], "v_blocks": ["3"],
                     "mode": ["selector", "convex_weights"], "seed": ["1"],
                     "cv_splitter": ["random", "spss"]},
    "zero": {},
}
_NAMES = ("outcome", "treatment", "covariates")


def _draw_value(data, valid):
    return data.draw(st.sampled_from(_ODD if data.draw(st.integers(0, 11)) == 0 else valid))


@FEW
@given(st.data())
def test_any_config_parses_or_is_a_config_error(data):
    assert set(_RUN_VALID) == set(_RUN_KEYS)
    entries = []
    for section in sorted({s for s, _ in _RUN_VALID}):
        if data.draw(st.booleans(), label=section):
            # the column names come together: one alone is an error
            entries += [(key, _draw_value(data, valid))
                        for key, valid in _RUN_VALID.items() if key[0] == section
                        and (key[1] in _NAMES or data.draw(st.integers(0, 3)))]
    for section in ("learner_m", "learner_ell"):
        if data.draw(st.booleans(), label=section):
            kind = data.draw(st.sampled_from(sorted(_LEARNER_VALID)))
            entries.append(((section, "kind"), kind))
            entries += [((section, key), _draw_value(data, valid))
                        for key, valid in _LEARNER_VALID[kind].items()
                        if data.draw(st.booleans())]
    try:
        _parse_text(_ini(entries))
    except ConfigError:
        pass


# --- main on fuzzed settings and data -----------------------------------------------

_VALUES = {  # value kind or field -> (settings in range, settings out of it)
    int: (["2", "3", "5"], ["-1", "0", "1", "", "1.5"]),
    float: (["0.2", "0.5", "1"], ["nan", "inf", "-inf", "-1", "0", "1e-17", "1e300"]),
    "splitter": (["spss", "random"], ["both"]),
    "algorithm": (["dml1", "dml2"], ["dml9"]),
    "score": (["partialling_out", "iv_type"], ["abc"]),
    "sim_scenarios": (["s1", "s2"], ["s3"]),
    "activation": (["relu", "tanh"], ["sigmoid"]),
    "mode": (["selector", "convex_weights"], ["abc"]),
    "cv_splitter": (["random", "spss"], ["both"]),
    "hidden": (["4", "3,2"], ["0"]),
    "epochs": (["1", "3"], ["0"]),  # always set, so an MLP fit stays fast
}
_FUZZ_KINDS = ("ridge", "lasso", "kernel", "mlp", "zero")


def _fuzz_learner(data, prefix, kinds):
    """A learner's ``kind`` entry and slots ``(key, field, value kind)`` for
    its float fields, its MLP ``epochs`` and some of its other fields."""
    kind = data.draw(st.sampled_from(kinds), label=f"{prefix}kind")
    keys = {k: f for k, f in _ini_keys(_LEARNERS[kind]).items()
            if k not in ("candidates", "loss", "fn")}
    fixed, slots = [(f"{prefix}kind", kind)], []
    if kind == "kernel" and data.draw(st.booleans(), label=f"{prefix}loss"):
        fixed.append((f"{prefix}loss", "epsilon_insensitive"))
        keys.update(_ini_keys(_LOSSES["epsilon_insensitive"]))
    if kind == "superlearner":
        for tag in range(1, data.draw(st.integers(1, 2)) + 1):
            more_fixed, more_slots = _fuzz_learner(
                data, f"{prefix}candidate.{tag}.", _FUZZ_KINDS)
            fixed, slots = fixed + more_fixed, slots + more_slots
    for key, f in keys.items():
        if (key == "epochs" or isinstance(f.default, float)
                or data.draw(st.booleans(), label=f"{prefix}{key} set")):
            slots.append((f"{prefix}{key}", f.name, type(f.default)))
    return fixed, slots


def _raise_on_constant(name):
    raise AssertionError(f"output holds {name}")


def _main_dataset(n, p, seed, scale=1.0, constant_t=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * scale
    t = np.ones(n) if constant_t else x[:, 0] + rng.normal(size=n)
    return Dataset(y=0.5 * t + x.sum(axis=1) + rng.normal(size=n), t=t, x=x)


def _data_entries(p):
    return [(("data", "outcome"), "y"), (("data", "treatment"), "t"),
            (("data", "covariates"), ",".join(f"x{j + 1}" for j in range(p)))]


def _run_main(d, entries, command):
    """Run ``main`` on ``d`` written as a CSV and ``entries`` as its config;
    return the exit code and, on success, the JSON it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_csv(tmp / "d.csv", d)
        (tmp / "run.ini").write_text(_ini(entries))
        out = tmp / ("est.json" if command == "estimate" else "split")
        rc = main(["--config", str(tmp / "run.ini"), "--out", str(out),
                   command, str(tmp / "d.csv")])
        if rc != 0:
            return rc, None
        if command == "split":
            out = out / "split.json"
        return rc, json.loads(out.read_text(), parse_constant=_raise_on_constant)


@FEW
@given(st.data(), st.integers(4, 60), st.integers(1, 3), seeds,
       st.sampled_from(["estimate", "split"]))
def test_main_exits_with_a_code_never_a_traceback(data, n, p, seed, command):
    """Every setting is in range but at most one, which may be nan, inf or
    out of range; ``main`` returns a documented code and prints no NaN."""
    d = _main_dataset(n, p, seed, data.draw(st.sampled_from([1.0, 1e-3, 1e3])),
                      data.draw(st.integers(0, 3), label="constant t") == 0)
    entries = _data_entries(p)
    slots = []
    for section in ("learner_m", "learner_ell"):
        fixed, more = _fuzz_learner(data, "", _FUZZ_KINDS + ("superlearner",))
        entries += [((section, key), value) for key, value in fixed]
        slots += [((section, key), field, kind) for key, field, kind in more]
    slots += [(key, field, kind) for key, (field, kind) in _RUN_KEYS.items()
              if key[0] != "data" and data.draw(st.integers(0, 3), label=str(key)) == 0]
    # float settings first: the odd-slot draw leans to small indices, and
    # floats are where nan and inf can pass a range check
    slots.sort(key=lambda slot: slot[2] is not float)
    # the slot that gets an odd setting; a negative draw leaves all in range
    odd = data.draw(st.integers(-1 - len(slots), len(slots) - 1), label="odd slot")
    for i, (key, field, kind) in enumerate(slots):
        kind = kind[0] if isinstance(kind, tuple) else kind
        valid, bad = _VALUES[field] if field in _VALUES else _VALUES[kind]
        entries.append((key, data.draw(st.sampled_from(bad if i == odd else valid),
                                       label=str(key))))
    rc, record = _run_main(d, entries, command)
    assert rc in (0, 2, 3, 4)
    if rc == 0 and command == "estimate":
        assert all(np.isfinite([record["beta"], record["se"], *record["ci"]]))


def test_main_diverging_mlp_exits_4_with_one_line(capsys):
    """The MLP overflow path through the same harness: drawn examples reach
    it only rarely, since ``step_size = 1e300`` is one odd setting of many."""
    entries = _data_entries(2) + [
        (("learner_m", "kind"), "mlp"), (("learner_m", "step_size"), "1e300"),
        (("learner_ell", "kind"), "ridge")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _ = _run_main(_main_dataset(40, 2, seed=1), entries, "estimate")
    assert rc == 4
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numeric error: mlp training diverged")
