"""Tests for the dataset container, standardization, and CSV I/O."""

import numpy as np
import pytest

from dmlspss.data import (
    ColumnSchema,
    Dataset,
    load_csv,
    standardize,
    subset_rows,
    write_csv,
)
from dmlspss.errors import DataError


def test_standardize_already_standardized_column_is_fixed_point():
    out, report = standardize(np.array([[-1.0], [1.0]]))
    assert np.allclose(out, [[-1.0], [1.0]], atol=1e-12)
    assert abs(report.means[0]) < 1e-12
    assert abs(report.scales[0] - 1.0) < 1e-12
    assert not report.degenerate[0]


def test_standardize_shifts_and_scales():
    out, report = standardize(np.array([[0.0], [2.0]]))
    assert np.allclose(out, [[-1.0], [1.0]], atol=1e-12)
    assert report.means[0] == pytest.approx(1.0)
    assert report.scales[0] == pytest.approx(1.0)


def test_standardize_degenerate_column_zeroed_and_flagged():
    out, report = standardize(np.array([[5.0], [5.0]]))
    assert np.all(out == 0.0)
    assert report.degenerate[0]


def test_standardize_output_moments():
    rng = np.random.default_rng(0)
    m = rng.normal(loc=3.0, scale=2.5, size=(40, 4))
    out, _ = standardize(m)
    assert np.all(np.abs(out.mean(axis=0)) < 1e-10)
    assert np.all(np.abs(out.std(axis=0) - 1.0) < 1e-10)


def test_standardize_idempotent_and_invertible():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(25, 3)) * [1.0, 10.0, 0.01] + [0.0, -4.0, 2.0]
    out, report = standardize(m)
    again, _ = standardize(out)
    assert np.max(np.abs(again - out)) < 1e-10
    recovered = out * report.scales + report.means
    assert np.max(np.abs(recovered - m)) < 1e-10


def test_standardize_rejects_non_finite():
    with pytest.raises(DataError, match="non-finite entries in matrix"):
        standardize(np.array([[1.0], [np.nan]]))


@pytest.mark.parametrize("build, match", [
    (lambda: Dataset(y=[1.0, 2.0], t=[1.0, 2.0], x=[1.0, 2.0]), "x must be a 2-d matrix"),
    (lambda: Dataset(y=[1.0, 2.0], t=[1.0, 2.0], x=np.ones((2, 0))),
     "need at least 1 covariate"),
    (lambda: standardize(np.ones(3)), "expected a 2-d matrix"),
    (lambda: standardize(np.ones((1, 2))), "need at least 2 rows to standardize"),
], ids=["dataset-1d-x", "dataset-no-covariate", "standardize-1d", "standardize-one-row"])
def test_dataset_and_standardize_reject_bad_shapes(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(y=[1.0], t=[1.0], x=[[1.0]])  # n < 2
    with pytest.raises(ValueError):
        Dataset(y=[1.0, 2.0], t=[1.0], x=[[1.0], [2.0]])
    with pytest.raises(DataError, match="non-finite entries in y"):
        Dataset(y=[1.0, np.inf], t=[0.0, 1.0], x=[[1.0], [2.0]])
    d = Dataset(y=[1.0, 2.0], t=[0.0, 1.0], x=[[1.0, 2.0], [3.0, 4.0]])
    assert d.n == 2 and d.p == 2
    with pytest.raises(ValueError):
        d.y[0] = 99.0  # immutable


SCHEMA = ColumnSchema(outcome="y", treatment="t", covariates=("x1", "x2"))


def _write(tmp_path, text, name="in.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_dimensions_and_order(tmp_path):
    path = _write(tmp_path, "t,x1,y,x2\n1,2,3,4\n5,6,7,8\n9,10,11,12\n")
    d = load_csv(path, SCHEMA)
    assert d.n == 3 and d.p == 2
    # column order follows the schema, not the file
    assert np.allclose(d.y, [3, 7, 11])
    assert np.allclose(d.t, [1, 5, 9])
    assert np.allclose(d.x[:, 0], [2, 6, 10])


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "y,t,x1\n1,2,3\n4,5,6\n")
    schema = ColumnSchema(outcome="y", treatment="t", covariates=("w",))
    with pytest.raises(DataError, match="column 'w' not in header"):
        load_csv(path, schema)


def test_load_csv_repeated_column_name(tmp_path):
    path = _write(tmp_path, "y,t,x1,x1\n1,2,3,4\n5,6,7,8\n")
    schema = ColumnSchema(outcome="y", treatment="t", covariates=("x1",))
    with pytest.raises(DataError, match="'x1' repeated in header"):
        load_csv(path, schema)
    # a repeated name that is not requested is never read
    other = _write(tmp_path, "y,t,x1,z,z\n1,2,3,4,5\n6,7,8,9,10\n", "other.csv")
    assert load_csv(other, schema).n == 2


def test_load_csv_bad_cell_identifies_row_and_column(tmp_path):
    path = _write(tmp_path, "y,t,x1,x2\n1,2,3,4\n5,6,abc,8\n")
    with pytest.raises(DataError, match="line 3.*'x1'.*'abc'"):
        load_csv(path, SCHEMA)


def test_load_csv_ragged_row(tmp_path):
    path = _write(tmp_path, "y,t,x1,x2\n1,2,3,4\n5,6,7\n")
    with pytest.raises(DataError, match="line 3 has 3 cells, header has 4"):
        load_csv(path, SCHEMA)


def test_load_csv_non_finite(tmp_path):
    path = _write(tmp_path, "y,t,x1,x2\n1,2,3,4\nnan,6,7,8\n")
    with pytest.raises(DataError, match="line 3, column 'y': non-finite value 'nan'"):
        load_csv(path, SCHEMA)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    d = Dataset(
        y=rng.normal(size=5),
        t=rng.normal(size=5),
        x=rng.normal(size=(5, 2)),
        column_names=SCHEMA.all_names,
    )
    path = tmp_path / "out.csv"
    write_csv(path, d)
    back = load_csv(path, SCHEMA)
    assert np.array_equal(back.y, d.y)
    assert np.array_equal(back.t, d.t)
    assert np.array_equal(back.x, d.x)


@pytest.mark.parametrize("names", [
    ("y", "t"),                      # p=2 needs four names
    ("y", "t", "x1", "x2", "x3"),
    ("y", "t", "x1", "x1"),
    ("y", "t", "x1", 2),
], ids=["short", "long", "repeated", "not-a-string"])
def test_dataset_rejects_column_names_that_do_not_fit(names):
    # write_csv would put this header over rows of another width
    with pytest.raises(DataError, match="4 distinct strings"):
        Dataset(y=[1.0, 2.0], t=[3.0, 4.0], x=[[1.0, 2.0], [3.0, 4.0]],
                column_names=names)


def test_dataset_keeps_column_names_as_a_tuple():
    d = Dataset(y=[1.0, 2.0], t=[3.0, 4.0], x=[[1.0], [2.0]],
                column_names=["out", "treat", "z"])
    assert d.column_names == ("out", "treat", "z")


def test_subset_rows_identity_and_permutation():
    d = Dataset(y=[1, 2, 3], t=[4, 5, 6], x=[[1.0], [2.0], [3.0]])
    same = subset_rows(d, [0, 1, 2])
    assert np.array_equal(same.y, d.y)
    flipped = subset_rows(d, [2, 0])
    assert np.allclose(flipped.y, [3, 1])
    assert flipped.p == d.p


def test_subset_rows_errors():
    d = Dataset(y=[1, 2, 3], t=[4, 5, 6], x=[[1.0], [2.0], [3.0]])
    with pytest.raises(DataError, match="duplicate row indices"):
        subset_rows(d, [0, 0])
    with pytest.raises(DataError, match=r"must lie in \[0, 3\)"):
        subset_rows(d, [0, 3])
    # floats and booleans are not truncated or read as 0 and 1
    with pytest.raises(DataError, match="must be integers, got dtype float64"):
        subset_rows(d, [0.9, 1.7])
    with pytest.raises(DataError, match="must be integers, got dtype bool"):
        subset_rows(d, [True, False, True])
    with pytest.raises(ValueError, match="need at least 2 observations"):
        subset_rows(d, [])


def test_subset_rows_complement_partition():
    rng = np.random.default_rng(3)
    d = Dataset(y=rng.normal(size=10), t=rng.normal(size=10),
                x=rng.normal(size=(10, 2)))
    idx = np.array([1, 4, 7])
    comp = np.setdiff1d(np.arange(10), idx)
    part_a = subset_rows(d, idx)
    part_b = subset_rows(d, comp)
    stacked = np.sort(np.concatenate([part_a.y, part_b.y]))
    assert np.allclose(stacked, np.sort(d.y))
