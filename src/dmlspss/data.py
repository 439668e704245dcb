"""Dataset container, column standardization, and CSV input/output.

A :class:`Dataset` is the unit of all estimation: an outcome vector ``y``,
a treatment vector ``t``, and a covariate matrix ``x`` with one row per
observation.  Everything here is a pure function of its inputs; datasets
are immutable after construction.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DuplicateIndex,
    IndexOutOfRange,
    NonFinite,
    ParseError,
    SchemaError,
)

# Population standard deviations below this are treated as constant columns.
DEGENERATE_SCALE = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Outcome, treatment, and covariates for ``n`` observations.

    Invariants enforced at construction: matching lengths, n >= 2, p >= 1,
    all entries finite, and ``column_names``, when given, p + 2 distinct
    strings (outcome, treatment, covariates).
    """

    y: np.ndarray
    t: np.ndarray
    x: np.ndarray
    column_names: Optional[Sequence[str]] = None

    def __post_init__(self):
        y = _readonly(np.asarray(self.y, dtype=float).reshape(-1))
        t = _readonly(np.asarray(self.t, dtype=float).reshape(-1))
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d matrix")
        x = _readonly(x)
        if not (len(y) == len(t) == x.shape[0]):
            raise ValueError(
                f"length mismatch: y={len(y)}, t={len(t)}, x rows={x.shape[0]}"
            )
        if len(y) < 2:
            raise ValueError("need at least 2 observations")
        if x.shape[1] < 1:
            raise ValueError("need at least 1 covariate")
        for name, arr in (("y", y), ("t", t), ("x", x)):
            if not np.all(np.isfinite(arr)):
                raise NonFinite(f"non-finite entries in {name}")
        if self.column_names is not None:
            names = tuple(self.column_names)
            if (len(names) != x.shape[1] + 2 or len(set(names)) != len(names)
                    or not all(isinstance(v, str) for v in names)):
                raise SchemaError(
                    f"column_names must be {x.shape[1] + 2} distinct strings "
                    f"(outcome, treatment, {x.shape[1]} covariates), got {names}")
            object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class StandardizationReport:
    """Per-column means and population scales used to standardize a matrix."""

    means: np.ndarray
    scales: np.ndarray
    degenerate: np.ndarray  # bool per column; True where scale ~ 0


@dataclass(frozen=True)
class ColumnSchema:
    """Names of the outcome, treatment, and covariate columns in a CSV."""

    outcome: str
    treatment: str
    covariates: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        names = [self.outcome, self.treatment, *self.covariates]
        if len(set(names)) != len(names):
            raise SchemaError(f"schema names must be distinct, got {names}")
        if not self.covariates:
            raise SchemaError("schema needs at least one covariate column")

    @property
    def all_names(self) -> tuple[str, ...]:
        return (self.outcome, self.treatment, *self.covariates)


def standardize(m: np.ndarray) -> tuple[np.ndarray, StandardizationReport]:
    """Center each column to mean 0 and scale to population sd 1.

    Constant columns (population sd < 1e-12) are emitted as all zeros and
    flagged in the report instead of raising: downstream distance
    computations stay well-defined.

    Raises NonFinite on NaN/inf input.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if m.shape[0] < 2:
        raise ValueError("need at least 2 rows to standardize")
    if not np.all(np.isfinite(m)):
        raise NonFinite("non-finite entries in matrix")

    means = m.mean(axis=0)
    scales = m.std(axis=0)  # population (1/n) standard deviation
    degenerate = scales < DEGENERATE_SCALE

    safe = np.where(degenerate, 1.0, scales)
    out = (m - means) / safe
    out[:, degenerate] = 0.0
    return out, StandardizationReport(
        means=_readonly(means), scales=_readonly(safe), degenerate=degenerate.copy()
    )


def read_csv_matrix(path, columns=None, min_rows: int = 1) -> np.ndarray:
    """Read the named columns of a headed numeric CSV as a float matrix.

    ``columns`` gives the header names to read, in result order; None
    reads every column in file order.  Blank lines are skipped.  Raises
    SchemaError for a column missing from the header or named in it more
    than once, ParseError for ragged rows, non-numeric cells or fewer
    than ``min_rows`` data rows, and NonFinite for nan/inf literals; each
    names the file line and column.

    The header is read with the ``csv`` module.  The rows are first
    parsed by NumPy's C reader (``np.loadtxt``), every column of them;
    its matrix is used only when it is as wide as the header, has at
    least ``min_rows`` rows and holds finite values alone, and it then
    equals the ``csv`` module's bit for bit, since both convert cells
    with the interpreter's own string-to-float routine.  Any other file
    (quoted or ragged cells, text in a column not read, ``1_0``, a
    header alone) goes through the ``csv`` module row by row, which gives
    the result or the error.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row")
        if columns is None:
            names, positions = header, list(range(len(header)))
        else:
            names = tuple(columns)
            for name in names:
                if header.count(name) != 1:
                    where = "not in" if name not in header else "repeated in"
                    raise SchemaError(f"{path}: column {name!r} {where} header {header}")
            positions = [header.index(name) for name in names]

        table = _read_fast(fh, len(header), min_rows)
        if table is not None:
            # row-major like the matrix built below: a column-major copy
            # would change the order of later reductions, so their last bits
            return np.ascontiguousarray(table[:, positions])
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)  # the header, read above

        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise ParseError(
                    f"{path}: line {lineno} has {len(record)} cells, "
                    f"header has {len(header)}"
                )
            try:
                parsed = [float(record[j]) for j in positions]
            except ValueError:
                parsed = None
            if parsed is None or not all(map(math.isfinite, parsed)):
                _raise_bad_cell(path, lineno, [record[j] for j in positions], names)
            rows.append(parsed)

    if len(rows) < min_rows:
        raise ParseError(
            f"{path}: need at least {min_rows} data rows, got {len(rows)}"
        )
    return np.array(rows, dtype=float)


def _read_fast(lines, width: int, min_rows: int) -> Optional[np.ndarray]:
    """Every cell of the remaining ``lines``, parsed by ``np.loadtxt``, or
    None unless that gives a finite matrix ``width`` wide with at least
    ``min_rows`` rows.  Lines with no record (line ends alone, which the
    ``csv`` module skips too) are passed over first, so that input with no
    row never reaches ``np.loadtxt``, which warns on it."""
    first = next((line for line in lines if line.strip("\r\n")), None)
    if first is None:
        return None
    try:
        table = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                           comments=None, ndmin=2)
    except ValueError:
        return None
    ok = (table.shape[1] == width and table.shape[0] >= min_rows
          and np.isfinite(table).all())
    return table if ok else None


def _raise_bad_cell(path, lineno: int, cells, names) -> None:
    """Raise for the first cell of a row that is non-numeric or non-finite."""
    for name, raw in zip(names, cells):
        cell = raw.strip()
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}, column {name!r}: non-numeric cell {cell!r}"
            )
        if not math.isfinite(value):
            raise NonFinite(
                f"{path}: line {lineno}, column {name!r}: non-finite value {cell!r}"
            )


def load_csv(path, schema: ColumnSchema) -> Dataset:
    """Read a CSV file with a header row into a Dataset.

    Column order in the result follows the schema, not the file.  Raises
    SchemaError for missing or repeated columns, ParseError for non-numeric cells or
    ragged rows (identifying the offending row and column), and NonFinite
    for nan/inf literals.
    """
    table = read_csv_matrix(path, schema.all_names, min_rows=2)
    return Dataset(
        y=table[:, 0],
        t=table[:, 1],
        x=table[:, 2:],
        column_names=schema.all_names,
    )


def write_csv(path, d: Dataset) -> None:
    """Write a Dataset back to CSV in schema order (outcome, treatment, covariates)."""
    names = d.column_names or (
        "y",
        "t",
        *[f"x{j + 1}" for j in range(d.p)],
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(d.n):
            writer.writerow(
                [repr(float(d.y[i])), repr(float(d.t[i])),
                 *[repr(float(v)) for v in d.x[i]]]
            )


def subset_rows(d: Dataset, idx) -> Dataset:
    """Select rows by index, preserving the given order.

    Raises IndexOutOfRange or DuplicateIndex on bad index lists.
    """
    idx = np.asarray(idx, dtype=int).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= d.n):
        raise IndexOutOfRange(f"indices must lie in [0, {d.n}), got {idx}")
    if len(np.unique(idx)) != len(idx):
        raise DuplicateIndex("duplicate row indices in subset")
    return Dataset(
        y=d.y[idx], t=d.t[idx], x=d.x[idx], column_names=d.column_names
    )
