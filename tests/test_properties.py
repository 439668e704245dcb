"""Property tests: SPSS splits partition the rows, and the energy distance
obeys its axioms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlspss.data import Dataset
from dmlspss.support_points import (
    SpConfig,
    energy_two_sample,
    random_subset,
    spss_kfold,
    spss_split,
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
