"""Dense tensors: mode flattenings and the exactness test, against numpy."""

from fractions import Fraction
from math import prod

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mrw.dtensor import DenseTensor

entries = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 7), 4])


@st.composite
def exact_tensors(draw):
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    size = prod(dims)
    values = draw(st.lists(entries, min_size=size, max_size=size))
    return DenseTensor(dims, values)


@given(exact_tensors())
def test_mode_flattening_matches_numpy_moveaxis(t):
    arr = np.array(t.values, dtype=object).reshape(t.dims)
    for m in range(t.order):
        oracle = np.moveaxis(arr, m, 0).reshape(t.dims[m], -1)
        flat = t.mode_flattening(m)
        assert flat.shape == oracle.shape
        assert list(flat.entries) == [Fraction(x) for x in oracle.ravel()]


@given(exact_tensors())
def test_iter_indices_is_numpy_row_major_order(t):
    assert list(t.iter_indices()) == list(np.ndindex(*t.dims))


def test_bool_entries_are_not_exact():
    assert not DenseTensor((2, 2), [True, 0, 0, 1]).is_exact()
    assert DenseTensor((2, 2), [Fraction(1), 0, 0, 1]).is_exact()
