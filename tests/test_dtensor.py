"""Dense tensors: mode flattenings against numpy, exactness at construction,
and the contract a tensor shares with a matrix (`dims` and `entries`)."""

from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrw.bounds import mr_bounds, support_pattern
from mrw.dtensor import DenseTensor
from mrw.errors import DimensionError, ParseError, ValidationError
from mrw.models import row_unit_factorization
from mrw.numkit import as_float_array, verify_nonneg_factorization
from mrw.ratlinalg import RatMatrix
from mrw.serialize import mr_report_to_obj, parse_matrix, parse_tensor

entries = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 7), 4])


@st.composite
def exact_tensors(draw):
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    size = prod(dims)
    values = draw(st.lists(entries, min_size=size, max_size=size))
    return DenseTensor(dims, values)


@given(exact_tensors())
def test_mode_flattening_matches_numpy_moveaxis(t):
    arr = np.array(t.entries, dtype=object).reshape(t.dims)
    for m in range(t.order):
        oracle = np.moveaxis(arr, m, 0).reshape(t.dims[m], -1)
        flat = t.mode_flattening(m)
        assert flat.dims == oracle.shape
        assert list(flat.entries) == [Fraction(x) for x in oracle.ravel()]


def test_inexact_entries_are_refused_when_built():
    for bad in (True, 0.5, None):
        with pytest.raises(ValidationError):
            DenseTensor((2, 2), [bad, 0, 0, 1])
        with pytest.raises(ValidationError):
            RatMatrix(2, 2, [bad, 0, 0, 1])
    t = DenseTensor((2, 2), ["1/2", "4/2", 0, Fraction(1)])
    assert t.entries == RatMatrix(2, 2, ["1/2", "4/2", 0, Fraction(1)]).entries
    assert t.entries == (Fraction(1, 2), 2, 0, 1)


def test_sizes_must_be_integers_in_both_constructors_and_the_parsers():
    for bad in (2.0, 2.9, True, "2", Fraction(2), None):
        with pytest.raises(DimensionError):
            RatMatrix(bad, 2, [1, 0, 0, 1])
        with pytest.raises(DimensionError):
            RatMatrix(2, bad, [1, 0, 0, 1])
        with pytest.raises(DimensionError):
            DenseTensor((bad, 2), [0, 1, 2, 3])
        with pytest.raises(ParseError):
            parse_matrix({"rows": bad, "cols": 2, "entries": ["1", "0", "0", "1"]})
        with pytest.raises(ParseError):
            parse_tensor({"dims": [2, bad], "entries": ["0", "1", "2", "3"]})
    # whatever operator.index reads is a size, and is kept as an int
    m = RatMatrix(np.int64(2), np.uint8(2), [1, 0, 0, 1])
    t = DenseTensor((np.int32(2), 2), [1, 0, 0, 1])
    assert m.dims == t.dims == (2, 2) and all(type(d) is int for d in m.dims + t.dims)
    assert m.transpose() == m
    for bad in (0, -1):
        with pytest.raises(DimensionError):
            RatMatrix(bad, 2, [])
        with pytest.raises(DimensionError):
            DenseTensor((2, bad), [])


nonneg_entries = st.sampled_from([0, 0, 1, 2, Fraction(1, 3), Fraction(5, 2)])


@st.composite
def matrix_entries(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return rows, cols, draw(st.lists(nonneg_entries, min_size=rows * cols, max_size=rows * cols))


@given(matrix_entries())
def test_a_matrix_and_its_order_2_tensor_agree(drawn):
    rows, cols, values = drawn
    m, t = RatMatrix(rows, cols, values), DenseTensor((rows, cols), values)
    assert m.dims == t.dims and m.entries == t.entries
    assert support_pattern(m) == support_pattern(t)
    rows_float = [[float(e) for e in row] for row in m.iter_rows()]
    assert np.array_equal(as_float_array(t), np.array(rows_float))
    assert np.array_equal(as_float_array(m), as_float_array(t))
    fact = row_unit_factorization(m)
    assert verify_nonneg_factorization(m, fact) == verify_nonneg_factorization(t, fact)
    assert verify_nonneg_factorization(t, fact).passed
    # the whole report, witness search included, is the matrix's
    assert mr_report_to_obj(mr_bounds(m)) == mr_report_to_obj(mr_bounds(t))
