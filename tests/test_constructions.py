"""Generators: worked matrices, the packing bijection, block extraction,
divisibility tensors and the correlation pipeline."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from mrw.constructions import (
    CorrelationSpec,
    DivTensorSpec,
    EdmSpec,
    FunctionFSpec,
    build_correlation,
    complete_unitary_columns,
    difference_matrix,
    divisibility_tensor,
    edm,
    flattening,
    offset_matrix,
    offset_square_matrix,
    outcome_distribution,
    pack_index,
    spaced_block_column_indices,
    spaced_distance_block,
    unpack_index,
)
from mrw.errors import CapacityError, ValidationError
from mrw.ratlinalg import RatMatrix, hadamard, rank_exact, submatrix


def test_edm_worked_values():
    assert edm(EdmSpec([1, 2, 3])) == RatMatrix.from_rows([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
    assert edm(EdmSpec([1, 2])) == RatMatrix.from_rows([[0, 1], [1, 0]])
    assert rank_exact(edm(EdmSpec([1, 2, 3, 4, 5]))) == 3


def test_edm_rejects_duplicates():
    with pytest.raises(ValidationError):
        EdmSpec([1, 2, 2])


def test_pack_index_examples():
    assert pack_index((1,) * 3, 2) == 1
    assert pack_index((2,) * 3, 2) == 8
    assert pack_index((1, 2), 2) == 2
    with pytest.raises(ValidationError):
        pack_index((0, 1), 2)


def test_pack_unpack_bijection_full_domain():
    for n, half in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        seen = set()
        for digits in itertools.product(range(1, n + 1), repeat=half):
            v = pack_index(digits, n)
            assert unpack_index(v, n, half) == digits
            seen.add(v)
        assert seen == set(range(1, n**half + 1))


def test_flattening_worked_matrices():
    spec = FunctionFSpec(2, 4)
    assert flattening(spec, 2) == RatMatrix.from_rows(
        [[0, 1, 4, 9], [1, 0, 1, 4], [4, 1, 0, 1], [9, 4, 1, 0]]
    )
    assert flattening(spec, 1) == RatMatrix.from_rows(
        [[0, 1, 4, 9, 1, 0, 1, 4], [4, 1, 0, 1, 9, 4, 1, 0]]
    )
    m0 = flattening(spec, 0)
    assert m0.shape == (1, 16)
    assert rank_exact(m0) == 1
    with pytest.raises(ValidationError):
        flattening(spec, 5)


def test_flattening_middle_is_squared_difference():
    for n, d in [(2, 4), (3, 4), (2, 6)]:
        spec = FunctionFSpec(n, d)
        mid = flattening(spec, d // 2)
        size = spec.half_size
        for i in range(size):
            for j in range(size):
                assert mid[i, j] == (j - i) ** 2


def test_flattening_block_law():
    # moving the split one left regroups the middle flattening's rows: entry
    # ((prefix), (i, suffix)) of the left flattening equals ((prefix, i), (suffix))
    for n, d in [(2, 4), (3, 4), (2, 6)]:
        spec = FunctionFSpec(n, d)
        mid = flattening(spec, d // 2)
        left = flattening(spec, d // 2 - 1)
        for prefix in itertools.product(range(1, n + 1), repeat=d // 2 - 1):
            for i in range(1, n + 1):
                for suffix_rank in range(n ** (d // 2)):
                    row_l = pack_index(prefix, n) - 1 if prefix else 0
                    col_l = (i - 1) * n ** (d // 2) + suffix_rank
                    row_m = pack_index(prefix + (i,), n) - 1
                    assert left[row_l, col_l] == mid[row_m, suffix_rank]


def test_all_coefficients_nonnegative():
    for n, d in [(2, 4), (3, 4)]:
        assert all(e >= 0 for e in flattening(FunctionFSpec(n, d), 0).entries)


def test_offset_matrices_worked_values():
    spec = FunctionFSpec(2, 4)
    assert offset_square_matrix(spec) == RatMatrix.from_rows([[1], [9]])
    assert offset_matrix(spec) == RatMatrix.from_rows([[1], [3]])
    assert hadamard(offset_matrix(spec), offset_matrix(spec)) == offset_square_matrix(spec)
    assert rank_exact(offset_matrix(FunctionFSpec(3, 4))) == 2
    with pytest.raises(ValidationError):
        offset_matrix(FunctionFSpec(2, 2))


def test_spaced_block_is_distance_matrix_over_progression():
    for n, d, k in [(2, 4, 1), (3, 4, 1), (2, 6, 2)]:
        spec = FunctionFSpec(n, d)
        m = n ** (d // 2 - k)
        step = n**k
        assert spaced_distance_block(spec, k) == edm(EdmSpec([i * step for i in range(m)]))


def test_spaced_block_values_and_submatrix():
    spec = FunctionFSpec(2, 4)
    assert spaced_distance_block(spec, 1) == RatMatrix.from_rows([[0, 4], [4, 0]])
    assert spaced_distance_block(spec, 2).shape == (1, 1)
    assert spaced_distance_block(spec, 2)[0, 0] == 0
    for n, d in [(2, 4), (3, 4), (2, 6)]:
        s = FunctionFSpec(n, d)
        for k in range(d // 2 + 1):
            block = spaced_distance_block(s, k)
            host = flattening(s, d // 2 - k)
            cols = spaced_block_column_indices(s, k)
            assert submatrix(host, list(range(host.rows)), cols) == block
            # exhaustive check: each block column really occurs among host columns
            for bj, cj in enumerate(cols):
                column = [host[i, cj] for i in range(host.rows)]
                assert column == [block[i, bj] for i in range(block.rows)]


def test_divisibility_tensor_support():
    t = divisibility_tensor(DivTensorSpec(2, 3))
    ones = {idx for idx in t.iter_indices() if t[idx] == 1}
    assert ones == {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)}
    assert len(ones) == 2 ** (3 - 1)
    perm = divisibility_tensor(DivTensorSpec(3, 2))
    rows = [[perm[(i, j)] for j in range(3)] for i in range(3)]
    assert all(sum(r) == 1 for r in rows)
    assert all(sum(col) == 1 for col in zip(*rows))


def test_divisibility_capacity_guard():
    with pytest.raises(CapacityError):
        DivTensorSpec(2, 21)


def test_correlation_forced_small_cases():
    p2 = outcome_distribution(CorrelationSpec(2))
    assert p2 == RatMatrix.from_rows([["0", "1/2"], ["1/2", "0"]])
    spec4 = CorrelationSpec(4)
    assert spec4.scale_sq == Fraction(1, 40)
    p4 = outcome_distribution(spec4)
    for x in range(4):
        for y in range(4):
            assert p4[x, y] == Fraction((y - x) ** 2, 40)
    assert p4.entry_sum() == 1


def test_correlation_spec_validation():
    with pytest.raises(ValidationError):
        CorrelationSpec(3)
    with pytest.raises(ValidationError):
        CorrelationSpec(4, [1, 1, 2, 3])


def test_correlation_char_poly_exact():
    for n in (2, 4, 8):
        corr = build_correlation(CorrelationSpec(n))
        poly = corr.c_matrix.char_poly()
        expected = [Fraction(0)] * (n + 1)
        expected[n] = Fraction(1)
        expected[n - 2] = Fraction(1, 2)
        assert list(poly.coeffs) == expected


def test_correlation_reconstruction_accuracy():
    for n in (4, 8, 16):
        corr = build_correlation(CorrelationSpec(n))
        assert corr.reconstruction_error <= 1e-9
        assert abs(corr.lambda_magnitude - (0.5) ** 0.5) < 1e-9


def test_difference_matrix_is_rank_two():
    cm = difference_matrix(CorrelationSpec(8))
    assert cm.base.is_antisymmetric()
    assert rank_exact(cm.base) == 2


def test_complete_unitary_columns():
    e1 = np.array([1, 0, 0, 0], dtype=complex)
    e2 = np.array([0, 1, 0, 0], dtype=complex)
    rep = complete_unitary_columns(e1, e2)
    assert rep.orthonormal and rep.extendable and rep.max_defect == 0
    bad = complete_unitary_columns(e1, e1)
    assert not bad.orthonormal
    corr = build_correlation(CorrelationSpec(8))
    rep8 = complete_unitary_columns(corr.u0, corr.u1)
    assert rep8.orthonormal and rep8.extendable and rep8.max_defect <= 1e-9
