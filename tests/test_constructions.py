"""Generators: worked matrices, block extraction, divisibility tensors and
the correlation pipeline."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from mrw import constructions, ratlinalg
from mrw.constructions import (
    CorrelationSpec,
    DivTensorSpec,
    EdmSpec,
    FunctionFSpec,
    ScaledAntisymmetric,
    build_correlation,
    difference_matrix,
    divisibility_tensor,
    edm,
    flattening,
    offset_matrix,
    offset_square_matrix,
    outcome_distribution,
)
from mrw.errors import CapacityError, UnsupportedRankError, ValidationError
from mrw.numkit import antisym_spectral
from mrw.ratlinalg import RatMatrix, char_poly_exact, rank_exact


def test_edm_worked_values():
    assert edm(EdmSpec([1, 2, 3])) == RatMatrix.from_rows([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
    assert edm(EdmSpec([1, 2])) == RatMatrix.from_rows([[0, 1], [1, 0]])
    assert rank_exact(edm(EdmSpec([1, 2, 3, 4, 5]))) == 3


def test_edm_rejects_duplicates():
    with pytest.raises(ValidationError):
        EdmSpec([1, 2, 2])
    with pytest.raises(ValidationError, match="at least one"):
        EdmSpec.integers(-2000)


def test_edm_spec_keeps_integral_values_as_ints():
    spec = EdmSpec([Fraction(6, 2), "5", 1, Fraction(1, 2)])
    assert [type(v) for v in spec.values] == [int, int, int, Fraction]
    assert all(type(e) is int for e in edm(EdmSpec.integers(6)).entries)


def _pairwise_squares(values) -> list[Fraction]:
    """Oracle: (a_j - a_i)^2 by Fraction operators, row-major."""
    fr = [Fraction(v) for v in values]
    return [(b - a) ** 2 for a in fr for b in fr]


def _assert_edm_matches_pairwise(values):
    got, want = edm(EdmSpec(values)).entries, _pairwise_squares(values)
    assert list(got) == want
    assert list(map(str, got)) == list(map(str, want))
    # lowest terms: an integral square is an int, any other a Fraction
    assert all((type(e) is int) == (e.denominator == 1) for e in got)


# mixed signs; ints, and fractions whose denominators are pairwise coprime
# or share factors and repeat
_edm_values = st.lists(
    st.one_of(
        st.integers(-40, 40),
        st.builds(Fraction, st.integers(-40, 40), st.sampled_from([2, 3, 5, 7, 11])),
        st.builds(Fraction, st.integers(-40, 40), st.sampled_from([4, 6, 9, 12, 18])),
    ),
    min_size=1,
    max_size=12,
    unique=True,
)


@given(_edm_values)
def test_edm_over_q_matches_the_pairwise_formula(values):
    _assert_edm_matches_pairwise(values)


def test_edm_over_unit_fractions_matches_the_pairwise_formula():
    # 1/1..1/200: the lcm of all the denominators has 90 digits, while each
    # pair's difference has a denominator below 40,000
    _assert_edm_matches_pairwise([Fraction(1, k) for k in range(1, 201)])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: edm(EdmSpec.integers(1100)), id="edm-integers"),
        pytest.param(lambda: edm(EdmSpec([Fraction(1, k) for k in range(1, 1100)])), id="edm-values"),
        pytest.param(lambda: offset_matrix(FunctionFSpec(2, 44)), id="offset"),
        pytest.param(lambda: offset_square_matrix(FunctionFSpec(2, 20000)), id="offset-square"),
        pytest.param(lambda: flattening(FunctionFSpec(2, 20000), 1), id="flattening"),
    ],
)
def test_size_guards_refuse_before_building_any_entry(build):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_flattening_worked_matrices():
    spec = FunctionFSpec(2, 4)
    assert flattening(spec, 2) == RatMatrix.from_rows(
        [[0, 1, 4, 9], [1, 0, 1, 4], [4, 1, 0, 1], [9, 4, 1, 0]]
    )
    assert flattening(spec, 1) == RatMatrix.from_rows(
        [[0, 1, 4, 9, 1, 0, 1, 4], [4, 1, 0, 1, 9, 4, 1, 0]]
    )
    m0 = flattening(spec, 0)
    assert m0.dims == (1, 16)
    assert rank_exact(m0) == 1
    with pytest.raises(ValidationError):
        flattening(spec, 5)


@pytest.mark.parametrize("n, d", [(2, 4), (3, 4), (4, 6)])
def test_flattening_holds_ints_equal_to_the_fraction_matrix(n, d):
    spec = FunctionFSpec(n, d)
    h = spec.half_size
    fractions = [Fraction((i // h - i % h) ** 2) for i in range(n**d)]
    for k in range(d + 1):
        m = flattening(spec, k)
        assert all(type(e) is int for e in m.entries)
        assert m == RatMatrix(n**k, n ** (d - k), fractions)


@given(st.sampled_from([(2, 2), (2, 4), (3, 4), (4, 4), (2, 6), (3, 6), (2, 8)]), st.data())
def test_every_flattening_holds_the_entries_of_edm(nd, data):
    n, d = nd
    k = data.draw(st.integers(0, d))
    m = flattening(FunctionFSpec(n, d), k)
    assert m.dims == (n**k, n ** (d - k))
    assert m.entries == edm(EdmSpec(range(n ** (d // 2)))).entries


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
        for row_l in range(n ** (d // 2 - 1)):
            for i in range(n):
                for suffix_rank in range(n ** (d // 2)):
                    col_l = i * n ** (d // 2) + suffix_rank
                    assert left[row_l, col_l] == mid[row_l * n + i, suffix_rank]


def test_all_coefficients_nonnegative():
    for n, d in [(2, 4), (3, 4)]:
        assert all(e >= 0 for e in flattening(FunctionFSpec(n, d), 0).entries)


def test_offset_matrices_worked_values():
    spec = FunctionFSpec(2, 4)
    assert offset_square_matrix(spec) == RatMatrix.from_rows([[1], [9]])
    assert offset_matrix(spec) == RatMatrix.from_rows([[1], [3]])
    assert rank_exact(offset_matrix(FunctionFSpec(3, 4))) == 2
    with pytest.raises(ValidationError):
        offset_matrix(FunctionFSpec(2, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [4, 6])
def test_offset_square_matrix_squares_the_offsets_of_the_middle_row(n, d):
    spec = FunctionFSpec(n, d)
    base, square = offset_matrix(spec), offset_square_matrix(spec)
    assert square.dims == base.dims
    assert list(square.entries) == [x * x for x in base.entries]
    # row 0 of the middle flattening holds (c - 0)^2 at column c, and the
    # offset b*n + j sits at row b, column j - 1
    mid = flattening(spec, d // 2)
    assert square == RatMatrix(
        base.rows,
        base.cols,
        [mid[0, b * n + j] for b in range(base.rows) for j in range(1, n)],
    )


def _block(m: RatMatrix, rows, cols) -> RatMatrix:
    """The block of m on `rows` x `cols`, in the given order."""
    return RatMatrix.from_rows([[m[i, j] for j in cols] for i in rows])


def _spaced_block_indices(n: int, d: int, k: int) -> list[int]:
    """The crown indices inside the level-(d/2 -+ k) flattenings: the
    multiples p * n^k for p < n^(d/2-k)."""
    return [p * n**k for p in range(n ** (d // 2 - k))]


def test_spaced_block_is_distance_matrix_over_progression():
    # levels j <= d/2: every row, the embedded columns
    for n, d, k in [(2, 4, 1), (3, 4, 1), (2, 6, 2), (2, 4, 0)]:
        spec = FunctionFSpec(n, d)
        host = flattening(spec, d // 2 - k)
        block = _block(host, range(host.rows), _spaced_block_indices(n, d, k))
        assert block == edm(EdmSpec([i * n**k for i in range(n ** (d // 2 - k))]))


def _padded_tuple_ranks(n: int, d: int, k: int) -> list[int]:
    """Oracle: the 0-based lex rank of each (d/2-k)-tuple over 1..n, padded
    with k ones on both sides, in lex order of the unpadded tuple."""
    half = d // 2
    ranks = []
    for middle in itertools.product(range(1, n + 1), repeat=half - k):
        rank = 0
        for digit in (1,) * k + middle + (1,) * k:
            rank = rank * n + digit - 1
        ranks.append(rank)
    return ranks


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_spaced_block_indices_match_the_padded_tuple_ranks(n, d):
    for k in range(d // 2 + 1):
        assert _spaced_block_indices(n, d, k) == _padded_tuple_ranks(n, d, k)


def test_spaced_block_values_and_submatrix():
    assert _spaced_block_indices(2, 4, 0) == [0, 1, 2, 3]
    assert _spaced_block_indices(2, 4, 1) == [0, 2]
    assert _spaced_block_indices(2, 4, 2) == [0]
    for n, d in [(2, 4), (3, 4), (2, 6)]:
        s = FunctionFSpec(n, d)
        for k in range(d // 2 + 1):
            block = edm(EdmSpec([i * n**k for i in range(n ** (d // 2 - k))]))
            idx = _spaced_block_indices(n, d, k)
            low, high = flattening(s, d // 2 - k), flattening(s, d // 2 + k)
            # level d/2 - k: the embedded columns against every row; level
            # d/2 + k: the embedded rows against every column, where the
            # block appears without the stride
            assert _block(low, range(low.rows), idx) == block
            assert _block(high, idx, range(high.cols)) == edm(EdmSpec(range(len(idx))))
            # exhaustive check: each block column really occurs among host columns
            for bj, cj in enumerate(idx):
                column = [low[i, cj] for i in range(low.rows)]
                assert column == [block[i, bj] for i in range(block.rows)]


def test_divisibility_tensor_support():
    t = divisibility_tensor(DivTensorSpec(2, 3))
    ones = {idx for idx, e in zip(np.ndindex(*t.dims), t.entries) if e == 1}
    assert ones == {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)}
    assert len(ones) == 2 ** (3 - 1)
    perm = divisibility_tensor(DivTensorSpec(3, 2))
    rows = list(perm.mode_flattening(0).iter_rows())
    assert all(sum(r) == 1 for r in rows)
    assert all(sum(col) == 1 for col in zip(*rows))


def test_divisibility_capacity_guard():
    with pytest.raises(CapacityError):
        divisibility_tensor(DivTensorSpec(2, 21))


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


def test_correlation_spec_keeps_integral_values_as_ints():
    spec = CorrelationSpec(4, [Fraction(6, 2), "5", 1, Fraction(1, 2)])
    assert [type(v) for v in spec.values] == [int, int, int, Fraction]
    assert all(type(v) is int for v in CorrelationSpec(8).values)
    assert all(type(e) is int for e in difference_matrix(CorrelationSpec(8)).base.entries)


@given(
    st.sampled_from([2, 4, 8]).flatmap(
        lambda n: st.lists(st.fractions(max_denominator=9), min_size=n, max_size=n, unique=True)
    )
)
def test_correlation_scale_matches_the_direct_pair_square_sum(values):
    spec = CorrelationSpec(len(values), values)
    direct = sum(
        ((y - x) ** 2 for i, x in enumerate(values) for y in values[i + 1 :]), Fraction(0)
    )
    assert spec.scale_sq == Fraction(1, 2) / direct


_distinct_values = st.sampled_from([2, 4, 8]).flatmap(
    lambda n: st.lists(
        st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=9)),
        min_size=n,
        max_size=n,
        unique=True,
    )
)


@given(_distinct_values)
def test_outcome_distribution_is_the_scaled_distance_matrix(values):
    spec = CorrelationSpec(len(values), values)
    p, sq = outcome_distribution(spec), edm(EdmSpec(values))
    assert p.dims == sq.dims
    assert all(pe == spec.scale_sq * e for pe, e in zip(p.entries, sq.entries))
    assert p.entry_sum() == 1
    assert build_correlation(spec).p_matrix == p


def _sympy_char_poly(m: RatMatrix) -> list[Fraction]:
    """Oracle: sympy's characteristic polynomial of m, coefficients low to high."""
    rows = [[QQ(x.numerator, x.denominator) for x in row] for row in m.iter_rows()]
    high_to_low = DomainMatrix(rows, m.dims, QQ).charpoly()
    return [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(high_to_low)]


def _scaled(coeffs, scale_sq: Fraction) -> list[Fraction]:
    """det(xI - sB) from the coefficients of det(xI - B): coefficient k times
    s^(N-k); an antisymmetric B has no odd co-degree."""
    n = len(coeffs) - 1
    assert all(c == 0 for k, c in enumerate(coeffs) if (n - k) % 2)
    return [c * scale_sq ** ((n - k) // 2) for k, c in enumerate(coeffs)]


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("kind", ["integer", "rational"])
def test_rank_two_char_poly_matches_sympy_and_faddeev_leverrier(n, kind):
    # (k^2 + 1)/(k + 2) is increasing, so distinct; integral at k = 3
    values = None if kind == "integer" else [Fraction(k * k + 1, k + 2) for k in range(n)]
    cm = difference_matrix(CorrelationSpec(n, values))
    oracle = _sympy_char_poly(cm.base)
    assert oracle == list(char_poly_exact(cm.base).coeffs)
    for scale_sq in (cm.scale_sq, Fraction(3, 7)):
        poly = ScaledAntisymmetric(cm.base, scale_sq).char_poly()
        assert list(poly.coeffs) == _scaled(oracle, scale_sq)


def test_rank_four_base_has_no_closed_form_polynomial():
    rng = random.Random(5)
    n = 6
    u, v, w, z = (
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(4)
    )
    base = RatMatrix(
        n,
        n,
        [u[i] * v[j] - v[i] * u[j] + w[i] * z[j] - z[i] * w[j] for i in range(n) for j in range(n)],
    )
    assert rank_exact(base) == 4
    # the closed form holds up to rank 2; Faddeev-LeVerrier still agrees with
    # sympy on this base, but the scaled matrix refuses it
    assert list(char_poly_exact(base).coeffs) == _sympy_char_poly(base)
    with pytest.raises(UnsupportedRankError):
        ScaledAntisymmetric(base, Fraction(2, 3)).char_poly()


def test_correlation_char_poly_exact():
    for n in (2, 4, 8):
        corr = build_correlation(CorrelationSpec(n))
        poly = corr.c_matrix.char_poly()
        expected = [Fraction(0)] * (n + 1)
        expected[n] = Fraction(1)
        expected[n - 2] = Fraction(1, 2)
        assert list(poly.coeffs) == expected


def test_correlation_char_poly_never_runs_faddeev_leverrier(monkeypatch):
    def refuse(m):
        raise AssertionError("Faddeev-LeVerrier ran on a rank-2 base")

    # constructions reaches Faddeev-LeVerrier only through ratlinalg
    assert not hasattr(constructions, "char_poly_exact")
    monkeypatch.setattr(ratlinalg, "char_poly_exact", refuse)
    poly = build_correlation(CorrelationSpec(32)).c_matrix.char_poly()
    assert poly.coeffs == (0,) * 30 + (Fraction(1, 2), 0, 1)


def test_correlation_reconstruction_accuracy():
    for n in (4, 8, 16):
        corr = build_correlation(CorrelationSpec(n))
        assert corr.reconstruction_error <= 1e-9
        assert abs(corr.lambda_magnitude - (0.5) ** 0.5) < 1e-9


def test_correlation_spectral_phase_is_fixed():
    # |u0[0]| and |u0[N-1]| tie up to rounding; the phase rule must not
    # depend on which of the two rounds larger
    for n in (4, 8, 16, 32):
        u0 = antisym_spectral(difference_matrix(CorrelationSpec(n))).u0
        assert u0[0].real > 0 and abs(u0[0].imag) <= 1e-15


def test_difference_matrix_is_rank_two():
    cm = difference_matrix(CorrelationSpec(8))
    assert cm.base.is_antisymmetric()
    assert rank_exact(cm.base) == 2


def test_correlation_spectral_vectors_are_orthonormal():
    for n in (2, 4, 8, 16, 32):
        pair = antisym_spectral(difference_matrix(CorrelationSpec(n)))
        gram = np.array([[np.vdot(a, b) for b in (pair.u0, pair.u1)] for a in (pair.u0, pair.u1)])
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-9


def test_correlation_errors_match_a_direct_recomputation():
    for n in (2, 8, 32):
        corr = build_correlation(CorrelationSpec(n))
        c = corr.c_matrix.to_float()
        pair = antisym_spectral(corr.c_matrix)
        u0, u1 = pair.u0, pair.u1
        assert corr.lambda_magnitude == pair.lambda_magnitude
        rebuilt = 1j * corr.lambda_magnitude * (np.outer(u0, u0.conj()) - np.outer(u1, u1.conj()))
        assert corr.spectral_error == np.max(np.abs(rebuilt - c))
        dist = 0.5 * np.abs(np.outer(u0, np.conj(u0)) + np.outer(u1, -np.conj(u1))) ** 2
        p = np.array([[float(x) for x in row] for row in corr.p_matrix.iter_rows()])
        assert corr.reconstruction_error == np.max(np.abs(dist - p))
        assert corr.spectral_error <= 1e-9 and corr.reconstruction_error <= 1e-9
