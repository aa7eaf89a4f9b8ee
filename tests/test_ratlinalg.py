"""Exact linear algebra: worked values plus randomized cross-checks against
independent oracles (plain fraction Gaussian elimination, cofactor expansion,
principal-minor sums, sympy)."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from mrw.errors import CapacityError, DimensionError, ValidationError
from mrw.ratlinalg import (
    RatMatrix,
    char_poly_exact,
    det_exact,
    hadamard,
    kronecker,
    rank_exact,
    submatrix,
    trace,
)


def naive_rank(m: RatMatrix) -> int:
    """Oracle: textbook Gauss-Jordan over Fractions (divides by pivots,
    unlike the fraction-free production path)."""
    work = [list(row) for row in m.iter_rows()]
    rank = 0
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        work[rank] = [x / pv for x in work[rank]]
        for r in range(m.rows):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def naive_det(m: RatMatrix) -> Fraction:
    """Oracle: cofactor expansion along the first row."""
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = RatMatrix(
            n - 1,
            n - 1,
            [m[i, c] for i in range(1, n) for c in range(n) if c != j],
        )
        total += (-1) ** j * m[0, j] * naive_det(minor)
    return total


def random_matrix(rng: random.Random, rows: int, cols: int, span: int = 6) -> RatMatrix:
    return RatMatrix(
        rows,
        cols,
        [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(rows * cols)],
    )


def test_rank_worked_values():
    assert rank_exact(RatMatrix.from_rows([[0, 1, 4], [1, 0, 1], [4, 1, 0]])) == 3
    assert rank_exact(RatMatrix.identity(3)) == 3
    assert rank_exact(RatMatrix.zeros(4, 4)) == 0


def test_rank_matches_naive_elimination():
    rng = random.Random(101)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank_exact(m) == naive_rank(m)


def test_rank_at_most_min_dimension():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        assert rank_exact(random_matrix(rng, rows, cols)) <= min(rows, cols)


def test_rank_invariant_under_permutations():
    rng = random.Random(55)
    for _ in range(20):
        m = random_matrix(rng, 5, 5)
        base = rank_exact(m)
        rp = list(range(5))
        cp = list(range(5))
        rng.shuffle(rp)
        rng.shuffle(cp)
        permuted = submatrix(m, rp, cp)
        assert rank_exact(permuted) == base


def test_rank_deficient_integer_matrix():
    # two identical rows plus a multiple: rank collapses
    m = RatMatrix.from_rows([[1, 2, 3], [1, 2, 3], [2, 4, 6]])
    assert rank_exact(m) == 1


def test_det_worked_values():
    assert det_exact(RatMatrix.from_rows([[5]])) == 5
    assert det_exact(RatMatrix.from_rows([[0, 1], [-1, 0]])) == 1
    assert det_exact(RatMatrix.from_rows([[0, 1], [1, 0]])) == -1


def test_det_requires_square():
    with pytest.raises(DimensionError):
        det_exact(RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_matches_cofactor_expansion():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        assert det_exact(m) == naive_det(m)


@st.composite
def planted_deficient_matrices(draw, max_size=8, square=False):
    """Rational matrices up to ``max_size`` a side, square or rectangular,
    with repeated or zero rows and columns planted to force rank deficiency,
    and zero entries planted to force row swaps and zero multipliers in the
    elimination.  Denominators up to 12 give the rows different scales."""
    rows = draw(st.integers(1, max_size))
    cols = rows if square or draw(st.booleans()) else draw(st.integers(1, max_size))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(["zero-entry", "repeat-row", "zero-row", "repeat-col", "zero-col"])
        )
        i = draw(st.integers(0, rows - 1))
        j = draw(st.integers(0, cols - 1))
        if kind == "zero-entry":
            data[i][j] = Fraction(0)
        elif kind == "repeat-row":
            data[i] = list(data[draw(st.integers(0, rows - 1))])
        elif kind == "zero-row":
            data[i] = [Fraction(0)] * cols
        elif kind == "repeat-col":
            src = draw(st.integers(0, cols - 1))
            for row in data:
                row[j] = row[src]
        else:
            for row in data:
                row[j] = Fraction(0)
    return RatMatrix.from_rows(data)


def to_sympy(m: RatMatrix) -> sympy.Matrix:
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.iter_rows()]
    )


def to_fraction(value: sympy.Rational) -> Fraction:
    return Fraction(int(value.p), int(value.q))


@given(planted_deficient_matrices())
def test_rank_and_det_match_sympy(m):
    oracle = to_sympy(m)
    assert rank_exact(m) == oracle.rank()
    if m.is_square:
        assert det_exact(m) == to_fraction(oracle.det())


@given(planted_deficient_matrices(max_size=6, square=True))
def test_char_poly_matches_sympy(m):
    oracle = to_sympy(m)
    high_to_low = oracle.charpoly(sympy.Symbol("x")).all_coeffs()
    assert char_poly_exact(m).coeffs == tuple(to_fraction(c) for c in reversed(high_to_low))


def test_char_poly_worked_values():
    assert char_poly_exact(RatMatrix.from_rows([[0, 1], [-1, 0]])).coeffs == (
        Fraction(1), Fraction(0), Fraction(1),
    )
    assert char_poly_exact(RatMatrix.identity(2)).coeffs == (
        Fraction(1), Fraction(-2), Fraction(1),
    )


def test_char_poly_antisymmetric_difference_matrix():
    # pair-square sum oracle: coefficient at x^(N-2) is sum over x<y of (c_y-c_x)^2
    c = (1, 2, 3, 4)
    m = RatMatrix.from_rows([[y - x for y in c] for x in c])
    pair_sum = sum((y - x) ** 2 for i, x in enumerate(c) for y in c[i + 1 :])
    assert pair_sum == 20
    poly = char_poly_exact(m)
    assert poly.coeffs == (Fraction(0), Fraction(0), Fraction(20), Fraction(0), Fraction(1))


def test_char_poly_low_coefficients_vanish_for_rank2_antisymmetric():
    # every principal submatrix of size >= 3 of a rank-2 matrix is singular
    c = [Fraction(1), Fraction(3), Fraction(4), Fraction(7), Fraction(11)]
    m = RatMatrix.from_rows([[y - x for y in c] for x in c])
    assert rank_exact(m) == 2
    for size in (3, 4, 5):
        for idx in itertools.combinations(range(5), size):
            assert det_exact(submatrix(m, list(idx), list(idx))) == 0
    poly = char_poly_exact(m)
    assert all(poly.coeffs[k] == 0 for k in range(0, 5 - 2))


def test_char_poly_matches_principal_minor_sums():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, n, span=4)
        poly = char_poly_exact(m)
        for k in range(n + 1):
            size = n - k
            if size == 0:
                expected = Fraction(1)
            else:
                expected = (-1) ** size * sum(
                    (
                        naive_det(submatrix(m, list(idx), list(idx)))
                        for idx in itertools.combinations(range(n), size)
                    ),
                    Fraction(0),
                )
            assert poly.coeffs[k] == expected
        assert poly.coeffs[n - 1] == -trace(m)


def test_hadamard_worked_values():
    a = RatMatrix.from_rows([[1, 2], [3, 4]])
    b = RatMatrix.from_rows([[5, 6], [7, 8]])
    assert hadamard(a, b) == RatMatrix.from_rows([[5, 12], [21, 32]])
    zeros = RatMatrix.zeros(2, 2)
    assert hadamard(a, zeros) == zeros
    s1 = RatMatrix.from_rows([[1], [3]])
    assert hadamard(s1, s1) == RatMatrix.from_rows([[1], [9]])


def test_hadamard_shape_mismatch():
    with pytest.raises(DimensionError):
        hadamard(RatMatrix.identity(2), RatMatrix.identity(3))


def test_hadamard_rank_bound():
    rng = random.Random(97)
    for _ in range(20):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        a = random_matrix(rng, rows, cols)
        b = random_matrix(rng, rows, cols)
        assert rank_exact(hadamard(a, b)) <= rank_exact(a) * rank_exact(b)


def test_kronecker_identities():
    b = RatMatrix.from_rows([[5, 6], [7, 8]])
    assert kronecker(RatMatrix.from_rows([[1]]), b) == b
    assert kronecker(RatMatrix.identity(2), RatMatrix.from_rows([[2]])) == RatMatrix.from_rows(
        [[2, 0], [0, 2]]
    )


def test_hadamard_is_submatrix_of_kronecker():
    rng = random.Random(3)
    for _ in range(10):
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 3, 3)
        kron = kronecker(a, b)
        picked = submatrix(kron, [i * 3 + i for i in range(3)], [j * 3 + j for j in range(3)])
        assert picked == hadamard(a, b)


def test_submatrix_worked_values():
    m = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert submatrix(m, [0, 1], [0, 1]) == m
    assert submatrix(m, [0], [0]) == RatMatrix.from_rows([[0]])


def test_submatrix_rejects_bad_indices():
    m = RatMatrix.identity(2)
    with pytest.raises(IndexError):
        submatrix(m, [0, 2], [0])
    with pytest.raises(ValidationError):
        submatrix(m, [], [0])


def test_capacity_guard_rejects_oversized_matrix():
    with pytest.raises(CapacityError):
        RatMatrix(1025, 1024, [])


def test_entries_are_canonical_fractions():
    m = RatMatrix(1, 2, ["2/4", Fraction(6, 4)])
    assert m[0, 0] == Fraction(1, 2)
    assert m[0, 1] == Fraction(3, 2)
    assert m[0, 0].denominator == 2
