"""Exact linear algebra: worked values plus randomized cross-checks against
independent oracles (plain fraction Gaussian elimination, cofactor expansion,
principal-minor sums, sympy)."""

import itertools
import operator
import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from mrw.dtensor import DenseTensor
from mrw.errors import CapacityError, DimensionError, ValidationError
from mrw.ratlinalg import (
    _CHECK_PRIMES,
    _ELIM_PRIME,
    _MODULAR_MIN_ENTRIES,
    RatMatrix,
    _certificate_pays,
    _certified_rank,
    _eliminate,
    _integer_rows,
    _mod_p_pivots,
    _rows_span,
    as_exact,
    as_fraction,
    char_poly_exact,
    check_capacity,
    det_exact,
    exact_sum,
    exact_entries,
    fraction_from_text,
    is_exact,
    rank_exact,
    reduced_rows,
)
from mrw.serialize import canonical_dumps, matrix_to_obj, parse_matrix, parse_tensor


def identity(n: int) -> RatMatrix:
    return RatMatrix(n, n, [int(i == j) for i in range(n) for j in range(n)])


def _block(m: RatMatrix, rows, cols) -> RatMatrix:
    """The block of m on `rows` x `cols`, in the given order."""
    return RatMatrix.from_rows([[m[i, j] for j in cols] for i in rows])


def column_basis(m: RatMatrix, first=()) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """Reference sweep: the basis columns of ``m`` scanned in the order
    ``first``, then the rest left to right, and the exact coordinates of
    every column in them, one row per pivot.  It is a fresh full sweep of
    `_eliminate` on the rows scaled to ints, divided by its last pivot."""
    scan = list(first) + [j for j in range(m.cols) if j not in first]
    work = _integer_rows(list(m.iter_rows()))[1]
    pivots, _, last = _eliminate(work, scan, forward=False)
    coords = tuple(tuple(as_exact(Fraction(x, last)) for x in row) for row in work[: len(pivots)])
    return tuple(pivots), coords


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
    assert rank_exact(identity(3)) == 3
    assert rank_exact(RatMatrix(4, 4, [0] * 16)) == 0


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
        permuted = _block(m, rp, cp)
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
def planted_deficient_rows(draw, max_size=8, square=False, entry=None):
    """Rows of a matrix up to ``max_size`` a side, square or rectangular,
    with repeated or zero rows and columns planted to force rank deficiency,
    and zero entries planted to force row swaps and zero multipliers in the
    elimination.  By default entries are Fractions with denominators up to
    12, which give the rows different scales."""
    if entry is None:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    rows = draw(st.integers(1, max_size))
    cols = rows if square or draw(st.booleans()) else draw(st.integers(1, max_size))
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    zero = 0 * data[0][0]  # of the entries' type
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(["zero-entry", "repeat-row", "zero-row", "repeat-col", "zero-col"])
        )
        i = draw(st.integers(0, rows - 1))
        j = draw(st.integers(0, cols - 1))
        if kind == "zero-entry":
            data[i][j] = zero
        elif kind == "repeat-row":
            data[i] = list(data[draw(st.integers(0, rows - 1))])
        elif kind == "zero-row":
            data[i] = [zero] * cols
        elif kind == "repeat-col":
            src = draw(st.integers(0, cols - 1))
            for row in data:
                row[j] = row[src]
        else:
            for row in data:
                row[j] = zero
    return data


def planted_deficient_matrices(max_size=8, square=False):
    return planted_deficient_rows(max_size, square).map(RatMatrix.from_rows)


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


@given(planted_deficient_matrices(), st.data())
def test_column_basis_matches_sympy_rref(m, data):
    pivots, rows, last = reduced_rows(m)
    reduced, oracle_pivots = to_sympy(m).rref()
    assert pivots == oracle_pivots
    assert len(rows) == len(pivots) == rank_exact(m)
    for i, row in enumerate(rows):
        assert [Fraction(x, last) for x in row] == [to_fraction(x) for x in reduced.row(i)]
    # the reference sweep with the columns `first` scanned first
    first = data.draw(st.lists(st.integers(0, m.cols - 1), unique=True))
    order = first + [j for j in range(m.cols) if j not in first]
    pivots, coords = column_basis(m, first)
    reduced, oracle_pivots = to_sympy(_block(m, range(m.rows), order)).rref()
    assert pivots == tuple(order[p] for p in oracle_pivots)
    assert len(coords) == len(pivots)
    for i, row in enumerate(coords):
        assert all(type(x) is int or x.denominator > 1 for x in row)
        assert [row[j] for j in order] == [to_fraction(x) for x in reduced.row(i)]


@st.composite
def picks_of_rank_size(draw):
    """A matrix of rank r > 0, Fraction or int, and r distinct columns of it,
    independent or not."""
    rows = draw(st.one_of(planted_deficient_rows(), planted_deficient_rows(entry=st.integers(-3, 3))))
    m = RatMatrix.from_rows(rows)
    r = rank_exact(m)
    assume(r > 0)
    return m, draw(st.lists(st.integers(0, m.cols - 1), min_size=r, max_size=r, unique=True))


@given(picks_of_rank_size())
@example((RatMatrix.from_rows([[1, 2], [2, 4], [1, 2]]), [1]))
@example((RatMatrix.from_rows([[2, 0, 2, 1], [0, 3, 3, 1], [1, 1, 2, 5]]), [3, 0, 2]))
@example((RatMatrix.from_rows([[2, 0, 2, 1], [0, 3, 3, 1], [1, 1, 2, 5]]), [2, 0, 1]))
def test_a_sweep_continued_from_its_last_pivot_exchanges_the_basis(case):
    # Edmonds' exchange: the full sweep continued from the reduced rows R
    # and last pivot L, over a pick of rank size, finds the pivots of a
    # fresh sweep that scans the pick first and, when the pick is
    # independent, its exact coordinates, with every entry a minor of the
    # input: the new last pivot is det R[:, pick] / L^(r-1) up to sign
    m, pick = case
    _, reduced, last = reduced_rows(m)
    r = len(reduced)
    work = [row[:] for row in reduced]
    pivots, _, new_last = _eliminate(work, pick, forward=False, last=last)
    want, coords = column_basis(m, pick)
    assert pivots == [j for j in want if j in pick]
    if len(pivots) == r:
        assert tuple(tuple(as_exact(Fraction(x, new_last)) for x in row) for row in work) == coords
        minor = sympy.Matrix([[row[j] for j in pick] for row in reduced]).det()
        assert abs(new_last) * abs(last) ** (r - 1) == abs(int(minor))


@given(st.one_of(planted_deficient_rows(), planted_deficient_rows(entry=st.integers(-3, 3))))
@example([[0, 0, 0], [0, 0, 0]])
@example([[1, 2], [2, 4], [1, 2]])
def test_forward_and_full_sweeps_share_pivots_sign_and_last_pivot(rows):
    # the one elimination loop: the forward sweep (rank, det) and the full
    # sweep (reduced_rows, the rank certificate) find the same pivots
    scales, echelon = _integer_rows(rows)
    reduced = [list(row) for row in echelon]
    cols = range(len(rows[0]))
    pivots, sign, last = _eliminate(echelon, cols, forward=True)
    assert _eliminate(reduced, cols, forward=False) == (pivots, sign, last)
    oracle = to_sympy(RatMatrix.from_rows(rows))
    assert len(pivots) == oracle.rank()
    if len(rows) == len(cols):
        det = Fraction(sign * last, prod(scales)) if len(pivots) == len(rows) else 0
        assert det == to_fraction(oracle.det())
    for i, col in enumerate(pivots):
        assert [row[col] for row in reduced] == [last * (r == i) for r in range(len(rows))]


@given(planted_deficient_matrices(max_size=6, square=True))
def test_char_poly_matches_sympy(m):
    oracle = to_sympy(m)
    high_to_low = oracle.charpoly(sympy.Symbol("x")).all_coeffs()
    assert char_poly_exact(m).coeffs == tuple(to_fraction(c) for c in reversed(high_to_low))


@given(planted_deficient_rows(entry=st.integers(-20, 20)))
def test_int_storage_agrees_with_fraction_storage(rows):
    # ints are stored as given; the same values as Fractions must give the
    # same matrix, hash, canonical bytes and exact results
    as_int = RatMatrix.from_rows(rows)
    as_frac = RatMatrix.from_rows([[Fraction(v) for v in row] for row in rows])
    assert all(type(e) is int for e in as_int.entries)
    assert all(type(e) is Fraction for e in as_frac.entries)
    assert as_int == as_frac and hash(as_int) == hash(as_frac)
    assert canonical_dumps(matrix_to_obj(as_int)) == canonical_dumps(matrix_to_obj(as_frac))
    oracle = to_sympy(as_int)
    assert rank_exact(as_int) == rank_exact(as_frac) == oracle.rank()
    if as_int.is_square:
        assert det_exact(as_int) == det_exact(as_frac) == to_fraction(oracle.det())
        assert char_poly_exact(as_int) == char_poly_exact(as_frac)


def test_char_poly_worked_values():
    assert char_poly_exact(RatMatrix.from_rows([[0, 1], [-1, 0]])).coeffs == (
        Fraction(1), Fraction(0), Fraction(1),
    )
    assert char_poly_exact(identity(2)).coeffs == (
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
            assert det_exact(_block(m, idx, idx)) == 0
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
                        naive_det(_block(m, idx, idx))
                        for idx in itertools.combinations(range(n), size)
                    ),
                    Fraction(0),
                )
            assert poly.coeffs[k] == expected
        assert poly.coeffs[n - 1] == -sum((m[i, i] for i in range(n)), Fraction(0))


class _IntSubclass(int):
    pass


_mixed_values = st.lists(
    st.one_of(
        st.integers(-5, 5),
        st.fractions(max_denominator=6),
        st.booleans(),
        st.floats(allow_nan=False),
        st.text(alphabet="0123456789/-.", max_size=4),
        st.none(),
        st.builds(_IntSubclass, st.integers(-5, 5)),
    ),
    max_size=6,
)


@given(_mixed_values)
def test_is_exact_agrees_with_exact_entries_keeping_every_value(values):
    try:
        kept = exact_entries(values)
    except ValidationError:
        kept = None
    unchanged = kept is not None and all(a is b for a, b in zip(kept, values))
    assert is_exact(values) == unchanged



def test_reshape_keeps_the_entries_and_checks_the_shape():
    m = RatMatrix(2, 3, [0, Fraction(1, 2), 2, 3, 4, 5])
    r = m.reshape(3, 2)
    assert r == RatMatrix(3, 2, m.entries) and r.entries is m.entries
    for rows, cols in ((4, 2), (0, 6), (-2, -3)):
        with pytest.raises(DimensionError):
            m.reshape(rows, cols)


def _unread_entries():
    """An entry iterator that fails the test if anything consumes it."""
    raise AssertionError("entries read before the capacity guard")
    yield


class _UnreadList(list):
    """An entry list that fails the test if its length or items are read."""

    def _read(self, *args):
        raise AssertionError("entry list read before the capacity guard")

    __len__ = __iter__ = __getitem__ = _read


def test_capacity_guard_rejects_oversized_matrix():
    with pytest.raises(CapacityError):
        RatMatrix(1025, 1024, [])
    # 17 x 61681 = 2^20 + 1 entries: one past the guard, refused by both
    # arrays and both parsers before any entry is read
    guard = "^(matrix|tensor) with 1048577 entries exceeds the 1048576 guard$"
    with pytest.raises(CapacityError, match=guard):
        RatMatrix(17, 61681, _unread_entries())
    with pytest.raises(CapacityError, match=guard):
        DenseTensor((17, 61681), _unread_entries())
    with pytest.raises(CapacityError, match=guard):
        parse_matrix({"rows": 17, "cols": 61681, "entries": _UnreadList()})
    with pytest.raises(CapacityError, match=guard):
        parse_tensor({"dims": [17, 61681], "entries": _UnreadList()})
    # exactly 2^20 entries are admitted
    assert RatMatrix(1024, 1024, [0] * (1 << 20)).dims == (1024, 1024)
    assert DenseTensor((2,) * 20, [1] * (1 << 20)).dims == (2,) * 20


def test_check_capacity_counts_lazily_and_prints_bounded_numbers():
    assert check_capacity((1024, 1024), "matrix") == 1 << 20
    assert check_capacity(itertools.repeat(2, 20), "tensor") == 1 << 20
    with pytest.raises(CapacityError, match="^matrix with 1049600 entries exceeds the 1048576 guard$"):
        check_capacity((1025, 1024), "matrix")
    with pytest.raises(CapacityError, match="^matrix with 1048577 entries exceeds the 1048576 guard$"):
        check_capacity((17, 61681), "matrix")
    # past 2^40 the product stops growing: a shape of 10^18 factors, or one
    # size with thousands of digits, is refused at once with a short message
    too_many = "^tensor with more than 1099511627776 entries exceeds the 1048576 guard$"
    with pytest.raises(CapacityError, match=too_many):
        check_capacity(itertools.repeat(2, 10**18), "tensor")
    with pytest.raises(CapacityError, match=too_many):
        check_capacity((10**2200, 10**2200), "tensor")


def test_entries_are_canonical_fractions():
    m = RatMatrix(1, 2, ["2/4", Fraction(6, 4)])
    assert m[0, 0] == Fraction(1, 2)
    assert m[0, 1] == Fraction(3, 2)
    assert m[0, 0].denominator == 2


@pytest.mark.parametrize("text", ["abc", "1/0", ""])
def test_unparsable_string_entry_is_a_validation_error(text):
    with pytest.raises(ValidationError):
        RatMatrix(1, 1, [text])


@given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4))))
@example([])
def test_exact_sum_equals_the_fraction_sum(values):
    got = exact_sum(values)
    assert type(got) is Fraction and got == sum(values, Fraction(0))


# --- the certified modular rank (matrices of _MODULAR_MIN_ENTRIES or more) ---


def domain_rank(m: RatMatrix) -> int:
    """Oracle: sympy's DomainMatrix rank over QQ."""
    rows = [[QQ(e.numerator, e.denominator) for e in row] for row in m.iter_rows()]
    return DomainMatrix(rows, m.dims, QQ).rank()


def planted_product(x: list[list], y: list[list]) -> RatMatrix:
    """x @ y, of rank at most len(y) >= 1."""
    return RatMatrix.from_rows([[sum(map(operator.mul, xi, col)) for col in zip(*y)] for xi in x])


def _small_int(rng: random.Random) -> int:
    return rng.randint(-9, 9)


def _small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _past_int64(rng: random.Random) -> int:
    return rng.choice([rng.randint(-9, 9), rng.randint(2**63, 2**70), -rng.randint(2**63, 2**70)])


@st.composite
def planted_rank_matrices(draw):
    """A product of a rows x k and a k x cols factor with at least
    _MODULAR_MIN_ENTRIES entries, so that it takes the modular path: square,
    tall or wide, one row or one column, any k from 0 (the zero matrix) to
    min(rows, cols), with int entries, Fraction entries, or int entries
    past 2^63.  k and the factors' entries come from a seeded
    `random.Random`, which keeps the hundreds of entries cheap to draw and
    k spread over its range."""
    short = draw(st.integers(1, 20))
    least = max(short, -(-_MODULAR_MIN_ENTRIES // short))
    long = draw(st.integers(least, least + 8))
    rows, cols = (short, long) if draw(st.booleans()) else (long, short)
    entry = draw(st.sampled_from([_small_int, _small_fraction, _past_int64]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = rng.randint(0, short)
    x = [[entry(rng) for _ in range(k)] for _ in range(rows)]
    y = [[entry(rng) for _ in range(cols)] for _ in range(k)]
    return planted_product(x, y) if k else RatMatrix(rows, cols, [0] * (rows * cols))


@given(planted_rank_matrices())
@example(RatMatrix(1, 300, [0] * 299 + [7]))
@example(RatMatrix(300, 1, [Fraction(1, 3)] + [0] * 299))
@example(RatMatrix(16, 16, [0] * 256))
@example(RatMatrix(16, 20, [2**64 * (i == j) for i in range(16) for j in range(20)]))
def test_modular_rank_matches_sympy(m):
    assert len(m.entries) >= _MODULAR_MIN_ENTRIES
    assert rank_exact(m) == domain_rank(m)


@pytest.mark.parametrize("rows, cols", [(16, 20), (20, 16), (24, 24)])
def test_modular_rank_matches_sympy_at_every_rank(rows, cols):
    rng = random.Random(rows * cols)
    for k in range(min(rows, cols) + 1):
        x = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(rows)]
        y = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cols)] for _ in range(k)]
        m = planted_product(x, y) if k else RatMatrix(rows, cols, [0] * (rows * cols))
        assert rank_exact(m) == domain_rank(m) == k


def test_certificate_settles_low_rank_inputs():
    # rank 3 of 24 rows: the mod-p rank is proved an upper bound, no Bareiss
    rng = random.Random(3)
    x = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(24)]
    y = [[rng.randint(-9, 9) for _ in range(30)] for _ in range(3)]
    w = np.array([list(row) for row in planted_product(x, y).iter_rows()], dtype=np.int64)
    assert _certificate_pays(24, 30, 3)
    assert _certified_rank(w) == 3


def test_prime_dividing_a_minor_falls_back_to_bareiss():
    # diag(p, 1, ..., 1): modulo p the first pivot vanishes, so elimination
    # finds 15 pivots, and the 15 pivot rows do not span the first row
    p, n = _ELIM_PRIME, 16
    m = RatMatrix(n, n, [(p if i == 0 else 1) * (i == j) for i in range(n) for j in range(n)])
    w = np.array(m.entries, dtype=np.int64).reshape(n, n)
    rows, cols = _mod_p_pivots(w)
    assert len(rows) == n - 1
    assert not _rows_span(w, rows, cols)
    assert _certified_rank(w) is None
    assert rank_exact(m) == n


def test_rank_deficient_product_whose_mod_p_rank_drops():
    # x @ diag(p, 1, 1) @ y has rank 3 over Q and rank 2 modulo p; the
    # certificate for rank <= 2 must fail, and Bareiss finds 3
    p = _ELIM_PRIME
    rng = random.Random(5)
    x = [[rng.randint(1, 9) * (p if t == 0 else 1) for t in range(3)] for _ in range(24)]
    y = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(3)]
    m = planted_product(x, y)
    w = np.array(m.entries, dtype=np.int64).reshape(24, 24)
    rows, cols = _mod_p_pivots(w)
    assert len(rows) == 2 and _certificate_pays(24, 24, 2)
    assert not _rows_span(w, rows, cols)
    assert rank_exact(m) == domain_rank(m) == 3


@pytest.mark.parametrize("rest", [1, 0], ids=["all-ones", "first-row"])
def test_certificate_checks_every_prime_its_bound_needs(rest):
    # row 0 all ones, the other rows all `rest`, entry (5, 7) raised by p
    # times the first check prime: rank 2 over Q and 1 modulo p.  That
    # product is the one nonzero entry of the checked difference, so the
    # first prime alone passes it.  With rest = 1 the bound H needs three
    # primes; with rest = 0, Y = 0 and H is |d| max|W| alone.
    bump = _ELIM_PRIME * _CHECK_PRIMES[0]
    m = RatMatrix(16, 16, [
        (1 if i == 0 else rest) + bump * (i == 5 and j == 7) for i in range(16) for j in range(16)
    ])
    w = np.array(m.entries, dtype=np.int64).reshape(16, 16)
    rows, cols = _mod_p_pivots(w)
    assert len(rows) == 1
    assert not _rows_span(w, rows, cols)
    assert rank_exact(m) == domain_rank(m) == 2


def test_the_primes_are_prime_and_keep_int64_exact():
    assert sympy.isprime(_ELIM_PRIME) and _ELIM_PRIME < 2**31
    assert len(set(_CHECK_PRIMES)) == len(_CHECK_PRIMES)
    assert all(sympy.isprime(q) and q < 2**26 for q in _CHECK_PRIMES)
    # a check sums r <= 1024 residue products and one more: no int64 overflow
    assert 1025 * (max(_CHECK_PRIMES) - 1) ** 2 < 2**63


@pytest.mark.parametrize("text", ["1e5000", "1e-5000", "-2.5E+4299", "1e100000000", "1e" + "9" * 5000])
def test_exponent_past_the_digit_limit_is_refused(text):
    with pytest.raises(ValueError, match="exponent"):
        fraction_from_text(text)
    with pytest.raises(ValidationError, match="exponent"):
        as_fraction(text)


def test_exponent_within_the_digit_limit_is_read():
    assert fraction_from_text("1e4290") == 10**4290
    assert fraction_from_text("2.5e-3") == Fraction(1, 400)
    assert fraction_from_text(" -3E2 ") == -300
