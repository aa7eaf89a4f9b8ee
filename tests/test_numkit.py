"""Float numerics: spectral split, factorization search, tensor fitting."""

import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mrw import numkit
from mrw.bounds import mr_bounds
from mrw.constructions import (
    CorrelationSpec,
    DivTensorSpec,
    EdmSpec,
    ScaledAntisymmetric,
    difference_matrix,
    divisibility_tensor,
    edm,
)
from mrw.dtensor import DenseTensor
from mrw.errors import DimensionError, UnsupportedRankError, ValidationError
from mrw.numkit import (
    FactorizationCheck,
    NonnegFactorization,
    SearchBudget,
    _hals_sweeps,
    _max_rel_err,
    antisym_spectral,
    cp_als,
    nmf_search,
    verify_nonneg_factorization,
)
from mrw.ratlinalg import RatMatrix, char_poly_exact, reduced_rows
from test_ratlinalg import column_basis


def _differences(values) -> RatMatrix:
    return RatMatrix.from_rows([[y - x for y in values] for x in values])


def test_spectral_split_worked_values():
    swap = RatMatrix.from_rows([[0, 1], [-1, 0]])
    pair = antisym_spectral(ScaledAntisymmetric(swap, Fraction(1, 2)))
    assert abs(pair.lambda_magnitude - math.sqrt(0.5)) < 1e-12
    pair = antisym_spectral(ScaledAntisymmetric(swap, Fraction(1)))
    assert abs(pair.lambda_magnitude - 1.0) < 1e-12
    c4 = ScaledAntisymmetric(_differences((1, 2, 3, 4)), Fraction(1))
    pair = antisym_spectral(c4)
    assert abs(pair.lambda_magnitude - math.sqrt(20)) < 1e-9
    assert pair.reconstruction_error(c4.to_float()) <= 1e-9


def test_spectral_lambda_squared_matches_char_poly():
    # lambda^2 equals the x^(N-2) coefficient of the characteristic polynomial
    # (Faddeev-LeVerrier on the base, an oracle independent of the closed form)
    base = _differences((1, 3, 4, 9))
    pair = antisym_spectral(ScaledAntisymmetric(base, Fraction(1)))
    coeff = char_poly_exact(base).coeffs[2]
    assert abs(pair.lambda_magnitude**2 - float(coeff)) < 1e-9 * float(coeff)


def test_spectral_split_scaled_input():
    cm = difference_matrix(CorrelationSpec(8))
    pair = antisym_spectral(cm)
    assert pair.reconstruction_error(cm.to_float()) <= 1e-9
    assert abs(np.vdot(pair.u0, pair.u1)) <= 1e-9
    assert abs(np.linalg.norm(pair.u0) - 1) <= 1e-9


def test_spectral_split_rejects_bad_input():
    # a symmetric base is refused when the scaled matrix is built
    with pytest.raises(ValidationError):
        ScaledAntisymmetric(RatMatrix.from_rows([[0, 1], [1, 0]]), Fraction(1))
    rank4 = RatMatrix.from_rows(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]]
    )
    with pytest.raises(UnsupportedRankError):
        antisym_spectral(ScaledAntisymmetric(rank4, Fraction(1)))
    with pytest.raises(UnsupportedRankError):
        antisym_spectral(ScaledAntisymmetric(RatMatrix(2, 2, [0] * 4), Fraction(1)))


def float_fit_error(m: RatMatrix, fact: NonnegFactorization) -> float:
    """Oracle for a float witness of a matrix, in numpy alone: asserts that W
    and H are nonnegative and returns max|M - WH| / max|M|."""
    w = np.array([term[0] for term in fact.terms], dtype=float).T
    h = np.array([term[1] for term in fact.terms], dtype=float)
    assert w.min() >= 0 and h.min() >= 0
    target = np.array([[float(x) for x in row] for row in m.iter_rows()])
    return float(np.max(np.abs(target - w @ h))) / float(np.max(target))


def test_nmf_trivial_cases(monkeypatch):
    # both exact stages settle these, so they are turned off to reach the
    # float search
    monkeypatch.setattr(numkit, "_separable_factorization", lambda *args: None)
    monkeypatch.setattr(numkit, "_triangle_factorization", lambda *args: None)
    budget = SearchBudget(restarts=16, iterations=3000)
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    fact = nmf_search(swap, 2, budget)
    assert fact is not None and fact.r == 2
    assert float_fit_error(swap, fact) <= 1e-6

    rank1 = RatMatrix.from_rows([[a * b for b in (4, Fraction(1, 2), 2)] for a in (1, 2, 3)])
    fact = nmf_search(rank1, 1, budget)
    assert fact is not None
    assert float_fit_error(rank1, fact) <= 1e-5


def test_nmf_rejects_negative_input():
    with pytest.raises(ValidationError):
        nmf_search(RatMatrix.from_rows([[1, Fraction(-1, 10)], [0, 1]]), 1, SMALL_BUDGET)


def test_nmf_takes_only_a_rat_matrix():
    for m in (np.ones((2, 2)), [[1, 0], [0, 1]], DenseTensor((2, 2), [1, 0, 0, 1])):
        with pytest.raises(ValidationError, match="RatMatrix"):
            nmf_search(m, 2, SMALL_BUDGET)


def test_nmf_zero_matrix():
    fact = nmf_search(RatMatrix(3, 3, [0] * 9), 2, SMALL_BUDGET)
    assert fact is not None and fact.r == 0


def test_nmf_deterministic_given_seed(monkeypatch):
    monkeypatch.setattr(numkit, "_NMF_SEED", 5)
    monkeypatch.setattr(numkit, "_NMF_TOL", 1e-3)
    m = edm(EdmSpec.integers(6))
    budget = SearchBudget(restarts=3, iterations=300)
    a = nmf_search(m, 6, budget)
    b = nmf_search(m, 6, budget)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.terms == b.terms


def test_nmf_distance_matrix_witness(monkeypatch):
    # the 8x8 distance matrix at r = 8 is a known loss of the float search
    # since it dropped its Chebyshev LP polish: HALS stalls near 3e-3 (4.1e-3
    # at this budget, 3.1e-3 after 10,000 sweeps in one round), above this
    # tol.  No command asks for it, since mr's trivial bound is already 8.
    # A search that regains the witness fails here, and the list of lost
    # witnesses in ROADMAP.md should then drop it.
    monkeypatch.setattr(numkit, "_NMF_TOL", 1e-3)
    m = edm(EdmSpec.integers(8))
    assert nmf_search(m, 8, SearchBudget(restarts=6, iterations=1500)) is None


@pytest.mark.parametrize("field", ["restarts", "iterations"])
def test_search_budget_fields_must_be_integers_at_least_1(field):
    for bad in (0, -1, 1.5, 2.0, True, None):
        with pytest.raises(ValidationError, match=field):
            SearchBudget(**{"restarts": 1, "iterations": 1, field: bad})
    assert SearchBudget(restarts=1, iterations=1).scaled(1e-9) == SearchBudget(1, 1)


def old_hals_sweeps(v, w, h, sweeps):
    """Oracle: the HALS loop before its in-place rewrite."""
    floor = 1e-12
    r = w.shape[1]
    for _ in range(sweeps):
        wtv = w.T @ v
        wtw = w.T @ w
        for k in range(r):
            num = wtv[k] - wtw[k] @ h + wtw[k, k] * h[k]
            h[k] = np.maximum(num / max(wtw[k, k], floor), floor)
        vht = v @ h.T
        hht = h @ h.T
        for k in range(r):
            num = vht[:, k] - w @ hht[:, k] + hht[k, k] * w[:, k]
            w[:, k] = np.maximum(num / max(hht[k, k], floor), floor)


@pytest.mark.parametrize(
    ("nrow", "ncol", "r", "sweeps"),
    [(6, 5, 1, 20), (1, 7, 3, 20), (7, 1, 3, 20), (1, 1, 1, 5), (8, 8, 6, 30), (5, 9, 4, 30), (64, 64, 63, 3)],
)
def test_hals_sweeps_match_the_old_loop_bit_for_bit(nrow, ncol, r, sweeps):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        v = rng.integers(0, 5, size=(nrow, ncol)).astype(float)
        v[rng.random(v.shape) < 0.3] = 0.0  # exact zeros
        w = rng.uniform(0.1, 1.0, size=(nrow, r))
        h = rng.uniform(0.1, 1.0, size=(r, ncol))
        if seed % 2:
            # the sweeps work in place on either memory layout
            w, h = np.asfortranarray(w), np.asfortranarray(h)
        w_old, h_old = w.copy(order="K"), h.copy(order="K")
        _hals_sweeps(v, w, h, sweeps)
        old_hals_sweeps(v, w_old, h_old, sweeps)
        assert np.array_equal(w, w_old) and np.array_equal(h, h_old)


def count_hals_sweeps(monkeypatch) -> list[int]:
    """Wrap `_hals_sweeps` so that each call appends its sweep count to the
    returned list."""
    swept = []
    sweeps = numkit._hals_sweeps

    def count_sweeps(v, w, h, n):
        swept.append(n)
        sweeps(v, w, h, n)

    monkeypatch.setattr(numkit, "_hals_sweeps", count_sweeps)
    return swept


def test_nmf_stops_sweeping_at_tol(monkeypatch):
    swept = count_hals_sweeps(monkeypatch)
    # the separable stage settles rank 1, so it is turned off
    monkeypatch.setattr(numkit, "_separable_factorization", lambda *args: None)
    rank1 = RatMatrix.from_rows([[a * b for b in (4, Fraction(1, 2), 2)] for a in (1, 2, 3, Fraction(1, 2))])
    budget = SearchBudget(restarts=2, iterations=400)
    fact = nmf_search(rank1, 1, budget)
    assert fact is not None
    assert float_fit_error(rank1, fact) <= 1e-6
    assert sum(swept) < budget.iterations


def rank4_products(count: int):
    """Seeded nonnegative integer products (6-7)x4 times 4x(6-7), entries
    0..4."""
    rng = random.Random(31)
    for _ in range(count):
        n, m = rng.randint(6, 7), rng.randint(6, 7)
        w = [[rng.randint(0, 4) for _ in range(4)] for _ in range(n)]
        h = [[rng.randint(0, 4) for _ in range(m)] for _ in range(4)]
        yield product_matrix(w, h)


# the indices of rank4_products(24) that nmf_search closed at r = 4 under
# mr's former default budget, SearchBudget(2, 400), when the float search
# still polished with Chebyshev LPs (listed by running that search on each)
CLOSED_WITH_THE_POLISH = (0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 17, 18, 19, 21, 22, 23)


def test_the_sweeps_close_every_rank_4_product_the_polish_closed():
    budget = SearchBudget(restarts=3, iterations=2000)  # mr's default
    closed = {i for i, m in enumerate(rank4_products(24)) if nmf_search(m, 4, budget) is not None}
    assert set(CLOSED_WITH_THE_POLISH) <= closed


def test_a_failing_search_ends_on_the_stall_rule(monkeypatch):
    # edm(16) at r = 6, the search mr runs on it: no round reaches tol, and
    # each ends when 25 sweeps lower the error by less than 1 %, far short
    # of the 3 * 3 * 2,000 = 18,000 sweeps the budget allows
    swept = count_hals_sweeps(monkeypatch)
    assert nmf_search(edm(EdmSpec.integers(16)), 6, SearchBudget(restarts=3, iterations=2000)) is None
    assert len(swept) > 9 and sum(swept) < 18_000 // 8


def full_budget_nmf_search(v, r, budget, seed=1729, tol=1e-6):
    """Oracle: the search loop before it stopped at tol or on a stall, on
    the same copy scaled to a largest entry of 1.  Every round runs all its
    sweeps; returns whether some round reached tol."""
    v = v / np.max(v)
    rng = np.random.default_rng(seed)
    nrow, ncol = v.shape
    init_scale = math.sqrt(float(np.mean(v)) / r)
    best = math.inf
    for _ in range(budget.restarts):
        w = rng.uniform(0.1, 1.0, size=(nrow, r)) * init_scale
        h = rng.uniform(0.1, 1.0, size=(r, ncol)) * init_scale
        for _ in range(3):
            old_hals_sweeps(v, w, h, budget.iterations)
            best = min(best, _max_rel_err(v, w, h))
            if best <= tol:
                return True
            w *= rng.uniform(0.7, 1.3, size=w.shape)
            h *= rng.uniform(0.7, 1.3, size=h.shape)
    return False


def test_nmf_stop_at_tol_loses_no_success(monkeypatch):
    # r is the rank, so the exact stages are turned off to reach the float search
    monkeypatch.setattr(numkit, "_separable_factorization", lambda *args: None)
    monkeypatch.setattr(numkit, "_triangle_factorization", lambda *args: None)
    budget = SearchBudget(restarts=2, iterations=100)
    found = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        nrow, ncol = (int(x) for x in rng.integers(5, 9, size=2))
        if seed % 3 == 2:
            v = (rng.random((nrow, ncol)) < 0.85).astype(float)
        else:
            k = 2 + seed % 2
            v = (rng.integers(0, 5, size=(nrow, k)) @ rng.integers(0, 5, size=(k, ncol))).astype(float)
        r = int(np.linalg.matrix_rank(v))
        m = RatMatrix.from_rows(v.astype(int).tolist())
        fact = nmf_search(m, r, budget)
        if fact is not None:
            found += 1
            assert float_fit_error(m, fact) <= 1e-6, seed
        elif full_budget_nmf_search(v, r, budget):
            pytest.fail(f"seed {seed}: the full-budget search succeeds, the search that stops at tol fails")
    assert found >= 6


# ---------------------------------------------------------------------------
# the exact stage of nmf_search: separable inputs at r = rank
# ---------------------------------------------------------------------------

SMALL_BUDGET = SearchBudget(restarts=1, iterations=50)
nonneg_rationals = st.fractions(min_value=0, max_value=6, max_denominator=4)


def sympy_rank(m: RatMatrix) -> int:
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.iter_rows()]
    ).rank()


def product_matrix(w, h) -> RatMatrix:
    return RatMatrix.from_rows(
        [[sum(a * b for a, b in zip(row, col)) for col in zip(*h)] for row in w]
    )


@st.composite
def low_rank_products(draw, max_inner=2):
    """W @ H with nonnegative rational W (n x k) and H (k x m), k <= max_inner."""
    n, k, m = draw(st.integers(1, 7)), draw(st.integers(1, max_inner)), draw(st.integers(1, 7))
    w = [[draw(nonneg_rationals) for _ in range(k)] for _ in range(n)]
    h = [[draw(nonneg_rationals) for _ in range(m)] for _ in range(k)]
    return product_matrix(w, h)


@st.composite
def planted_separable_products(draw):
    """W @ H where H holds a shuffled r x r identity block, so r columns of
    the product are W's columns and generate the rest."""
    r = draw(st.integers(1, 4))
    n, extra = draw(st.integers(r, 7)), draw(st.integers(0, 4))
    w = [[draw(nonneg_rationals) for _ in range(r)] for _ in range(n)]
    cols = [[int(i == t) for i in range(r)] for t in range(r)]
    cols += [[draw(nonneg_rationals) for _ in range(r)] for _ in range(extra)]
    cols = draw(st.permutations(cols))
    return product_matrix(w, list(zip(*cols))), r


def assert_exact_witness(m: RatMatrix, r: int, fact) -> None:
    assert fact is not None and fact.r == r
    assert verify_nonneg_factorization(m, fact).passed


# column sums 2 * 10^200, 2 and 2 * 10^200 + 2: a float pick from the
# points c_j / (s.c_j) would underflow to zero norms after its first step
@example(RatMatrix.from_rows([[10**200, 0, 10**200], [0, 1, 1], [10**200, 1, 10**200 + 1]]))
@given(low_rank_products())
def test_every_nonnegative_matrix_of_rank_at_most_two_gets_an_exact_witness(m):
    r = sympy_rank(m)
    assume(r > 0)
    assert_exact_witness(m, r, nmf_search(m, r, SMALL_BUDGET))


@given(planted_separable_products())
def test_planted_separable_products_get_an_exact_witness(case):
    m, r = case
    assume(sympy_rank(m) == r)
    assert_exact_witness(m, r, nmf_search(m, r, SMALL_BUDGET))


def test_a_cone_with_a_nearly_extreme_column_gets_its_own_generators():
    # column 2 is n + 1 times column 0 less column 1: just outside the cone
    # of columns 0 and 1, so the cone is that of columns 1 and 2, and column
    # 3 repeats column 1's direction.  Column 0's point lies just inside the
    # segment of the points of columns 1 and 2, so the pick must tell the two
    # apart exactly; at n = 10^30 their float points are equal
    for n in (10**8, 10**30):
        m = RatMatrix.from_rows([[1, 1, n, n], [1, 2, n - 1, 2 * n]])
        fact = nmf_search(m, 2, SMALL_BUDGET)
        assert_exact_witness(m, 2, fact)
        assert [w for w, _ in fact.terms] == [(1, 2), (n, n - 1)]


def enumerated_separable(m: RatMatrix, r: int):
    """Oracle for `_separable_factorization`: on the column side, then the
    row side, every r-subset of the first column of each direction, in
    lexicographic order, each confirmed by a fresh reference sweep alone
    (`column_basis`)."""
    mt = m.transpose()
    for side, lines, transposed in ((m, mt, False), (mt, m, True)):
        pivots, coords = column_basis(side)
        if len(pivots) != r:
            return None
        directions = {}
        for j, col in enumerate(zip(*coords)):
            if any(col):
                lead = next(abs(x) for x in col if x)
                directions.setdefault(tuple(Fraction(x) / lead for x in col), j)
        basis = RatMatrix.from_rows(coords)
        for chosen in itertools.combinations(sorted(directions.values()), r):
            found, h = column_basis(basis, first=chosen)
            if found == chosen and all(x >= 0 for row in h for x in row):
                terms = [(lines.row(j), row) for j, row in zip(chosen, h)]
                return [(w, line) for line, w in terms] if transposed else terms
    return None


@given(
    st.one_of(planted_separable_products().map(lambda case: case[0]), low_rank_products(max_inner=3))
)
def test_the_successive_projection_pick_matches_every_subset_enumerated(m):
    r = sympy_rank(m)
    assume(r > 0)
    fact = numkit._separable_factorization(m, r, numkit._column_points(m))
    want = enumerated_separable(m, r)
    assert (fact is None) == (want is None)
    if fact is not None:
        assert list(fact.terms) == want


@settings(max_examples=25)
@given(low_rank_products(max_inner=3), st.sampled_from([-1, 1]))
def test_target_other_than_rank_gets_the_float_search(m, shift):
    r = sympy_rank(m) + shift
    assume(r >= 1)
    exact = nmf_search(m, r, SMALL_BUDGET)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numkit, "_separable_factorization", lambda *args: None)
        mp.setattr(numkit, "_triangle_factorization", lambda *args: None)
        floats = nmf_search(m, r, SMALL_BUDGET)
    assert (exact is None) == (floats is None)
    if exact is not None:
        assert exact.terms == floats.terms
        # only the zero matrix skips the search: its factorization is empty
        assert exact.is_rational == (not any(m.entries))


SLACK_SQUARE = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))


def test_float_and_non_separable_inputs_skip_the_exact_stage(monkeypatch):
    # the slack matrix of a square: rank 3 and monotone rank 4, so neither
    # exact stage finds a witness and the float search runs as with both
    # stages off (its loose tol lets the float search return one)
    monkeypatch.setattr(numkit, "_NMF_TOL", 0.4)
    m = RatMatrix.from_rows(SLACK_SQUARE)
    assert numkit._separable_factorization(m, 3, numkit._column_points(m)) is None
    assert numkit._triangle_factorization(m, numkit._column_points(m)) is None
    budget = SearchBudget(restarts=2, iterations=400)
    exact = nmf_search(m, 3, budget)
    monkeypatch.setattr(numkit, "_separable_factorization", lambda *args: None)
    monkeypatch.setattr(numkit, "_triangle_factorization", lambda *args: None)
    floats = nmf_search(m, 3, budget)
    assert exact is not None and exact.terms == floats.terms


@pytest.mark.parametrize("scale", [Fraction(10) ** 400, Fraction(10) ** -400])
def test_entries_no_float_holds_get_no_float_search(monkeypatch, scale):
    # past float range, or all underflowing to 0: the exact stages still
    # run, and with no witness from them the search is None, unswept
    def no_sweeps(*args):
        raise AssertionError("swept a float copy that does not hold the matrix")

    monkeypatch.setattr(numkit, "_hals_sweeps", no_sweeps)
    m = RatMatrix.from_rows([[x * scale for x in row] for row in SLACK_SQUARE])
    assert nmf_search(m, 3, SMALL_BUDGET) is None
    rank1 = RatMatrix.from_rows([[scale, scale], [scale, scale]])
    assert_exact_witness(rank1, 1, nmf_search(rank1, 1, SMALL_BUDGET))


# a product of nonnegative 8x4 and 4x7 integer matrices: rank 4, so only the
# float search runs at r = 4
RANK4_PRODUCT = (
    (24, 18, 18, 6, 28, 18, 2),
    (3, 4, 2, 2, 4, 2, 3),
    (22, 20, 18, 6, 27, 16, 4),
    (14, 20, 12, 8, 20, 10, 12),
    (14, 18, 12, 4, 17, 6, 6),
    (15, 7, 5, 5, 13, 8, 3),
    (31, 29, 21, 9, 34, 16, 9),
    (5, 2, 2, 2, 5, 4, 1),
)


def test_a_float_witness_multiplied_back_stays_within_float_range():
    # the sweeps run at a largest entry of 1 and cannot overflow; what still
    # could is W multiplied back by the largest entry.  Each H row of the
    # witness has a largest entry of 1, which keeps W below M's largest
    # entry 34 here, so at 5 * 10^306 (largest entry 1.7e308) it fits too
    budget = SearchBudget(restarts=3, iterations=2000)
    fact = nmf_search(RatMatrix.from_rows(RANK4_PRODUCT), 4, budget)
    assert fact is not None and all(max(term[1]) == 1.0 for term in fact.terms)
    assert max(max(term[0]) for term in fact.terms) < 34
    m = RatMatrix.from_rows([[x * 5 * 10**306 for x in row] for row in RANK4_PRODUCT])
    assert np.isfinite(numkit.as_float_array(m)).all()
    big = nmf_search(m, 4, budget)
    assert big is not None and float_fit_error(m, big) <= 1e-6


# ---------------------------------------------------------------------------
# the exact stage of nmf_search: nested triangles at r = rank = 3
# ---------------------------------------------------------------------------

@st.composite
def three_term_products(draw):
    """W @ H with nonnegative integer W (n x 3) and H (3 x m)."""
    n, m = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    entries = st.integers(0, draw(st.sampled_from([1, 2, 4, 9])))
    w = [[draw(entries) for _ in range(3)] for _ in range(n)]
    h = [[draw(entries) for _ in range(m)] for _ in range(3)]
    return product_matrix(w, h)


@st.composite
def three_term_rational_products(draw):
    """W @ H with nonnegative rational W (n x 3) and integer H (3 x m)."""
    n, m = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    w = [[draw(nonneg_rationals) for _ in range(3)] for _ in range(n)]
    h = [[draw(st.integers(0, 6)) for _ in range(m)] for _ in range(3)]
    return product_matrix(w, h)


# P is the triangle of the first three columns and equals Q, so each walk
# closes on a side that holds two vertices of P
OWN_SIDES = RatMatrix.from_rows([[1, 0, 0, 1, 2], [0, 1, 0, 1, 1], [0, 0, 1, 1, 0]])

# three of the four vertices of the columns' hull P lie on the boundary of
# the nonnegative polygon Q, and no walk from the line of an edge of P
# closes; the walk from a corner of Q does
CORNER_START = RatMatrix.from_rows(
    [
        [3, 6, 4, 4, 4, 5, 4],
        [12, 12, 8, 16, 0, 4, 16],
        [12, 15, 9, 8, 13, 12, 20],
        [6, 6, 3, 0, 9, 6, 12],
        [9, 9, 6, 12, 0, 3, 12],
        [15, 15, 9, 12, 9, 9, 24],
        [16, 22, 15, 24, 5, 12, 20],
    ]
)


def fraction_triangle_terms(m: RatMatrix):
    """Reference for `_triangle_factorization`: the same walks on Fraction
    points of the plane s.y = 1, the terms of its witness or None."""

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def det3(a, b, c):
        return (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )

    def wrap(x, points):
        def reach(p):
            return dot(p, p) - 2 * dot(p, x)  # |p - x|^2 less |x|^2

        v = None
        for c in points:
            if c == x:
                continue
            if v is None or (turn := det3(x, v, c)) < 0 or turn == 0 and reach(c) > reach(v):
                v = c
        return v

    pivots, coords = column_basis(m)
    if len(coords) != 3:
        return None
    basis = [tuple(row[j] for j in pivots) for row in m.iter_rows()]
    s = [sum(col) for col in zip(*basis)]
    points = {}
    for j, col in enumerate(zip(*coords)):
        if w := dot(s, col):
            points.setdefault(tuple(Fraction(x) / w for x in col), j)
    sides = [row for row in dict.fromkeys(basis) if any(row)]
    hull = [min(points)]
    while (v := wrap(hull[-1], points)) != hull[0]:
        hull.append(v)

    def leave(p, q):
        d = [y - x for x, y in zip(p, q)]
        t = min(dot(row, p) / -rd for row in sides if (rd := dot(row, d)) < 0)
        return tuple(x + t * y for x, y in zip(p, d))

    def walk(t0):
        t1 = leave(t0, wrap(t0, hull))
        t2 = leave(t1, wrap(t1, hull))
        return (t0, t1, t2) if all(det3(t2, t0, p) >= 0 for p in hull) else None

    def corners():
        for r1, r2 in itertools.combinations(sides, 2):
            c = (
                r1[1] * r2[2] - r1[2] * r2[1],
                r1[2] * r2[0] - r1[0] * r2[2],
                r1[0] * r2[1] - r1[1] * r2[0],
            )
            w = dot(s, c)
            if w and all(dot(row, c) * w >= 0 for row in sides):
                yield tuple(Fraction(x) / w for x in c)

    flush = (leave(b, a) for a, b in zip(hull, hull[1:] + hull[:1]))
    tri = next(filter(None, map(walk, itertools.chain(flush, corners()))), None)
    if tri is None:
        return None
    t0, t1, t2 = tri
    det = det3(t0, t1, t2)
    cols = list(zip(*coords))
    h = (
        tuple(det3(c, t1, t2) / det for c in cols),
        tuple(det3(t0, c, t2) / det for c in cols),
        tuple(det3(t0, t1, c) / det for c in cols),
    )
    return tuple((tuple(dot(row, t) for row in basis), hk) for t, hk in zip(tri, h))


@example(OWN_SIDES)
@example(CORNER_START)
@given(st.one_of(three_term_products(), three_term_rational_products()))
def test_the_integer_triangle_stage_returns_the_fraction_reference_terms(m):
    assume(sympy_rank(m) == 3)
    fact = numkit._triangle_factorization(m, numkit._column_points(m))
    want = fraction_triangle_terms(m)
    assert (fact is None) == (want is None)
    if fact is not None:
        assert fact.terms == want


@given(three_term_products())
def test_a_triangle_witness_has_three_terms_and_reproduces_the_matrix(m):
    assume(sympy_rank(m) == 3)
    fact = numkit._triangle_factorization(m, numkit._column_points(m))
    if fact is not None:
        assert_exact_witness(m, 3, fact)


def test_columns_that_span_a_triangle_close_on_its_own_sides():
    m = OWN_SIDES
    assert_exact_witness(m, 3, numkit._triangle_factorization(m, numkit._column_points(m)))


def test_columns_on_the_boundary_get_a_triangle_from_a_corner_start():
    m = CORNER_START
    assert numkit._separable_factorization(m, 3, numkit._column_points(m)) is None
    assert_exact_witness(m, 3, numkit._triangle_factorization(m, numkit._column_points(m)))


def test_the_slack_square_gets_no_triangle_under_any_permutation():
    for rows in itertools.permutations(SLACK_SQUARE):
        for cols in itertools.permutations(range(4)):
            m = RatMatrix.from_rows([[row[j] for j in cols] for row in rows])
            assert numkit._triangle_factorization(m, numkit._column_points(m)) is None


def test_exact_stage_past_the_subset_cap_lists_no_subset(monkeypatch):
    # 16 x 16 of rank 8 with 16 distinct column directions, C(16, 8) = 12870
    # r-subsets: a planted separable product gets its exact 8-term witness,
    # and a random product that is not separable gets the float search
    rng = random.Random(16)
    w = [[rng.randint(0, 4) for _ in range(8)] for _ in range(16)]
    cols = [[int(i == t) for i in range(8)] for t in range(8)]
    cols += [[rng.randint(0, 4) for _ in range(8)] for _ in range(8)]
    rng.shuffle(cols)
    planted = product_matrix(w, list(zip(*cols)))
    gen = np.random.default_rng(7)
    w, h = gen.integers(0, 5, size=(16, 8)), gen.integers(0, 5, size=(8, 16))
    mixed = RatMatrix.from_rows((w @ h).tolist())
    for m in (planted, mixed):
        assert sympy_rank(m) == 8
        directions = {tuple(Fraction(x) / max(col) for x in col) for col in zip(*m.iter_rows())}
        assert len(directions) == 16

    def no_subsets(*args):
        raise AssertionError("listed r-subsets")

    monkeypatch.setattr(numkit, "combinations", no_subsets)
    budget = SearchBudget(restarts=1, iterations=10)
    assert_exact_witness(planted, 8, nmf_search(planted, 8, budget))
    assert numkit._separable_factorization(mixed, 8, numkit._column_points(mixed)) is None
    exact = nmf_search(mixed, 8, budget)
    monkeypatch.setattr(numkit, "_separable_factorization", lambda *args: None)
    floats = nmf_search(mixed, 8, budget)
    assert (exact is None) == (floats is None)
    if exact is not None:
        assert exact.terms == floats.terms


def test_a_separable_rank_3_input_with_32_directions_gets_its_column_witness():
    # C(32, 3) = 4960 column 3-subsets; the separable stage still runs before
    # the nested-triangle stage, and its terms are columns of m
    rng = random.Random(3)
    w = [[rng.randint(0, 4) for _ in range(3)] for _ in range(6)]
    cols = [[int(i == t) for i in range(3)] for t in range(3)]
    cols += [[rng.randint(1, 9) for _ in range(3)] for _ in range(29)]
    rng.shuffle(cols)
    m = product_matrix(w, list(zip(*cols)))
    assert sympy_rank(m) == 3
    assert len({tuple(Fraction(x) / max(col) for x in col) for col in zip(*m.iter_rows())}) == 32
    fact = nmf_search(m, 3, SMALL_BUDGET)
    assert_exact_witness(m, 3, fact)
    assert {w for w, _ in fact.terms} <= set(zip(*m.iter_rows()))


def test_a_float_pick_that_misses_is_refused_and_the_rows_give_the_witness(monkeypatch):
    # rank 3 with columns g1, g2, g1 + g2, g3, g1 + g2 + g3: the column pick
    # is forced to (0, 1, 2), which is dependent, or to (0, 1), short of r;
    # either leaves a row of the continued sweep unexchanged, and the pick
    # must be refused; rows 0 + 1 + 2 = row 3, so the row side closes the
    # bracket.  No natural input with such a miss is known
    g1, g2, g3 = (3, 1, 0, 4), (0, 2, 1, 3), (1, 0, 4, 5)
    cols = [g1, g2, [a + b for a, b in zip(g1, g2)], g3, [a + b + c for a, b, c in zip(g1, g2, g3)]]
    m = RatMatrix.from_rows(list(zip(*cols)))
    real = numkit._pick_generators
    for miss in ((0, 1, 2), (0, 1)):
        sides = []

        def miss_on_columns(columns, r):
            sides.append(len(columns.points))
            return miss if len(columns.points) == 5 else real(columns, r)

        monkeypatch.setattr(numkit, "_pick_generators", miss_on_columns)
        fact = nmf_search(m, 3, SearchBudget(1, 50))
        assert verify_nonneg_factorization(m, fact) == FactorizationCheck(passed=True), miss
        assert sides == [5, 4]
        assert {line for _, line in fact.terms} <= set(m.iter_rows())
        rep = mr_bounds(m)
        assert (rep.lower, rep.upper, rep.upper_status) == (3, 3, "exact")


# 8x8 of rank 4 whose rows 0-3 generate the rest and whose column pick fails
ROW_SEPARABLE = (
    (3, 4, 1, 4, 1, 2, 3, 0),
    (0, 3, 2, 3, 4, 0, 2, 2),
    (1, 4, 2, 0, 0, 4, 0, 3),
    (0, 2, 3, 0, 0, 0, 1, 1),
    (13, 39, 20, 21, 15, 22, 16, 19),
    (16, 32, 12, 16, 4, 24, 12, 12),
    (1, 6, 5, 0, 0, 4, 1, 4),
    (15, 32, 16, 16, 4, 20, 14, 11),
)


def test_each_side_continues_its_sweep_from_its_last_pivot(monkeypatch):
    # the pick is confirmed by continuing the full sweep that left a side's
    # reduced rows R and last pivot L: every entry stays a 4-order minor of
    # the side, so the new last pivot is det R[:, pick] / L^3 up to sign (a
    # sweep of R started from 1 would leave it L^3 times larger).  The
    # column pick fails and the row side gives the witness
    m = RatMatrix.from_rows(ROW_SEPARABLE)
    real, calls = numkit._eliminate, []

    def spy(work, scan, forward, last=1):
        reduced = [row[:] for row in work]
        pivots, sign, new_last = real(work, scan, forward, last)
        calls.append((reduced, list(scan), pivots, new_last))
        return pivots, sign, new_last

    monkeypatch.setattr(numkit, "_eliminate", spy)
    fact = nmf_search(m, 4, SMALL_BUDGET)
    assert verify_nonneg_factorization(m, fact) == FactorizationCheck(passed=True)
    assert [line for _, line in fact.terms] == list(ROW_SEPARABLE[:4])
    assert len(calls) == 2
    for side, (reduced, pick, pivots, new_last) in zip((m, m.transpose()), calls):
        _, rows, last = reduced_rows(side)
        assert reduced == rows and abs(last) > 1 and pivots == pick
        minor = sympy.Matrix([[row[j] for j in pick] for row in rows]).det()
        assert abs(new_last) * abs(last) ** 3 == abs(int(minor))


def test_verify_exact_factorization_of_swap():
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    fact = NonnegFactorization(
        dims=(2, 2),
        terms=(
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        ),
    )
    chk = verify_nonneg_factorization(swap, fact)
    assert chk == FactorizationCheck(passed=True)


def test_verify_flags_negativity():
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    fact = NonnegFactorization(
        dims=(2, 2),
        terms=(
            ((Fraction(1), Fraction(-1, 1000)), (Fraction(0), Fraction(1))),
            ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        ),
    )
    chk = verify_nonneg_factorization(swap, fact)
    assert not chk.passed and chk.reason == "negativity"


def test_verify_reports_the_first_failure_in_order():
    # "not rational", then "negativity", then "error"; a float witness fails
    # even when it reproduces the target exactly
    target = RatMatrix.from_rows([[1, 0]])
    cases = [
        ((((1.0,), (1.0, 0.0)),), "not rational"),
        ((((1.0,), (1.0, -1.0)),), "not rational"),
        # exactness is tested before any sign, over every term
        ((((Fraction(-1),), (-1.0, 0)),), "not rational"),
        ((((-1,), (-1, 0)), ((0.0,), (0, 0))), "not rational"),
        ((((1,), (1, 1)), ((1,), (0, -1))), "negativity"),
        ((((1,), (-1, 0)),), "negativity"),
        ((((1,), (1, Fraction(1, 2))),), "error"),
        ((((Fraction(1, 2),), (2, 0)),), None),
    ]
    for terms, reason in cases:
        chk = verify_nonneg_factorization(target, NonnegFactorization(dims=(1, 2), terms=terms))
        assert chk == FactorizationCheck(passed=reason is None, reason=reason), terms


def test_the_witness_check_needs_the_target_denominator_to_divide_den():
    # factors in halves put the reconstruction over den = 4: cells 1/4, 1/2.
    # A target of 1/3 has 1 * (4 // 3) == 1, the first numerator, but 3 does
    # not divide 4, so the cells differ
    fact = NonnegFactorization(dims=(1, 2), terms=(((Fraction(1, 2),), (Fraction(1, 2), 1)),))
    target = RatMatrix.from_rows([[Fraction(1, 3), Fraction(1, 2)]])
    assert not fact.reproduces(target)
    assert verify_nonneg_factorization(target, fact) == FactorizationCheck(False, "error")
    exact = RatMatrix.from_rows([[Fraction(1, 4), Fraction(1, 2)]])
    assert fact.reproduces(exact)
    assert verify_nonneg_factorization(exact, fact) == FactorizationCheck(passed=True)


def test_a_witness_that_matches_only_after_reduction_passes():
    # two terms over den = 4 give the numerators 2 and 4: the cells 2/4 and
    # 4/4, which are the target's 1/2 and 1 once reduced
    half = Fraction(1, 2)
    fact = NonnegFactorization(
        dims=(1, 2), terms=(((half,), (half, half)), ((half,), (half, Fraction(3, 2))))
    )
    target = RatMatrix.from_rows([[half, 1]])
    assert verify_nonneg_factorization(target, fact) == FactorizationCheck(passed=True)
    assert fact.reproduces(target)
    assert fact.reproduces(DenseTensor((1, 2), [half, 1]))


def test_verify_shape_mismatch():
    fact = NonnegFactorization(dims=(2, 2), terms=())
    with pytest.raises(DimensionError):
        verify_nonneg_factorization(RatMatrix(2, 3, [0] * 6), fact)


def test_verify_exact_tensor_reconstruction():
    t = divisibility_tensor(DivTensorSpec(2, 3))
    terms = []
    for idx, e in zip(np.ndindex(*t.dims), t.entries):
        if e == 1:
            terms.append(
                tuple(
                    tuple(Fraction(1) if i == idx[m] else Fraction(0) for i in range(2))
                    for m in range(3)
                )
            )
    fact = NonnegFactorization(dims=(2, 2, 2), terms=tuple(terms))
    chk = verify_nonneg_factorization(t, fact)
    assert chk == FactorizationCheck(passed=True)


def _best_rank1_grid_oracle(arr: np.ndarray, steps: int = 48) -> float:
    """Dense angle grid over unit factors of a 2x2x2 tensor; returns the best
    achievable residual for one rank-1 term (closed-form optimal weight)."""
    angles = np.linspace(0.0, 2 * np.pi, steps, endpoint=False)
    vecs = [np.array([np.cos(t), np.sin(t)]) for t in angles]
    norm_sq = float(np.sum(arr * arr))
    best = -1.0
    for u in vecs:
        for v in vecs:
            for w in vecs:
                inner = float(np.einsum("ijk,i,j,k->", arr, u, v, w))
                best = max(best, abs(inner))
    return math.sqrt(max(norm_sq - best * best, 0.0))


@st.composite
def rational_factorizations(draw):
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    vals = st.sampled_from([Fraction(0), Fraction(1), Fraction(3), Fraction(1, 2), Fraction(2, 7), 2])
    terms = draw(
        st.lists(st.tuples(*(st.tuples(*[vals] * d) for d in dims)), min_size=0, max_size=4)
    )
    return NonnegFactorization(dims=dims, terms=tuple(terms))


@given(rational_factorizations())
def test_reproduces_matches_outer_product_sum(fact):
    oracle = np.full(fact.dims, Fraction(0), dtype=object)
    for term in fact.terms:
        oracle = oracle + reduce(np.multiply.outer, [np.array(v, dtype=object) for v in term])
    cells = list(oracle.ravel())
    assert fact.reproduces(DenseTensor(fact.dims, cells))
    # a change of any one cell, by a whole unit or by a part, is seen
    for k, bump in itertools.product(range(len(cells)), (1, Fraction(1, 7))):
        other = cells[:k] + [cells[k] + bump] + cells[k + 1 :]
        assert not fact.reproduces(DenseTensor(fact.dims, other))


def test_reproduces_is_false_for_a_target_of_other_dims():
    fact = NonnegFactorization(dims=(2, 2), terms=(((1, 1), (1, 1)),))
    assert fact.reproduces(RatMatrix(2, 2, [1] * 4))
    for dims in ((2, 3), (3, 2), (4, 1), (2, 2, 1)):
        assert not fact.reproduces(DenseTensor(dims, [1] * math.prod(dims)))
    assert not fact.reproduces(RatMatrix(1, 4, [1] * 4))


def test_cp_als_rank_one_exact():
    t = DenseTensor((2, 2, 2), [a * b * c for a in (1, 2) for b in (3, 1) for c in (Fraction(1, 2), 4)])
    assert cp_als(t, 1).residual < 1e-10


def test_cp_als_divisibility_fit_and_rank1_floor():
    t = divisibility_tensor(DivTensorSpec(2, 3))
    assert cp_als(t, 6).residual < 1e-6
    res1 = cp_als(t, 1).residual
    oracle = _best_rank1_grid_oracle(np.array([float(e) for e in t.entries]).reshape(t.dims))
    assert res1 > 0.5
    assert abs(res1 - oracle) < 0.02  # grid oracle pins sqrt(2)
    assert abs(oracle - math.sqrt(2)) < 0.01


def test_cp_als_rejects_matrices():
    with pytest.raises(ValidationError):
        cp_als(RatMatrix(3, 3, [1] * 9), 1)


def test_cp_als_deterministic():
    t = divisibility_tensor(DivTensorSpec(2, 3))
    a = cp_als(t, 2, iters=60, restarts=2, seed=3)
    b = cp_als(t, 2, iters=60, restarts=2, seed=3)
    assert a.terms == b.terms and a.residual == b.residual
