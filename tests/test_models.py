"""Application calculators: level profiles, hidden-variable models, exact
protocol depth (with brute-force and bipartition-recursion oracles), and
separation reports."""

import functools
import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrw import models
from mrw.bounds import SupportPattern, box_cover_exact, crown_cover_number, crown_lower_bound, support_pattern
from mrw.constructions import (
    CorrelationSpec,
    DivTensorSpec,
    EdmSpec,
    FunctionFSpec,
    difference_matrix,
    divisibility_tensor,
    edm,
    flattening,
    outcome_distribution,
    quantum_distribution,
)
from mrw.errors import CapacityError, DimensionError, ValidationError
from mrw.models import (
    HiddenVariableModel,
    _divisibility_mr,
    abp_profile,
    comm_ladder,
    comm_report,
    dcc_exact_2party,
    distinct_lines,
    divisibility_rank_witness,
    edm_folding_factorization,
    exact_unit_factorizations,
    hv_model_from_factorization,
    hv_sample,
    reduced_depths,
    row_masks,
)
from mrw.numkit import NonnegFactorization, SearchBudget, antisym_spectral, nmf_search, verify_nonneg_factorization
from mrw.ratlinalg import CAPACITY_LIMIT, RatMatrix, rank_exact


# ---------------------------------------------------------------------------
# level profiles
# ---------------------------------------------------------------------------

def test_profile_2_4_exact_values():
    p = abp_profile(2, 4)
    assert [lv.rank for lv in p.levels] == [1, 2, 3, 2, 1]
    assert p.levels[2].rank == 3
    assert p.total_size == 9
    assert p.rank_cap_ok and p.mirror_ok and p.step_inequality_ok


def test_profile_rank_caps_small_sweep():
    for n in (2, 3):
        for d in (2, 4):
            p = abp_profile(n, d)
            half = d // 2
            for k in range(half + 1):
                assert p.levels[half - k].rank <= 3 + 4 * k
                assert p.levels[half + k].rank == p.levels[half - k].rank


def _spaced_block_indices(n: int, d: int, k: int) -> list[int]:
    """The crown indices inside the level-(d/2 -+ k) flattenings: the
    multiples p * n^k for p < n^(d/2-k)."""
    return [p * n**k for p in range(n ** (d // 2 - k))]


def _block(m: RatMatrix, rows, cols) -> RatMatrix:
    """The block of m on `rows` x `cols`, in the given order."""
    return RatMatrix.from_rows([[m[i, j] for j in cols] for i in rows])


def _level_crown(host: RatMatrix, n: int, d: int, j: int) -> RatMatrix:
    """Level j's crown read from its materialised flattening: the spaced
    columns against every row at j <= d/2, the spaced rows above."""
    idx = _spaced_block_indices(n, d, d // 2 - min(j, d - j))
    if j <= d // 2:
        return _block(host, range(host.rows), idx)
    return _block(host, idx, range(host.cols))


def test_profile_level_bound_matches_block_cover():
    # the exhaustive cover search on each level's embedded crown is the
    # independent oracle for kappa; past 8 rows only kappa itself is pinned
    for n, d in [(2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (4, 2), (4, 4), (5, 4), (2, 8)]:
        spec = FunctionFSpec(n, d)
        p = abp_profile(n, d)
        assert all(lv.mr_lower_certified for lv in p.levels)
        for lv in p.levels:
            j = lv.level
            # each level reads the one coefficient array; its rank is that
            # of the flattening built on its own
            assert lv.rank == rank_exact(flattening(spec, j)), (n, d, j)
            size = n ** min(j, d - j)
            if size > 8:
                assert lv.mr_lower == crown_cover_number(size)
                continue
            block = _level_crown(flattening(spec, j), n, d, j)
            assert lv.mr_lower == box_cover_exact(support_pattern(block)).lower, (n, d, j)
    p = abp_profile(4, 6)
    assert [lv.mr_lower for lv in p.levels] == [0, 4, 6, 8, 6, 4, 0]
    assert all(lv.mr_lower_certified for lv in p.levels)


def test_every_level_crown_is_a_principal_block_of_the_middle_flattening():
    # the index identity abp_profile's one crown check rests on, at every
    # (n, d) with n^d <= 2^12
    cases = [(n, d) for n in range(2, 65) for d in range(2, 13, 2) if n**d <= 2**12]
    assert (2, 12) in cases and (4, 6) in cases and (64, 2) in cases
    for n, d in cases:
        spec = FunctionFSpec(n, d)
        mid = flattening(spec, d // 2)
        for j in range(d + 1):
            if j <= d // 2:
                s = n ** (d // 2 - j)
                principal = [i * s for i in range(n**j)]
            else:
                principal = list(range(n ** (d - j)))
            crown = _level_crown(flattening(spec, j), n, d, j)
            assert crown == _block(mid, principal, principal), (n, d, j)


def test_profile_refuses_a_middle_flattening_with_an_extra_zero(monkeypatch):
    def sabotaged(spec, k):
        m = flattening(spec, k)
        entries = list(m.entries)
        entries[1] = 0  # cell (0, 1), off the diagonal
        return RatMatrix(m.rows, m.cols, entries)

    monkeypatch.setattr(models, "flattening", sabotaged)
    for n, d in [(2, 2), (2, 4), (3, 4)]:
        with pytest.raises(ValidationError):
            abp_profile(n, d)


def test_profile_checks_one_crown(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.dims)
        return crown_lower_bound(m)

    monkeypatch.setattr(models, "crown_lower_bound", counted)
    for n, d in [(2, 2), (2, 6), (3, 4), (4, 6)]:
        calls.clear()
        abp_profile(n, d)
        # one check, on the whole middle flattening
        assert calls == [(n ** (d // 2), n ** (d // 2))], (n, d)


def test_profile_rejects_odd_degree_and_overflow():
    with pytest.raises(ValidationError):
        abp_profile(2, 3)
    with pytest.raises(CapacityError):
        abp_profile(8, 8)


# ---------------------------------------------------------------------------
# hidden-variable models
# ---------------------------------------------------------------------------

def joint_exact(model) -> RatMatrix:
    """The model's joint distribution over Fractions, entry by entry:
    sum over z of weights[z] * cond_x[z][x] * cond_y[z][y]."""
    nx, ny = model.shape
    parts = list(zip(model.weights, model.cond_x, model.cond_y))
    return RatMatrix(nx, ny, [sum(w * cx[x] * cy[y] for w, cx, cy in parts) for x in range(nx) for y in range(ny)])


def _swap_half() -> RatMatrix:
    return RatMatrix.from_rows([["0", "1/2"], ["1/2", "0"]])


def test_hv_model_from_two_term_factorization():
    p = _swap_half()
    fact = NonnegFactorization(
        dims=(2, 2),
        terms=(
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 2))),
            ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(0))),
        ),
    )
    model = hv_model_from_factorization(p, fact)
    assert model.support_size == 2
    assert model.weights == (Fraction(1, 2), Fraction(1, 2))
    assert joint_exact(model) == p


def _all_fractions(model: HiddenVariableModel) -> bool:
    dists = (model.weights, *model.cond_x, *model.cond_y)
    return all(type(x) is Fraction for dist in dists for x in dist)


def test_hv_model_from_int_factors_is_exact():
    # int factor entries verify exactly at tol 0, so the conditionals they
    # give must be exact too, not the floats of int / int
    fact = NonnegFactorization(
        dims=(2, 2),
        terms=(((1, 0), (0, Fraction(1, 2))), ((0, 1), (Fraction(1, 2), 0))),
    )
    model = hv_model_from_factorization(_swap_half(), fact)
    assert model.cond_x == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert _all_fractions(model)
    assert joint_exact(model) == _swap_half()


def test_hv_model_of_an_int_matrix_is_exact():
    p = RatMatrix.from_rows([[0, 1], [0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the zero second row is a zero-mass term
        model = hv_model_from_factorization(p, exact_unit_factorizations(p)[0])
    assert model.cond_y == ((Fraction(0), Fraction(1)),)
    assert _all_fractions(model)


def test_hv_model_product_distribution_single_term():
    px = (Fraction(1, 4), Fraction(3, 4))
    py = (Fraction(2, 3), Fraction(1, 3))
    joint = RatMatrix(2, 2, [a * b for a in px for b in py])
    fact = NonnegFactorization(dims=(2, 2), terms=((px, py),))
    model = hv_model_from_factorization(joint, fact)
    assert model.support_size == 1
    assert joint_exact(model) == joint


def test_hv_model_rejects_bad_factorization():
    p = _swap_half()
    wrong = NonnegFactorization(
        dims=(2, 2), terms=(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),)
    )
    with pytest.raises(ValidationError):
        hv_model_from_factorization(p, wrong)
    # the float copy of a factorization that verifies exactly
    floats = NonnegFactorization(dims=(2, 2), terms=(((1.0, 0.0), (0.0, 0.5)), ((0.0, 1.0), (0.5, 0.0))))
    with pytest.raises(ValidationError, match="rational"):
        hv_model_from_factorization(p, floats)


def test_hv_model_drops_zero_mass_terms():
    p = _swap_half()
    fact = NonnegFactorization(
        dims=(2, 2),
        terms=(
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 2))),
            ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(0))),
            ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
        ),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = hv_model_from_factorization(p, fact)
    assert model.support_size == 2
    assert any("zero-mass" in str(w.message) for w in caught)


def test_empty_models_raise_validation_error():
    zero = RatMatrix(2, 2, [0] * 4)
    # nmf_search returns the zero-term factorization for an all-zero matrix
    with pytest.raises(ValidationError):
        hv_model_from_factorization(zero, nmf_search(zero, 1, SearchBudget(restarts=1, iterations=1)))
    with pytest.raises(ValidationError):
        HiddenVariableModel((), (), ())


@pytest.mark.parametrize("q", [2, 3, 1024])
def test_hv_model_rejects_exact_mass_one_plus_one_over_q(q):
    over = (Fraction(1, 2), Fraction(1, 2) + Fraction(1, q))
    cond = ((1, 0), (0, 1))
    with pytest.raises(ValidationError, match="exactly"):
        HiddenVariableModel(over, cond, cond)
    with pytest.raises(ValidationError, match="exactly"):
        HiddenVariableModel((Fraction(1, 2), Fraction(1, 2)), (over, (0, 1)), cond)


def test_hv_model_rejects_negative_and_float_drift():
    cond = ((1, 0), (0, 1))
    with pytest.raises(ValidationError, match="nonnegative"):
        HiddenVariableModel((Fraction(3, 2), Fraction(-1, 2)), cond, cond)
    # float entries are refused, whether or not they sum to 1
    with pytest.raises(ValidationError, match="exact"):
        HiddenVariableModel((0.5, 0.5 + 1e-9), cond, cond)
    with pytest.raises(ValidationError, match="exact"):
        HiddenVariableModel((0.5, 0.5), cond, cond)
    # exactness is tested before the sign, so an entry that has no order
    # against 0, or a negative float, is refused as inexact
    point = ((1,),)
    for weights in [("a",), (None,), (-0.5,), (1.0,)]:
        with pytest.raises(ValidationError, match="exact"):
            HiddenVariableModel(weights, point, point)
    with pytest.raises(ValidationError, match="exact"):
        HiddenVariableModel((1,), (("1",),), point)
    assert HiddenVariableModel((Fraction(1, 2), Fraction(1, 2)), cond, cond).support_size == 2


def test_hv_round_trip_for_correlation_size_four():
    p = outcome_distribution(CorrelationSpec(4))
    for fact in exact_unit_factorizations(p):
        model = hv_model_from_factorization(p, fact)
        assert joint_exact(model) == p
        assert model.support_size >= box_cover_exact(support_pattern(p)).lower


def test_hv_sample_deterministic_point_mass():
    model = hv_model_from_factorization(
        RatMatrix.from_rows([[1]]),
        NonnegFactorization(dims=(1, 1), terms=(((Fraction(1),), (Fraction(1),)),)),
    )
    rep = hv_sample(model, 500, seed=3)
    assert rep.tv_distance == 0.0


def test_hv_sample_counts_and_tv_distance_are_pinned():
    # the third term gets no draws at these seeds but still enters the joint
    model = HiddenVariableModel(
        (Fraction(1, 3), Fraction(2, 3) - Fraction(1, 10**9), Fraction(1, 10**9)),
        ((Fraction(1, 3),) * 3, (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)), (0, 0, 1)),
        ((Fraction(1, 10), Fraction(3, 10), Fraction(3, 5)), (Fraction(1, 3), Fraction(2, 3), 0), (1, 0, 0)),
    )
    rep = hv_sample(model, 1000, seed=5)
    assert rep.counts.tolist() == [[39, 90, 60], [65, 165, 87], [147, 283, 64]]
    assert rep.tv_distance == 0.0339206343015873
    rep = hv_sample(model, 10**6, seed=29)
    assert rep.counts.tolist() == [
        [42762, 96997, 66834], [74485, 160271, 66318], [137954, 287693, 66686]
    ]
    assert rep.tv_distance == 0.0007496830158730157


def test_hv_sample_statistics_and_determinism():
    p = _swap_half()
    fact = exact_unit_factorizations(p)[0]
    model = hv_model_from_factorization(p, fact)
    rep = hv_sample(model, 10**5, seed=11)
    assert rep.tv_distance <= 0.02  # 3-sigma multinomial band
    rep2 = hv_sample(model, 10**5, seed=11)
    assert np.array_equal(rep.counts, rep2.counts)


# ---------------------------------------------------------------------------
# exact closed-form witnesses
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.fractions(min_value=-40, max_value=40, max_denominator=9),
        min_size=1,
        max_size=12,
        unique=True,
    )
)
def test_folding_witness_reconstructs_edm_exactly(values):
    spec = EdmSpec(values)
    fact = edm_folding_factorization(spec)
    assert fact.reproduces(edm(spec))
    assert all(x >= 0 for term in fact.terms for vec in term for x in vec)
    assert fact.r <= 2 * (spec.n - 1)


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=12, unique=True))
def test_folding_witness_of_int_values_is_exact(values):
    spec = EdmSpec(values)
    assert all(type(v) is int for v in spec.values)
    fact = edm_folding_factorization(spec)
    assert verify_nonneg_factorization(edm(spec), fact).passed
    twin = edm_folding_factorization(EdmSpec([Fraction(v) for v in values]))
    assert (fact.dims, fact.terms) == (twin.dims, twin.terms)


def test_folding_witness_on_integers_is_logarithmic():
    for n in range(1, 65):
        spec = EdmSpec.integers(n)
        fact = edm_folding_factorization(spec)
        assert fact.r == 2 * math.ceil(math.log2(n)), n
        assert fact.reproduces(edm(spec)), n


@pytest.mark.parametrize("base", [2, 3, 4])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_divisibility_witness_reconstructs_tensor_exactly(base, order):
    spec = DivTensorSpec(base, order)
    witness = divisibility_rank_witness(spec)
    assert witness.reproduces(divisibility_tensor(spec))
    assert witness.r == order * (base - 1) + 1 <= base * order
    # one term's first factor doubled is no longer a witness
    (first, *rest), *others = witness.terms
    doubled = NonnegFactorization(witness.dims, ((tuple(2 * x for x in first), *rest), *others))
    assert not doubled.reproduces(divisibility_tensor(spec))


def test_divisibility_witness_builds_past_the_dense_guard():
    # 2^30 cells, no dense tensor: term t is c_t (t, t^2) in mode 0 and
    # (t, t^2) in the others, so the identities sum_t c_t t^S = [2 | S] over
    # the index sums S = 30..60 are the whole decomposition
    spec = DivTensorSpec(2, 30)
    with pytest.raises(CapacityError):
        divisibility_tensor(spec)
    witness = divisibility_rank_witness(spec)
    assert witness.r == 31
    c = [term[0][0] / term[1][0] for term in witness.terms]
    for s in range(30, 61):
        assert sum(ct * t**s for t, ct in enumerate(c, start=1)) == (s % 2 == 0)


# ---------------------------------------------------------------------------
# quantum outcome distribution
# ---------------------------------------------------------------------------

def test_quantum_distribution_orthogonal_supports():
    e1 = np.array([1, 0, 0, 0], dtype=complex)
    e2 = np.array([0, 1, 0, 0], dtype=complex)
    p = quantum_distribution(e1, e2, e1, e2)
    expected = np.zeros((4, 4))
    expected[0, 0] = 0.5
    expected[1, 1] = 0.5
    assert np.allclose(p, expected)


def test_quantum_distribution_matches_exact_correlation():
    pair = antisym_spectral(difference_matrix(CorrelationSpec(2)))
    p = quantum_distribution(pair.u0, pair.u1, np.conj(pair.u0), -np.conj(pair.u1))
    assert np.allclose(p, [[0.0, 0.5], [0.5, 0.0]], atol=1e-9)


def test_quantum_distribution_normalized_for_random_orthonormal_pairs():
    rng = np.random.default_rng(20)
    for n in (3, 5, 8):
        a = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        q, _ = np.linalg.qr(a)
        u0, u1 = q[:, 0], q[:, 1]
        p = quantum_distribution(u0, u1, np.conj(u0), -np.conj(u1))
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= -1e-15)


# ---------------------------------------------------------------------------
# exact two-party protocol depth
# ---------------------------------------------------------------------------

def brute_force_depth(grid: list[list[int]], depth_cap: int = 6) -> int:
    """Oracle: direct minimax recursion on explicit index sets, no memo or
    canonicalization shortcuts."""

    def solve(rows: tuple[int, ...], cols: tuple[int, ...], fuel: int) -> int:
        vals = {grid[i][j] for i in rows for j in cols}
        if len(vals) == 1:
            return 0
        if fuel == 0:
            return depth_cap + 1
        best = depth_cap + 1
        for side, idx in (("r", rows), ("c", cols)):
            if len(idx) < 2:
                continue
            for mask in range(2 ** (len(idx) - 1)):
                left = tuple(v for b, v in enumerate(idx) if b == 0 or mask >> (b - 1) & 1)
                right = tuple(v for b, v in enumerate(idx) if b != 0 and not mask >> (b - 1) & 1)
                if not right:
                    continue
                if side == "r":
                    cost = 1 + max(solve(left, cols, fuel - 1), solve(right, cols, fuel - 1))
                else:
                    cost = 1 + max(solve(rows, left, fuel - 1), solve(rows, right, fuel - 1))
                best = min(best, cost)
        return best

    return solve(tuple(range(len(grid))), tuple(range(len(grid[0]))), depth_cap)


def grid_depth(grid) -> int:
    return dcc_exact_2party(RatMatrix.from_rows(grid))


def test_depth_worked_values():
    assert grid_depth([[1, 1], [1, 1]]) == 0
    assert grid_depth([[0, 1]]) == 1
    assert grid_depth([[1, 0], [0, 1]]) == 2


def test_depth_matches_brute_force():
    rng = random.Random(19)
    grids = [[[0]], [[1]], [[0, 1], [1, 0]], [[1, 1], [1, 0]], [[1] * 4] * 3]
    for nr, nc, count in ((3, 3, 12), (1, 4, 2), (4, 1, 2), (2, 3, 3), (3, 2, 3), (3, 4, 4)):
        for _ in range(count):
            grids.append([[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)])
    # duplicated rows and columns: blow small grids up to 4x4 or less by
    # repeating shuffled indices
    for nr, nc, big_r, big_c in ((2, 2, 4, 4), (2, 3, 4, 4), (3, 2, 4, 4), (3, 3, 4, 3), (3, 3, 3, 4)):
        base = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)]
        rows = list(range(nr)) + [rng.randrange(nr) for _ in range(big_r - nr)]
        cols = list(range(nc)) + [rng.randrange(nc) for _ in range(big_c - nc)]
        rng.shuffle(rows)
        rng.shuffle(cols)
        grids.append([[base[i][j] for j in cols] for i in rows])
    for grid in grids:
        want = brute_force_depth(grid)
        assert grid_depth(grid) == want, grid
        assert grid_depth([list(col) for col in zip(*grid)]) == want, grid


def distinct_columns(rows: tuple[int, ...], ncols: int) -> tuple[int, ...]:
    """The distinct columns, sorted, of the 0/1 matrix whose row i has entry
    (i, j) as bit j of rows[i]; column j has it as bit i."""
    return tuple(sorted({sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(ncols)}))


@functools.cache
def bipartition_depth(rows: tuple[int, ...], ncols: int) -> int:
    """Oracle: memoized top-down recursion over the bipartitions of the rows
    and of the columns (a column move is a row move on the transpose), the
    first item pinned left.  A state with unsorted or repeated rows, or
    repeated columns, hands off to its transpose with sorted distinct
    columns, so a constant state becomes 1x1."""
    cols = distinct_columns(rows, ncols)
    if len(cols) < ncols or rows != tuple(sorted(set(rows))):
        return bipartition_depth(cols, len(rows))
    if len(rows) == 1 and ncols == 1:
        return 0
    best = math.inf
    for items, width in ((rows, ncols), (cols, len(rows))):
        first, rest = items[0], items[1:]
        for mask in range(2 ** (len(items) - 1) - 1):
            left = bipartition_depth((first, *(r for i, r in enumerate(rest) if mask >> i & 1)), width)
            if 1 + left >= best:
                continue
            right = bipartition_depth(tuple(r for i, r in enumerate(rest) if not mask >> i & 1), width)
            best = min(best, 1 + max(left, right))
    return best


def test_depth_matches_bipartition_recursion():
    rng = random.Random(22)
    grids = []
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        grids.append([[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)])
    # duplicated rows and columns: small grids blown up to 6x6 or less by
    # repeating shuffled indices
    for _ in range(120):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        base = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)]
        rows = list(range(nr)) + [rng.randrange(nr) for _ in range(rng.randint(0, 6 - nr))]
        cols = list(range(nc)) + [rng.randrange(nc) for _ in range(rng.randint(0, 6 - nc))]
        rng.shuffle(rows)
        rng.shuffle(cols)
        grids.append([[base[i][j] for j in cols] for i in rows])
    # at the cap: rows 0..11 of 4 bits, 12 distinct rows and 4 distinct columns
    grids.append(mask_grid(range(12), 4))
    for grid in grids:
        masks = tuple(sum(v << j for j, v in enumerate(row)) for row in grid)
        assert grid_depth(grid) == bipartition_depth(masks, len(grid[0])), grid


def grid_masks(grid) -> tuple[int, ...]:
    return tuple(sum(v << j for j, v in enumerate(row)) for row in grid)


def assert_batched_depths_match(grids, oracle):
    """Cut each grid to its distinct lines, sweep the packed lines of each
    shape as one batch, and hold every batched depth to the one-instance
    path and to the oracle."""
    by_shape: dict[tuple[int, int], list] = {}
    for grid in grids:
        cols = distinct_lines(map(tuple, grid))
        rows = row_masks(cols)
        by_shape.setdefault((len(rows), len(cols)), []).append((rows, grid))
    for (_, ncols), group in by_shape.items():
        depths = reduced_depths([rows for rows, _ in group], ncols)
        assert len(depths) == len(group)
        for (_, grid), depth in zip(group, depths):
            assert depth == grid_depth(grid) == oracle(grid), grid


def test_batched_depths_on_every_matrix_up_to_3x3():
    grids = [
        mask_grid([code >> (i * nc) & ((1 << nc) - 1) for i in range(nr)], nc)
        for nr in range(1, 4)
        for nc in range(1, 4)
        for code in range(1 << (nr * nc))
    ]
    assert len(grids) == 682
    # a 3x3 has depth at most 3: two bits name the row, one gives the value
    assert_batched_depths_match(grids, functools.partial(brute_force_depth, depth_cap=3))


def test_batched_depths_on_seeded_5x5_and_6x6():
    rng = random.Random(26)
    grids = [[[rng.randint(0, 1) for _ in range(n)] for _ in range(n)] for n in (5, 6) for _ in range(40)]
    assert_batched_depths_match(grids, lambda grid: bipartition_depth(grid_masks(grid), len(grid[0])))


def test_batched_depths_retire_each_instance_at_its_own_level():
    # two reduced 5x5 keys of depths 4 and 3, interleaved and reordered, so
    # instances leave the batch at different levels
    deep, shallow = (1, 11, 16, 29, 30), (17, 18, 25, 29, 30)
    batch = [deep, shallow, deep[::-1], shallow[::-1], deep]
    want = [bipartition_depth(tuple(sorted(rows)), 5) for rows in batch]
    assert want == [4, 3, 4, 3, 4]
    assert reduced_depths(batch, 5) == want


def test_batched_depths_of_an_empty_batch():
    assert reduced_depths([], 3) == []


def test_depth_of_identity_is_log_plus_one():
    # D(I_n) = ceil(log2 n) + 1; n = 8 has 16 distinct lines, at the cap
    for n in range(2, 9):
        assert grid_depth(mask_grid([1 << i for i in range(n)], n)) == math.ceil(math.log2(n)) + 1, n


def test_depth_dominates_log_rank_and_cover():
    rng = random.Random(4)
    for _ in range(15):
        grid = [[rng.randint(0, 1) for _ in range(5)] for _ in range(4)]
        m = RatMatrix.from_rows(grid)
        depth = dcc_exact_2party(m)
        r = rank_exact(m)
        if r >= 1:
            assert depth >= math.ceil(math.log2(r))
        cover = box_cover_exact(support_pattern(m)).lower
        if cover >= 1:
            assert depth >= math.ceil(math.log2(cover))


def test_depth_input_validation():
    with pytest.raises(ValidationError):
        grid_depth([[0, 2]])
    with pytest.raises(ValidationError):
        grid_depth([[0, Fraction(1, 2)]])
    # no shape cap: one row of 17 zeros is constant
    assert grid_depth([[0] * 17]) == 0


def mask_grid(masks, ncols: int) -> list[list[int]]:
    return [[(m >> j) & 1 for j in range(ncols)] for m in masks]


def test_depth_capped_by_distinct_rows_plus_columns():
    # every 4-bit row: 16 distinct rows and 4 distinct columns, over the cap
    with pytest.raises(CapacityError, match="got 20"):
        grid_depth(mask_grid(range(16), 4))
    # 9 distinct rows and 4 distinct columns solve; so does a 16x16 input
    # whose 2 distinct rows leave 2 distinct columns
    assert grid_depth(mask_grid(range(9), 4)) == 3
    assert grid_depth(mask_grid([0x00FF, 0xFF00] * 8, 16)) == 2
    # no shape cap: a 24x24 input of rows alternating between ones on the
    # first 12 columns and ones on the last 12 solves the same way
    assert grid_depth(mask_grid([0xFFF, 0xFFF000] * 12, 24)) == 2


def test_depth_of_a_line_of_2_20_ones_is_found_in_one_pass():
    # one distinct line a side: lines are cut as tuples before any bitmask
    # is built, so a 2^20-bit row costs one pass, not one pass per set bit
    width = CAPACITY_LIMIT
    start = time.perf_counter()
    assert dcc_exact_2party(RatMatrix(1, width, [1] * width)) == 0
    assert dcc_exact_2party(RatMatrix(width, 1, [0] * (width - 1) + [1])) == 1
    assert time.perf_counter() - start < 20


def packed_lines(grid) -> tuple[list[int], int]:
    """The distinct lines of a grid packed as row masks, sorted, and their
    column count."""
    cols = distinct_lines(map(tuple, grid))
    return sorted(row_masks(cols)), len(cols)


def test_16_bit_rows_reduce_to_their_distinct_lines():
    # I_4 (x) J_4: 16-bit rows, the last with bit 15 set, and 4 distinct
    # lines a side; its distinct lines are I_4's, of depth 3, in any order
    grid = mask_grid([0xF << (4 * (i // 4)) for i in range(16)], 16)
    assert packed_lines(grid) == ([1, 2, 4, 8], 4)
    assert grid_depth(grid) == 3
    # rows of sixteen ones next to a repeated and a zero row: 3 distinct
    # rows over 2 distinct columns, the short row's bit where column 15 is not
    rows, ncols = packed_lines(mask_grid([0xFFFF, 0, 0xFFFF] + [0x7FFF] * 13, 16))
    assert ncols == 2 and rows in ([0, 1, 3], [0, 2, 3])


def test_ones_given_as_fractions_are_packed_as_ints():
    # RatMatrix keeps a Fraction(1) entry as a Fraction; packing reads it as 1
    one = Fraction(1)
    assert dcc_exact_2party(RatMatrix(2, 2, [one, 0, 0, one])) == 2
    # int and Fraction ones mixed over repeated lines: hashing reads 1 and
    # Fraction(1) as one value, so this is I_2 (x) J_2 with a repeated row
    grid = [[1, one, 0, 0], [one, 1, 0, 0], [0, 0, one, 1], [0, 0, 1, 1], [1, 1, 0, 0]]
    assert packed_lines(grid) == ([1, 2], 2)
    assert grid_depth(grid) == 2


# ---------------------------------------------------------------------------
# separation reports
# ---------------------------------------------------------------------------

def test_comm_report_worked_values():
    rep = comm_report(2, 3)
    assert rep.log_mr_exact == 4
    assert abs(rep.log_rk_upper - math.log2(12)) < 1e-12
    assert rep.trivial_protocol_cost == 5
    assert rep.mr_cross_check == 16
    assert rep.flattening_rank <= rep.rank_upper_dn == 12

    small = comm_report(1, 2)
    assert small.log_mr_exact == 1
    assert small.mr_cross_check == 2


def test_comm_report_matches_its_closed_forms():
    for nbits in range(1, 7):
        for d in range(2, 12 // nbits + 1):
            rep = comm_report(nbits, d)
            got = (rep.mr_cross_check, rep.flattening_rank, rep.rank_upper_dn)
            assert got == (2 ** (nbits * (d - 1)), 2**nbits, d * 2**nbits), (nbits, d)


def test_divisibility_mr_is_the_support_size():
    for base, order, mr in [(2, 3, 4), (3, 3, 9), (3, 2, 3)]:
        spec = DivTensorSpec(base, order)
        assert _divisibility_mr(spec, support_pattern(divisibility_tensor(spec))) == mr
    spec = DivTensorSpec(2, 2)
    with pytest.raises(ValidationError, match="support size"):
        _divisibility_mr(spec, SupportPattern((2, 2), frozenset({(0, 1)})))
    with pytest.raises(ValidationError, match="singleton-box"):
        _divisibility_mr(spec, SupportPattern((2, 2), frozenset({(0, 0), (0, 1)})))


def test_comm_report_validation():
    with pytest.raises(ValidationError):
        comm_report(0, 3)
    with pytest.raises(ValidationError):
        comm_report(2, 1)
    # base^d = 2^21 is past the 2^20 guard, so no cross-check
    assert comm_report(7, 3).mr_cross_check is None


def test_comm_report_of_a_huge_nbits_builds_no_base():
    # without a cross-check the base 2^nbits is never built, so nbits = 2^63
    # gives its closed-form report at once instead of a MemoryError
    rep = comm_report(2**63, 2)
    assert rep.log_mr_exact == 2**63 and rep.trivial_protocol_cost == 2**63 + 1
    assert rep.mr_cross_check is None and rep.rank_upper_dn is None


def test_comm_ladder_monotone():
    ladder = comm_ladder(2, 10**4)
    ratios = [r.separation_ratio for r in ladder]
    assert ladder[-1].d == 10**4
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
