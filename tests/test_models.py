"""Application calculators: level profiles, hidden-variable models, exact
protocol depth (with a brute-force oracle), and separation reports."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mrw.bounds import box_cover_exact, support_pattern
from mrw.constructions import CorrelationSpec, build_correlation, outcome_distribution
from mrw.errors import CapacityError, DimensionError, ValidationError
from mrw.models import (
    HiddenVariableModel,
    abp_profile,
    comm_ladder,
    comm_report,
    dcc_exact_2party,
    exact_unit_factorizations,
    hv_model_from_factorization,
    hv_sample,
    quantum_distribution,
)
from mrw.numkit import NonnegFactorization, nmf_search
from mrw.ratlinalg import RatMatrix, rank_exact


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


def test_profile_level_bound_matches_block_cover():
    p = abp_profile(3, 4)
    from mrw.constructions import EdmSpec, edm

    block = edm(EdmSpec([0, 3, 6]))  # level 1 block: stride n, size n
    assert p.levels[1].mr_lower == box_cover_exact(support_pattern(block)).lower


def test_profile_rejects_odd_degree_and_overflow():
    with pytest.raises(ValidationError):
        abp_profile(2, 3)
    with pytest.raises(CapacityError):
        abp_profile(8, 8)


# ---------------------------------------------------------------------------
# hidden-variable models
# ---------------------------------------------------------------------------

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
    assert model.joint_exact() == p


def test_hv_model_product_distribution_single_term():
    px = (Fraction(1, 4), Fraction(3, 4))
    py = (Fraction(2, 3), Fraction(1, 3))
    joint = RatMatrix(2, 2, [a * b for a in px for b in py])
    fact = NonnegFactorization(dims=(2, 2), terms=((px, py),))
    model = hv_model_from_factorization(joint, fact)
    assert model.support_size == 1
    assert model.joint_exact() == joint


def test_hv_model_rejects_bad_factorization():
    p = _swap_half()
    wrong = NonnegFactorization(
        dims=(2, 2), terms=(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),)
    )
    with pytest.raises(ValidationError):
        hv_model_from_factorization(p, wrong)


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
    zero = RatMatrix.zeros(2, 2)
    # nmf_search returns the zero-term factorization for an all-zero matrix
    with pytest.raises(ValidationError):
        hv_model_from_factorization(zero, nmf_search(zero, 1))
    with pytest.raises(ValidationError):
        HiddenVariableModel((), (), ())


def test_hv_round_trip_for_correlation_size_four():
    p = outcome_distribution(CorrelationSpec(4))
    for fact in exact_unit_factorizations(p):
        model = hv_model_from_factorization(p, fact)
        assert model.joint_exact() == p
        assert model.support_size >= box_cover_exact(support_pattern(p)).lower


def test_hv_sample_deterministic_point_mass():
    model = hv_model_from_factorization(
        RatMatrix.from_rows([[1]]),
        NonnegFactorization(dims=(1, 1), terms=(((Fraction(1),), (Fraction(1),)),)),
    )
    rep = hv_sample(model, 500, seed=3)
    assert rep.tv_distance == 0.0


def test_hv_sample_statistics_and_determinism():
    p = _swap_half()
    fact = exact_unit_factorizations(p)[0]
    model = hv_model_from_factorization(p, fact)
    rep = hv_sample(model, 10**5, seed=11)
    assert rep.tv_distance <= 0.02  # 3-sigma multinomial band
    rep2 = hv_sample(model, 10**5, seed=11)
    assert np.array_equal(rep.counts, rep2.counts)


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
    corr = build_correlation(CorrelationSpec(2))
    p = quantum_distribution(corr.u0, corr.u1, corr.v0, corr.v1)
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


def test_depth_worked_values():
    assert dcc_exact_2party([[1, 1], [1, 1]]) == 0
    assert dcc_exact_2party([[0, 1]]) == 1
    assert dcc_exact_2party([[1, 0], [0, 1]]) == 2


def test_depth_matches_brute_force():
    rng = random.Random(19)
    grids = [[[0]], [[1]], [[0, 1], [1, 0]], [[1, 1], [1, 0]]]
    for _ in range(12):
        grids.append([[rng.randint(0, 1) for _ in range(3)] for _ in range(3)])
    for grid in grids:
        assert dcc_exact_2party(grid) == brute_force_depth(grid)


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
        dcc_exact_2party([[0, 2]])
    with pytest.raises(CapacityError):
        dcc_exact_2party([[0] * 17])


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


def test_comm_report_validation():
    with pytest.raises(ValidationError):
        comm_report(0, 3)
    with pytest.raises(ValidationError):
        comm_report(2, 1)
    with pytest.raises(CapacityError):
        comm_report(4, 10, cross_check=True)


def test_comm_ladder_monotone():
    ladder = comm_ladder(2, 10**4)
    ratios = [r.separation_ratio for r in ladder]
    assert ladder[-1].d == 10**4
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
