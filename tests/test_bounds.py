"""Cover bounds: brute-force oracles on tiny patterns, counting fallback,
soundness against random exact factorizations, divisibility predicates."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrw.bounds import (
    BoxCoverResult,
    _max_box_size_2d,
    _maximal_boxes_2d,
    _maximal_boxes_bfs,
    box_cover_exact,
    div_tensor_mr_exact,
    enumerate_maximal_boxes,
    mr_bounds,
    singleton_box_predicate,
    support_pattern,
    SupportPattern,
)
from mrw.constructions import DivTensorSpec, EdmSpec, divisibility_tensor, edm
from mrw.errors import ValidationError
from mrw.numkit import NonnegFactorization, verify_nonneg_factorization
from mrw.ratlinalg import RatMatrix, rank_exact


def brute_force_cover(pattern: SupportPattern, limit: int = 6) -> int:
    """Oracle: smallest support-contained box cover, by trying all
    combinations of *all* support boxes (not just maximal ones)."""
    cells = sorted(pattern.cells)
    if not cells:
        return 0
    mode_values = [sorted({c[m] for c in cells}) for m in range(pattern.order)]
    boxes = []
    for parts in itertools.product(
        *(
            [
                tuple(sub)
                for r in range(1, len(vals) + 1)
                for sub in itertools.combinations(vals, r)
            ]
            for vals in mode_values
        )
    ):
        box_cells = set(itertools.product(*parts))
        if box_cells <= pattern.cells:
            boxes.append(box_cells)
    for k in range(1, limit + 1):
        for combo in itertools.combinations(boxes, k):
            union = set().union(*combo)
            if union >= pattern.cells:
                return k
    raise AssertionError("oracle limit too small")


def test_support_pattern_examples():
    assert sorted(support_pattern(RatMatrix.from_rows([[0, 1], [1, 0]])).cells) == [
        (0, 1),
        (1, 0),
    ]
    assert support_pattern(RatMatrix.zeros(2, 2)).size == 0
    assert support_pattern(edm(EdmSpec.integers(3))).size == 6


def test_cover_matches_brute_force_on_small_patterns():
    for m in (2, 3):
        pat = support_pattern(edm(EdmSpec.integers(m)))
        assert box_cover_exact(pat).lower == brute_force_cover(pat)
    rng = random.Random(42)
    for _ in range(12):
        cells = {
            (rng.randrange(3), rng.randrange(3))
            for _ in range(rng.randint(1, 6))
        }
        pat = SupportPattern(dims=(3, 3), cells=frozenset(cells))
        res = box_cover_exact(pat)
        assert res.exact
        assert res.lower == brute_force_cover(pat)


def test_cover_off_diagonal_values():
    # single support box cannot hold both (i,j) and (j,i): it would need the
    # diagonal cell (i,i) too, which is off support
    assert box_cover_exact(support_pattern(edm(EdmSpec.integers(2)))).lower == 2
    res4 = box_cover_exact(support_pattern(edm(EdmSpec.integers(4))))
    assert res4.exact and res4.lower == 4
    assert res4.lower >= 2  # ceil(log2(4))


def test_cover_certificate_boxes_are_valid():
    pat = support_pattern(edm(EdmSpec.integers(4)))
    res = box_cover_exact(pat)
    covered = set()
    for box in res.boxes:
        cells = set(itertools.product(*box))
        assert cells <= pat.cells
        covered |= cells
    assert covered == pat.cells


def test_cover_all_ones_and_diagonal():
    ones = RatMatrix.from_rows([[1] * 4 for _ in range(4)])
    assert box_cover_exact(support_pattern(ones)).lower == 1
    diag = RatMatrix.from_rows([[int(i == j) for j in range(5)] for i in range(5)])
    res = box_cover_exact(support_pattern(diag))
    assert res.exact and res.lower == 5


def test_cover_counting_fallback_certified():
    res = box_cover_exact(support_pattern(edm(EdmSpec.integers(16))))
    assert not res.exact
    assert res.lower == 4  # ceil(240 / 64): largest crossing-free box is 8x8
    big = box_cover_exact(support_pattern(edm(EdmSpec.integers(40))))
    assert big.lower >= 1


def test_maximal_box_enumeration_matches_definition():
    pat = support_pattern(edm(EdmSpec.integers(3)))
    boxes = enumerate_maximal_boxes(pat)
    for box in boxes:
        cells = set(itertools.product(*box))
        assert cells <= pat.cells
        # no single-value extension stays inside the support
        for m in range(2):
            for v in range(3):
                if v in box[m]:
                    continue
                grown = set(
                    itertools.product(
                        *(box[:m] + ((v,),) + box[m + 1 :])
                    )
                )
                assert not (grown <= pat.cells)


@st.composite
def small_patterns(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))))
    return SupportPattern(dims=(rows, cols), cells=frozenset(cells))


@st.composite
def tall_patterns(draw):
    """More than 16 distinct row masks, at most 6 distinct column masks, so the
    closure enumeration has to run on the columns."""
    cols = 6
    sparse_masks = [m for m in range(1, 1 << cols) if m.bit_count() <= 2]
    masks = draw(st.lists(st.sampled_from(sparse_masks), min_size=17, max_size=21, unique=True))
    cells = {(i, j) for i, mask in enumerate(masks) for j in range(cols) if mask >> j & 1}
    return SupportPattern(dims=(len(masks), cols), cells=frozenset(cells))


@settings(derandomize=True, deadline=None)
@given(st.one_of(small_patterns(), tall_patterns()))
def test_support_mask_kernels_match_bfs(pattern):
    boxes = _maximal_boxes_bfs(pattern)
    assert _maximal_boxes_2d(pattern) == boxes
    sizes = [len(rows) * len(cols) for rows, cols in boxes]
    assert _max_box_size_2d(pattern) == (max(sizes) if sizes else None)


def random_exact_factorization(rng: random.Random, rows: int, cols: int, r: int):
    terms = []
    for _ in range(r):
        u = tuple(Fraction(rng.choice([0, 0, 1, 2, 3])) for _ in range(rows))
        v = tuple(Fraction(rng.choice([0, 1, 1, 2])) for _ in range(cols))
        terms.append((u, v))
    return NonnegFactorization(dims=(rows, cols), terms=tuple(terms))


def test_lower_bound_soundness_against_random_factorizations():
    rng = random.Random(77)
    for _ in range(25):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        r = rng.randint(1, 4)
        fact = random_exact_factorization(rng, rows, cols, r)
        m = fact.reconstruct_exact()
        assert verify_nonneg_factorization(m, fact, tol=0).passed
        res = box_cover_exact(support_pattern(m))
        assert r >= res.lower
        assert r >= rank_exact(m)


def test_mr_bounds_examples():
    rep = mr_bounds(edm(EdmSpec.integers(4)))
    assert rep.lower >= 3 and rep.lower >= rep.cover.lower
    assert rep.upper <= 4 and rep.lower <= rep.upper

    diag = RatMatrix.from_rows([[2 if i == j else 0 for j in range(3)] for i in range(3)])
    rep = mr_bounds(diag)
    assert rep.lower == rep.upper == 3

    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    rep = mr_bounds(swap)
    assert rep.lower == rep.upper == 2


def test_mr_bounds_rejects_negative_entries():
    with pytest.raises(ValidationError):
        mr_bounds(RatMatrix.from_rows([[1, -1], [0, 1]]))


def test_mr_bounds_tensor_path():
    t = divisibility_tensor(DivTensorSpec(2, 3))
    rep = mr_bounds(t)
    assert rep.lower == 4
    assert rep.upper == 4
    assert rep.rank_lower == 2


def test_singleton_predicate_exhaustive_small_bases():
    for base in (2, 3, 4):
        for order in (2, 3, 4):
            if base**order > 1 << 20:
                continue
            t = divisibility_tensor(DivTensorSpec(base, order))
            assert singleton_box_predicate(support_pattern(t))


def test_singleton_predicate_detects_wide_boxes():
    pat = SupportPattern(dims=(2, 2), cells=frozenset({(0, 0), (0, 1)}))
    assert not singleton_box_predicate(pat)


def test_div_tensor_mr_exact_values():
    assert div_tensor_mr_exact(DivTensorSpec(2, 3)) == 4
    assert div_tensor_mr_exact(DivTensorSpec(3, 3)) == 9
    assert div_tensor_mr_exact(DivTensorSpec(3, 2)) == 3


def test_mr_bounds_heuristic_upper_closes_gap():
    # rank 2, cover 2, dimension bound 3: the searched witness should close it
    m = RatMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    rep = mr_bounds(m)
    assert rep.lower == 2
    assert rep.upper == 2 and rep.upper_status == "heuristic-certified"
    assert rep.factorization is not None and rep.factorization.r == 2


def test_cover_respects_node_budget():
    pat = support_pattern(edm(EdmSpec.integers(8)))
    res = box_cover_exact(pat, node_budget=50)
    assert isinstance(res, BoxCoverResult)
    assert res.lower >= 4 and not res.exact
    full = box_cover_exact(pat)
    assert full.exact and full.lower == 5
    assert res.lower <= full.lower
