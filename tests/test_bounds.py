"""Cover bounds: brute-force oracles on tiny patterns, counting and crown
fallbacks, soundness against random exact factorizations, divisibility
predicates."""

import itertools
import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mrw.bounds
import mrw.numkit
from mrw.bounds import (
    DEFAULT_NODE_BUDGET,
    BoxCoverResult,
    _max_box_size_2d,
    _crown_above,
    _induced_crown,
    _row_zeros,
    box_cover_exact,
    crown_cover_number,
    crown_lower_bound,
    enumerate_maximal_boxes,
    mr_bounds,
    rank_lower_bound,
    singleton_box_predicate,
    support_pattern,
    SupportPattern,
)
from mrw.constructions import DivTensorSpec, EdmSpec, divisibility_tensor, edm
from mrw.dtensor import DenseTensor
from mrw.errors import CapacityError, ValidationError
from mrw.numkit import NonnegFactorization, verify_nonneg_factorization
from mrw.ratlinalg import RatMatrix, rank_exact


def brute_force_maximal_boxes(pattern: SupportPattern) -> list[tuple[tuple[int, ...], ...]]:
    """Oracle: every support box, as sorted index tuples per mode, that no
    added index value keeps inside the support; sorted."""
    mode_values = [sorted({c[m] for c in pattern.cells}) for m in range(pattern.order)]

    def inside(parts) -> bool:
        return all(c in pattern.cells for c in itertools.product(*parts))

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
        if inside(parts) and not any(
            inside(parts[:m] + ((v,),) + parts[m + 1 :])
            for m, vals in enumerate(mode_values)
            for v in vals
            if v not in parts[m]
        ):
            boxes.append(parts)
    return sorted(boxes)


def brute_force_cover(pattern: SupportPattern, limit: int = 6) -> int:
    """Oracle: smallest support-contained box cover, by trying all
    combinations of the maximal boxes (any cover grows into one of these
    boxes of the same size)."""
    if not pattern.cells:
        return 0
    boxes = [set(itertools.product(*parts)) for parts in brute_force_maximal_boxes(pattern)]
    for k in range(1, limit + 1):
        for combo in itertools.combinations(boxes, k):
            union = set().union(*combo)
            if union >= pattern.cells:
                return k
    raise AssertionError("oracle limit too small")


def assert_induced_crown(pattern: SupportPattern, crown) -> None:
    """Distinct rows and columns, with a zero at (r_i, c_j) exactly when
    i == j."""
    assert len({r for r, _ in crown}) == len({c for _, c in crown}) == len(crown)
    for i, (r, _) in enumerate(crown):
        for j, (_, c) in enumerate(crown):
            assert ((r, c) in pattern.cells) == (i != j)


# kappa(m) for the crowns below, from C(k, floor(k/2)) = 1, 1, 2, 3, 6, 10,
# 20, 35, 70 at k = 0..8
KAPPA = {1: 0, 2: 2, 3: 3, 4: 4, 5: 4, 6: 4, 7: 5, 8: 5, 9: 5, 10: 5, 11: 6, 16: 6, 20: 6, 21: 7, 40: 8}


def test_support_pattern_examples():
    assert sorted(support_pattern(RatMatrix.from_rows([[0, 1], [1, 0]])).cells) == [
        (0, 1),
        (1, 0),
    ]
    assert support_pattern(RatMatrix(2, 2, [0] * 4)).size == 0
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
    # five disjoint 4x4 blocks of ones: 80 cells, past the cap; no box has
    # more than 16 cells, and no induced crown more than 2 rows (kappa 2)
    blocks = SupportPattern((20, 20), frozenset((i, j) for i in range(20) for j in range(20) if i // 4 == j // 4))
    assert len(_induced_crown(_row_zeros(blocks), 20)) == 2
    res = box_cover_exact(blocks)
    assert not res.exact and res.crown is None
    assert res.lower == 5 and res.note.endswith("counting lower bound")  # ceil(80 / 16)


def test_cover_crown_fallback_certified():
    # edm(16): the counting bound is ceil(240 / 64) = 4, the crown gives 6
    pat = support_pattern(edm(EdmSpec.integers(16)))
    res = box_cover_exact(pat)
    assert not res.exact and res.lower == KAPPA[16] and res.note.endswith("crown lower bound")
    assert len(res.crown) == 16
    assert_induced_crown(pat, res.crown)
    # edm(40): the maximum box size is not computable; it was lower 1
    big = box_cover_exact(support_pattern(edm(EdmSpec.integers(40))))
    assert big.lower == KAPPA[40] and len(big.crown) == 40


def test_mr_lower_witness_names_the_crown_when_it_sets_the_bound():
    # edm(4): rank 3, crown bound 4, met by the greedy cover without a search
    rep = mr_bounds(edm(EdmSpec.integers(4)))
    assert (rep.lower, rep.lower_witness, rep.cover.nodes) == (4, "crown", 0)
    assert rep.cover.note == "crown matches greedy"
    # a diagonal: the counting bound 3 already matches the greedy cover
    diag = RatMatrix.from_rows([[int(i == j) for j in range(3)] for i in range(3)])
    assert mr_bounds(diag).lower_witness == "boxcover"


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
def oracle_patterns(draw):
    """Matrix patterns up to 3x4 and tensor patterns up to 2x2x2: small enough
    for brute_force_cover."""
    dims = draw(
        st.one_of(
            st.tuples(st.integers(1, 3), st.integers(1, 4)),
            st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
        )
    )
    grid = list(itertools.product(*map(range, dims)))
    keep = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    return SupportPattern(dims=dims, cells=frozenset(c for c, k in zip(grid, keep) if k))


def assert_brackets_optimum(pattern: SupportPattern, res: BoxCoverResult, best: int) -> None:
    """lower <= best <= upper, and boxes, when given, are a valid cover of
    size upper."""
    assert res.lower <= best <= res.upper
    assert res.exact == (res.lower == res.upper)
    if res.boxes is None:
        return
    assert len(res.boxes) == res.upper
    covered = set()
    for box in res.boxes:
        cells = set(itertools.product(*box))
        assert cells <= pattern.cells
        covered |= cells
    assert covered == pattern.cells


@given(oracle_patterns())
def test_exact_cover_matches_brute_force(pattern):
    assert_brackets_optimum(pattern, box_cover_exact(pattern), brute_force_cover(pattern))


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
def test_cover_brackets_brute_force_under_small_budgets(dims):
    """Every pattern of these shapes at budgets 1-20, so the budget-exhausted
    exit runs as well as the others."""
    grid = list(itertools.product(*map(range, dims)))
    for bits in range(1 << len(grid)):
        cells = frozenset(c for k, c in enumerate(grid) if bits >> k & 1)
        pattern = SupportPattern(dims=dims, cells=cells)
        best = brute_force_cover(pattern)
        for node_budget in range(1, 21):
            assert_brackets_optimum(pattern, box_cover_exact(pattern, node_budget=node_budget), best)


@st.composite
def small_patterns(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))))
    return SupportPattern(dims=(rows, cols), cells=frozenset(cells))


@st.composite
def tall_patterns(draw):
    """More than 16 distinct row masks, at most 6 distinct column masks, so the
    max-box-size subset DP has to run on the columns."""
    cols = 6
    sparse_masks = [m for m in range(1, 1 << cols) if m.bit_count() <= 2]
    masks = draw(st.lists(st.sampled_from(sparse_masks), min_size=17, max_size=21, unique=True))
    cells = {(i, j) for i, mask in enumerate(masks) for j in range(cols) if mask >> j & 1}
    return SupportPattern(dims=(len(masks), cols), cells=frozenset(cells))


def closure_oracle_boxes(pattern: SupportPattern) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Oracle: a nonempty column set is the column side of a maximal box
    exactly when it equals the columns shared by the rows that hold it."""
    nrows, ncols = pattern.dims
    boxes = []
    for r in range(1, ncols + 1):
        for cols in itertools.combinations(range(ncols), r):
            rows = tuple(i for i in range(nrows) if all((i, j) in pattern.cells for j in cols))
            shared = tuple(j for j in range(ncols) if all((i, j) in pattern.cells for i in rows))
            if rows and shared == cols:
                boxes.append((rows, cols))
    return sorted(boxes)


@given(st.one_of(small_patterns(), tall_patterns()))
def test_support_mask_kernels_match_closure_oracle(pattern):
    boxes = closure_oracle_boxes(pattern)
    assert enumerate_maximal_boxes(pattern) == boxes
    sizes = [len(rows) * len(cols) for rows, cols in boxes]
    assert _max_box_size_2d(pattern) == (max(sizes) if sizes else None)


def brute_force_max_box(pattern: SupportPattern) -> int:
    """Oracle: the largest R x C(R) over every nonempty row set R, C(R) the
    columns shared by all of R (on the transpose when rows outnumber
    columns)."""
    nrows, ncols = pattern.dims
    cells = pattern.cells
    if nrows > ncols:
        cells = {(j, i) for i, j in cells}
        nrows, ncols = ncols, nrows
    best = 0
    for r in range(1, nrows + 1):
        for rows in itertools.combinations(range(nrows), r):
            shared = sum(all((i, j) in cells for i in rows) for j in range(ncols))
            best = max(best, r * shared)
    return best


def random_pattern(rng: random.Random, nrows: int, ncols: int, density: float) -> SupportPattern:
    return SupportPattern(
        (nrows, ncols),
        frozenset((i, j) for i in range(nrows) for j in range(ncols) if rng.random() < density),
    )


def distinct_lines(pattern: SupportPattern, axis: int) -> int:
    """The number of distinct nonzero lines along `axis` (0: rows)."""
    lines: dict[int, int] = {}
    for cell in pattern.cells:
        lines[cell[axis]] = lines.get(cell[axis], 0) | 1 << cell[1 - axis]
    return len(set(lines.values()))


def test_max_box_size_matches_brute_force_past_64_columns_and_transposed():
    rng = random.Random(26)
    for _ in range(6):
        # at most 8 distinct rows over more than 64 columns: the row branch
        wide = random_pattern(rng, rng.randint(2, 8), rng.randint(65, 100), rng.choice((0.3, 0.6, 0.9)))
        assert distinct_lines(wide, 0) <= 16
        assert _max_box_size_2d(wide) == brute_force_max_box(wide)
        # more than 16 distinct rows over at most 7 columns: the column branch
        tall = random_pattern(rng, rng.randint(65, 90), rng.randint(5, 7), 0.5)
        assert distinct_lines(tall, 0) > 16 >= distinct_lines(tall, 1)
        assert _max_box_size_2d(tall) == brute_force_max_box(tall)
        assert _max_box_size_2d(SupportPattern(tall.dims[::-1], frozenset(c[::-1] for c in tall.cells))) == (
            brute_force_max_box(tall)
        )


def test_max_box_size_is_none_past_16_distinct_lines_on_both_sides():
    rng = random.Random(27)
    for n in (18, 24):
        pattern = random_pattern(rng, n, n, 0.5)
        assert min(distinct_lines(pattern, 0), distinct_lines(pattern, 1)) > 16
        assert _max_box_size_2d(pattern) is None


def test_support_pattern_checks_cells_built_outside_the_package():
    for cells in ({(2, 0)}, {(0, -1)}, {(0,)}, {(0, 0, 1)}):
        with pytest.raises(ValidationError):
            SupportPattern((2, 2), frozenset(cells))
    built = support_pattern(RatMatrix.from_rows([[0, 1], [2, 0]]))
    given_cells = SupportPattern((2, 2), frozenset({(0, 1), (1, 0)}))
    assert built == given_cells and hash(built) == hash(given_cells)
    assert (built.dims, built.cells, built.order, built.size) == ((2, 2), given_cells.cells, 2, 2)


@st.composite
def tensor_oracle_patterns(draw):
    """Tensor patterns up to 3x3x3 and 2x2x2x2."""
    dims = draw(
        st.one_of(
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
            st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
        )
    )
    grid = list(itertools.product(*map(range, dims)))
    keep = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    return SupportPattern(dims=dims, cells=frozenset(c for c, k in zip(grid, keep) if k))


@given(tensor_oracle_patterns())
def test_tensor_maximal_boxes_match_brute_force(pattern):
    assert enumerate_maximal_boxes(pattern) == brute_force_maximal_boxes(pattern)


@pytest.mark.parametrize("dims", [(2, 4, 8), (2, 2, 16)])
def test_full_tensor_is_one_box(dims):
    pattern = SupportPattern(dims, frozenset(itertools.product(*map(range, dims))))
    assert enumerate_maximal_boxes(pattern) == [tuple(tuple(range(d)) for d in dims)]
    res = box_cover_exact(pattern)
    assert res.exact and res.upper == 1


def test_maximal_boxes_of_a_deep_single_cell():
    # one recursion level per mode would pass the interpreter's default
    # recursion limit here
    pattern = SupportPattern((1,) * 2000, frozenset({(0,) * 2000}))
    assert enumerate_maximal_boxes(pattern) == [((0,),) * 2000]


def test_maximal_boxes_match_the_oracles_at_benchmark_shapes():
    # the strategies above stop at 3x3x3, 2x2x2x2 and 5x5; the search-batch
    # workload covers 4x4x4 tensors and 7x7 and 8x8 near-crowns
    rng = random.Random(24)
    for density in (0.5, 0.7, 0.8, 0.9):
        cells = frozenset(c for c in itertools.product(range(4), repeat=3) if rng.random() < density)
        pattern = SupportPattern((4, 4, 4), cells)
        assert enumerate_maximal_boxes(pattern) == brute_force_maximal_boxes(pattern)
    for n in (7, 8):
        crown = [(i, j) for i in range(n) for j in range(n) if i != j]
        for cell in rng.sample(crown, 4):
            pattern = SupportPattern((n, n), frozenset(crown) - {cell})
            assert enumerate_maximal_boxes(pattern) == closure_oracle_boxes(pattern)


def test_maximal_boxes_refuse_past_the_cell_cap():
    pattern = SupportPattern((65, 1), frozenset((i, 0) for i in range(65)))
    with pytest.raises(CapacityError):
        enumerate_maximal_boxes(pattern)


def random_exact_factorization(rng: random.Random, rows: int, cols: int, r: int):
    terms = []
    for _ in range(r):
        u = tuple(Fraction(rng.choice([0, 0, 1, 2, 3])) for _ in range(rows))
        v = tuple(Fraction(rng.choice([0, 1, 1, 2])) for _ in range(cols))
        terms.append((u, v))
    return NonnegFactorization(dims=(rows, cols), terms=tuple(terms))


def _product(fact: NonnegFactorization) -> RatMatrix:
    """The matrix sum of u v^T over the terms of a matrix factorization."""
    rows, cols = fact.dims
    cells = [sum((u[i] * v[j] for u, v in fact.terms), Fraction(0)) for i in range(rows) for j in range(cols)]
    return RatMatrix(rows, cols, cells)


def test_lower_bound_soundness_against_random_factorizations():
    rng = random.Random(77)
    for _ in range(25):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        r = rng.randint(1, 4)
        fact = random_exact_factorization(rng, rows, cols, r)
        m = _product(fact)
        assert verify_nonneg_factorization(m, fact).passed
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


@pytest.mark.parametrize(
    "m, bracket, status",
    [
        (RatMatrix.from_rows([[1, 0], [0, 1]]), (2, 2), "exact"),  # support ties the bound
        (RatMatrix.from_rows([[0, 0], [0, 0]]), (0, 0), "exact"),  # empty support
        (DenseTensor((2, 2, 2), [1] * 8), (1, 4), "trivial"),  # support past the bound
    ],
)
def test_mr_bounds_upper_is_the_support_unless_the_dimension_bound_is_smaller(m, bracket, status):
    rep = mr_bounds(m)
    assert (rep.lower, rep.upper, rep.upper_status) == (*bracket, status)


def test_mr_bounds_rejects_negative_entries():
    with pytest.raises(ValidationError):
        mr_bounds(RatMatrix.from_rows([[1, -1], [0, 1]]))


def test_mr_bounds_tensor_path():
    t = divisibility_tensor(DivTensorSpec(2, 3))
    rep = mr_bounds(t)
    assert rep.lower == 4
    assert rep.upper == 4
    assert rep.rank_lower == 2


@given(st.lists(st.integers(1, 3), min_size=2, max_size=5), st.randoms(use_true_random=False))
def test_rank_lower_bound_skips_size_one_modes(dims, rnd):
    t = DenseTensor(dims, [rnd.choice((0, 0, 1, 2)) for _ in range(prod(dims))])
    every_mode = max(rank_exact(t.mode_flattening(k)) for k in range(t.order))
    flattened = []
    flatten = DenseTensor.mode_flattening

    def spy(self, mode):
        flattened.append(mode)
        return flatten(self, mode)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DenseTensor, "mode_flattening", spy)
        assert rank_lower_bound(t) == every_mode
    assert flattened == ([k for k, d in enumerate(dims) if d > 1] or [0])


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


@given(st.lists(st.integers(1, 3), min_size=2, max_size=5), st.sets(st.integers(0, 242), max_size=12))
@example([2, 3], set())  # empty support
@example([3, 3, 3, 3, 3], {242})  # one cell
def test_singleton_predicate_matches_the_pairwise_definition(dims, picks):
    size = prod(dims)
    hits = {k % size for k in picks}
    pattern = support_pattern(DenseTensor(dims, [int(k in hits) for k in range(size)]))
    far_apart = not any(
        sum(a != b for a, b in zip(x, y)) == 1
        for x, y in itertools.combinations(pattern.cells, 2)
    )
    assert singleton_box_predicate(pattern) == far_apart


def test_singleton_predicate_on_indices_past_int64_does_not_wrap():
    # (16, 0, 0) sits at 2^64 in the 2^30 cube and at 2^84 in the 2^40 one,
    # both of which int64 wraps onto (0, 0, 0)
    for dims in [(2**30,) * 3, (2**40,) * 3]:
        far = SupportPattern(dims=dims, cells=frozenset({(0, 0, 0), (16, 0, 1)}))
        near = SupportPattern(dims=dims, cells=frozenset({(0, 0, 0), (16, 0, 0)}))
        assert singleton_box_predicate(far)
        assert not singleton_box_predicate(near)


def test_mr_bounds_exact_upper_closes_gap():
    # rank 2, cover 2, dimension bound 3: two columns generate the rest, so
    # the witness is exact
    m = RatMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    rep = mr_bounds(m)
    assert rep.lower == 2
    assert rep.upper == 2 and rep.upper_status == "exact"
    assert rep.factorization is not None and rep.factorization.r == 2
    assert verify_nonneg_factorization(m, rep.factorization).passed


def test_mr_bounds_exact_upper_on_a_non_separable_rank_3_matrix():
    # rank 3 (a seeded product of 5x3 and 3x8 integer factors), but no 3
    # columns and no 3 rows generate a cone holding the others: the witness
    # is the nested triangle's
    m = RatMatrix.from_rows(
        [
            [8, 23, 16, 18, 32, 11, 20, 15],
            [8, 24, 16, 16, 32, 12, 20, 16],
            [3, 6, 0, 12, 12, 0, 6, 6],
            [8, 25, 24, 14, 32, 15, 22, 13],
            [6, 22, 24, 4, 24, 16, 18, 10],
        ]
    )
    rep = mr_bounds(m)
    assert (rep.lower, rep.lower_witness) == (3, "rank")
    assert rep.upper == 3 and rep.upper_status == "exact"
    assert rep.factorization.r == 3 and rep.factorization.is_rational
    assert verify_nonneg_factorization(m, rep.factorization).passed


def test_mr_bounds_closes_a_search_batch_rank_3_bracket_without_the_float_search(monkeypatch):
    # lowrank-int-5 of the seed-1729 search-batch inputs, which used to
    # report [3, 5] trivial
    m = RatMatrix.from_rows(
        [
            [4, 8, 3, 5, 1, 6],
            [6, 8, 2, 4, 0, 8],
            [18, 34, 12, 28, 4, 28],
            [18, 31, 10, 29, 3, 28],
            [12, 26, 10, 24, 4, 20],
        ]
    )

    def no_float_search(*args):
        raise AssertionError("the float search ran")

    monkeypatch.setattr(mrw.numkit, "_hals_sweeps", no_float_search)
    rep = mr_bounds(m)
    assert (rep.lower, rep.upper, rep.upper_status) == (3, 3, "exact")
    assert verify_nonneg_factorization(m, rep.factorization).passed


@pytest.mark.parametrize(
    "rows, bracket",
    [
        # rank 3, dimension bound 4
        ([[3, 0, 3, 1, 4], [1, 2, 3, 0, 3], [0, 1, 1, 4, 5], [4, 3, 7, 5, 12]], (3, 4, "trivial")),
        # rank 1, singleton support of 4 cells
        ([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], (1, 4, "exact")),
    ],
)
def test_mr_bounds_reports_only_a_witness_that_passed_its_check(monkeypatch, rows, bracket):
    # a rational witness of the right dims that does not reproduce m is
    # dropped; a float one met the search's tolerance and is kept as such
    m = RatMatrix.from_rows(rows)
    lower = bracket[0]
    wrong = NonnegFactorization(m.dims, ((tuple([1] * m.rows), tuple([1] * m.cols)),) * lower)
    assert not verify_nonneg_factorization(m, wrong).passed
    monkeypatch.setattr(mrw.bounds, "nmf_search", lambda m, r, budget: wrong)
    rep = mr_bounds(m)
    assert (rep.lower, rep.upper, rep.upper_status) == bracket
    assert rep.factorization is None
    floats = NonnegFactorization(m.dims, tuple(tuple(tuple(map(float, v)) for v in t) for t in wrong.terms))
    monkeypatch.setattr(mrw.bounds, "nmf_search", lambda m, r, budget: floats)
    rep = mr_bounds(m)
    assert (rep.lower, rep.upper, rep.upper_status) == (lower, lower, "heuristic-certified")
    assert rep.factorization is floats


def near_crown_7() -> SupportPattern:
    """crown(7) less cell (0, 1): its greedy crown has 6 rows, and kappa(6) = 4
    is the counting bound, so the search starts where it did without the
    crown bound."""
    return SupportPattern((7, 7), frozenset((i, j) for i in range(7) for j in range(7) if i != j) - {(0, 1)})


def test_cover_respects_node_budget():
    pat = near_crown_7()
    res = box_cover_exact(pat, node_budget=50)
    assert isinstance(res, BoxCoverResult)
    assert res.lower == 4 and not res.exact and res.crown is None
    full = box_cover_exact(pat)
    assert full.exact and full.lower == 5
    # edm(8): the crown bound 5 holds while its search runs out of nodes
    crown = box_cover_exact(support_pattern(edm(EdmSpec.integers(8))), node_budget=5)
    assert crown.lower == 5 and not crown.exact and crown.nodes == 5


def test_cover_node_count_pins_search_path():
    # any change to the visited nodes or their order moves these numbers
    pat = near_crown_7()
    assert crown_cover_number(len(_induced_crown(_row_zeros(pat), 7))) == 4
    # its crown certificates cut the nodes from 2,571 to 1,117
    assert box_cover_exact(pat).nodes == 1117
    assert box_cover_exact(pat, node_budget=1117).exact
    short = box_cover_exact(pat, node_budget=1116)
    assert not short.exact and short.nodes == 1116
    # the crown bound starts edm(8) at 5, which the refutation of 4 took
    # 35,064 nodes to reach
    crown = box_cover_exact(support_pattern(edm(EdmSpec.integers(8))))
    assert crown.exact and crown.nodes == 6 and crown.note == "optimal cover found"
    assert box_cover_exact(support_pattern(edm(EdmSpec.integers(3)))).nodes == 0


def test_cover_node_count_pins_scalar_prune_path():
    # the 7x7 circulant without its three leading diagonals: 28 cells, each in
    # at most 6 maximal boxes, under _BATCH_MIN_CHILDREN, so every node
    # prunes its children one at a time
    pat = SupportPattern((7, 7), frozenset((i, j) for i in range(7) for j in range(7) if (j - i) % 7 > 2))
    system = mrw.bounds._BoxSystem(enumerate_maximal_boxes(pat), sorted(pat.cells))
    assert max(map(len, system.covering)) < mrw.bounds._BATCH_MIN_CHILDREN
    full = box_cover_exact(pat)
    assert full.exact and full.lower == 7 and full.nodes == 503
    short = box_cover_exact(pat, node_budget=502)
    assert not short.exact and short.nodes == 502


def batch_oracle_patterns() -> list[SupportPattern]:
    """Near-crowns of side 6-8 less seeded cells, seeded 0/1 4x4x4 tensors and
    edm(2..9): pivots on both sides of _BATCH_MIN_CHILDREN."""
    rng = random.Random(1729)
    patterns = [support_pattern(edm(EdmSpec.integers(n))) for n in range(2, 10)]
    for n in (6, 7, 8):
        for removed in (1, 2, 3):
            cells = {(i, j) for i in range(n) for j in range(n) if i != j}
            cells -= set(rng.sample(sorted(cells), removed))
            patterns.append(SupportPattern((n, n), frozenset(cells)))
    for _ in range(6):
        cells = {c for c in itertools.product(range(4), repeat=3) if rng.random() < 0.5}
        patterns.append(SupportPattern((4, 4, 4), frozenset(cells)))
    return patterns


def test_batched_prune_matches_scalar_prune(monkeypatch):
    searched = {"batched": 0, "scalar": 0}
    for pattern in batch_oracle_patterns():
        for node_budget in (1, 7, 50, 500, 50_000):
            reports = []
            for min_children in (0, 10**9):  # every node batched, then none
                monkeypatch.setattr(mrw.bounds, "_BATCH_MIN_CHILDREN", min_children)
                reports.append(repr(box_cover_exact(pattern, node_budget=node_budget)))
            assert reports[0] == reports[1], (pattern, node_budget)
        monkeypatch.undo()
        boxes = enumerate_maximal_boxes(pattern) if pattern.size <= 64 else None
        if boxes is not None and box_cover_exact(pattern).nodes > 1:
            widest = max(map(len, mrw.bounds._BoxSystem(boxes, sorted(pattern.cells)).covering))
            searched["batched" if widest >= mrw.bounds._BATCH_MIN_CHILDREN else "scalar"] += 1
    # under the default rule, searches run both ways
    assert searched["batched"] >= 5 and searched["scalar"] >= 3, searched


@pytest.mark.parametrize("m", range(2, 9))
def test_search_from_the_counting_bound_finds_kappa_on_crowns(m):
    """The unseeded search, started from the counting bound, is the oracle
    for the crown theorem: `deepen` gets no crown, so no crown certificate
    refutes any of its nodes."""
    pat = support_pattern(edm(EdmSpec.integers(m)))
    system = mrw.bounds._BoxSystem(enumerate_maximal_boxes(pat), sorted(pat.cells))
    greedy = system.greedy_cover()
    depth, cover, nodes = system.deepen(system.counting, len(greedy), 10**6)
    assert nodes < 10**6 and (cover is not None or depth == len(greedy))
    assert depth == KAPPA[m] == crown_cover_number(m)


@st.composite
def search_patterns(draw):
    """Matrix patterns of at most 64 cells, each cell kept at a drawn
    density, or near-crowns of side 6-8 less 1-3 cells."""
    if draw(st.booleans()):
        n = draw(st.integers(6, 8))
        crown = [(i, j) for i in range(n) for j in range(n) if i != j]
        removed = draw(st.sets(st.sampled_from(crown), min_size=1, max_size=3))
        return SupportPattern((n, n), frozenset(crown) - removed)
    dims = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    percent = draw(st.sampled_from([50, 70, 85]))
    grid = list(itertools.product(*map(range, dims)))
    keep = draw(st.lists(st.integers(0, 99), min_size=len(grid), max_size=len(grid)))
    return SupportPattern(dims, frozenset(c for c, k in zip(grid, keep) if k < percent))


def without_certificates(pattern: SupportPattern, node_budget: int) -> BoxCoverResult:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mrw.bounds._BoxSystem, "_certificates", lambda self, crown, deepest: {})
        return box_cover_exact(pattern, node_budget=node_budget)


@settings(deadline=None)
@given(search_patterns())
def test_crown_certificates_change_only_the_node_count(pattern):
    def outcome(res: BoxCoverResult):
        return res.lower, res.upper, res.exact, res.boxes, res.note, res.crown

    with_certs = box_cover_exact(pattern)
    plain = without_certificates(pattern, DEFAULT_NODE_BUDGET)
    assert outcome(with_certs) == outcome(plain)
    assert with_certs.nodes <= plain.nodes
    for node_budget in (1, 7, 50):
        assert box_cover_exact(pattern, node_budget=node_budget).lower >= without_certificates(pattern, node_budget).lower


def assert_constructions_agree(pattern: SupportPattern) -> None:
    """The word-packed and the scalar box systems of a matrix pattern agree
    field by field, and box_cover_exact returns the same result on both,
    at the default node budget and at budgets that run out."""
    systems, covers = [], []
    with pytest.MonkeyPatch.context() as mp:
        for cut in (0, 10**9):  # every matrix on the word path, then none
            mp.setattr(mrw.bounds, "_WORD_MIN_BOXES", cut)
            systems.append(mrw.bounds._box_system(pattern) if pattern.cells else None)
            covers.append([box_cover_exact(pattern, node_budget=b) for b in (DEFAULT_NODE_BUDGET, 1, 7, 50)])
    assert covers[0] == covers[1]
    words, scalar = systems
    if words is None:
        return
    assert type(words) is mrw.bounds._WordBoxSystem and type(scalar) is mrw.bounds._BoxSystem
    assert scalar.boxes == enumerate_maximal_boxes(pattern)
    assert [words.box(i) for i in range(len(scalar.boxes))] == scalar.boxes
    assert words.masks == scalar.masks and words.by_size == scalar.by_size
    assert words.counting == scalar.counting
    assert words.covering == scalar.covering and words.counts == scalar.counts
    assert [words.covering_at(ci).tolist() for ci in range(len(pattern.cells))] == scalar.covering
    assert words.pivot_order == scalar.pivot_order
    assert words.words.tolist() == scalar.words.tolist()
    assert words.size_words.tolist() == scalar.size_words.tolist()
    assert words.greedy_cover() == scalar.greedy_cover()


@given(search_patterns())
def test_word_and_scalar_box_systems_agree(pattern):
    assert_constructions_agree(pattern)


@pytest.mark.parametrize("n", [7, 8])
def test_word_and_scalar_box_systems_agree_on_near_crowns(n):
    rng = random.Random(100 + n)
    for _ in range(4):
        rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
        cells = {(rows[i], cols[j]) for i in range(n) for j in range(n) if i != j}
        cells.discard(rng.choice(sorted(cells)))
        pattern = SupportPattern((n, n), frozenset(cells))
        # 94 (side 7) or 190 (side 8) maximal boxes: the word path by default
        assert type(mrw.bounds._box_system(pattern)) is mrw.bounds._WordBoxSystem
        assert_constructions_agree(pattern)


def crossing_cells(zeros) -> set[tuple[int, int]]:
    """The cells (r_i, c_j), i != j, of zeros (r_i, c_i)."""
    return {(r, c) for i, (r, _) in enumerate(zeros) for j, (_, c) in enumerate(zeros) if i != j}


def induced_crowns(pattern: SupportPattern) -> list[tuple[tuple[int, int], ...]]:
    """Oracle: every set of two or more zeros in distinct rows and columns
    whose crossing cells all lie in the support."""
    nrows, ncols = pattern.dims
    crowns = []
    for k in range(2, min(nrows, ncols) + 1):
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.permutations(range(ncols), k):
                zeros = tuple(zip(rows, cols))
                if not pattern.cells & set(zeros) and crossing_cells(zeros) <= pattern.cells:
                    crowns.append(zeros)
    return crowns


def brute_force_cover_of(pattern: SupportPattern, targets: set) -> int:
    """Oracle: the fewest support-contained boxes covering the cells
    `targets`, by trying all combinations of the maximal boxes."""
    boxes = [set(itertools.product(*parts)) for parts in brute_force_maximal_boxes(pattern)]
    for k in range(len(targets) + 1):
        if any(targets <= set().union(*combo) for combo in itertools.combinations(boxes, k)):
            return k
    raise AssertionError("the support does not cover its own cells")


def lemma_patterns():
    """Every pattern of the shapes up to 3x3 with two or more rows and
    columns, and seeded random ones up to 4x4."""
    for dims in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        grid = list(itertools.product(*map(range, dims)))
        for bits in range(1 << len(grid)):
            yield SupportPattern(dims, frozenset(c for k, c in enumerate(grid) if bits >> k & 1))
    rng = random.Random(29)
    for _ in range(150):
        dims = (rng.randint(3, 4), rng.randint(3, 4))
        cells = {c for c in itertools.product(*map(range, dims)) if rng.random() < 0.7}
        yield SupportPattern(dims, frozenset(cells))


def test_crossing_cells_of_t_crown_zeros_need_kappa_t_boxes():
    """The set-pair lemma behind the certificates: an uncovered set U holding
    the crossing cells of t zeros of an induced crown needs kappa(t) boxes.
    The search's certificates for depth d are the crossing cells of every
    C(d, floor(d/2)) + 1 zeros of the greedy crown."""
    rng = random.Random(1981)
    checked = {"lemma": 0, "certificate": 0}
    for pattern in lemma_patterns():
        crowns = induced_crowns(pattern)
        if not crowns:
            continue
        cells = sorted(pattern.cells)
        system = mrw.bounds._BoxSystem(enumerate_maximal_boxes(pattern), cells)
        greedy = _induced_crown(_row_zeros(pattern), pattern.dims[1])
        certs = system._certificates(greedy, 4)
        for d, masks in certs.items():
            t = comb(d, d // 2) + 1
            want = sorted(crossing_cells(zeros) for zeros in itertools.combinations(greedy, t))
            assert sorted({c for k, c in enumerate(cells) if mask >> k & 1} for mask in masks) == want
        for _ in range(3):
            # random cells plus the crossing cells of a random crown, so the lemma applies
            uncovered = {c for c in cells if rng.random() < 0.6} | crossing_cells(rng.choice(crowns))
            best = brute_force_cover_of(pattern, uncovered)
            for zeros in crowns:
                if crossing_cells(zeros) <= uncovered:
                    assert best >= crown_cover_number(len(zeros)), (pattern, uncovered, zeros)
                    checked["lemma"] += 1
            mask = sum(1 << k for k, c in enumerate(cells) if c in uncovered)
            for d, masks in certs.items():
                if any(mask & held == held for held in masks):
                    assert best > d
                    checked["certificate"] += 1
    assert checked["lemma"] > 1000 and checked["certificate"] > 10, checked


def test_crown_cover_number_values():
    assert {m: crown_cover_number(m) for m in KAPPA} == KAPPA


def _block(m: RatMatrix, rows, cols) -> RatMatrix:
    """The block of m on `rows` x `cols`, in the given order."""
    return RatMatrix.from_rows([[m[i, j] for j in cols] for i in rows])


def test_crown_lower_bound_checks_the_embedding():
    host = edm(EdmSpec.integers(5))
    assert crown_lower_bound(_block(host, [0, 2, 4], [0, 2, 4])) == KAPPA[3]
    assert crown_lower_bound(_block(host, range(5), range(5))) == KAPPA[5]
    # kappa(1) = 0: a single zero is the smallest crown
    assert crown_lower_bound(_block(host, [2], [2])) == 0
    # a zero off the diagonal, a nonzero on it, a non-square restriction
    for rows, cols in [([0, 1, 2], [1, 0, 2]), ([0, 1], [1, 2]), ([0, 1], [0, 1, 2])]:
        with pytest.raises(ValidationError):
            crown_lower_bound(_block(host, rows, cols))
    with pytest.raises(ValidationError):
        crown_lower_bound(_block(RatMatrix.from_rows([[0, 0], [1, 0]]), [0, 1], [0, 1]))


_ZEROS = [0, Fraction(0)]
_NONZEROS = [1, 2, Fraction(1, 2)]


@st.composite
def near_crowns(draw):
    """Matrices up to 6x6, square or not: zeros on the diagonal and nonzeros
    off it, then up to three cells redrawn from the whole value set."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 6)))
    entries = [
        draw(st.sampled_from(_ZEROS if i == j else _NONZEROS))
        for i in range(rows)
        for j in range(cols)
    ]
    for k in draw(st.lists(st.integers(0, rows * cols - 1), max_size=3)):
        entries[k] = draw(st.sampled_from(_ZEROS + _NONZEROS))
    return RatMatrix(rows, cols, entries)


@given(near_crowns())
@example(RatMatrix.from_rows([[Fraction(0), 1], [Fraction(1, 2), Fraction(0)]]))
@example(RatMatrix.from_rows([[0, Fraction(0)], [1, 0]]))
@example(RatMatrix.from_rows([[1, 0, 1], [1, 0, 1], [1, 1, 0]]))  # a zero moved off the diagonal
@example(RatMatrix.from_rows([[0, 1, 1], [1, 0, 0], [1, 1, 0]]))  # one extra zero
@example(RatMatrix.from_rows([[0, 1, 1], [1, 0, 1]]))  # 2x3, zero at (0, 0) and (1, 1) only
def test_crown_lower_bound_accepts_exactly_the_crowns(m):
    zeros = {(i, j) for i in range(m.rows) for j in range(m.cols) if m[i, j] == 0}
    if m.rows == m.cols and zeros == {(i, i) for i in range(m.rows)}:
        assert crown_lower_bound(m) == crown_cover_number(m.rows)
    else:
        with pytest.raises(ValidationError):
            crown_lower_bound(m)


@st.composite
def grid_patterns(draw):
    """Matrix patterns up to 5x5, each cell drawn on its own."""
    dims = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    grid = list(itertools.product(*map(range, dims)))
    keep = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    return SupportPattern(dims=dims, cells=frozenset(c for c, k in zip(grid, keep) if k))


@given(grid_patterns())
def test_induced_crown_is_a_certified_lower_bound(pattern):
    crown = _induced_crown(_row_zeros(pattern), pattern.dims[1])
    assert_induced_crown(pattern, crown)
    best = brute_force_cover(pattern)
    assert crown_cover_number(len(crown)) <= best
    assert box_cover_exact(pattern).lower == best
    # the checks that skip the finder never drop a crown that beats the bound
    for bound in range(5):
        beats = len(crown) > comb(bound, bound // 2)
        assert _crown_above(pattern, bound) == (crown if beats else None)
