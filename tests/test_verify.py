"""The verification harness itself: report shape, determinism, and the
forced-failure mode (a broken kernel must turn its check red), and the
reduction and canonical classes the log-rank chain is evaluated on: the
packed distinct lines are held to a bit loop, and a class to a brute-force
canonical form over every row permutation, column permutation and
transposition of the distinct lines."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mrw.verify as verify
from mrw.bounds import box_cover_exact, support_pattern
from mrw.errors import ValidationError
from mrw.models import dcc_exact_2party, distinct_lines, divisibility_rank_witness, reduced_depths, row_masks
from mrw.numkit import NonnegFactorization
from mrw.ratlinalg import RatMatrix, rank_exact


def distinct_columns(rows: tuple[int, ...], ncols: int) -> tuple[int, ...]:
    """The distinct columns, sorted, of the 0/1 matrix whose row i has entry
    (i, j) as bit j of rows[i]; column j has it as bit i."""
    cols = [0] * ncols
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return tuple(sorted(set(cols)))


def reference_key(rows: tuple[int, ...], ncols: int) -> tuple[tuple[int, ...], int]:
    """A bit loop over one matrix: the reference the packed distinct lines
    are held to."""
    cols = distinct_columns(rows, ncols)
    return distinct_columns(cols, len(rows)), len(cols)


def bits(rows: tuple[int, ...], ncols: int) -> list[tuple[int, ...]]:
    """The 0/1 rows, as tuples, of the matrix with row masks `rows`."""
    return [tuple(row >> j & 1 for j in range(ncols)) for row in rows]


def packed_key(rows: tuple[int, ...], ncols: int) -> tuple[list[int], int]:
    """The distinct lines of the matrix with row masks `rows`, packed back
    as row masks, and their column count."""
    cols = distinct_lines(bits(rows, ncols))
    return row_masks(cols), len(cols)


def same_up_to_line_order(a: tuple, b: tuple) -> bool:
    """Whether two (row masks, ncols) matrices with distinct rows differ
    only by an order of their rows and an order of their columns: the
    columns of a are matched to those of b one at a time, each match
    keeping equal the row multisets over the columns matched so far."""
    (rows_a, ncols), (rows_b, ncols_b) = a, b
    if (len(rows_a), ncols) != (len(rows_b), ncols_b):
        return False

    def over(rows, picked):
        return sorted(tuple(row >> j & 1 for j in picked) for row in rows)

    def match(picked_b):
        picked_a = range(len(picked_b))
        if len(picked_b) == ncols:
            return True
        return any(
            over(rows_a, [*picked_a, len(picked_b)]) == over(rows_b, [*picked_b, j]) and match([*picked_b, j])
            for j in range(ncols)
            if j not in picked_b
        )

    return match([])


def chain_states(side: int):
    """Every (ncols, rows) with ncols <= side and rows a sorted tuple of at
    most side distinct ncols-bit row masks, in the order the log-rank chain
    enumerates them: one state per set of distinct rows of a 0/1 matrix up
    to side x side."""
    for nc in range(1, side + 1):
        for nr in range(1, min(side, 1 << nc) + 1):
            for rows in itertools.combinations(range(1 << nc), nr):
                yield nc, rows


def transpose(rows: tuple[int, ...], ncols: int) -> tuple[int, ...]:
    """Row masks of the transpose, its rows in column order."""
    return tuple(sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(ncols))


def relabel(rows: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The rows with column j moved to column perm[j]."""
    return tuple(sum((row >> j & 1) << k for j, k in enumerate(perm)) for row in rows)


def canonical_form(rows: tuple[int, ...], ncols: int) -> tuple[int, int, tuple[int, ...]]:
    """The least (row count, column count, rows) over every transposition,
    column permutation and row permutation of the reduced key; the least
    row order is the sorted one."""
    key, width = reference_key(rows, ncols)
    return min(
        (len(lines), n, tuple(sorted(relabel(lines, perm))))
        for lines, n in ((key, width), (transpose(key, width), len(key)))
        for perm in itertools.permutations(range(n))
    )


def decoded(cls: tuple[int, int, int]) -> tuple[tuple[int, ...], int]:
    """The matrix a class names: the rows its row-set mask holds."""
    _, ncols, code = cls
    return tuple(v for v in range(1 << ncols) if code >> v & 1), ncols


def random_rows(seed: int, big: int, count: int) -> list[tuple[int, ...]]:
    """The row masks of the chain's random matrices, drawn as it draws them."""
    rng = np.random.default_rng(seed + 23)
    grids = [rng.integers(0, 2, size=(big, big)).tolist() for _ in range(count)]
    return [tuple(sum(v << j for j, v in enumerate(row)) for row in grid) for grid in grids]


def test_report_shape_and_ids():
    rep = verify.run_verify_suite("small", seed=3)
    obj = rep.to_obj()
    assert obj["scale"] == "small" and obj["seed"] == 3
    ids = [c["id"] for c in obj["checks"]]
    assert ids[: len(verify.CHECK_IDS)] == verify.CHECK_IDS
    assert ids[-1] == "runtime-budget"
    for c in obj["checks"]:
        assert set(c) == {"id", "claim", "status", "observed", "expected", "runtimeMs"}


def test_bad_scale_and_negative_seed_are_refused_alike():
    for scale, seed in [("huge", verify.DEFAULT_SEED), ("small", -1)]:
        with pytest.raises(ValidationError):
            verify.run_verify_suite(scale, seed)


def test_sabotaged_rank_fails_its_check(monkeypatch):
    monkeypatch.setattr(verify, "rank_exact", lambda m: 2)
    ok, observed, _ = verify.check_edm_rank("small", 1)
    assert not ok and "2" in observed


def test_a_wrong_divisibility_witness_fails_its_check(monkeypatch):
    def doubled(spec):
        witness = divisibility_rank_witness(spec)
        (first, *rest), *others = witness.terms
        return NonnegFactorization(witness.dims, ((tuple(2 * x for x in first), *rest), *others))

    monkeypatch.setattr(verify, "divisibility_rank_witness", doubled)
    ok, observed, _ = verify.check_divisibility("small", 1)
    assert not ok and observed == "(2,3): support 4, mr 4, rank witness r=4 wrong"


def test_sabotaged_depth_fails_the_log_rank_chain(monkeypatch):
    monkeypatch.setattr(verify, "reduced_depths", lambda keys, ncols: [0] * len(keys))
    ok, observed, _ = verify.check_log_rank_chain("small", 1)
    assert not ok and "chain violated" in observed


def sabotage_one_class(monkeypatch, target: tuple[tuple[int, ...], int]):
    """Give the canonical class of the matrix `target` depth 0 and every
    other class its true depth."""
    broken = canonical_form(*target)

    def depths(keys, ncols):
        return [0 if canonical_form(rows, ncols) == broken else d for rows, d in zip(keys, reduced_depths(keys, ncols))]

    monkeypatch.setattr(verify, "reduced_depths", depths)


def test_a_sabotaged_key_names_the_first_state_holding_it(monkeypatch):
    # the 2x2 identity (rank 2, so depth 0 breaks the chain) is held by
    # several states; the first in enumeration order whose canonical class
    # is the identity's is the one reported
    target = ((1, 2), 2)
    holders = [
        (nc, rows) for nc, rows in chain_states(3)
        if canonical_form(rows, nc) == canonical_form(*target)
    ]
    assert len(holders) > 1
    sabotage_one_class(monkeypatch, target)
    ok, observed, _ = verify.check_log_rank_chain("small", 1)
    assert not ok and observed == f"chain violated at {holders[0]}"


def test_a_sabotaged_random_key_is_reported_as_random(monkeypatch):
    # the class of the first random 5x5 at seed 1 is held by no state up to
    # 3x3, so the first state holding it is a random one
    classes = {canonical_form(rows, nc) for nc, rows in chain_states(3)}
    first = (random_rows(1, 5, 1)[0], 5)
    assert canonical_form(*first) not in classes
    sabotage_one_class(monkeypatch, first)
    ok, observed, _ = verify.check_log_rank_chain("small", 1)
    assert not ok and observed == "chain violated on random 5x5"


def test_each_sabotaged_small_class_names_its_first_holder(monkeypatch):
    # each of the 24 classes at small scale and seed 1 in turn: a class of
    # rank or cover bound 2 or more breaks the chain at depth 0, and the
    # report names the first state of the full enumeration that holds it,
    # repeated-column states included, or else the random matrices
    holders: dict = {}
    for nc, rows in chain_states(3):
        holders.setdefault(canonical_form(rows, nc), ((rows, nc), f"chain violated at {(nc, rows)}"))
    for rows in random_rows(1, 5, 5):
        holders.setdefault(canonical_form(rows, 5), ((rows, 5), "chain violated on random 5x5"))
    assert len(holders) == 24
    seen = set()
    for target, report in holders.values():
        sabotage_one_class(monkeypatch, target)
        ok, observed, _ = verify.check_log_rank_chain("small", 1)
        breaks = max(chain_invariants(*target)[1:]) >= 2
        assert (ok, observed) == ((False, report) if breaks else (True, "114 canonical instances checked")), target
        seen.add((breaks, report.endswith("5x5")))
    assert seen == {(False, False), (True, False), (True, True)}


def test_log_rank_chain_counts_every_state():
    ok, observed, _ = verify.check_log_rank_chain("small", 1729)
    assert ok and observed == "114 canonical instances checked"


def decoded_states(side: int) -> set:
    """The (ncols, distinct sorted rows) of every 0/1 matrix up to side x
    side, found by decoding each matrix."""
    states = set()
    for nr in range(1, side + 1):
        for nc in range(1, side + 1):
            for code in range(1 << (nr * nc)):
                rows = {(code >> (i * nc)) & ((1 << nc) - 1) for i in range(nr)}
                states.add((nc, tuple(sorted(rows))))
    return states


def test_chain_states_are_the_distinct_row_sets():
    for side, count, keys in ((3, 109, 28), (4, 2696, 334)):
        states = list(chain_states(side))
        assert len(states) == count and set(states) == decoded_states(side)
        assert len({reference_key(rows, nc) for nc, rows in states}) == keys


def chain_invariants(rows: tuple[int, ...], ncols: int) -> tuple[int, int, int]:
    m = RatMatrix(len(rows), ncols, [(r >> j) & 1 for r in rows for j in range(ncols)])
    return dcc_exact_2party(m), rank_exact(m), box_cover_exact(support_pattern(m)).lower


def assert_key_keeps_invariants(rows: tuple[int, ...], ncols: int):
    key_rows, key_cols = packed_key(rows, ncols)
    assert len(set(key_rows)) == len(key_rows) and key_cols <= ncols
    assert chain_invariants(rows, ncols) == chain_invariants(key_rows, key_cols), (rows, ncols)


def test_chain_key_keeps_depth_rank_and_cover_on_every_small_state():
    for ncols, rows in chain_states(3):
        assert_key_keeps_invariants(rows, ncols)


@st.composite
def grids01(draw, side: int = 5):
    """A 0/1 matrix up to side x side as (row masks, ncols), with repeated
    and all-zero rows and columns: rows drawn from a small pool or zero,
    then each column a copy of a drawn column or zero."""
    nr, nc = draw(st.integers(1, side)), draw(st.integers(1, side))
    row = st.integers(0, (1 << nc) - 1)
    pool = draw(st.lists(row, min_size=1, max_size=3))
    rows = draw(st.lists(st.one_of(st.sampled_from(pool + [0]), row), min_size=nr, max_size=nr))
    source = draw(st.lists(st.integers(-1, nc - 1), min_size=nc, max_size=nc))
    copied = [sum((row >> s & 1) << j for j, s in enumerate(source) if s >= 0) for row in rows]
    return tuple(draw(st.sampled_from([rows, copied]))), nc


@given(grids01())
def test_chain_key_keeps_depth_rank_and_cover(grid):
    assert_key_keeps_invariants(*grid)


@given(grids01(side=6), st.data())
def test_transpose_keeps_the_chain_invariants_and_the_class_holds_them(grid, data):
    rows, ncols = grid
    cls = verify._class_of(bits(rows, ncols))
    want = chain_invariants(rows, ncols)
    # the class names a matrix of the grid's canonical form, with its
    # depth, rank and cover bound
    assert canonical_form(*decoded(cls)) == canonical_form(rows, ncols)
    assert chain_invariants(*decoded(cls)) == want
    # and the transpose, and any row and column permutation of either, has
    # the same class and invariants
    order = data.draw(st.permutations(rows))
    perm = tuple(data.draw(st.permutations(range(ncols))))
    for moved in ((transpose(rows, ncols), len(rows)), (relabel(tuple(order), perm), ncols)):
        assert verify._class_of(bits(*moved)) == cls
        assert chain_invariants(*moved) == want


def test_packed_lines_match_the_bit_loop_on_the_chain_states():
    for nc, rows in chain_states(4):
        assert same_up_to_line_order(packed_key(rows, nc), reference_key(rows, nc)), (rows, nc)
    for rows in random_rows(1729, 6, 20):
        assert same_up_to_line_order(packed_key(rows, 6), reference_key(rows, 6)), rows
    # the check tells apart matrices of one shape: I_2 and the two rows 00, 11
    assert not same_up_to_line_order(((1, 2), 2), ((0, 3), 2))


@st.composite
def wide_grids(draw):
    nr, nc = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    row = st.integers(0, (1 << nc) - 1)
    pool = draw(st.lists(row, min_size=1, max_size=3))
    line = st.one_of(st.sampled_from(pool + [0, (1 << nc) - 1]), row)
    return tuple(draw(st.lists(line, min_size=nr, max_size=nr))), nc


@given(wide_grids())
# I_4 (x) J_4: four distinct 16-bit rows, the last with bit 15 set
@example(((0x000F,) * 4 + (0x00F0,) * 4 + (0x0F00,) * 4 + (0xF000,) * 4, 16))
# rows of sixteen ones, repeated, next to zero rows and one bit short
@example(((0xFFFF,) * 16, 16))
@example(((0xFFFF, 0) * 8, 16))
@example(((0x7FFF, 0xFFFF) * 8, 16))
def test_packed_lines_match_the_bit_loop_up_to_16x16(grid):
    assert same_up_to_line_order(packed_key(*grid), reference_key(*grid))


def test_every_class_cover_is_exact_at_both_scales(monkeypatch):
    # the chain runs depth once per class: one key per brute-force canonical
    # form of its states and random matrices, and every class cover is exact
    calls = []
    real = verify.reduced_depths

    def depths(keys, ncols):
        calls.append((keys, ncols))
        return real(keys, ncols)

    monkeypatch.setattr(verify, "reduced_depths", depths)
    for scale, side, big, count, states, classes, shapes in (
        ("full", 4, 6, 20, 2716, 123, 11),
        ("small", 3, 5, 5, 114, 24, 7),
    ):
        calls.clear()
        ok, observed, _ = verify.check_log_rank_chain(scale, 1729)
        assert ok and observed == f"{states} canonical instances checked"
        keys = [(rows, nc) for batch, nc in calls for rows in batch]
        assert (len(keys), len(calls)) == (classes, shapes)
        want = {canonical_form(rows, nc) for nc, rows in chain_states(side)}
        want |= {canonical_form(rows, big) for rows in random_rows(1729, big, count)}
        assert len(want) == classes and {canonical_form(*key) for key in keys} == want
        for rows, nc in keys:
            m = RatMatrix(len(rows), nc, [(r >> j) & 1 for r in rows for j in range(nc)])
            assert box_cover_exact(support_pattern(m)).exact, (rows, nc)


def test_crashing_check_is_reported_not_raised(monkeypatch):
    def boom(scale, seed):
        raise RuntimeError("kernel unavailable")

    monkeypatch.setitem(
        verify.__dict__, "_CHECKS", [("edm-rank-3", "claim", boom)] + verify._CHECKS[1:]
    )
    rep = verify.run_verify_suite("small", seed=1)
    first = rep.checks[0]
    assert first.status == "fail" and "kernel unavailable" in first.observed
    assert not rep.passed
