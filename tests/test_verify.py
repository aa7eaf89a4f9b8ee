"""The verification harness itself: report shape, determinism, and the
forced-failure mode (a broken kernel must turn its check red), and the
batched reduction and transposition classes the log-rank chain is
evaluated on."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import mrw.verify as verify
from mrw.bounds import box_cover_exact, support_pattern
from mrw.models import dcc_exact_2party, reduced_keys
from mrw.ratlinalg import RatMatrix, rank_exact


def distinct_columns(rows: tuple[int, ...], ncols: int) -> tuple[int, ...]:
    """The distinct columns, sorted, of the 0/1 matrix whose row i has entry
    (i, j) as bit j of rows[i]; column j has it as bit i.  A bit loop over
    one matrix: the reference `reduced_keys` is held to."""
    cols = [0] * ncols
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return tuple(sorted(set(cols)))


def reduced_key(rows: tuple[int, ...], ncols: int) -> tuple[tuple[int, ...], int]:
    cols = distinct_columns(rows, ncols)
    return distinct_columns(cols, len(rows)), len(cols)


def transpose(rows: tuple[int, ...], ncols: int) -> tuple[int, ...]:
    """Row masks of the transpose, its rows in column order."""
    return tuple(sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(ncols))


def chain_class(key: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    rows, ncols = key
    return min(key, reduced_key(transpose(rows, ncols), len(rows)))


def grid_of(rows: tuple[int, ...], ncols: int) -> np.ndarray:
    return np.array([[row >> j & 1 for j in range(ncols)] for row in rows], dtype=np.uint8)


def batch_keys(states: list[tuple[int, ...]], ncols: int) -> list[tuple[tuple[int, ...], int]]:
    """The key of each state (row masks over ncols columns, all of one row
    count) from one `reduced_keys` batch."""
    keys, index = reduced_keys(np.array([grid_of(rows, ncols) for rows in states]))
    return [keys[i] for i in index.tolist()]


def random_rows(seed: int, big: int, count: int) -> list[tuple[int, ...]]:
    rng = np.random.default_rng(seed + 23)
    grids = [rng.integers(0, 2, size=(big, big)) for _ in range(count)]
    return [tuple(int(sum(int(v) << j for j, v in enumerate(row))) for row in grid) for grid in grids]


def test_report_shape_and_ids():
    rep = verify.run_verify_suite("small", seed=3)
    obj = rep.to_obj()
    assert obj["scale"] == "small" and obj["seed"] == 3
    ids = [c["id"] for c in obj["checks"]]
    assert ids[: len(verify.CHECK_IDS)] == verify.CHECK_IDS
    assert ids[-1] == "runtime-budget"
    for c in obj["checks"]:
        assert set(c) == {"id", "claim", "status", "observed", "expected", "runtimeMs"}


def test_sabotaged_rank_fails_its_check(monkeypatch):
    monkeypatch.setattr(verify, "rank_exact", lambda m: 2)
    ok, observed, _ = verify.check_edm_rank("small", 1)
    assert not ok and "2" in observed


def test_sabotaged_depth_fails_the_log_rank_chain(monkeypatch):
    monkeypatch.setattr(verify, "reduced_depths", lambda keys, ncols: [0] * len(keys))
    ok, observed, _ = verify.check_log_rank_chain("small", 1)
    assert not ok and "chain violated" in observed


def sabotage_one_class(monkeypatch, target: tuple[tuple[int, ...], int]):
    """Give the class of the key `target` depth 0 and every other class its
    true depth."""
    real = verify.reduced_depths
    broken = chain_class(target)

    def depths(keys, ncols):
        return [0 if (rows, ncols) == broken else d for rows, d in zip(keys, real(keys, ncols))]

    monkeypatch.setattr(verify, "reduced_depths", depths)


def test_a_sabotaged_key_names_the_first_state_holding_it(monkeypatch):
    # the 2x2 identity's key (rank 2, so depth 0 breaks the chain) is its own
    # class and is held by several states; the first in enumeration order
    # whose key or transposed key is the target is the one reported
    target = reduced_key((1, 2), 2)
    assert chain_class(target) == target
    holders = [
        (nc, rows) for nc, rows in verify._chain_states(3)
        if target in (reduced_key(rows, nc), reduced_key(transpose(rows, nc), len(rows)))
    ]
    assert len(holders) > 1
    sabotage_one_class(monkeypatch, target)
    ok, observed, _ = verify.check_log_rank_chain("small", 1)
    assert not ok and observed == f"chain violated at {holders[0]}"


def test_a_sabotaged_random_key_is_reported_as_random(monkeypatch):
    # the class of the first random 5x5 at seed 1 is held by no state up to
    # 3x3, so the first state holding it is a random one
    classes = {chain_class(reduced_key(rows, nc)) for nc, rows in verify._chain_states(3)}
    first = reduced_key(random_rows(1, 5, 1)[0], 5)
    assert chain_class(first) not in classes
    sabotage_one_class(monkeypatch, first)
    ok, observed, _ = verify.check_log_rank_chain("small", 1)
    assert not ok and observed == "chain violated on random 5x5"


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
        states = list(verify._chain_states(side))
        assert len(states) == count and set(states) == decoded_states(side)
        assert len({reduced_key(rows, nc) for nc, rows in states}) == keys


def chain_invariants(rows: tuple[int, ...], ncols: int) -> tuple[int, int, int]:
    m = RatMatrix(len(rows), ncols, [(r >> j) & 1 for r in rows for j in range(ncols)])
    return dcc_exact_2party(m), rank_exact(m), box_cover_exact(support_pattern(m)).lower


def assert_key_keeps_invariants(rows: tuple[int, ...], ncols: int):
    [(key_rows, key_cols)] = batch_keys([rows], ncols)
    assert list(key_rows) == sorted(set(key_rows)) and key_cols <= ncols
    assert chain_invariants(rows, ncols) == chain_invariants(key_rows, key_cols), (rows, ncols)


def test_chain_key_keeps_depth_rank_and_cover_on_every_small_state():
    for ncols, rows in verify._chain_states(3):
        assert_key_keeps_invariants(rows, ncols)


@st.composite
def grids01(draw, side: int = 5):
    nr, nc = draw(st.integers(1, side)), draw(st.integers(1, side))
    return draw(st.lists(st.integers(0, (1 << nc) - 1), min_size=nr, max_size=nr)), nc


@given(grids01())
def test_chain_key_keeps_depth_rank_and_cover(grid):
    rows, ncols = grid
    assert_key_keeps_invariants(tuple(rows), ncols)


@given(grids01(side=6))
def test_transpose_keeps_the_chain_invariants_and_the_class_holds_them(grid):
    rows, ncols = tuple(grid[0]), grid[1]
    cols = transpose(rows, ncols)
    want = chain_invariants(rows, ncols)
    assert chain_invariants(cols, len(rows)) == want
    key, key_t = batch_keys([rows], ncols)[0], batch_keys([cols], len(rows))[0]
    # a key's class is the smaller of it and the reduced key of its
    # transpose; the classes of the grid and of its transpose hold its
    # invariants, and a key whose transposed key transposes back to it
    # shares its class with that key
    classes = verify._key_classes([key, key_t])
    assert classes == [chain_class(key), chain_class(key_t)]
    assert [chain_invariants(*c) for c in classes] == [want, want]
    mate = reduced_key(transpose(*key), len(key[0]))
    if reduced_key(transpose(*mate), len(mate[0])) == key:
        assert verify._key_classes([key, mate]) == [chain_class(key)] * 2


def test_batched_reduction_matches_the_bit_loop_on_the_chain_states():
    for side, big, count in ((4, 6, 20), (3, 5, 5)):
        *batches, grids = verify._chain_batches(side, big, count, 1729)
        states = list(verify._chain_states(side))
        got = []
        for batch in batches:
            keys, index = reduced_keys(batch)
            got += [keys[i] for i in index.tolist()]
        assert got == [reduced_key(rows, nc) for nc, rows in states]
        keys, index = reduced_keys(grids)
        want = [reduced_key(rows, big) for rows in random_rows(1729, big, count)]
        assert [keys[i] for i in index.tolist()] == want
        assert keys == sorted(set(want), key=lambda k: (k[1], len(k[0]), k[0]))


@st.composite
def wide_batches(draw):
    nr, nc = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    row = st.integers(0, (1 << nc) - 1)
    pool = draw(st.lists(row, min_size=1, max_size=3))
    line = st.one_of(st.sampled_from(pool + [0, (1 << nc) - 1]), row)
    return draw(st.lists(st.lists(line, min_size=nr, max_size=nr), min_size=1, max_size=4)), nc


@given(wide_batches())
# I_4 (x) J_4: four distinct 16-bit rows, the last with bit 15 set
@example(([[0x000F] * 4 + [0x00F0] * 4 + [0x0F00] * 4 + [0xF000] * 4], 16))
# rows equal to the uint16 padding value, repeated
@example(([[0xFFFF] * 16, [0xFFFF, 0] * 8, [0x7FFF, 0xFFFF] * 8], 16))
def test_batched_reduction_matches_the_bit_loop_up_to_16x16(batch):
    states, ncols = batch
    assert batch_keys([tuple(rows) for rows in states], ncols) == [
        reduced_key(tuple(rows), ncols) for rows in states
    ]


def test_every_class_cover_is_exact_at_both_scales():
    for args, counts in (((4, 6, 20, 1729), (2716, 219, 12)), ((3, 5, 5, 1729), (114, 26, 7))):
        classes, state_class = verify._chain_classes(verify._chain_batches(*args))
        shapes = {(len(rows), nc) for rows, nc in classes}
        assert (len(state_class), len(classes), len(shapes)) == counts
        for rows, nc in classes:
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
