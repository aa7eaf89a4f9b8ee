"""The verification harness itself: report shape, determinism, and the
forced-failure mode (a broken kernel must turn its check red), and the
reduction the log-rank chain memoizes on."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import mrw.verify as verify
from mrw.bounds import box_cover_exact, support_pattern
from mrw.models import dcc_exact_2party, reduced_key
from mrw.ratlinalg import RatMatrix, rank_exact


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


def sabotage_one_key(monkeypatch, target: tuple[tuple[int, ...], int]):
    """Give the key `target` depth 0 and every other key its true depth."""
    real = verify.reduced_depths

    def depths(keys, ncols):
        return [0 if (rows, ncols) == target else d for rows, d in zip(keys, real(keys, ncols))]

    monkeypatch.setattr(verify, "reduced_depths", depths)


def test_a_sabotaged_key_names_the_first_state_holding_it(monkeypatch):
    # the 2x2 identity's key (rank 2, so depth 0 breaks the chain) is held by
    # several states; the first in enumeration order is the one reported
    target = reduced_key((1, 2), 2)
    holders = [(nc, rows) for nc, rows in verify._chain_states(3) if reduced_key(rows, nc) == target]
    assert len(holders) > 1
    sabotage_one_key(monkeypatch, target)
    ok, observed, _ = verify.check_log_rank_chain("small", 1)
    assert not ok and observed == f"chain violated at {holders[0]}"


def test_a_sabotaged_random_key_is_reported_as_random(monkeypatch):
    # the key of the first random 5x5 at seed 1 is held by no state up to
    # 3x3, so the first state holding it is a random one
    keys = {reduced_key(rows, nc) for nc, rows in verify._chain_states(3)}
    rng = np.random.default_rng(1 + 23)
    grid = rng.integers(0, 2, size=(5, 5))
    first = reduced_key(tuple(int(sum(int(v) << j for j, v in enumerate(row))) for row in grid), 5)
    assert first not in keys
    sabotage_one_key(monkeypatch, first)
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
    key_rows, key_cols = reduced_key(rows, ncols)
    assert list(key_rows) == sorted(set(key_rows)) and key_cols <= ncols
    assert chain_invariants(rows, ncols) == chain_invariants(key_rows, key_cols), (rows, ncols)


def test_chain_key_keeps_depth_rank_and_cover_on_every_small_state():
    for ncols, rows in verify._chain_states(3):
        assert_key_keeps_invariants(rows, ncols)


@st.composite
def grids01(draw):
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(st.lists(st.integers(0, (1 << nc) - 1), min_size=nr, max_size=nr)), nc


@given(grids01())
def test_chain_key_keeps_depth_rank_and_cover(grid):
    rows, ncols = grid
    assert_key_keeps_invariants(tuple(rows), ncols)


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
