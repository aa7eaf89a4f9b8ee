"""The verification harness itself: report shape, determinism, and the
forced-failure mode (a broken kernel must turn its check red), and the
reduction the log-rank chain memoizes on."""

from hypothesis import given
from hypothesis import strategies as st

import mrw.verify as verify
from mrw.bounds import box_cover_exact, support_pattern
from mrw.models import dcc_exact_2party
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
    monkeypatch.setattr(verify, "dcc_exact_2party", lambda m: 0)
    ok, observed, _ = verify.check_log_rank_chain("small", 1)
    assert not ok and "chain violated" in observed


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
        assert len({verify._chain_key(rows, nc) for nc, rows in states}) == keys


def chain_invariants(rows: tuple[int, ...], ncols: int) -> tuple[int, int, int]:
    m = RatMatrix(len(rows), ncols, [(r >> j) & 1 for r in rows for j in range(ncols)])
    return dcc_exact_2party(m), rank_exact(m), box_cover_exact(support_pattern(m)).lower


def assert_key_keeps_invariants(rows: tuple[int, ...], ncols: int):
    key_rows, key_cols = verify._chain_key(rows, ncols)
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
