"""The verification harness itself: report shape, determinism, and the
forced-failure mode (a broken kernel must turn its check red)."""

import mrw.verify as verify


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
