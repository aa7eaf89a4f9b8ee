"""Acceptance gate: every desk-scale reproduction criterion at full scale.

The suite runs once per session; each criterion then gets its own test that
prints one pass/fail line and enforces both the check outcome and its stated
wall-clock budget.
"""

import re

import pytest

from mrw.numkit import DEFAULT_SEED
from mrw.verify import CHECK_IDS, run_verify_suite

# per-criterion wall-clock budgets, milliseconds
_BUDGETS_MS = {
    "edm-rank-3": 1_000,
    "edm-mr-bracket": 60_000,
    "worked-example-fidelity": 1_000,
    "abp-profile": 30_000,
    "abp-separation-trend": 30_000,
    "quantum-pipeline": 10_000,
    "hv-lower-bound-chain": 60_000,
    "divisibility-tensor": 60_000,
    "log-rank-chain": 120_000,
    "separation-report": 5_000,
}


@pytest.fixture(scope="session")
def full_report():
    return run_verify_suite(scale="full", seed=DEFAULT_SEED)


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_acceptance_criterion(full_report, check_id, capsys):
    check = next(c for c in full_report.checks if c.id == check_id)
    with capsys.disabled():
        print(f"[{check.status.upper():>4}] {check.id}: {check.observed} ({check.runtime_ms} ms)")
    assert check.status == "pass", f"{check.id}: {check.observed} (expected {check.expected})"
    assert check.runtime_ms <= _BUDGETS_MS[check_id], (
        f"{check.id} took {check.runtime_ms} ms, budget {_BUDGETS_MS[check_id]} ms"
    )


def test_suite_runtime_budget(full_report, capsys):
    runtime = next(c for c in full_report.checks if c.id == "runtime-budget")
    with capsys.disabled():
        print(f"[{runtime.status.upper():>4}] suite runtime: {runtime.observed}")
    assert runtime.status == "pass"


def test_one_check_per_criterion(full_report):
    ids = [c.id for c in full_report.checks]
    assert len(ids) == len(set(ids))
    assert set(CHECK_IDS) <= set(ids)


def test_exact_witnesses_pinned(full_report):
    observed = {c.id: c.observed for c in full_report.checks}
    # benchmarks/workloads.py parses this prefix into bracket_gap
    edm_m = re.match(r"cover lower (\d+); witness r=(\d+) exact$", observed["edm-mr-bracket"])
    assert edm_m, observed["edm-mr-bracket"]
    assert int(edm_m.group(1)) <= int(edm_m.group(2)) == 8
    div_r = re.findall(r"rank witness r=(\d+) exact", observed["divisibility-tensor"])
    assert div_r == ["4", "7", "5"], observed["divisibility-tensor"]
    # one per state, although the chain runs once per canonical class
    assert observed["log-rank-chain"] == "2716 canonical instances checked"
    for text in observed.values():
        assert "heuristic" not in text and "residual" not in text, text


def test_suite_deterministic_given_seed():
    a = run_verify_suite(scale="small", seed=7)
    b = run_verify_suite(scale="small", seed=7)
    assert [(c.id, c.status, c.observed) for c in a.checks] == [
        (c.id, c.status, c.observed) for c in b.checks
    ]
