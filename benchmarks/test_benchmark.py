"""Self-tests of the benchmark: seeded inputs, span accounting, checks.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import LAYERS, Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, _check_mr, search_check, search_prepare  # noqa: E402


def _files(root: str) -> dict[str, bytes]:
    found = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_byte_identical_for_one_seed(workload, tmp_path):
    make_inputs, prepare, _, _ = WORKLOADS[workload]
    first, second = make_inputs(7), make_inputs(7)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    prepare(first, str(tmp_path / "a"))
    prepare(second, str(tmp_path / "b"))
    assert _files(str(tmp_path / "a")) == _files(str(tmp_path / "b"))


@pytest.mark.parametrize("workload", ["exact-pipeline", "search-batch"])
def test_seed_changes_inputs(workload):
    make_inputs = WORKLOADS[workload][0]
    assert json.dumps(make_inputs(7), sort_keys=True) != json.dumps(make_inputs(8), sort_keys=True)


def _traced_calls(tmp_path):
    import mrw.bounds
    import mrw.cli
    from mrw.ratlinalg import RatMatrix

    matrix = {"rows": 3, "cols": 3, "entries": ["1", "2", "3", "2", "4", "6", "0", "1", "1"]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    tracer = Tracer()
    tracer.install()
    try:
        # looked up after install: a name imported earlier still holds the original
        mrw.cli.main(["mr", "--matrix", str(path), "--out", str(tmp_path / "out.json")])
        mrw.bounds.mr_bounds(RatMatrix.from_rows([[1, 2, 3], [2, 4, 6], [3, 6, 9]]))
    finally:
        tracer.uninstall()
    return tracer.spans


def test_self_times_and_child_coverage_add_up_to_each_span(tmp_path):
    spans = _traced_calls(tmp_path)
    names = {s.name for s in spans}
    assert {"cli.main", "bounds.mr_bounds", "numkit.nmf_search", "ratlinalg.rank_exact"} <= names
    selfs, covered = self_times(spans)
    for span, self_s, cover in zip(spans, selfs, covered):
        assert self_s >= 0.0
        assert self_s + cover == pytest.approx(span.end - span.start, abs=1e-12)
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    top = sum(s.end - s.start for s in spans if s.parent < 0)
    assert sum(selfs) == pytest.approx(top, rel=1e-9)
    summary = summarize(spans)
    assert sum(summary["modules"].values()) == pytest.approx(top, rel=1e-9)
    assert summary["functions"]["numkit.nmf_search"]["ok"] == 2
    assert summary["cli_ms"]["mr"] and len(summary["cli_ms"]) == 1


def test_tracer_wraps_every_binding_and_restores_them():
    import mrw
    import mrw.bounds
    import mrw.cli
    import mrw.numkit
    from mrw.dtensor import DenseTensor

    originals = {
        "package": mrw.mr_bounds,
        "cli": mrw.cli.mr_bounds,
        "rank": mrw.cli.rank_exact,
        "method": DenseTensor.__dict__["mode_flattening"],
        "nmf": mrw.numkit.nmf_search,
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert mrw.mr_bounds is mrw.cli.mr_bounds is mrw.bounds.mr_bounds
        assert mrw.mr_bounds is not originals["package"]
        assert mrw.cli.rank_exact is mrw.ratlinalg.rank_exact is not originals["rank"]
        assert DenseTensor.__dict__["mode_flattening"] is not originals["method"]
        assert mrw.numkit.nmf_search is mrw.nmf_search is not originals["nmf"]
        patched = {attr for _, attr in tracer.patched()}
        assert patched >= {q.split(".")[-1] for names in LAYERS.values() for q in names}
    finally:
        tracer.uninstall()
    assert mrw.mr_bounds is originals["package"] is mrw.cli.mr_bounds
    assert mrw.cli.rank_exact is originals["rank"]
    assert DenseTensor.__dict__["mode_flattening"] is originals["method"]
    assert mrw.numkit.nmf_search is originals["nmf"]


def test_mr_check_rejects_bad_reports():
    obj = {"rows": 2, "cols": 2, "entries": ["0", "1", "1", "1"]}
    good = {
        "lower": 2, "upper": 2, "cover": {"lower": 2, "upper": 2},
        "boxes": [[[0, 1], [1]], [[1], [0, 1]]],
    }
    assert _check_mr(obj, good, rank=2) == []
    outside = dict(good, boxes=[[[0, 1], [0, 1]]], cover={"lower": 1, "upper": 1})
    assert _check_mr(obj, outside, rank=2)
    short = dict(good, boxes=[[[0, 1], [1]]])
    assert _check_mr(obj, short, rank=2)
    assert _check_mr(obj, dict(good, lower=1), rank=2)
    wrong_fact = dict(good, factorization={"terms": [[[1.0, 1.0], [1.0, 1.0]]] * 2})
    assert _check_mr(obj, wrong_fact, rank=2)


def test_search_check_counts_each_bad_operation_once(tmp_path):
    inputs = {
        "files": [{"name": "a", "object": {"rows": 2, "cols": 2, "entries": ["0", "1", "1", "0"]}}],
        "ops": [["a", "rank"], ["a", "dcc"]],
    }
    prepared = search_prepare(inputs, str(tmp_path))
    rank_out, dcc_out = tmp_path / "rank.json", tmp_path / "dcc.json"
    rank_out.write_text(json.dumps({"rank": 1}))
    dcc_out.write_text(json.dumps({"depth": 5}))
    attempted, failures, gap = search_check(prepared, [(0, str(rank_out)), (0, str(dcc_out))])
    assert attempted == 2 and gap == 0
    assert set(failures) == {"rank a", "dcc a"}
