"""CLI behavior: exit codes, JSON output, warnings, file handling."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import mrw
from mrw.cli import main
from mrw.errors import ValidationError
from mrw.serialize import canonical_dumps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_edm_and_rank_pipeline(tmp_path, capsys):
    out_file = tmp_path / "edm.json"
    code, _, _ = run(capsys, "gen", "edm", "--n", "5", "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "rank", "--matrix", str(out_file))
    assert code == 0
    assert json.loads(out)["rank"] == 3


def test_gen_flatten_matches_worked_matrix(capsys):
    code, out, _ = run(capsys, "gen", "flatten", "--n", "2", "--d", "4", "--k", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == 4 and obj["entries"][:4] == ["0", "1", "4", "9"]


def test_gen_values_flag(capsys):
    code, out, _ = run(capsys, "gen", "edm", "--values", "1/2,2,3", "--n", "3")
    assert code == 0
    assert json.loads(out)["entries"][1] == "9/4"


@pytest.mark.parametrize("n", [4, 8])
def test_gen_correlation_base_is_the_difference_matrix(capsys, n):
    from mrw.constructions import CorrelationSpec, difference_matrix
    from mrw.serialize import matrix_to_obj

    code, out, _ = run(capsys, "gen", "correlation", "--N", str(n), "--part", "base")
    assert code == 0
    assert out == canonical_dumps(matrix_to_obj(difference_matrix(CorrelationSpec(n)).base))


@pytest.mark.parametrize(
    "values", ["abc", "1/0", "", " , ", "1e5000,2", "1e-5000,2", "1e100000000,2"]
)
def test_gen_bad_values_exit_2(capsys, values):
    code, out, err = run(capsys, "gen", "edm", "--values", values)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_gen_flags_go_after_the_object(tmp_path, capsys):
    out_file = tmp_path / "edm.json"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--out", str(out_file), "edm", "--n", "3"])
    assert exc.value.code == 2 and not out_file.exists()
    code, out, _ = run(capsys, "gen", "edm", "--n", "3", "--out", str(out_file))
    assert code == 0 and out == "" and json.loads(out_file.read_text())["rows"] == 3


@pytest.mark.parametrize(
    ("argv", "unused"),
    [
        (["rank", "--matrix", "m.json", "--csv"], "--csv"),
        (["mr", "--matrix", "m.json", "--seed", "1"], "--seed 1"),
        (["dcc", "--matrix", "m.json", "--rational"], "--rational"),
        (["gen", "edm", "--budget", "2"], "--budget 2"),
        (["verify", "--budget", "2"], "--budget 2"),
    ],
)
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, argv, unused):
    path = tmp_path / "m.json"
    path.write_text(canonical_dumps({"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]}))
    with pytest.raises(SystemExit) as exc:
        main([str(path) if arg == "m.json" else arg for arg in argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"unrecognized arguments: {unused}" in err


def test_mr_on_tensor_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "divtensor", "--base", "2", "--order", "3",
                       "--out", str(tmp_path / "t.json"))
    assert code == 0
    code, out, _ = run(capsys, "mr", "--tensor", str(tmp_path / "t.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] == 4 and obj["upper"] == 4


def test_mr_reads_a_two_mode_tensor_file_as_the_matrix(tmp_path, capsys):
    entries = ["1", "1", "0", "1", "2", "1", "0", "1", "1", "2", "3", "1"]
    (tmp_path / "t.json").write_text(json.dumps({"dims": [4, 3], "entries": entries}))
    (tmp_path / "m.json").write_text(json.dumps({"rows": 4, "cols": 3, "entries": entries}))
    code_t, out_t, _ = run(capsys, "mr", "--tensor", str(tmp_path / "t.json"))
    code_m, out_m, _ = run(capsys, "mr", "--matrix", str(tmp_path / "m.json"))
    assert code_t == code_m == 0 and out_t == out_m
    rep = json.loads(out_t)
    assert (rep["lower"], rep["upper"], rep["upperStatus"]) == (2, 2, "exact") and "factorization" in rep


def test_dcc_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(canonical_dumps({"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]}))
    code, out, _ = run(capsys, "dcc", "--matrix", str(path))
    assert code == 0
    assert json.loads(out)["depth"] == 2


def test_quantum_report(capsys):
    code, out, _ = run(capsys, "quantum", "--N", "4", "--simulate", "20000", "--seed", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["charPoly"] == ["0", "0", "1/2", "0", "1"]
    assert obj["simulation"]["tvDistance"] <= 0.05


def test_comm_csv_ladder(capsys):
    code, out, _ = run(capsys, "comm", "--nbits", "2", "--d", "100", "--ladder", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,logMrExact,logRkUpper,separationRatio"
    assert lines[1].startswith("2,")


@pytest.mark.parametrize("nbits, d", [("2", "1"), ("0", "1"), ("0", "2")])
def test_comm_ladder_bad_input_exits_2(capsys, nbits, d):
    code, out, err = run(capsys, "comm", "--nbits", nbits, "--d", d, "--ladder")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_comm_with_a_huge_nbits_exits_0(capsys):
    code, out, _ = run(capsys, "comm", "--nbits", str(2**63), "--d", "2")
    assert code == 0
    assert json.loads(out)["logMrExact"] == 2**63


def test_abp_json(capsys):
    code, out, _ = run(capsys, "abp", "--n", "2", "--d", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["totalSize"] == 9 and obj["mirrorOk"] is True


def test_bad_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "rank", "--matrix", str(path))
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "command, flag", [("rank", "--matrix"), ("mr", "--matrix"), ("mr", "--tensor"), ("dcc", "--matrix")]
)
def test_a_file_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys, command, flag):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"rows":1,"cols":1,"dims":[1,1],"entries":["\xff"]}')
    code, _, err = run(capsys, command, flag, str(path))
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("rank", "--matrix", '{"rows": 1, "cols": 1, "entries": 5}'),
        ("mr", "--matrix", '{"rows": 1, "cols": 1, "entries": null}'),
        ("dcc", "--matrix", '{"rows": true, "cols": 1, "entries": ["1"]}'),
        ("mr", "--tensor", '{"dims": 5, "entries": [1]}'),
        ("mr", "--tensor", '{"dims": [2, true], "entries": ["1", "0"]}'),
        ("mr", "--tensor", '{"dims": [1, 2], "entries": ["1", 0.5]}'),
    ],
)
def test_malformed_shape_exits_2(tmp_path, capsys, command, flag, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(capsys, command, flag, str(path))
    assert code == 2 and err.startswith("error:")


def test_oversized_matrix_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"rows": 3000, "cols": 3000, "entries": []}')
    code, _, err = run(capsys, "rank", "--matrix", str(path))
    assert code == 2 and err.startswith("error:") and "guard" in err


@pytest.mark.parametrize(
    "argv", [("quantum", "--N", "8192"), ("gen", "correlation", "--N", "8192")]
)
def test_oversized_correlation_exits_2(capsys, argv):
    # the guard runs before any O(N^2) work, so this returns at once
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "67108864 entries exceeds the 1048576 guard" in err


@pytest.mark.parametrize(
    "argv, obj",
    [
        (("abp", "--n", "2", "--d", "20000"), None),
        (("gen", "flatten", "--n", "2", "--d", "20000", "--k", "1"), None),
        (("gen", "divtensor", "--base", "2", "--order", "20000"), None),
        (("quantum", "--N", str(2**14000)), None),
        (("mr", "--tensor"), {"dims": [2] * 15000, "entries": []}),
        (("rank", "--matrix"), {"rows": 10**2200, "cols": 10**2200, "entries": []}),
    ],
)
def test_astronomical_sizes_exit_2_with_one_line(tmp_path, capsys, argv, obj):
    # the refused count has thousands of digits; the message must not print it
    if obj is not None:
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        argv = (*argv, str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "entries exceeds the 1048576 guard" in err and len(err) < 120


@pytest.mark.parametrize(
    "entry",
    [
        "1" * 5000,
        '"' + "1" * 5000 + '"',
        "[" * 100_000 + "]" * 100_000,
        '"1e5000"',
        '"1e-5000"',
        '"1e100000000"',
    ],
    ids=["number", "string", "nested", "exponent", "negative-exponent", "huge-exponent"],
)
def test_overlong_literal_exits_2_with_one_line(tmp_path, capsys, entry):
    # past Python's 4,300-digit limit on reading an int: as a JSON number
    # json.loads refuses it, as a string the entry parser does; neither
    # echoes the digits.  Arrays nested past the recursion limit are refused
    # the same way, and so is a short literal whose exponent would expand it
    # past the limit (before the power of ten is built).
    path = tmp_path / "long.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [' + entry + "]}")
    code, out, err = run(capsys, "rank", "--matrix", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "1" * 30 not in err and len(err.replace(str(path), "")) < 120


@pytest.mark.parametrize(
    "argv",
    [
        ("quantum", "--N", "4", "--simulate", "10", "--seed", "-1"),
        ("quantum", "--N", "4", "--simulate", str(10**20)),
        ("verify", "--scale", "small", "--seed", "-100"),
    ],
)
def test_bad_seed_or_trial_count_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "rank", "--matrix", "/nonexistent/x.json")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "gen flatten --n 2 --d 3 --k 1",
        "abp --n 1 --d 2",
        "abp --n 2 --d 3",
        "comm --nbits 0 --d 3",
        "comm --nbits 1 --d 0 --ladder",
        "gen flatten --n 2 --d 4 --k 9",
        "gen subsidiary --n 2 --d 2",
        "gen divtensor --base 1 --order 3",
        "gen correlation --N 3",
        "quantum --N 3",
        "gen edm --values 1,1",
    ],
    ids=lambda argv: "-".join(argv.replace("--", "").split()),
)
def test_validation_error_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), err


def test_non_canonical_warning_on_stderr(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": ["2/4"]}')
    code, out, err = run(capsys, "rank", "--matrix", str(path))
    assert code == 0
    assert "normalized non-canonical" in err


def test_verify_small_scale(capsys):
    code, out, _ = run(capsys, "verify", "--scale", "small")
    assert code == 0
    assert "edm-rank-3" in out
    assert "all checks passed" in out


def test_budget_resolution_order(monkeypatch):
    from argparse import Namespace

    from mrw.cli import _budget_factor, build_parser

    # --budget is the only source: the environment is not read
    monkeypatch.setenv("MRW_BUDGET", "2.5")
    default = build_parser().parse_args(["mr", "--matrix", "m.json"])
    assert _budget_factor(default) == 1.0
    assert _budget_factor(Namespace(budget=0.5)) == 0.5
    assert _budget_factor(Namespace(budget=10.0)) == 10.0  # the ceiling itself
    for bad in (math.nan, math.inf, 0.0, -1.0, 10.5, 1e300):
        with pytest.raises(ValidationError):
            _budget_factor(Namespace(budget=bad))


def test_bad_budget_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 1, "cols": 2, "entries": ["0", "1"]}))
    for flag in ("nan", "inf", "0", "-1", "1e300", "10.5"):
        code, out, err = run(capsys, "mr", "--matrix", str(path), "--budget", flag)
        assert code == 2 and out == "" and err.startswith("error: budget"), flag
        assert err.count("\n") == 1, flag


def test_mr_budget_scales_cover_and_nmf_search(tmp_path, capsys, monkeypatch):
    import mrw.bounds
    from mrw.numkit import SearchBudget

    seen = {}
    cover = mrw.bounds.box_cover_exact

    def spy_cover(pattern, node_budget):
        seen["nodes"] = node_budget
        return cover(pattern, node_budget=node_budget)

    def spy_nmf(m, r, budget):
        seen["nmf"] = budget
        return None

    monkeypatch.setattr(mrw.bounds, "box_cover_exact", spy_cover)
    monkeypatch.setattr(mrw.bounds, "nmf_search", spy_nmf)
    path = tmp_path / "m.json"
    # rank 2 and cover 2 against the dimension bound 3, so mr runs its search
    path.write_text(json.dumps({"rows": 3, "cols": 3, "entries": ["1", "1", "0", "1", "1", "0", "0", "0", "1"]}))
    code, _, _ = run(capsys, "mr", "--matrix", str(path), "--budget", "0.5")
    assert code == 0
    assert seen == {"nodes": 25_000, "nmf": SearchBudget(restarts=2, iterations=1000)}


def write_matrix(path, rows):
    path.write_text(json.dumps({"rows": len(rows), "cols": len(rows[0]), "entries": [str(x) for row in rows for x in row]}))
    return str(path)


def test_a_401_digit_entry_gets_its_exact_bracket_and_witness(tmp_path, capsys):
    # the separable stage settles it before any float is built, and no float
    # holds 10^400, so the witness is exact with or without --rational
    big = 10**400
    rows = [[big, big, 0], [1, 1, 1], [0, 0, 1]]
    path = write_matrix(tmp_path / "m.json", rows)
    for flags in ((), ("--rational",)):
        code, out, err = run(capsys, "mr", "--matrix", path, *flags)
        assert code == 0 and err == ""
        rep = json.loads(out)
        assert (rep["lower"], rep["upper"], rep["upperStatus"]) == (2, 2, "exact")
        terms = [[[Fraction(x) for x in vec] for vec in term] for term in rep["factorization"]["terms"]]
        assert [[sum(w[i] * h[j] for w, h in terms) for j in range(3)] for i in range(3)] == rows


# a product of nonnegative 8x4 and 4x7 integer matrices: rank 4, and neither
# exact stage (they run at rank 3 and on separable inputs) finds a witness
RANK4_PRODUCT = [
    [24, 18, 18, 6, 28, 18, 2],
    [3, 4, 2, 2, 4, 2, 3],
    [22, 20, 18, 6, 27, 16, 4],
    [14, 20, 12, 8, 20, 10, 12],
    [14, 18, 12, 4, 17, 6, 6],
    [15, 7, 5, 5, 13, 8, 3],
    [31, 29, 21, 9, 34, 16, 9],
    [5, 2, 2, 2, 5, 4, 1],
]


def test_a_rank_4_product_past_float_range_keeps_the_trivial_bound(tmp_path, capsys):
    # at 10^400 no float holds an entry, so the float search does not run
    path = write_matrix(tmp_path / "m.json", [[x * 10**400 for x in row] for row in RANK4_PRODUCT])
    code, out, err = run(capsys, "mr", "--matrix", path)
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert (rep["lower"], rep["upper"], rep["upperStatus"]) == (4, 7, "trivial")
    assert "factorization" not in rep


@pytest.mark.parametrize(
    "scale",
    [1, 10**150, 10**250, 10**300, 5 * 10**306, Fraction(1, 10**300)],
    ids=["1", "1e150", "1e250", "1e300", "5e306", "1e-300"],
)
def test_a_rank_4_product_gets_its_float_witness_at_every_scale_a_float_holds(tmp_path, capsys, scale):
    # the float search runs on a copy scaled to a largest entry of 1, so
    # its products neither overflow nor underflow; each H row of the witness
    # has a largest entry of 1, so W multiplied back stays within float
    # range up to M's largest entry 1.7e308 (at 5 * 10^306)
    path = write_matrix(tmp_path / "m.json", [[x * scale for x in row] for row in RANK4_PRODUCT])
    code, out, err = run(capsys, "mr", "--matrix", path)
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert (rep["lower"], rep["upper"], rep["upperStatus"]) == (4, 4, "heuristic-certified")
    w, h = zip(*rep["factorization"]["terms"])
    assert min(min(map(min, w)), min(map(min, h))) >= 0
    rebuilt = [[sum(Fraction(a[i]) * Fraction(b[j]) for a, b in zip(w, h)) for j in range(7)] for i in range(8)]
    miss = max(abs(x * scale - y) for row, rebuilt_row in zip(RANK4_PRODUCT, rebuilt) for x, y in zip(row, rebuilt_row))
    assert miss <= Fraction(1, 10**6) * 34 * scale


def test_mr_on_a_float_search_leaves_scipy_unimported(tmp_path):
    # a fresh process whose `mr` reaches the float search imports no scipy
    path = write_matrix(tmp_path / "m.json", RANK4_PRODUCT)
    child = (
        "import json, sys; from mrw.cli import main; code = main(['mr', '--matrix', sys.argv[1], '--out', sys.argv[2]]); "
        "print(json.dumps([code, json.load(open(sys.argv[2]))['upperStatus'], 'scipy' in sys.modules]))"
    )
    src = str(Path(mrw.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", child, path, str(tmp_path / "rep.json")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(done.stdout) == [0, "heuristic-certified", False]


@st.composite
def mixed_products(draw):
    """W @ H, n x k times k x m, mostly with k < n, m so that the bracket
    has a gap and `mr` searches.  A factor entry is c * 10^e, 0 <= c <= 9
    and |e| <= 200, e within a drawn spread of a drawn shift: the products' entries
    sit near 10^-400, 1, 10^250 or 10^400, or mix 10^-400 .. 10^400."""
    shift, spread = draw(st.sampled_from([-200, 0, 125, 200])), draw(st.sampled_from([0, 1, 200]))
    exponents = st.integers(max(-200, shift - spread), min(200, shift + spread))
    factor = st.builds(lambda c, e: c * Fraction(10) ** e, st.integers(0, 9), exponents)
    n, k, m = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    w = [[draw(factor) for _ in range(k)] for _ in range(n)]
    h = [[draw(factor) for _ in range(m)] for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*h)] for row in w]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mixed_products())
@example(RANK4_PRODUCT)
@example([[x * 10**250 for x in row] for row in RANK4_PRODUCT])
@example([[x * 10**400 for x in row] for row in RANK4_PRODUCT])
@example([[Fraction(x, 10**400) for x in row] for row in RANK4_PRODUCT])
def test_mr_on_entries_from_1e_minus_400_to_1e400_reports_a_bracket(tmp_path, capsys, rows):
    # no traceback, and any witness reproduces the matrix: exactly when it
    # is written as "p/q" strings, within the search's relative 1e-6 (and
    # float rounding) when it is written as floats
    code, out, err = run(capsys, "mr", "--matrix", write_matrix(tmp_path / "m.json", rows), "--budget", "0.1")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["lower"] <= rep["upper"]
    if "factorization" in rep:
        terms = rep["factorization"]["terms"]
        got = [[sum(Fraction(w[i]) * Fraction(h[j]) for w, h in terms) for j in range(len(row))] for i, row in enumerate(rows)]
        miss = max(abs(a - b) for got_row, row in zip(got, rows) for a, b in zip(got_row, row))
        if terms and isinstance(terms[0][0][0], str):
            assert rep["upperStatus"] == "exact" and miss == 0
        else:
            assert miss <= Fraction(1001, 10**9) * max(map(max, rows))


# the notes `box_cover_exact` writes under the exact-search cap, less the
# budget note, which names its budget and depth
COVER_NOTES = {"empty support", "optimal cover found", "counting matches greedy", "crown matches greedy", "greedy proven optimal"}


@st.composite
def zero_one_files(draw):
    """A 0/1 matrix or tensor file of at most 64 cells, and its flag."""
    if draw(st.booleans()):
        dims = list(draw(st.tuples(st.integers(1, 8), st.integers(1, 8))))
    else:
        dims = draw(st.one_of(st.lists(st.integers(1, 4), min_size=3, max_size=3), st.lists(st.integers(1, 2), min_size=4, max_size=6)))
    size = math.prod(dims)
    # half or three quarters ones: dense files have crowns and searches
    symbols = draw(st.sampled_from([["0", "1"], ["0", "1", "1", "1"]]))
    entries = draw(st.lists(st.sampled_from(symbols), min_size=size, max_size=size))
    if len(dims) == 2:
        return "--matrix", {"rows": dims[0], "cols": dims[1], "entries": entries}
    return "--tensor", {"dims": dims, "entries": entries}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(zero_one_files(), st.sampled_from([[], ["--budget", "0.01"]]))
def test_mr_on_zero_one_files_reports_a_valid_cover(tmp_path, capsys, drawn, budget):
    flag, obj = drawn
    path = tmp_path / "a.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "mr", flag, str(path), *budget)
    assert code == 0 and err == ""
    rep = json.loads(out)
    cover = rep["cover"]
    assert rep["lower"] <= rep["upper"] and cover["lower"] <= cover["upper"]
    assert cover["note"] in COVER_NOTES or re.fullmatch(r"node budget \d+ exhausted while refuting size \d+", cover["note"])
    event(cover["note"] if cover["note"] in COVER_NOTES else "budget note")
    dims = obj["dims"] if flag == "--tensor" else [obj["rows"], obj["cols"]]
    grid = itertools.product(*map(range, dims))
    support = {cell for cell, e in zip(grid, obj["entries"]) if e == "1"}
    if "boxes" in rep:
        assert len(rep["boxes"]) == cover["upper"]
        covered = set()
        for box in rep["boxes"]:
            cells = set(itertools.product(*box))
            assert cells <= support
            covered |= cells
        assert covered == support


FILE_COMMANDS = [("rank", "--matrix"), ("mr", "--matrix"), ("mr", "--tensor"), ("dcc", "--matrix")]


@st.composite
def malformed_files(draw):
    """A matrix or tensor object of at most 30 entries, each key possibly
    missing or of a wrong type: sizes that are negative, zero, bools,
    floats, None or strings; entries that are not a list, or hold bools,
    floats, None, lists or bad literals; entry counts off by one."""
    size = st.one_of(st.integers(-1, 5), st.booleans(), st.floats(-2, 5), st.none(), st.sampled_from(["2", "x"]))
    entry = st.one_of(
        st.sampled_from(["0", "1", "1", "-2", "3/2", "1/0", "2e1", "1e", "abc", "", " 1", "0x1", "nan", "inf"]),
        st.integers(-2, 2),
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.none(),
        st.lists(st.sampled_from(["0", "1"]), max_size=2),
    )
    if draw(st.booleans()):
        obj = {"rows": draw(size), "cols": draw(size)}
        shape = [obj["rows"], obj["cols"]]
    else:
        obj = {"dims": draw(st.one_of(st.lists(size, max_size=4), size))}
        shape = obj["dims"] if isinstance(obj["dims"], list) else [obj["dims"]]
    # a well-formed shape of under 30 cells gets its entry count or one off
    cells = math.prod(shape) if all(type(n) is int and n >= 0 for n in shape) else 30
    count = max(draw(st.sampled_from([cells - 1, cells, cells + 1]) if cells < 30 else st.integers(0, 30)), 0)
    obj["entries"] = draw(st.one_of(st.lists(entry, min_size=count, max_size=count), entry, st.dictionaries(st.text(max_size=2), entry, max_size=2)))
    for key in list(obj):
        if draw(st.integers(0, 9)) == 0:
            del obj[key]
    return obj


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(FILE_COMMANDS), malformed_files())
def test_file_commands_refuse_malformed_objects_with_one_error_line(tmp_path, capsys, command, obj):
    # exit 0 on a file that reads as a valid object, else exit 2 with the
    # error as the last stderr line; never a traceback
    path = tmp_path / "a.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, *command, str(path))
    event(f"exit {code}")
    assert code in (0, 2)
    if code == 2:
        assert err.splitlines()[-1].startswith("error:")


def test_gen_edm_with_a_square_too_long_to_print_exits_2_with_one_line(capsys):
    # 10^2200 passes the literal guard, but its square has 4,401 digits
    code, out, err = run(capsys, "gen", "edm", "--values", "1e2200,0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    import mrw.bounds
    from mrw.cli import build_parser

    assert build_parser() is build_parser()
    nodes = []
    cover = mrw.bounds.box_cover_exact

    def spy_cover(pattern, node_budget):
        nodes.append(node_budget)
        return cover(pattern, node_budget=node_budget)

    monkeypatch.setattr(mrw.bounds, "box_cover_exact", spy_cover)
    path = tmp_path / "m.json"
    path.write_text(canonical_dumps({"rows": 2, "cols": 2, "entries": ["1", "1", "0", "1"]}))
    calls = [
        ["mr", "--matrix", str(path), "--budget", "2"],
        ["mr", "--matrix", str(path)],
        ["quantum", "--N", "4", "--simulate", "20", "--seed", "3"],
        ["quantum", "--N", "4", "--simulate", "20"],
    ]
    outs = []
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        outs.append(json.loads(out))
    assert nodes == [100_000, 50_000]
    assert [obj["simulation"]["seed"] for obj in outs[2:]] == [3, 1729]
    for argv in calls:
        assert vars(build_parser().parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))
    # a flag the command does not read is still rejected on a second call
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--matrix", str(path), "--csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Exact outputs pinned byte for byte, recorded while every matrix entry was
# still a Fraction, so no change to how entries are stored can move a byte
# unnoticed.  The abp JSON's only float is a ratio of two ints; the quantum
# report's floats come from LAPACK and are left out.
_ABP_4_6_JSON_SHA256 = "1dab7025b6246f5b2ce5d92f90282aeaa120dd776ea0d5f56bd312187fabc394"
_ABP_4_6_CSV = "".join(
    line + "\r\n"
    for line in (
        "level,rank,mrLower,mrLowerCertified",
        "0,1,0,True",
        "1,3,4,True",
        "2,3,6,True",
        "3,3,8,True",
        "4,3,6,True",
        "5,3,4,True",
        "6,1,0,True",
    )
)
_EDM_8_SHA256 = "8f1accc48fac91f8031fc9dc90d80295af88402190ba58e0eb868facfed3e2b9"
_QUANTUM_8_EXACT_SHA256 = "625de7bb3bd382dbcaa6bc96aa9b5c3d3ca69b20e889ccafba575d1e987645aa"


def test_exact_outputs_are_byte_identical(tmp_path, capsys):
    code, out, _ = run(capsys, "abp", "--n", "4", "--d", "6")
    assert code == 0 and _sha256(out) == _ABP_4_6_JSON_SHA256
    code, out, _ = run(capsys, "abp", "--n", "4", "--d", "6", "--csv")
    assert code == 0 and out == _ABP_4_6_CSV
    edm_file = tmp_path / "edm8.json"
    assert run(capsys, "gen", "edm", "--n", "8", "--out", str(edm_file))[0] == 0
    assert _sha256(edm_file.read_text()) == _EDM_8_SHA256
    code, out, _ = run(capsys, "rank", "--matrix", str(edm_file))
    assert code == 0 and out == canonical_dumps({"rows": 8, "cols": 8, "rank": 3})
    code, out, _ = run(capsys, "quantum", "--N", "8", "--rational")
    obj = json.loads(out)
    exact = canonical_dumps({key: obj[key] for key in ("P", "charPoly", "sumP")})
    assert code == 0 and _sha256(exact) == _QUANTUM_8_EXACT_SHA256
