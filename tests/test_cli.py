"""CLI behavior: exit codes, JSON output, warnings, file handling."""

import json

import pytest

from mrw.cli import main
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


def test_mr_on_tensor_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "divtensor", "--base", "2", "--order", "3",
                       "--out", str(tmp_path / "t.json"))
    assert code == 0
    code, out, _ = run(capsys, "mr", "--tensor", str(tmp_path / "t.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] == 4 and obj["upper"] == 4


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
    "command, flag, text",
    [
        ("rank", "--matrix", '{"rows": 1, "cols": 1, "entries": 5}'),
        ("mr", "--matrix", '{"rows": 1, "cols": 1, "entries": null}'),
        ("dcc", "--matrix", '{"rows": true, "cols": 1, "entries": ["1"]}'),
        ("mr", "--tensor", '{"dims": 5, "entries": [1]}'),
        ("mr", "--tensor", '{"dims": [2, true], "entries": ["1", "0"]}'),
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


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "rank", "--matrix", "/nonexistent/x.json")
    assert code == 2


def test_validation_error_exits_2(capsys):
    code, _, err = run(capsys, "gen", "flatten", "--n", "2", "--d", "3", "--k", "1")
    assert code == 2 and "error" in err


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

    from mrw.cli import _budget_factor

    monkeypatch.delenv("MRW_BUDGET", raising=False)
    assert _budget_factor(Namespace(budget=None)) == 1.0
    monkeypatch.setenv("MRW_BUDGET", "2.5")
    assert _budget_factor(Namespace(budget=None)) == 2.5
    assert _budget_factor(Namespace(budget=0.5)) == 0.5  # flag beats env
