"""Shared JSON formats: canonical round trips, normalization warnings,
malformed-input errors."""

from fractions import Fraction

import pytest

from mrw.constructions import DivTensorSpec, EdmSpec, divisibility_tensor, edm
from mrw.errors import ParseError
from mrw.numkit import NonnegFactorization
from mrw.serialize import (
    canonical_dumps,
    factorization_to_obj,
    io_roundtrip,
    matrix_to_obj,
    parse_factorization,
    parse_matrix,
    parse_tensor,
    tensor_to_obj,
)


def test_matrix_round_trip_is_byte_identical(tmp_path):
    m = edm(EdmSpec([Fraction(1, 2), 2, 3]))
    path = tmp_path / "m.json"
    path.write_text(canonical_dumps(matrix_to_obj(m)))
    kind, value, canon, warns, identical = io_roundtrip(str(path))
    assert kind == "matrix"
    assert value == m
    assert identical and not warns


def test_non_canonical_entry_warns_and_normalizes(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 1, "cols": 2, "entries": ["2/4", "1"]}')
    kind, value, canon, warns, identical = io_roundtrip(str(path))
    assert value[0, 0] == Fraction(1, 2)
    assert any("2/4" in w for w in warns)
    assert not identical
    assert '"1/2"' in canon


def test_tensor_round_trip_and_dims_check(tmp_path):
    t = divisibility_tensor(DivTensorSpec(2, 3))
    path = tmp_path / "t.json"
    path.write_text(canonical_dumps(tensor_to_obj(t)))
    kind, value, canon, warns, identical = io_roundtrip(str(path))
    assert kind == "tensor" and value == t and identical

    with pytest.raises(ParseError):
        parse_tensor({"dims": [2, 2], "entries": ["1", "0", "1"]})


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1,\n  "cols": }')
    with pytest.raises(ParseError) as err:
        io_roundtrip(str(path))
    assert err.value.line == 2


def test_matrix_entry_validation():
    with pytest.raises(ParseError):
        parse_matrix({"rows": 1, "cols": 1, "entries": ["1/0"]})
    with pytest.raises(ParseError):
        parse_matrix({"rows": 2, "cols": 2, "entries": ["1"]})
    m, warns = parse_matrix({"rows": 1, "cols": 1, "entries": [3]})
    assert m[0, 0] == 3 and warns


def test_factorization_round_trip_float_and_rational():
    fact = NonnegFactorization(
        dims=(2, 2),
        terms=(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 2))),),
    )
    obj = factorization_to_obj(fact, rational=True)
    parsed, warns = parse_factorization(obj)
    assert parsed.terms == fact.terms

    fobj = factorization_to_obj(fact, rational=False)
    parsed_f, _ = parse_factorization(fobj)
    assert parsed_f.terms[0][1][1] == 0.5


@pytest.mark.parametrize(
    "text",
    [
        '{"order": 2, "dims": 5, "terms": []}',
        '{"order": 2, "dims": [1, 1], "terms": 7}',
        '{"order": 2, "dims": [1, 1], "terms": [[["x"], ["1"]]]}',
        '{"order": 2, "dims": [1, 1], "terms": [["x", ["1"]]]}',
    ],
)
def test_malformed_factorization_raises_parse_error(tmp_path, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        io_roundtrip(str(path))
