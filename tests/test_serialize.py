"""Shared JSON formats: canonical round trips through the CLI's own path
(load_json_file, parse_*, *_to_obj, canonical_dumps), normalization
warnings, malformed-input errors."""

import json
import math
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mrw.cli import main
from mrw.constructions import DivTensorSpec, EdmSpec, divisibility_tensor, edm
from mrw.dtensor import DenseTensor
from mrw.errors import CapacityError, ParseError
from mrw.numkit import NonnegFactorization
from mrw.ratlinalg import RatMatrix, as_exact
from mrw.serialize import (
    _clip,
    _parse_entries,
    _parse_exact_entry,
    canonical_dumps,
    exact_text,
    factorization_to_obj,
    load_json_file,
    matrix_to_obj,
    parse_matrix,
    parse_tensor,
    tensor_to_obj,
)


def test_matrix_round_trip_is_byte_identical(tmp_path):
    m = edm(EdmSpec([Fraction(1, 2), 2, 3]))
    path = tmp_path / "m.json"
    path.write_text(canonical_dumps(matrix_to_obj(m)))
    value, warns = parse_matrix(load_json_file(str(path)))
    assert value == m and not warns
    assert canonical_dumps(matrix_to_obj(value)) == path.read_text()


def test_non_canonical_entry_warns_and_normalizes(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 1, "cols": 2, "entries": ["2/4", "1"]}')
    value, warns = parse_matrix(load_json_file(str(path)))
    canon = canonical_dumps(matrix_to_obj(value))
    assert value[0, 0] == Fraction(1, 2)
    assert any("2/4" in w for w in warns)
    assert canon != path.read_text()
    assert '"1/2"' in canon


def test_tensor_round_trip_and_dims_check(tmp_path):
    t = divisibility_tensor(DivTensorSpec(2, 3))
    path = tmp_path / "t.json"
    path.write_text(canonical_dumps(tensor_to_obj(t)))
    value, warns = parse_tensor(load_json_file(str(path)))
    assert value == t and not warns
    assert canonical_dumps(tensor_to_obj(value)) == path.read_text()

    with pytest.raises(ParseError):
        parse_tensor({"dims": [2, 2], "entries": ["1", "0", "1"]})


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1,\n  "cols": }')
    with pytest.raises(ParseError) as err:
        load_json_file(str(path))
    assert err.value.line == 2


def test_matrix_entry_validation():
    with pytest.raises(ParseError):
        parse_matrix({"rows": 1, "cols": 1, "entries": ["1/0"]})
    with pytest.raises(ParseError):
        parse_matrix({"rows": 2, "cols": 2, "entries": ["1"]})
    m, warns = parse_matrix({"rows": 1, "cols": 1, "entries": [3]})
    assert m[0, 0] == 3 and warns


def test_long_non_canonical_entry_warns_on_one_short_line():
    digits = "1" * 4000
    m, warns = parse_matrix({"rows": 1, "cols": 1, "entries": ["+" + digits]})
    assert m.entries == (int(digits),)
    assert len(warns) == 1 and len(warns[0]) <= 150 and "..." in warns[0]
    m, warns = parse_matrix({"rows": 1, "cols": 1, "entries": [int(digits)]})
    assert len(warns) == 1 and len(warns[0]) <= 150


def test_entry_count_is_checked_alike_for_matrices_and_tensors():
    with pytest.raises(ParseError, match="expected 4 entries, got 3"):
        parse_matrix({"rows": 2, "cols": 2, "entries": ["1", "0", "1"]})
    with pytest.raises(ParseError, match="expected 4 entries, got 3"):
        parse_tensor({"dims": [2, 2], "entries": ["1", "0", "1"]})


def test_integral_entries_parse_to_ints():
    m, warns = parse_matrix({"rows": 1, "cols": 4, "entries": ["3", "6/2", 5, "-1/2"]})
    assert [type(e) for e in m.entries] == [int, int, int, Fraction]
    assert m.entries == (3, 3, 5, Fraction(-1, 2))
    assert len(warns) == 2 and "6/2" in warns[0] and "number literal 5" in warns[1]
    t, warns = parse_tensor({"dims": [2, 2], "entries": ["1", 0, "1/3", "6/2"]})
    assert [type(e) for e in t.entries] == [int, int, Fraction, int]
    assert t.entries == (1, 0, Fraction(1, 3), 3)
    assert len(warns) == 2 and "number literal 0" in warns[0] and "6/2" in warns[1]
    # a float literal is refused, as in a matrix
    with pytest.raises(ParseError, match="unsupported entry 0.5"):
        parse_tensor({"dims": [1, 2], "entries": ["1", 0.5]})


def fraction_entry_reader(raw: str, where: str, warnings_out: list[str]):
    """Oracle: the string path of the entry reader without its int
    shortcut, so every literal goes through Fraction."""
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational literal {_clip(repr(raw), 20)} ({_clip(str(exc), 50)})")
    if str(value) != raw:
        warnings_out.append(
            f"{where}: normalized non-canonical entry {_clip(repr(raw), 20)} to {_clip(str(value), 50)}"
        )
    return as_exact(value)


def read_entry(reader, raw: str):
    warns: list[str] = []
    try:
        value = reader(raw, "entry 0", warns)
    except ParseError as exc:
        return "error", str(exc), warns
    return type(value), value, warns


@given(st.text(alphabet="0123456789+-/_. \u0663", max_size=12))
@example("-0")
@example("007")
@example("+3")
@example("1_0")
@example("3/1")
@example("1" * 4301)
def test_int_shortcut_reads_every_string_as_fraction_does(raw):
    # value, type, warnings and error message all agree
    assert read_entry(_parse_exact_entry, raw) == read_entry(fraction_entry_reader, raw)


def per_entry_reader(entries: list):
    """Oracle: every entry read on its own by `_parse_exact_entry`, as
    (type, value) pairs with the warnings, or the error message."""
    warns: list[str] = []
    try:
        values = [_parse_exact_entry(raw, f"entry {i}", warns) for i, raw in enumerate(entries)]
    except ParseError as exc:
        return "error", str(exc)
    return [(type(v), v) for v in values], warns


def entries_reader(entries: list):
    try:
        values, warns = _parse_entries(entries, len(entries))
    except ParseError as exc:
        return "error", str(exc)
    return [(type(v), v) for v in values], warns


canonical_ints = st.integers().map(str)
odd_entries = st.one_of(
    st.sampled_from(["+1", "01", "-0", " 1", "1_0", "\u0663", "6/2", "1/3"]),
    st.fractions().map(str),
    st.integers(),
    st.booleans(),
    st.floats(),
    st.just(float("inf")),
    st.none(),
    st.lists(st.integers(), max_size=2),
)


@given(st.lists(canonical_ints, max_size=8) | st.lists(canonical_ints | odd_entries, max_size=8))
@example(["1", "0", "-12"])
@example(["1", float("inf")])
@example(["1", True])
@example(["1", 1])
@example(["1", "+1"])
def test_entry_list_reads_as_its_entries_do_one_by_one(entries):
    # values, types, warnings and error message all agree
    assert entries_reader(entries) == per_entry_reader(entries)


@st.composite
def canonical_arrays(draw):
    """A matrix or tensor object whose entries are canonical strings."""
    entry = st.integers(-10**6, 10**6).map(str) | st.fractions(max_denominator=10**4).map(str)
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        return {"rows": rows, "cols": cols, "entries": draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))}
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    size = prod(dims)
    return {"dims": dims, "entries": draw(st.lists(entry, min_size=size, max_size=size))}


@given(canonical_arrays())
def test_canonical_files_round_trip_byte_for_byte(obj):
    text = canonical_dumps(obj)
    if "dims" in obj:
        value, warns = parse_tensor(json.loads(text))
        again = canonical_dumps(tensor_to_obj(value))
    else:
        value, warns = parse_matrix(json.loads(text))
        again = canonical_dumps(matrix_to_obj(value))
    assert not warns and again == text


def test_generated_edm_file_round_trips_byte_for_byte(tmp_path):
    path = tmp_path / "edm8.json"
    assert main(["gen", "edm", "--n", "8", "--out", str(path)]) == 0
    text = path.read_text()
    value, warns = parse_matrix(load_json_file(str(path)))
    assert not warns and canonical_dumps(matrix_to_obj(value)) == text


def test_factorization_round_trip_float_and_rational():
    fact = NonnegFactorization(
        dims=(2, 2),
        terms=(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 2))),),
    )
    obj = factorization_to_obj(fact, rational=True)
    assert obj == {"order": 2, "dims": [2, 2], "terms": [[["1", "0"], ["0", "1/2"]]]}
    assert json.loads(canonical_dumps(obj)) == obj

    fobj = factorization_to_obj(fact, rational=False)
    assert fobj == {"order": 2, "dims": [2, 2], "terms": [[[1.0, 0.0], [0.0, 0.5]]]}
    assert json.loads(canonical_dumps(fobj)) == fobj

    # a float factorization is written as floats, also when "p/q" is asked for
    floats = NonnegFactorization(dims=(1, 1), terms=(((0.5,), (2.0,)),))
    assert factorization_to_obj(floats, rational=True) == {"order": 2, "dims": [1, 1], "terms": [[[0.5], [2.0]]]}


@pytest.mark.parametrize("big", [10**400, Fraction(1, 10**400)])
def test_a_rational_witness_no_float_holds_is_emitted_exact(big):
    fact = NonnegFactorization(dims=(2, 1), terms=(((big, Fraction(1, 2)), (1,)),))
    obj = {"order": 2, "dims": [2, 1], "terms": [[[str(big), "1/2"], ["1"]]]}
    assert factorization_to_obj(fact) == factorization_to_obj(fact, rational=True) == obj


def test_an_entry_too_long_to_print_is_refused_by_every_emitter():
    huge = 10**4400
    for emit in (
        lambda: matrix_to_obj(RatMatrix(1, 2, [huge, 0])),
        lambda: tensor_to_obj(DenseTensor((1, 2), [0, Fraction(1, huge)])),
        lambda: factorization_to_obj(NonnegFactorization(dims=(1, 1), terms=(((huge,), (1,)),))),
    ):
        with pytest.raises(CapacityError, match="digits"):
            emit()
    assert exact_text(Fraction(-3, 4)) == "-3/4" and exact_text(10**4000) == "1" + "0" * 4000


# ---------------------------------------------------------------------------
# canonical_dumps writes what json.dumps(obj, indent=2) writes
# ---------------------------------------------------------------------------

json_text = st.text(st.characters(codec="utf-8") | st.sampled_from("\x00\x1f\x7f\"\\ é\U0001f600"))
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64 - 2, max_value=2**200)
    | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324])
    | json_text
)
json_keys = json_text | st.integers() | st.floats() | st.booleans() | st.none()
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(json_keys, inner, max_size=5)
    | st.lists(st.integers(), max_size=8)
    | st.lists(json_text, max_size=8),
    max_leaves=40,
)


@example({})
@example([])
@example([[], {}, ()])
@example({"a": [2**64, -(2**70)], "b": (0.5, -0.0, math.nan, math.inf, -math.inf)})
@example(["é\x00\U0001f600", "plain", "\ud800"])
@given(json_values)
def test_canonical_dumps_writes_the_bytes_of_json_dumps(obj):
    assert canonical_dumps(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj", [{(1, 2): 3}, {"a": {Fraction(1, 2): 1}}, [1, object()], {"a": {1, 2}}, Fraction(1, 2)]
)
def test_canonical_dumps_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        canonical_dumps(obj)
    assert str(got.value) == str(want.value)


def test_every_cli_output_is_the_bytes_of_json_dumps(tmp_path, monkeypatch, capsys):
    import mrw.cli

    seen = []
    monkeypatch.setattr(mrw.cli, "canonical_dumps", lambda obj: seen.append(obj) or canonical_dumps(obj))
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"rows": 3, "cols": 3, "entries": ["1", "1/2", "0", "2", "1", "1", "0", "3", "1"]}))
    triangle = tmp_path / "t.json"
    triangle.write_text(json.dumps({"rows": 3, "cols": 5, "entries": [str(x) for x in (1, 0, 0, 1, 2, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0)]}))
    zero_one = tmp_path / "z.json"
    zero_one.write_text(json.dumps({"rows": 2, "cols": 3, "entries": ["1", "0", "1", "0", "1", "1"]}))
    tensor = tmp_path / "x.json"
    tensor.write_text(json.dumps({"dims": [2, 2, 2], "entries": ["1", "0", "0", "1", "1", "1", "0", "1"]}))
    commands = [
        ["gen", "edm", "--n", "5"],
        ["gen", "edm", "--values", "1/2,-3/4,7"],
        ["gen", "flatten", "--n", "2", "--d", "4", "--k", "2"],
        ["gen", "subsidiary", "--n", "2", "--d", "4"],
        ["gen", "subsidiary", "--n", "2", "--d", "4", "--root"],
        ["gen", "divtensor", "--base", "2", "--order", "3"],
        ["gen", "correlation", "--N", "4"],
        ["gen", "correlation", "--N", "4", "--part", "base"],
        ["rank", "--matrix", str(matrix)],
        ["mr", "--matrix", str(matrix)],
        ["mr", "--matrix", str(triangle), "--rational"],
        ["mr", "--tensor", str(tensor)],
        ["dcc", "--matrix", str(zero_one)],
        ["abp", "--n", "3", "--d", "4"],
        ["quantum", "--N", "8"],
        ["quantum", "--N", "4", "--simulate", "20", "--rational"],
        ["comm", "--nbits", "2", "--d", "3"],
        ["comm", "--nbits", "2", "--d", "3", "--ladder"],
        ["verify", "--json"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
        assert len(seen) == 1, argv
        assert canonical_dumps(seen[0]) == json.dumps(seen.pop(), indent=2) + "\n", argv
    capsys.readouterr()
