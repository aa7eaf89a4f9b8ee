"""Shared JSON formats and canonical serialization.

Matrices: {"rows": R, "cols": C, "entries": ["p/q", ...]} row-major, integers
may omit the denominator.  Tensors: {"dims": [...], "entries": [...]} with
entries of the same form.  Both are parsed (`parse_matrix`, `parse_tensor`,
which share one reader of the entry list) and emitted (`*_to_obj`); an entry
that is neither an exact string nor an integer (a float literal, say) is a
`ParseError`, and an entry count other than the shape's is refused alike.
Factorizations: {"order": d, "dims": [...], "terms": [[[...], ...], ...]}
with decimal floats, or exact "p/q" strings on request or when a float
cannot hold an entry; only `mr` reports emit them, and no command reads
them.  `exact_text` writes every exact entry and refuses one too long.
Canonical bytes are what `canonical_dumps` emits, the bytes of
`json.dumps(obj, indent=2)` and a newline; parsing normalizes
entries and reports non-canonical input as warnings rather than errors; an
echoed literal is clipped, so each warning or error stays one short line.
An integral entry parses to an int and any other exact entry to a
Fraction, as `RatMatrix` and `DenseTensor` store them.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Any

from .bounds import MrBoundReport
from .dtensor import DenseTensor
from .errors import CapacityError, DimensionError, ParseError
from .numkit import NonnegFactorization
from .ratlinalg import Exact, RatMatrix, as_exact, as_size, check_capacity, fraction_from_text


def canonical_dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte, written without
    json's pure-Python encoder (the one CPython runs when an indent is
    given): one recursive writer that joins a list of ints, strs or floats
    in one step.  Strings are written ASCII-escaped, floats as json writes
    them (``NaN``, ``Infinity``), tuples as lists, and dict keys are
    converted and refused (`TypeError`) as json does."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# how a list of one of these types is written in one join
_FLAT = {int: int.__repr__, str: encode_basestring_ascii, float: _float_text}


def _scalar_text(x) -> str | None:
    """json's text of a str, None, bool, int or float; None for anything else."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float_text(x)
    return None


def _key_text(key) -> str:
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _scalar_text(key)
    return encode_basestring_ascii(key)


def _write(obj, indent: str, out: list[str]) -> None:
    """Append the text of ``obj`` at ``indent``, a newline and the spaces of
    its level."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        kinds = set(map(type, obj))
        if len(kinds) == 1 and (fmt := _FLAT.get(kinds.pop())):
            out.append("[" + inner + ("," + inner).join(map(fmt, obj)) + indent + "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            sep = "," + inner
            _write(item, inner, out)
        out.append(indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in obj.items():
            head = sep + _key_text(key) + ": "
            sep = "," + inner
            if (text := _scalar_text(value)) is not None:
                out.append(head + text)
            else:
                out.append(head)
                _write(value, inner, out)
        out.append(indent + "}")
    elif (text := _scalar_text(obj)) is not None:
        out.append(text)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def exact_text(x: Exact) -> str:
    """An exact entry in its canonical "p/q" form; `CapacityError` when it has
    more digits than Python converts to a string."""
    try:
        return str(x)
    except ValueError:
        raise CapacityError(f"an entry has more than {sys.get_int_max_str_digits()} digits, too many to print")


def matrix_to_obj(m: RatMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [exact_text(e) for e in m.entries],
    }


def tensor_to_obj(t: DenseTensor) -> dict:
    return {
        "dims": list(t.dims),
        "entries": [exact_text(e) for e in t.entries],
    }


def _float_holds(x) -> bool:
    """True when float(x) is finite and is 0 only for x = 0."""
    try:
        return bool(float(x)) or not x
    except OverflowError:
        return False


def factorization_to_obj(f: NonnegFactorization, rational: bool = False) -> dict:
    """Exact "p/q" strings when `f` is rational and either `rational` asks
    for them or no float holds one of its entries; floats otherwise."""
    exact = f.is_rational and (
        rational or not all(_float_holds(x) for term in f.terms for vec in term for x in vec)
    )
    enc = exact_text if exact else float
    return {
        "order": f.order,
        "dims": list(f.dims),
        "terms": [[[enc(x) for x in vec] for vec in term] for term in f.terms],
    }


def mr_report_to_obj(rep: MrBoundReport, rational: bool = False) -> dict:
    obj: dict[str, Any] = {
        "lower": rep.lower,
        "lowerWitness": rep.lower_witness,
        "upper": rep.upper,
        "upperStatus": rep.upper_status,
        "rankLower": rep.rank_lower,
        "cover": {
            "lower": rep.cover.lower,
            "upper": rep.cover.upper,
            "exact": rep.cover.exact,
            "note": rep.cover.note,
        },
    }
    if rep.cover.crown is not None:
        obj["cover"]["crown"] = [list(pair) for pair in rep.cover.crown]
    if rep.cover.boxes is not None and rep.cover.exact:
        obj["boxes"] = [[list(part) for part in box] for box in rep.cover.boxes]
    if rep.factorization is not None:
        obj["factorization"] = factorization_to_obj(rep.factorization, rational=rational)
    return obj


def _clip(text: str, width: int) -> str:
    """`text`, cut to `width` characters with an ellipsis when longer, so an
    echoed input keeps an error message on one short line."""
    return text if len(text) <= width else text[: width - 3] + "..."


def _parse_exact_entry(raw, where: str, warnings_out: list[str]) -> Exact:
    """One matrix or tensor entry as an int or a Fraction.

    A canonical integer literal (one that `int` reads and `str` writes back
    unchanged) is read by `int`; any other string goes through `Fraction`,
    with a warning when it is not in canonical form.  A JSON number literal
    is taken with a warning; anything else is a `ParseError`.
    """
    if isinstance(raw, str):
        try:
            value = int(raw)
        except ValueError:
            pass
        else:
            if str(value) == raw:
                return value
        try:
            value = fraction_from_text(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational literal {_clip(repr(raw), 20)} ({_clip(str(exc), 50)})")
        if str(value) != raw:
            warnings_out.append(
                f"{where}: normalized non-canonical entry {_clip(repr(raw), 20)} to {_clip(str(value), 50)}"
            )
        return as_exact(value)
    if isinstance(raw, bool):
        raise ParseError(f"{where}: boolean is not a rational entry")
    if isinstance(raw, int):
        warnings_out.append(f"{where}: number literal {_clip(str(raw), 50)} (canonical form is a string)")
        return raw
    raise ParseError(f"{where}: unsupported entry {raw!r}")


def _is_size(value) -> bool:
    try:
        return as_size(value) >= 1
    except DimensionError:
        return False


def _parse_entries(entries, size: int) -> tuple[list[Exact], list[str]]:
    """The `size` entries of a matrix or tensor object, and the warnings
    their reading gave."""
    if not isinstance(entries, list):
        raise ParseError("entries must be a list")
    if len(entries) != size:
        raise ParseError(f"expected {size} entries, got {len(entries)}")
    # one pass for a file of canonical integer literals; anything else
    # (JSON `Infinity` reads as a float, whose int() overflows) takes the
    # per-entry path, with its values, warnings and errors
    try:
        ints = list(map(int, entries))
        canonical = list(map(str, ints)) == entries
    except (TypeError, ValueError, OverflowError):
        canonical = False
    if canonical:
        return ints, []
    warnings_out: list[str] = []
    parsed = [
        _parse_exact_entry(raw, f"entry {i}", warnings_out) for i, raw in enumerate(entries)
    ]
    return parsed, warnings_out


def parse_matrix(obj: dict) -> tuple[RatMatrix, list[str]]:
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError):
        raise ParseError("matrix object needs rows, cols and entries")
    if not _is_size(rows) or not _is_size(cols):
        raise ParseError("rows and cols must be positive integers")
    parsed, warnings_out = _parse_entries(entries, check_capacity((rows, cols), "matrix"))
    return RatMatrix(rows, cols, parsed), warnings_out


def parse_tensor(obj: dict) -> tuple[DenseTensor, list[str]]:
    try:
        dims, entries = obj["dims"], obj["entries"]
    except (KeyError, TypeError):
        raise ParseError("tensor object needs dims and entries")
    if not isinstance(dims, list) or not dims or not all(map(_is_size, dims)):
        raise ParseError("dims must be a list of positive integers")
    parsed, warnings_out = _parse_entries(entries, check_capacity(dims, "tensor"))
    return DenseTensor(dims, parsed), warnings_out


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno, column=exc.colno)
    except (ValueError, RecursionError) as exc:
        # a number literal past Python's limit on the digits of an int, or
        # arrays nested deeper than the interpreter's recursion limit
        raise ParseError(f"{path}: {_clip(str(exc), 50)}")
