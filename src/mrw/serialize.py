"""Shared JSON formats and canonical serialization.

Matrices: {"rows": R, "cols": C, "entries": ["p/q", ...]} row-major, integers
may omit the denominator.  Tensors: {"dims": [...], "entries": [...]}.
Factorizations: {"order": d, "dims": [...], "terms": [[[...], ...], ...]}
with decimal floats, or exact "p/q" strings on request.  Canonical bytes are
what `canonical_dumps` emits; parsing normalizes entries and reports
non-canonical input as warnings rather than errors.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import prod
from typing import Any

from .bounds import MrBoundReport
from .dtensor import DenseTensor
from .errors import ParseError
from .numkit import NonnegFactorization
from .ratlinalg import RatMatrix, check_capacity


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _entry_str(value: Fraction) -> str:
    return str(value)


def matrix_to_obj(m: RatMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [_entry_str(e) for e in m.entries],
    }


def tensor_to_obj(t: DenseTensor) -> dict:
    return {
        "dims": list(t.dims),
        "entries": [str(Fraction(v)) if not isinstance(v, float) else v for v in t.values],
    }


def factorization_to_obj(f: NonnegFactorization, rational: bool = False) -> dict:
    if rational and not f.is_rational():
        raise ParseError("factorization has non-rational factors; cannot emit exact form")
    def enc(x):
        return str(Fraction(x)) if rational else float(x)

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
    if rep.cover.boxes is not None and rep.cover.exact:
        obj["boxes"] = [[list(part) for part in box] for box in rep.cover.boxes]
    if rep.factorization is not None:
        emit_rational = rational and rep.factorization.is_rational()
        obj["factorization"] = factorization_to_obj(rep.factorization, rational=emit_rational)
    return obj


def _parse_exact_entry(raw, where: str, warnings_out: list[str]):
    if isinstance(raw, str):
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational literal {raw!r} ({exc})")
        if str(value) != raw:
            warnings_out.append(f"{where}: normalized non-canonical entry {raw!r} to {value}")
        return value
    if isinstance(raw, bool):
        raise ParseError(f"{where}: boolean is not a rational entry")
    if isinstance(raw, int):
        warnings_out.append(f"{where}: number literal {raw} (canonical form is a string)")
        return Fraction(raw)
    raise ParseError(f"{where}: unsupported entry {raw!r}")


def _is_size(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_matrix(obj: dict) -> tuple[RatMatrix, list[str]]:
    warnings_out: list[str] = []
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError):
        raise ParseError("matrix object needs rows, cols and entries")
    if not _is_size(rows) or not _is_size(cols):
        raise ParseError("rows and cols must be integers")
    if not isinstance(entries, list):
        raise ParseError("entries must be a list")
    check_capacity(rows * cols, "matrix")
    if len(entries) != rows * cols:
        raise ParseError(f"expected {rows * cols} entries, got {len(entries)}")
    parsed = [
        _parse_exact_entry(raw, f"entry {i}", warnings_out) for i, raw in enumerate(entries)
    ]
    return RatMatrix(rows, cols, parsed), warnings_out


def parse_tensor(obj: dict) -> tuple[DenseTensor, list[str]]:
    warnings_out: list[str] = []
    try:
        dims, entries = obj["dims"], obj["entries"]
    except (KeyError, TypeError):
        raise ParseError("tensor object needs dims and entries")
    if not isinstance(dims, list) or not dims or not all(_is_size(d) and d >= 1 for d in dims):
        raise ParseError("dims must be a list of positive integers")
    if not isinstance(entries, list):
        raise ParseError("entries must be a list")
    if len(entries) != prod(dims):
        raise ParseError(f"dims product {prod(dims)} does not match {len(entries)} entries")
    values = []
    for i, raw in enumerate(entries):
        if isinstance(raw, float):
            warnings_out.append(f"entry {i}: float literal (exact string is canonical)")
            values.append(raw)
        else:
            values.append(_parse_exact_entry(raw, f"entry {i}", warnings_out))
    return DenseTensor(dims, values), warnings_out


def parse_factorization(obj: dict) -> tuple[NonnegFactorization, list[str]]:
    warnings_out: list[str] = []
    try:
        order, dims, terms = obj["order"], obj["dims"], obj["terms"]
    except (KeyError, TypeError):
        raise ParseError("factorization object needs order, dims and terms")
    if not isinstance(dims, list) or not all(_is_size(d) and d >= 1 for d in dims):
        raise ParseError("dims must be a list of positive integers")
    if order != len(dims):
        raise ParseError("order does not match dims")
    if not isinstance(terms, list):
        raise ParseError("terms must be a list")
    parsed_terms = []
    for t, term in enumerate(terms):
        if not isinstance(term, list) or not all(isinstance(vec, list) for vec in term):
            raise ParseError(f"term {t} must be a list of factor-vector lists")
        if len(term) != order:
            raise ParseError(f"term {t} has {len(term)} factor vectors, expected {order}")
        vecs = []
        for vec in term:
            vals = []
            for x in vec:
                if isinstance(x, str):
                    try:
                        vals.append(Fraction(x))
                    except (ValueError, ZeroDivisionError) as exc:
                        raise ParseError(f"term {t}: bad rational literal {x!r} ({exc})")
                elif isinstance(x, (int, float)) and not isinstance(x, bool):
                    vals.append(float(x))
                else:
                    raise ParseError(f"term {t}: unsupported factor value {x!r}")
            vecs.append(tuple(vals))
        parsed_terms.append(tuple(vecs))
    return NonnegFactorization(dims=tuple(dims), terms=tuple(parsed_terms)), warnings_out


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno, column=exc.colno)


def detect_kind(obj: Any) -> str:
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    if "rows" in obj and "cols" in obj:
        return "matrix"
    if "terms" in obj and "dims" in obj:
        return "factorization"
    if "dims" in obj:
        return "tensor"
    raise ParseError("unrecognized object kind")


def io_roundtrip(path: str):
    """Parse a shared-format file and reserialize it canonically.

    Returns (kind, value, canonical_text, warnings, identical) where
    `identical` says whether the input bytes already were canonical.
    """
    obj = load_json_file(path)
    kind = detect_kind(obj)
    if kind == "matrix":
        value, warns = parse_matrix(obj)
        canon = canonical_dumps(matrix_to_obj(value))
    elif kind == "tensor":
        value, warns = parse_tensor(obj)
        canon = canonical_dumps(tensor_to_obj(value))
    else:
        value, warns = parse_factorization(obj)
        canon = canonical_dumps(
            factorization_to_obj(value, rational=value.is_rational())
        )
    with open(path, "r", encoding="utf-8") as fh:
        original = fh.read()
    return kind, value, canon, warns, original == canon
