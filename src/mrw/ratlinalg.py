"""Exact linear algebra over arbitrary-precision rationals.

Matrices are immutable value objects backed by ``fractions.Fraction``, so every
operation here is a pure function whose output is reproducible bit for bit.
The rank, determinant and characteristic-polynomial kernels clear
denominators first and then run on Python ints, whose size is unbounded, so
no step pays for a gcd: rank and determinant scale each row by the lcm of its
denominators and run integer-preserving (Bareiss) elimination with a
canonical pivot rule -- first nonzero entry in column order -- and the
characteristic polynomial runs the Faddeev-LeVerrier recurrence on the
integer matrix D*M, where every division is exact, and rescales each
coefficient once at the end.  Nothing in this module touches floating point:
separation claims elsewhere in the workbench rely on exact rank values, where
float pivoting could silently misreport.  Dense matrices (and tensors) hold at
most ``CAPACITY_LIMIT`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .errors import CapacityError, DimensionError, ValidationError

RationalLike = Fraction | int | str

# Largest entry count of a dense matrix or tensor, checked before any entry
# is built: it keeps storage in memory and refuses, say, a 3000x3000 matrix
# file whose elimination would run for hours.
CAPACITY_LIMIT = 1 << 20


def check_capacity(entries: int, what: str) -> None:
    """Raise CapacityError when a dense ``what`` would hold too many entries."""
    if entries > CAPACITY_LIMIT:
        raise CapacityError(f"{what} with {entries} entries exceeds the {CAPACITY_LIMIT} guard")


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, ``"p/q"`` strings and Fractions to canonical Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError("boolean is not a rational entry")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise ValidationError(f"cannot interpret {value!r} as an exact rational")


def is_exact(values: Iterable) -> bool:
    """True when every value is an int or a Fraction (booleans are not)."""
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values)


class RatMatrix:
    """Dense matrix of exact rationals, stored row-major and immutable.

    Entries are always held in canonical form (positive denominator, reduced),
    which ``Fraction`` guarantees.  Equality and hashing follow value
    semantics.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[RationalLike]):
        if rows < 1 or cols < 1:
            raise DimensionError(f"matrix shape {rows}x{cols} must be at least 1x1")
        check_capacity(rows * cols, "matrix")
        data = tuple(as_fraction(e) for e in entries)
        if len(data) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self._entries = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "RatMatrix":
        if not rows or not rows[0]:
            raise DimensionError("from_rows needs at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls(len(rows), ncols, [v for r in rows for v in r])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def iter_rows(self) -> Iterable[tuple[Fraction, ...]]:
        for i in range(self.rows):
            yield self.row(i)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return self._entries

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            [self._entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def entry_sum(self) -> Fraction:
        return sum(self._entries, Fraction(0))

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def is_antisymmetric(self) -> bool:
        return self.is_square and all(
            self[i, j] == -self[j, i] for i in range(self.rows) for j in range(i, self.cols)
        )

    def to_float_rows(self) -> list[list[float]]:
        return [[float(e) for e in self.row(i)] for i in range(self.rows)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.shape == other.shape
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.iter_rows())
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial, coefficients indexed low to high.

    ``coeffs[k]`` multiplies x^k; the leading coefficient is always 1.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValidationError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __str__(self) -> str:
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
        return " + ".join(parts) if parts else "0"


def _require_same_shape(a: RatMatrix, b: RatMatrix, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op} needs matching shapes, got {a.shape} and {b.shape}")


def _scaled_row(row: Sequence[Fraction], scale: int) -> list[int]:
    """``row`` times ``scale``, a common multiple of its denominators, as ints."""
    return [e.numerator * (scale // e.denominator) for e in row]


def _bareiss(m: RatMatrix) -> tuple[int, int, Fraction]:
    """Integer-preserving elimination: (rank, row-swap sign, last pivot).

    Each row is first scaled by the lcm of its denominators, so the loop runs
    on Python ints and every Bareiss update divides exactly by the previous
    pivot (Bareiss 1968: the entries are minors of the scaled matrix).  A
    positive row scale multiplies every intermediate in that row by a positive
    constant, so the zero pattern, the pivots chosen, the rank and the swap
    sign are those of the unscaled matrix.  Pivots are chosen canonically
    (first nonzero entry scanning columns left to right, rows top to bottom).
    The last pivot is returned divided by the product of the row scales: for a
    square matrix of full rank it is then the determinant up to the sign.
    """
    scales = [lcm(*(e.denominator for e in row)) for row in m.iter_rows()]
    work = [_scaled_row(row, s) for row, s in zip(m.iter_rows(), scales)]
    rows, cols = m.rows, m.cols
    pivot_row = 0
    sign = 1
    prev_pivot = 1
    for col in range(cols):
        if pivot_row == rows:
            break
        pivot = next((r for r in range(pivot_row, rows) if work[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != pivot_row:
            work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
            sign = -sign
        row_p = work[pivot_row]
        piv = row_p[col]
        tail_p = row_p[col + 1 :]
        for r in range(pivot_row + 1, rows):
            row_r = work[r]
            factor = row_r[col]
            if factor == 0:
                # Still rescale so later divisions by prev_pivot stay exact.
                row_r[col + 1 :] = [piv * x // prev_pivot for x in row_r[col + 1 :]]
            else:
                row_r[col + 1 :] = [
                    (piv * x - factor * y) // prev_pivot
                    for x, y in zip(row_r[col + 1 :], tail_p)
                ]
                row_r[col] = 0
        prev_pivot = piv
        pivot_row += 1
    return pivot_row, sign, Fraction(prev_pivot, prod(scales))


def rank_exact(m: RatMatrix) -> int:
    """Exact rank over the rationals by integer-preserving elimination."""
    return _bareiss(m)[0]


def det_exact(m: RatMatrix) -> Fraction:
    """Exact determinant via Bareiss elimination with sign tracking."""
    if not m.is_square:
        raise DimensionError(f"determinant needs a square matrix, got {m.shape}")
    rank, sign, last_pivot = _bareiss(m)
    return sign * last_pivot if rank == m.rows else Fraction(0)


def trace(m: RatMatrix) -> Fraction:
    if not m.is_square:
        raise DimensionError("trace needs a square matrix")
    return sum((m[i, i] for i in range(m.rows)), Fraction(0))


def char_poly_exact(m: RatMatrix) -> CharPoly:
    """Characteristic polynomial det(xI - M) by Faddeev-LeVerrier on integers.

    With D the lcm of all denominators, the recurrence runs on the integer
    matrix A = D*M: A_1 = A, c_{n-1} = -tr(A_1),
    A_k = (A_{k-1} + c_{n-k+1} I) A, c_{n-k} = -tr(A_k)/k.  For an integer
    matrix every c_j is an integer, so the division by k is exact.  A_{k-1} is
    a polynomial in A and commutes with it, which lets each product run
    against the fixed columns of A.  Coefficient j of M is c_j(A) / D^(n-j);
    no root finding is involved.
    """
    if not m.is_square:
        raise DimensionError(f"characteristic polynomial needs a square matrix, got {m.shape}")
    n = m.rows
    den = lcm(*(e.denominator for e in m.entries))
    ak = [_scaled_row(row, den) for row in m.iter_rows()]
    a_cols = tuple(zip(*ak))  # A itself, by columns; ak's rows may now change
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    coeffs[n - 1] = -sum(ak[i][i] for i in range(n))
    for k in range(2, n + 1):
        for i in range(n):
            ak[i][i] += coeffs[n - k + 1]
        ak = [[sum(map(mul, row, col)) for col in a_cols] for row in ak]
        coeffs[n - k] = -sum(ak[i][i] for i in range(n)) // k
    return CharPoly(tuple(Fraction(c, den ** (n - j)) for j, c in enumerate(coeffs)))


def hadamard(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Entrywise product of two equally shaped matrices."""
    _require_same_shape(a, b, "entrywise product")
    return RatMatrix(a.rows, a.cols, [x * y for x, y in zip(a.entries, b.entries)])


def kronecker(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product, shape (ra*rb) x (ca*cb)."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                aij = a[i, j]
                row_b = b.row(k)
                out.extend(aij * v for v in row_b)
    return RatMatrix(a.rows * b.rows, a.cols * b.cols, out)


def submatrix(m: RatMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> RatMatrix:
    """Select rows/columns in the given order.

    Empty index lists are rejected: 0x0 matrices would force degenerate rank
    conventions downstream.
    """
    if not row_idx or not col_idx:
        raise ValidationError("submatrix index lists must be nonempty")
    for i in row_idx:
        if not (0 <= i < m.rows):
            raise IndexError(f"row index {i} out of range for {m.rows} rows")
    for j in col_idx:
        if not (0 <= j < m.cols):
            raise IndexError(f"column index {j} out of range for {m.cols} columns")
    return RatMatrix(
        len(row_idx), len(col_idx), [m[i, j] for i in row_idx for j in col_idx]
    )
