"""Exact linear algebra over arbitrary-precision rationals.

Matrices and tensors (``dtensor.DenseTensor``) are immutable value objects
on one base, :class:`ExactArray`, whose entries are exact rationals: a
Python ``int`` stays an ``int`` and every other entry is a
``fractions.Fraction``.  :func:`exact_entries` is that rule: it keeps the
values that :func:`is_exact` accepts (type exactly ``int`` or ``Fraction``).
An int and the equal Fraction compare, hash and print alike, so equality,
hashing and serialized output do not depend on which one an entry is;
integer matrices just skip building Fractions.  Every operation
here is a pure function whose output is reproducible bit for bit.  The rank,
determinant and characteristic-polynomial kernels clear denominators first
and then run on ints, so no step pays for a gcd.  One fraction-free
elimination loop (:func:`_eliminate`, Bareiss 1968) runs on the rows scaled
to ints by the lcm of their denominators, on Python ints, whose size is
unbounded, with a canonical pivot rule -- first nonzero entry in column
order.  Its forward sweep gives rank and determinant; its full sweep gives
basis columns and exact coordinates (:func:`column_basis`, whose integer
form :func:`reduced_rows` the exact stages of ``numkit.nmf_search`` read)
and the certificate of :func:`rank_exact`.  The characteristic polynomial
runs the Faddeev-LeVerrier recurrence on the integer matrix D*M, where every
division is exact, and rescales each coefficient once at the end.  From
``_MODULAR_MIN_ENTRIES`` entries on, :func:`rank_exact` first proves the
rank by int64 arithmetic modulo primes, where no product overflows, and the
forward sweep decides only what that does not settle.  Exact
sums (:func:`exact_sum`) work the same way: each term is scaled to the lcm of
the denominators and added as an int, and one Fraction is built at the end.
Nothing in this module touches floating point: separation claims elsewhere
in the workbench rely on exact rank values, where float pivoting could
silently misreport.  Dense arrays hold at most ``CAPACITY_LIMIT`` entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm, prod
from operator import attrgetter, index, mul, neg
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, DimensionError, ValidationError

RationalLike = Fraction | int | str
Exact = int | Fraction
_EXACT_TYPES = frozenset((int, Fraction))
_INT_ONLY = frozenset((int,))
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")

# Largest entry count of a dense matrix or tensor, checked before any entry
# is built: it keeps storage in memory and refuses, say, a 3000x3000 matrix
# file whose elimination would run for hours.
CAPACITY_LIMIT = 1 << 20

# Modular rank (see rank_exact).  Below this many entries the forward sweep is
# cheaper than building the int64 arrays.
_MODULAR_MIN_ENTRIES = 256
# The elimination prime, 2^31 - 1: residues are below 2^31, so the product of
# two fits int64.
_ELIM_PRIME = 2147483647
# The check primes, the 48 largest below 2^26 (their product is about 2^1248).
# A residue product is below 2^52, and a sum of r of them stays below 2^62
# because r <= 1024: r is at most the shorter side of a matrix within
# CAPACITY_LIMIT.  So one int64 matrix product per prime is exact.
_CHECK_PRIMES = (
    67108859, 67108837, 67108819, 67108777, 67108763, 67108757, 67108753, 67108747,
    67108739, 67108729, 67108721, 67108709, 67108693, 67108669, 67108667, 67108661,
    67108649, 67108633, 67108597, 67108579, 67108529, 67108511, 67108507, 67108493,
    67108471, 67108463, 67108453, 67108439, 67108387, 67108373, 67108369, 67108351,
    67108331, 67108313, 67108303, 67108289, 67108271, 67108219, 67108207, 67108201,
    67108199, 67108187, 67108183, 67108177, 67108127, 67108109, 67108081, 67108049,
)


def check_capacity(shape: Iterable[int], what: str) -> int:
    """Entry count of a dense ``what`` of the given shape (positive sizes);
    CapacityError when it passes ``CAPACITY_LIMIT``.

    The shape is read lazily and the product stops growing once it passes
    ``CAPACITY_LIMIT ** 2``, so a huge shape costs a few multiplications and
    the message never formats an unbounded number: a count up to that bound
    is printed exactly, a larger one as "more than" the bound.
    """
    printable = CAPACITY_LIMIT * CAPACITY_LIMIT
    entries = 1
    for size in shape:
        entries *= size
        if entries > printable:
            raise CapacityError(
                f"{what} with more than {printable} entries exceeds the {CAPACITY_LIMIT} guard"
            )
    if entries > CAPACITY_LIMIT:
        raise CapacityError(f"{what} with {entries} entries exceeds the {CAPACITY_LIMIT} guard")
    return entries


def as_size(value) -> int:
    """``value`` as an int size, read by ``operator.index``: a bool, a float
    or anything else that is not an integer raises `DimensionError`.  The
    sign is left to the caller."""
    if isinstance(value, bool):
        raise DimensionError(f"size {value!r} is a bool, not an integer")
    try:
        return index(value)
    except TypeError:
        raise DimensionError(f"size {value!r} is not an integer") from None


# Most digits a decimal literal may expand to: Python's default limit on
# converting between an int and its decimal string.  A larger value could not
# be printed back, and "1e100000000" would build 10^(10^8) before anything
# looked at it.
_LITERAL_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def fraction_from_text(text: str) -> Fraction:
    """``Fraction(text)``, except that a literal whose decimal exponent would
    expand it past ``_LITERAL_DIGITS`` digits is refused (ValueError) before
    the power of ten is built."""
    exp = _EXPONENT.search(text)
    # the length test first keeps int() off an exponent of unbounded length
    if exp and (
        len(text) > _LITERAL_DIGITS or len(text) + abs(int(exp[1])) > _LITERAL_DIGITS
    ):
        raise ValueError(f"its exponent expands it past {_LITERAL_DIGITS} digits")
    return Fraction(text)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, ``"p/q"`` strings and Fractions to canonical Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError("boolean is not a rational entry")
    try:
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return fraction_from_text(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot interpret {value!r:.40} as an exact rational ({exc})") from None
    raise ValidationError(f"cannot interpret {value!r:.40} as an exact rational")


def as_exact(value: RationalLike) -> Exact:
    """:func:`as_fraction`, except that an integral value comes back as an int."""
    if type(value) is int:
        return value
    q = as_fraction(value)
    return q.numerator if q.denominator == 1 else q


def exact_sum(values: Iterable[Exact]) -> Fraction:
    """Exact sum of ints and Fractions, equal to ``sum(values, Fraction(0))``.

    Every term is scaled to the lcm of the denominators and the numerators
    are added as ints, so only the result is a Fraction (one gcd in all).
    """
    vals = tuple(values)
    den = lcm(*map(_denominator, vals))
    return Fraction(sum(_scaled_row(vals, den)), den)


def exact_entries(values: Iterable[RationalLike]) -> tuple[Exact, ...]:
    """``values`` as a tuple of exact rationals: an ``int`` (not ``bool``) or
    a ``Fraction`` is kept as it is, anything else is coerced by
    :func:`as_fraction`, which refuses what is not exact."""
    data = tuple(values)
    if not is_exact(data):
        data = tuple(e if type(e) in _EXACT_TYPES else as_fraction(e) for e in data)
    return data


def is_exact(values: Iterable) -> bool:
    """True when every value's type is exactly ``int`` or ``Fraction``: a
    ``bool`` or any other subclass is not."""
    return _EXACT_TYPES.issuperset(map(type, values))


class ExactArray:
    """Dense array of exact rationals, immutable: the contract a matrix and
    a tensor share.

    ``dims`` is the shape (sizes of at least 1, read by :func:`as_size`) and
    ``entries`` the flat row-major tuple (last index varies fastest).  The
    shape passes :func:`check_capacity` before any entry is read, and the
    entries go through :func:`exact_entries`, so each is an exact rational in
    canonical form (a Fraction is reduced with positive denominator; an int
    has denominator 1) and the kernels read it through ``numerator`` and
    ``denominator``, which both types have.  Equality and hashing follow
    value semantics within one class: an int entry and the equal Fraction
    give the same array, hash and ``str``, but a matrix never equals a
    tensor.
    """

    __slots__ = ("dims", "_entries")

    def __init__(self, dims: Iterable[int], entries: Iterable[RationalLike], what: str):
        dims = tuple(map(as_size, dims))
        if any(d < 1 for d in dims):
            raise DimensionError(f"{what} dims {dims} must all be at least 1")
        size = check_capacity(dims, what)
        data = exact_entries(entries)
        if len(data) != size:
            raise DimensionError(f"expected {size} entries for {what} dims {dims}, got {len(data)}")
        self.dims = dims
        self._entries = data

    @property
    def entries(self) -> tuple[Exact, ...]:
        return self._entries

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.dims == other.dims
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.dims, self._entries))


class RatMatrix(ExactArray):
    """Dense rows x cols matrix of exact rationals (an :class:`ExactArray`
    with ``dims == (rows, cols)``)."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int, entries: Iterable[RationalLike]):
        super().__init__((rows, cols), entries, "matrix")
        self.rows, self.cols = self.dims

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "RatMatrix":
        if not rows or not rows[0]:
            raise DimensionError("from_rows needs at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls(len(rows), ncols, [v for r in rows for v in r])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]) -> Exact:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Exact, ...]:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def iter_rows(self) -> Iterable[tuple[Exact, ...]]:
        data, cols = self._entries, self.cols
        return (data[i : i + cols] for i in range(0, len(data), cols))

    def reshape(self, rows: int, cols: int) -> "RatMatrix":
        """The same row-major entries read as a rows x cols matrix.  They
        were checked when this matrix was built, so they are not scanned
        again."""
        if rows < 1 or cols < 1 or rows * cols != len(self._entries):
            raise DimensionError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        out = object.__new__(RatMatrix)
        out.dims, out._entries = (rows, cols), self._entries
        out.rows, out.cols = rows, cols
        return out

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            [self._entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def entry_sum(self) -> Fraction:
        return exact_sum(self._entries)

    def is_symmetric(self) -> bool:
        n, data = self.cols, self._entries
        return self.is_square and all(self.row(i) == data[i::n] for i in range(n))

    def is_antisymmetric(self) -> bool:
        n, data = self.cols, self._entries
        return self.is_square and all(
            self.row(i) == tuple(map(neg, data[i::n])) for i in range(n)
        )

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


def _scaled_row(row: Sequence[Exact], scale: int) -> list[int]:
    """``row`` times ``scale``, a common multiple of its denominators, as ints."""
    if scale == 1:
        return list(map(_numerator, row))
    return [e.numerator * (scale // e.denominator) for e in row]


def _integer_rows(rows_in: Sequence[Sequence[Exact]]) -> tuple[list[int], list[list[int]]]:
    """Each row's scale (the lcm of its denominators) and the row times it, as ints."""
    scales = [lcm(*map(_denominator, row)) for row in rows_in]
    return scales, [_scaled_row(row, s) for row, s in zip(rows_in, scales)]


def _eliminate(work: list[list[int]], scan: Iterable[int], forward: bool) -> tuple[list[int], int, int]:
    """Fraction-free elimination (Bareiss 1968) of the int rows ``work``, in
    place, over the columns in ``scan`` order: (pivot columns, row-swap sign,
    last pivot).

    A column is a pivot when a row not yet used is nonzero in it; the first
    such row is swapped up to position k, and rows are replaced by (pivot *
    row - factor * pivot row) / previous pivot.  Every entry is then a minor
    of the input, so each division is exact.  Rows scaled to ints by positive
    constants (:func:`_integer_rows`) give the pivots and sign of the unscaled
    matrix.  The forward sweep (columns in order) updates only the rows below
    the pivot, from the pivot column on: the echelon form, whose last pivot
    for a square matrix of full rank is its determinant up to the sign.  The
    full sweep updates every other row in full, leaving the first k rows as
    the last pivot times the reduced row echelon form in the scan order.
    """
    rows = len(work)
    pivots: list[int] = []
    sign = prev_pivot = 1
    for col in scan:
        k = len(pivots)
        if k == rows:
            break
        pivot = next((r for r in range(k, rows) if work[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        start = col if forward else 0
        tail_p = work[k][start:]
        piv = work[k][col]
        for r in range(k + 1 if forward else 0, rows):
            if r == k:
                continue
            row_r = work[r]
            factor = row_r[col]
            if factor == 0:
                # Still rescale so later divisions by prev_pivot stay exact.
                row_r[start:] = [piv * x // prev_pivot for x in row_r[start:]]
            else:
                row_r[start:] = [
                    (piv * x - factor * y) // prev_pivot for x, y in zip(row_r[start:], tail_p)
                ]
        prev_pivot = piv
        pivots.append(col)
    return pivots, sign, prev_pivot


def rank_exact(m: RatMatrix) -> int:
    """Exact rank over the rationals: a certified modular rank, with the
    forward sweep of :func:`_eliminate` as the fallback.

    Rank is invariant under transposition and under scaling a row by a
    positive int, so the rows are scaled to ints and a tall matrix is read
    by columns; below, W is that int matrix and it has m <= n rows.  From
    ``_MODULAR_MIN_ENTRIES`` entries on, when every entry of W fits int64:

    1. *Lower bound.*  Elimination modulo the prime ``_ELIM_PRIME`` gives r
       pivot rows R and pivot columns C.  The minor W[R, C] is nonzero mod p,
       so it is nonzero over Z, and rank W >= r.  At r = m that is the rank.
    2. *Upper bound.*  With A = W[R, C], the full sweep of :func:`_eliminate`
       on [A^T | W[:, C]^T] gives a nonzero multiple d of det A and
       Y = d * W[:, C] * A^-1 in ints.  rank W <= r exactly when
       d * W = Y * W[R, :], and only the rows outside R and the columns
       outside C can differ.  Every entry of the difference is an int of
       magnitude at most H = |d| max|W| + r max|Y| max|W|, so it is zero when
       it vanishes modulo primes whose product exceeds H: each prime of
       ``_CHECK_PRIMES`` it needs is one int64 matrix product.

    No step rests on chance.  The forward sweep runs instead when the matrix
    is smaller than the cut, an entry does not fit int64, the upper bound
    would cost more than elimination (``_certificate_pays``, which reads only
    the shape and r), H outgrows the primes, or a residue is nonzero: then p
    divides a minor and r is below the rank.
    """
    w = _int64_rows(m) if len(m.entries) >= _MODULAR_MIN_ENTRIES else None
    if w is not None:
        if m.rows > m.cols:
            w = w.T
        rank = _certified_rank(w)
        if rank is not None:
            return rank
        work = w.tolist()
    else:
        rows = m.iter_rows()
        work = _integer_rows(list(zip(*rows)) if m.rows > m.cols else list(rows))[1]
    return len(_eliminate(work, range(len(work[0])), forward=True)[0])


def _int64_rows(m: RatMatrix) -> np.ndarray | None:
    """``m`` with each row scaled to ints (by the lcm of its denominators) as
    an int64 array, or None when an entry does not fit int64."""
    try:
        if _INT_ONLY.issuperset(map(type, m.entries)):
            flat = np.fromiter(m.entries, dtype=np.int64, count=len(m.entries))
            return flat.reshape(m.dims)
        return np.array(_integer_rows(list(m.iter_rows()))[1], dtype=np.int64)
    except OverflowError:
        return None


def _mod_p_pivots(w: np.ndarray) -> tuple[list[int], list[int]]:
    """Pivot rows (as rows of ``w``) and pivot columns of the elimination of
    ``w`` modulo ``_ELIM_PRIME``, with the canonical pivot rule of the forward
    sweep of :func:`_eliminate`.  Residues stay below 2^31, so every product
    fits int64."""
    p = _ELIM_PRIME
    a = w % p
    m, n = a.shape
    order = list(range(m))
    rows: list[int] = []
    cols: list[int] = []
    k = col = 0
    while k < m and col < n:
        found = np.flatnonzero(a[k:, col])
        if not found.size:  # skip to the next column with a nonzero residue
            live = np.flatnonzero(a[k:, col:].any(axis=0))
            if not live.size:
                break
            col += int(live[0])
            found = np.flatnonzero(a[k:, col])
        pivot = k + int(found[0])
        if pivot != k:
            a[[k, pivot], col:] = a[[pivot, k], col:]
            order[k], order[pivot] = order[pivot], order[k]
        factors = a[k + 1 :, col] * pow(int(a[k, col]), -1, p) % p
        below = a[k + 1 :, col:]
        below -= np.outer(factors, a[k, col:])
        below %= p
        rows.append(order[k])
        cols.append(col)
        k += 1
        col += 1
    return rows, cols


def _certified_rank(w: np.ndarray) -> int | None:
    """The rank of the int64 matrix ``w`` (m <= n), certified as in
    :func:`rank_exact`, or None when the forward sweep must decide it."""
    m, n = w.shape
    rows, cols = _mod_p_pivots(w)
    r = len(rows)
    if r == m or (_certificate_pays(m, n, r) and _rows_span(w, rows, cols)):
        return r
    return None


def _rows_span(w: np.ndarray, rows: list[int], cols: list[int]) -> bool:
    """Whether the rows ``rows`` of the int64 matrix ``w`` span all of its
    rows, given that the minor on ``rows`` x ``cols`` is nonzero: the upper
    bound of :func:`rank_exact`.  False also when the entry bound H outgrows
    the product of ``_CHECK_PRIMES``."""
    m, n = w.shape
    r = len(rows)
    in_rows, in_cols = set(rows), set(cols)
    rest_rows = [i for i in range(m) if i not in in_rows]
    rest_cols = [j for j in range(n) if j not in in_cols]
    # [A^T | W[rest_rows, C]^T]; the full sweep leaves d*I | Y[rest_rows]^T
    work = w[np.ix_(rows + rest_rows, cols)].T.tolist()
    d = _eliminate(work, range(r), forward=False)[2]
    y_t = np.array([row[r:] for row in work], dtype=object).reshape(r, m - r)
    top = max(int(w.max()), -int(w.min()))
    bound = abs(d) * top + r * max(map(abs, y_t.flat), default=0) * top
    need = next((i for i, c in enumerate(accumulate(_CHECK_PRIMES, mul)) if c > bound), None)
    if need is None:
        return False
    lhs = w[np.ix_(rest_rows, rest_cols)]
    rhs = w[np.ix_(rows, rest_cols)]
    for q in _CHECK_PRIMES[: need + 1]:
        diff = (d % q) * (lhs % q) - (y_t % q).astype(np.int64).T @ (rhs % q)
        if (diff % q).any():
            return False
    return True


def _certificate_pays(m: int, n: int, r: int) -> bool:
    """Whether certifying rank <= r for an m x n matrix (m <= n) costs less
    than the forward sweep of :func:`_eliminate`, from the shape and r alone.

    Both costs count int operations weighted by the order of the minors
    they hold: forward step k updates (m-1-k)(n-1-k) entries past the pivot
    column, minors of order k+1; the certificate's full-sweep step j updates
    (r-1)m entries, minors of order j+1.  The certificate's operations
    measured about a fifth cheaper, hence the 5:4 weighing.
    """
    forward = sum((m - 1 - k) * (n - 1 - k) * (k + 1) for k in range(r))
    certificate = (r - 1) * m * r * (r + 1) // 2
    return 4 * certificate <= 5 * forward


def reduced_rows(
    m: RatMatrix, first: Sequence[int] = ()
) -> tuple[tuple[int, ...], list[list[int]], int]:
    """The integer form of :func:`column_basis`: ``(pivots, rows, last
    pivot)``, where ``rows`` are the first ``len(pivots)`` rows the full
    sweep of :func:`_eliminate` leaves, the last pivot times ``coords``.
    No Fraction is built."""
    seen = set(first)
    scan = list(first) + [j for j in range(m.cols) if j not in seen]
    _, work = _integer_rows(list(m.iter_rows()))
    pivots, _, last_pivot = _eliminate(work, scan, forward=False)
    return tuple(pivots), work[: len(pivots)], last_pivot


def column_basis(
    m: RatMatrix, first: Sequence[int] = ()
) -> tuple[tuple[int, ...], tuple[tuple[Exact, ...], ...]]:
    """Basis columns of ``m`` and the exact coordinates of every column in them.

    Columns are scanned in the order ``first``, then the rest left to right,
    and a column is a pivot when it is independent of the pivots before it.
    Returns ``(pivots, coords)``: ``coords`` has one row per pivot and one
    column per column of ``m``, ``m = m[:, pivots] @ coords``, and
    ``coords[:, pivots]`` is the identity (the reduced row echelon form of
    ``m`` in the scan order, less its zero rows).  The elimination is the
    full sweep of :func:`_eliminate` on the rows scaled to ints
    (:func:`reduced_rows`), divided by its last pivot.
    """
    pivots, rows, last_pivot = reduced_rows(m, first)
    return pivots, tuple(tuple(as_exact(Fraction(x, last_pivot)) for x in row) for row in rows)


def det_exact(m: RatMatrix) -> Fraction:
    """Exact determinant: the forward sweep of :func:`_eliminate` on the rows
    scaled to ints, its sign and last pivot over the product of the scales."""
    if not m.is_square:
        raise DimensionError(f"determinant needs a square matrix, got {m.dims}")
    scales, work = _integer_rows(list(m.iter_rows()))
    pivots, sign, last_pivot = _eliminate(work, range(m.cols), forward=True)
    return Fraction(sign * last_pivot, prod(scales)) if len(pivots) == m.rows else Fraction(0)


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
        raise DimensionError(f"characteristic polynomial needs a square matrix, got {m.dims}")
    n = m.rows
    den = lcm(*map(_denominator, m.entries))
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
