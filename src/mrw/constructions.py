"""Generators for the workbench's explicit objects.

Everything here is a pure constructor: squared-difference distance matrices,
the degree-d coefficient family and its flattenings, the divisibility tensor,
and the correlation-matrix pipeline (antisymmetric difference matrix C, the
outcome distribution P = C o C, and the spectral vectors feeding the quantum
side).  Exact rational output wherever the object is rational; floats appear
only in the spectral vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dtensor import DenseTensor
from .errors import CapacityError, ValidationError
from .ratlinalg import (
    CAPACITY_LIMIT,
    CharPoly,
    RatMatrix,
    RationalLike,
    as_fraction,
    char_poly_exact,
    hadamard,
)


# ---------------------------------------------------------------------------
# squared-difference distance matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdmSpec:
    """n pairwise-distinct rational generator values a_1..a_n."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Sequence[RationalLike]):
        vals = tuple(as_fraction(v) for v in values)
        if len(vals) < 1:
            raise ValidationError("need at least one generator value")
        if len(set(vals)) != len(vals):
            raise ValidationError("generator values must be pairwise distinct")
        object.__setattr__(self, "values", vals)

    @classmethod
    def integers(cls, n: int) -> "EdmSpec":
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.values)


def edm(spec: EdmSpec) -> RatMatrix:
    """Matrix of squared differences M[i][j] = (a_j - a_i)^2.

    Symmetric, zero diagonal, positive off-diagonal; rank is 3 for n >= 3
    because every column lies in the span of (a_i^2), (a_i), (1).
    """
    a = spec.values
    return RatMatrix(spec.n, spec.n, [(y - x) ** 2 for x in a for y in a])


# ---------------------------------------------------------------------------
# the degree-d coefficient family and its flattenings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionFSpec:
    """Parameters of the degree-d coefficient family on n variables.

    d must be even: coefficients compare the packed ranks of the two halves
    of each length-d index tuple.
    """

    n: int
    d: int

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"need n >= 2 variables, got {self.n}")
        if self.d < 2 or self.d % 2 != 0:
            raise ValidationError(f"degree must be even and >= 2, got {self.d}")

    @property
    def half(self) -> int:
        return self.d // 2

    @property
    def half_size(self) -> int:
        return self.n ** self.half

    @property
    def total_size(self) -> int:
        return self.n ** self.d


def pack_index(digits: Sequence[int], n: int) -> int:
    """1-based mixed-radix rank of a tuple of digits in [1..n].

    This is the bijection from [n]^m onto [n^m]: the first tuple (1,..,1)
    maps to 1 and the last (n,..,n) to n^m.
    """
    value = 0
    for digit in digits:
        if not (1 <= digit <= n):
            raise ValidationError(f"digit {digit} outside [1..{n}]")
        value = value * n + (digit - 1)
    return value + 1


def unpack_index(value: int, n: int, length: int) -> tuple[int, ...]:
    """Inverse of :func:`pack_index` for tuples of the given length."""
    if not (1 <= value <= n ** length):
        raise ValidationError(f"rank {value} outside [1..{n ** length}]")
    rest = value - 1
    digits = []
    for _ in range(length):
        rest, r = divmod(rest, n)
        digits.append(r + 1)
    return tuple(reversed(digits))


def coefficient(spec: FunctionFSpec, index: Sequence[int]) -> Fraction:
    """Coefficient of the monomial addressed by a full length-d index tuple."""
    if len(index) != spec.d:
        raise ValidationError(f"index tuple must have length {spec.d}")
    left = pack_index(index[: spec.half], spec.n)
    right = pack_index(index[spec.half :], spec.n)
    return Fraction((left - right) ** 2)


def flattening(spec: FunctionFSpec, k: int) -> RatMatrix:
    """n^k x n^(d-k) matrix of coefficients, split after the first k indices.

    Rows and columns are ordered by the packed rank of their index tuples,
    which is exactly lexicographic order; consequently all flattenings share
    one row-major coefficient array and only the shape changes with k.  The
    middle flattening satisfies entry(i, j) = (j - i)^2.
    """
    if not (0 <= k <= spec.d):
        raise ValidationError(f"split position k={k} outside [0..{spec.d}]")
    if spec.total_size > CAPACITY_LIMIT:
        raise CapacityError(f"n^d = {spec.total_size} exceeds the {CAPACITY_LIMIT} guard")
    h = spec.half_size
    entries = [Fraction((i // h - i % h) ** 2) for i in range(spec.total_size)]
    return RatMatrix(spec.n ** k, spec.n ** (spec.d - k), entries)


def offset_matrix(spec: FunctionFSpec) -> RatMatrix:
    """n^(d/2-1) x (n-1) grid of offsets b*n + j (row b from 0, column j from 1).

    These are the new half-rank differences introduced when the split moves
    one position left of the middle; the squared variant drives the
    level-to-level rank step.
    """
    if spec.d < 4:
        raise ValidationError("offset matrices need degree >= 4")
    rows = spec.n ** (spec.half - 1)
    return RatMatrix(
        rows, spec.n - 1, [b * spec.n + j for b in range(rows) for j in range(1, spec.n)]
    )


def offset_square_matrix(spec: FunctionFSpec) -> RatMatrix:
    """Entrywise square of :func:`offset_matrix`."""
    base = offset_matrix(spec)
    return hadamard(base, base)


def spaced_distance_block(spec: FunctionFSpec, k: int) -> RatMatrix:
    """The n^(d/2-k) square block hiding inside the level-(d/2-k) flattening.

    Entry (i, j) is ((j - i) * n^k)^2, i.e. the squared-difference matrix over
    the arithmetic progression 0, n^k, 2n^k, ...  For k = 0 this is the whole
    middle flattening; for k = d/2 it degenerates to the 1x1 zero matrix.
    """
    if not (0 <= k <= spec.half):
        raise ValidationError(f"block stride exponent k={k} outside [0..{spec.half}]")
    m = spec.n ** (spec.half - k)
    step = spec.n ** k
    return RatMatrix(m, m, [Fraction(((j - i) * step) ** 2) for i in range(m) for j in range(m)])


def spaced_block_column_indices(spec: FunctionFSpec, k: int) -> list[int]:
    """Column indices inside flattening(spec, d/2-k) that realize the block.

    The block's row p is the p-th (d/2-k)-tuple; its matching column is the
    (d/2+k)-tuple (1,)*k + p-th tuple + (1,)*k, returned as 0-based lex ranks;
    for k = 0 that is every column in order.
    """
    if not (0 <= k <= spec.half):
        raise ValidationError(f"block stride exponent k={k} outside [0..{spec.half}]")
    m = spec.n ** (spec.half - k)
    ones = (1,) * k
    cols = []
    for p in range(1, m + 1):
        tup = ones + unpack_index(p, spec.n, spec.half - k) + ones
        cols.append(pack_index(tup, spec.n) - 1)
    return cols


# ---------------------------------------------------------------------------
# divisibility tensor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivTensorSpec:
    """0/1 tensor of order `order` over base `base`: cell (i_1..i_d) is 1 iff
    the 1-based index sum is divisible by the base."""

    base: int
    order: int

    def __post_init__(self):
        if self.base < 2:
            raise ValidationError(f"base must be >= 2, got {self.base}")
        if self.order < 2:
            raise ValidationError(f"order must be >= 2, got {self.order}")
        if self.base ** self.order > CAPACITY_LIMIT:
            raise CapacityError(
                f"base^order = {self.base ** self.order} exceeds the {CAPACITY_LIMIT} guard"
            )


def divisibility_tensor(spec: DivTensorSpec) -> DenseTensor:
    """Dense 0/1 tensor with exactly base^(order-1) ones: any prefix of d-1
    indices has a unique completing last index."""
    base = spec.base
    return DenseTensor.from_function(
        (base,) * spec.order,
        lambda idx: 1 if sum(i + 1 for i in idx) % base == 0 else 0,
    )


# ---------------------------------------------------------------------------
# correlation pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationSpec:
    """Distinct generator values plus the exact squared scale that normalizes
    the outcome distribution.

    The stored matrix is C = s * B with B[x][y] = b_y - b_x integeresque and
    s^2 rational, chosen so that sum_{x<y} (s(b_y - b_x))^2 = 1/2 exactly.
    s itself is irrational in general and never materialized; only s^2 enters
    the rational objects (P and the characteristic polynomial).
    """

    size: int
    values: tuple[Fraction, ...] = field(default=())

    def __init__(self, size: int, values: Sequence[RationalLike] | None = None):
        if size < 2 or size & (size - 1) != 0:
            raise ValidationError(f"dimension must be a power of two >= 2, got {size}")
        if values is None:
            vals = tuple(Fraction(x) for x in range(1, size + 1))
        else:
            vals = tuple(as_fraction(v) for v in values)
        if len(vals) != size:
            raise ValidationError(f"need exactly {size} generator values, got {len(vals)}")
        if len(set(vals)) != len(vals):
            raise ValidationError("generator values must be pairwise distinct")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "values", vals)

    def pair_square_sum(self) -> Fraction:
        vals = self.values
        return sum(
            ((vals[y] - vals[x]) ** 2 for x in range(self.size) for y in range(x + 1, self.size)),
            Fraction(0),
        )

    @property
    def scale_sq(self) -> Fraction:
        total = self.pair_square_sum()
        if total == 0:
            raise ValidationError("degenerate generator values")
        return Fraction(1, 2) / total


@dataclass(frozen=True)
class ScaledAntisymmetric:
    """Antisymmetric matrix s * base with rational base and rational s^2."""

    base: RatMatrix
    scale_sq: Fraction

    def __post_init__(self):
        if not self.base.is_antisymmetric():
            raise ValidationError("base matrix must be antisymmetric")
        if self.scale_sq <= 0:
            raise ValidationError("squared scale must be positive")

    @property
    def size(self) -> int:
        return self.base.rows

    def hadamard_square(self) -> RatMatrix:
        """Exact entrywise square s^2 * (base o base)."""
        sq = hadamard(self.base, self.base)
        return RatMatrix(sq.rows, sq.cols, [self.scale_sq * e for e in sq.entries])

    def to_float(self) -> np.ndarray:
        s = math.sqrt(float(self.scale_sq))
        return s * np.array(self.base.to_float_rows(), dtype=float)

    def char_poly(self) -> CharPoly:
        """Exact characteristic polynomial of the scaled matrix.

        Scaling by s multiplies the coefficient of x^k by s^(N-k); the base is
        antisymmetric so only even co-degrees survive and every power of s
        reduces to a power of s^2, keeping the result rational.
        """
        base_poly = char_poly_exact(self.base)
        n = base_poly.degree
        coeffs = []
        for k, c in enumerate(base_poly.coeffs):
            if c == 0:
                coeffs.append(Fraction(0))
                continue
            if (n - k) % 2 != 0:
                raise ValidationError("antisymmetric base produced an odd-power coefficient")
            coeffs.append(c * self.scale_sq ** ((n - k) // 2))
        return CharPoly(tuple(coeffs))


@dataclass(frozen=True)
class CorrelationObjects:
    """Everything the correlation pipeline produces for one spec."""

    spec: CorrelationSpec
    c_matrix: ScaledAntisymmetric
    p_matrix: RatMatrix
    u0: np.ndarray
    u1: np.ndarray
    v0: np.ndarray
    v1: np.ndarray
    lambda_magnitude: float
    reconstruction_error: float


def difference_matrix(spec: CorrelationSpec) -> ScaledAntisymmetric:
    vals = spec.values
    base = RatMatrix(spec.size, spec.size, [vy - vx for vx in vals for vy in vals])
    return ScaledAntisymmetric(base, spec.scale_sq)


def outcome_distribution(spec: CorrelationSpec) -> RatMatrix:
    """P = C o C exactly: nonnegative, symmetric, zero diagonal, sums to 1."""
    p = difference_matrix(spec).hadamard_square()
    if p.entry_sum() != 1:
        raise ValidationError("normalization violated: outcome matrix must sum to 1")
    return p


def build_correlation(spec: CorrelationSpec) -> CorrelationObjects:
    """Construct C, P and the spectral vectors, and cross-check them.

    u0/u1 come from the spectral split of C; v0 = conj(u0) and
    v1 = -conj(u1).  The reported reconstruction error is the max deviation
    between rational P and 0.5*|u0(x)v0(y) + u1(x)v1(y)|^2.
    """
    from .numkit import antisym_spectral

    cmat = difference_matrix(spec)
    p = outcome_distribution(spec)
    pair = antisym_spectral(cmat)
    u0, u1 = pair.u0, pair.u1
    v0 = np.conj(u0)
    v1 = -np.conj(u1)
    amp = np.outer(u0, v0) + np.outer(u1, v1)
    p_prime = 0.5 * np.abs(amp) ** 2
    p_float = np.array(p.to_float_rows())
    err = float(np.max(np.abs(p_prime - p_float)))
    return CorrelationObjects(
        spec=spec,
        c_matrix=cmat,
        p_matrix=p,
        u0=u0,
        u1=u1,
        v0=v0,
        v1=v1,
        lambda_magnitude=pair.lambda_magnitude,
        reconstruction_error=err,
    )


@dataclass(frozen=True)
class CompletionReport:
    orthonormal: bool
    extendable: bool
    max_defect: float


def complete_unitary_columns(u0: np.ndarray, u1: np.ndarray, tol: float = 1e-9) -> CompletionReport:
    """Check that u0, u1 are orthonormal and extend to a full orthonormal basis.

    Completion is plain Gram-Schmidt against the standard basis; the report
    carries the worst orthonormality defect of the completed system.  Failures
    are reported, never raised.
    """
    u0 = np.asarray(u0, dtype=complex)
    u1 = np.asarray(u1, dtype=complex)
    if u0.shape != u1.shape or u0.ndim != 1:
        return CompletionReport(orthonormal=False, extendable=False, max_defect=float("inf"))
    n = u0.shape[0]
    pair_defect = max(
        abs(np.linalg.norm(u0) - 1.0),
        abs(np.linalg.norm(u1) - 1.0),
        abs(np.vdot(u0, u1)),
    )
    if pair_defect > tol:
        return CompletionReport(orthonormal=False, extendable=False, max_defect=float(pair_defect))
    basis = [u0, u1]
    for i in range(n):
        if len(basis) == n:
            break
        cand = np.zeros(n, dtype=complex)
        cand[i] = 1.0
        for b in basis:
            cand = cand - np.vdot(b, cand) * b
        norm = np.linalg.norm(cand)
        if norm > 1e-7:
            basis.append(cand / norm)
    if len(basis) < n:
        return CompletionReport(orthonormal=True, extendable=False, max_defect=float(pair_defect))
    q = np.column_stack(basis)
    gram = q.conj().T @ q
    defect = float(np.max(np.abs(gram - np.eye(n))))
    return CompletionReport(orthonormal=True, extendable=defect <= tol, max_defect=defect)
