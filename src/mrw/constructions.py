"""Generators for the workbench's explicit objects.

Everything here is a pure constructor: squared-difference distance matrices,
the degree-d coefficient family and its flattenings, the divisibility tensor,
and the correlation-matrix pipeline (antisymmetric difference matrix C, the
outcome distribution P = C o C, the spectral vectors feeding the quantum side
and the quantum outcome distribution they give).  Exact rational output
wherever the object is rational; floats appear only in the spectral vectors
and what is computed from them.

:func:`edm` is the only code that squares differences: every flattening is
edm(0..n^(d/2)-1) read in another shape, its crown sits at the multiples of
n^k, and P = s^2 * edm(b) for the correlation values b.  Integral generator
values stay ints, so these matrices, the difference matrix, its antisymmetry
check, its rank and its float copy are int work, and the characteristic
polynomial of C comes from a closed form once its rank is certified to be at
most 2.  Each size guard runs before the first entry is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .dtensor import DenseTensor
from .errors import DimensionError, UnsupportedRankError, ValidationError
from .numkit import antisym_spectral, as_float_array
from .ratlinalg import (
    CharPoly,
    Exact,
    RatMatrix,
    RationalLike,
    as_exact,
    check_capacity,
    exact_sum,
    rank_exact,
)


# ---------------------------------------------------------------------------
# squared-difference distance matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdmSpec:
    """n pairwise-distinct rational generator values a_1..a_n; integral
    values are kept as ints, as :class:`RatMatrix` keeps its entries."""

    values: tuple[Exact, ...]

    def __init__(self, values: Sequence[RationalLike]):
        vals = tuple(map(as_exact, values))
        if len(vals) < 1:
            raise ValidationError("need at least one generator value")
        if len(set(vals)) != len(vals):
            raise ValidationError("generator values must be pairwise distinct")
        object.__setattr__(self, "values", vals)

    @classmethod
    def integers(cls, n: int) -> "EdmSpec":
        """The values 1..n, refused before any is built when their distance
        matrix would pass the capacity guard."""
        if n > 0:  # n <= 0 gives no values, which the constructor refuses
            check_capacity((n, n), "distance matrix")
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.values)


def edm(spec: EdmSpec) -> RatMatrix:
    """Matrix of squared differences M[i][j] = (a_j - a_i)^2.

    Symmetric, zero diagonal, positive off-diagonal; rank is 3 for n >= 3
    because every column lies in the span of (a_i^2), (a_i), (1).  Each
    square is computed once, above the diagonal, and mirrored, after the
    capacity guard.  Int values give int squares.  Otherwise each value is
    read once as p / q, and for a pair a_i, a_j the difference is
    t / d = (p_j q_i - p_i q_j) / (q_i q_j); dividing both by g = gcd(t, d)
    leaves (t/g)^2 / (d/g)^2 in lowest terms, an int when d/g = 1 and one
    Fraction otherwise.  No common denominator is formed: the lcm of the
    denominators grows with n (1/1..1/n) while each pair's stays small.
    """
    check_capacity((spec.n, spec.n), "distance matrix")
    n, a = spec.n, spec.values
    flat = [0] * (n * n)
    if all(type(x) is int for x in a):
        for i, x in enumerate(a):
            for j in range(i + 1, n):
                flat[i * n + j] = flat[j * n + i] = (a[j] - x) ** 2
        return RatMatrix(n, n, flat)
    pq = [(x.numerator, x.denominator) for x in a]
    for i, (p_i, q_i) in enumerate(pq):
        for j in range(i + 1, n):
            p_j, q_j = pq[j]
            t, d = p_j * q_i - p_i * q_j, q_i * q_j
            g = math.gcd(t, d)
            t, d = t // g, d // g
            flat[i * n + j] = flat[j * n + i] = t * t if d == 1 else Fraction(t * t, d * d)
    return RatMatrix(n, n, flat)


# ---------------------------------------------------------------------------
# the degree-d coefficient family and its flattenings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionFSpec:
    """Parameters of the degree-d coefficient family on n variables.

    d must be even: coefficients compare the lex ranks of the two halves
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


def flattening(spec: FunctionFSpec, k: int) -> RatMatrix:
    """n^k x n^(d-k) matrix of coefficients, split after the first k indices.

    Rows and columns are ordered by the lexicographic rank of their index
    tuples, so all flattenings share one row-major coefficient array and
    only the shape changes with k.  That array is the middle flattening,
    edm(0, 1, .., n^(d/2) - 1): entry (i, j) = (j - i)^2.
    """
    if not (0 <= k <= spec.d):
        raise ValidationError(f"split position k={k} outside [0..{spec.d}]")
    check_capacity(repeat(spec.n, spec.d), "flattening")
    return edm(EdmSpec(range(spec.half_size))).reshape(spec.n ** k, spec.n ** (spec.d - k))


def offset_matrix(spec: FunctionFSpec) -> RatMatrix:
    """n^(d/2-1) x (n-1) grid of offsets b*n + j (row b from 0, column j from 1).

    These are the new half-rank differences introduced when the split moves
    one position left of the middle; the squared variant drives the
    level-to-level rank step.
    """
    if spec.d < 4:
        raise ValidationError("offset matrices need degree >= 4")
    check_capacity(chain(repeat(spec.n, spec.half - 1), (spec.n - 1,)), "offset matrix")
    rows = spec.n ** (spec.half - 1)
    return RatMatrix(
        rows, spec.n - 1, [b * spec.n + j for b in range(rows) for j in range(1, spec.n)]
    )


def offset_square_matrix(spec: FunctionFSpec) -> RatMatrix:
    """Entrywise square of :func:`offset_matrix`."""
    base = offset_matrix(spec)
    return RatMatrix(base.rows, base.cols, [x * x for x in base.entries])


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


def divisibility_tensor(spec: DivTensorSpec) -> DenseTensor:
    """Dense 0/1 tensor with exactly base^(order-1) ones: any prefix of d-1
    indices has a unique completing last index."""
    base = spec.base
    check_capacity(repeat(base, spec.order), "divisibility tensor")
    # the 1-based index sums mod base of the cells so far, in row-major order
    sums = [0]
    for _ in range(spec.order):
        sums = [(s + i) % base for s in sums for i in range(1, base + 1)]
    return DenseTensor((base,) * spec.order, [1 if s == 0 else 0 for s in sums])


# ---------------------------------------------------------------------------
# correlation pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationSpec:
    """Distinct generator values plus the exact squared scale that normalizes
    the outcome distribution.

    The stored matrix is C = s * B with B[x][y] = b_y - b_x and s^2
    rational, chosen so that sum_{x<y} (s(b_y - b_x))^2 = 1/2 exactly.
    Integral values (the default 1..N among them) are kept as ints, so B is
    an int matrix for them.  s itself is irrational in general and never
    materialized; only s^2 enters the rational objects (P and the
    characteristic polynomial).  The N x N capacity guard runs before any
    work on the values; :class:`EdmSpec` checks that they are distinct.
    """

    size: int
    values: tuple[Exact, ...] = field(default=())
    scale_sq: Fraction = field(init=False, repr=False, compare=False)

    def __init__(self, size: int, values: Sequence[RationalLike] | None = None):
        if size < 2 or size & (size - 1) != 0:
            raise ValidationError(f"dimension must be a power of two >= 2, got {size}")
        check_capacity((size, size), "correlation matrix")
        if values is not None and len(values) != size:
            raise ValidationError(f"need exactly {size} generator values, got {len(values)}")
        vals = EdmSpec(range(1, size + 1) if values is None else values).values
        # sum_{x<y} (b_y - b_x)^2 = N sum b^2 - (sum b)^2, in O(N)
        pair_square_sum = size * exact_sum(v * v for v in vals) - exact_sum(vals) ** 2
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "values", vals)
        # positive: the values are pairwise distinct
        object.__setattr__(self, "scale_sq", Fraction(1, 2) / pair_square_sum)


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

    @functools.cached_property
    def base_rank(self) -> int:
        """Exact rank of the base, computed once and shared by the spectral
        split and :meth:`char_poly`."""
        return rank_exact(self.base)

    def to_float(self) -> np.ndarray:
        s = math.sqrt(float(self.scale_sq))
        return s * as_float_array(self.base)

    def char_poly(self) -> CharPoly:
        """Exact characteristic polynomial of the scaled matrix, for a base of
        rank at most 2 (certified exactly by :attr:`base_rank`; the difference
        matrix has rank 2); a higher rank raises `UnsupportedRankError`.

        The polynomial is x^N + s^2 (sum_{i<j} B_ij^2) x^(N-2), in O(N^2): the
        coefficient of x^(N-k) is (-1)^k times the sum of the k x k principal
        minors, which vanish for k above the rank; the trace of an
        antisymmetric matrix is 0; and the 2 x 2 principal minor on rows i, j
        is B_ij^2.
        """
        if self.base_rank > 2:
            raise UnsupportedRankError("closed-form polynomial needs base rank at most 2")
        n = self.size
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[n] = Fraction(1)
        if n >= 2:
            # the entries hold each B_ij^2 with i < j twice (B_ji = -B_ij)
            coeffs[n - 2] = self.scale_sq * exact_sum(e * e for e in self.base.entries) / 2
        return CharPoly(tuple(coeffs))


@dataclass(frozen=True)
class CorrelationObjects:
    """Everything the correlation pipeline produces for one spec."""

    c_matrix: ScaledAntisymmetric
    p_matrix: RatMatrix
    lambda_magnitude: float
    spectral_error: float
    reconstruction_error: float


def difference_matrix(spec: CorrelationSpec) -> ScaledAntisymmetric:
    vals = spec.values
    base = RatMatrix(spec.size, spec.size, [vy - vx for vx in vals for vy in vals])
    return ScaledAntisymmetric(base, spec.scale_sq)


def outcome_distribution(spec: CorrelationSpec) -> RatMatrix:
    """P = C o C = s^2 * edm(b) exactly: nonnegative, symmetric, zero
    diagonal, sums to 1.  Each distinct square is scaled once."""
    sq = edm(EdmSpec(spec.values)).entries
    scaled = {e: spec.scale_sq * e for e in set(sq)}
    p = RatMatrix(spec.size, spec.size, map(scaled.__getitem__, sq))
    if p.entry_sum() != 1:
        raise ValidationError("normalization violated: outcome matrix must sum to 1")
    return p


def quantum_distribution(u0, u1, v0, v1) -> np.ndarray:
    """Outcome distribution 0.5 * |u0(x) v0(y) + u1(x) v1(y)|^2."""
    u0, u1, v0, v1 = (np.asarray(v, dtype=complex) for v in (u0, u1, v0, v1))
    if not (u0.shape == u1.shape == v0.shape == v1.shape) or u0.ndim != 1:
        raise DimensionError("need four vectors of equal length")
    amp = np.outer(u0, v0) + np.outer(u1, v1)
    return 0.5 * np.abs(amp) ** 2


def build_correlation(spec: CorrelationSpec) -> CorrelationObjects:
    """Construct C and P and cross-check them against the spectral split of C.

    The spectral vectors u0/u1 stay in the `SpectralPair` of
    :func:`antisym_spectral`, and v0 = conj(u0) and v1 = -conj(u1).
    The spectral error is the max deviation between C and its rank-2
    reconstruction from u0/u1; the reconstruction error is the max deviation
    between rational P and :func:`quantum_distribution`.
    """
    cmat = difference_matrix(spec)
    p = outcome_distribution(spec)
    pair = antisym_spectral(cmat)
    dist = quantum_distribution(pair.u0, pair.u1, np.conj(pair.u0), -np.conj(pair.u1))
    err = float(np.max(np.abs(dist - as_float_array(p))))
    return CorrelationObjects(
        c_matrix=cmat,
        p_matrix=p,
        lambda_magnitude=pair.lambda_magnitude,
        spectral_error=pair.reconstruction_error(cmat.to_float()),
        reconstruction_error=err,
    )
