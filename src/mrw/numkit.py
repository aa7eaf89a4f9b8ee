"""Seeded, budgeted floating-point numerics.

Three tools live here: the spectral split of a rank-2 antisymmetric matrix
(LAPACK's Hermitian eigensolver applied to iC), a nonnegative factorization
search of an exact matrix (exact stages at r = rank, which share one
normalisation of the columns into integer homogeneous points, read off the
integer reduced rows of ``ratlinalg.reduced_rows``: separable cones picked
by successive projection, and nested triangles at rank 3, both decided on
ints, with Fractions built only for the witness returned; then HALS sweeps
with random restarts on a float copy scaled to a largest entry of 1), and an
alternating-least-squares tensor fitter; both searches read exact arrays
only.  Searches are deterministic given (input, seed, budget): the
factorization search returns the first round that reaches its tolerance and
the tensor fitter keeps the lowest residual, ties broken by restart index,
so the outcome never depends on execution order.  A successful search is a
witness, never a proof of optimality (it is exact only when
`verify_nonneg_factorization` passes); failure after budget exhaustion
proves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import chain, combinations, product
from operator import mul

import numpy as np

from .errors import DimensionError, UnsupportedRankError, ValidationError
from .ratlinalg import RatMatrix, _integer_rows, as_exact, is_exact, reduced_rows

DEFAULT_SEED = 1729

_FLOOR = 1e-12

# nmf_search's float search: the seed of its restarts, and the relative
# max-norm error max|M - WH| / max|M| it must reach
_NMF_SEED = DEFAULT_SEED
_NMF_TOL = 1e-6

# nmf_search runs a round's HALS sweeps in chunks of this many and checks the
# error after each; the round ends at tol, or when a chunk leaves the error
# above _STALL_RATIO of what it was (lowers it by less than 1 %)
_SWEEP_CHUNK = 25
_STALL_RATIO = 0.99


@dataclass(frozen=True)
class SearchBudget:
    """Restart/iteration limits for the stochastic searches; both are
    integers >= 1, anything else raises `ValidationError`."""

    restarts: int
    iterations: int

    def __post_init__(self):
        for name in ("restarts", "iterations"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")

    def scaled(self, factor: float) -> "SearchBudget":
        return SearchBudget(
            restarts=max(1, int(round(self.restarts * factor))),
            iterations=max(1, int(round(self.iterations * factor))),
        )


# ---------------------------------------------------------------------------
# spectral split of antisymmetric matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectralPair:
    """Top spectral data of a rank-2 antisymmetric matrix C.

    C equals (i*lambda_magnitude) * (u0 u0* - u1 u1*); u0 belongs to the
    +i*lambda eigenvalue of C (equivalently the -lambda eigenvalue of the
    Hermitian matrix iC) and u1 to the opposite one.
    """

    lambda_magnitude: float
    u0: np.ndarray
    u1: np.ndarray

    def reconstruction_error(self, c: np.ndarray) -> float:
        lam = 1j * self.lambda_magnitude
        rec = lam * (np.outer(self.u0, np.conj(self.u0)) - np.outer(self.u1, np.conj(self.u1)))
        return float(np.max(np.abs(rec - np.asarray(c, dtype=complex))))


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate `vec` so that its first entry of (near-)largest modulus is real
    and positive.  Moduli within a relative 1e-9 of the maximum count as tied,
    so last-bit rounding cannot move the pivot between entries of equal size."""
    mags = np.abs(vec)
    top = mags.max()
    if top == 0.0:
        return vec
    pivot = vec[int(np.argmax(mags >= top * (1 - 1e-9)))]
    return vec * (np.conj(pivot) / abs(pivot))


def antisym_spectral(c) -> SpectralPair:
    """Spectral split of a `ScaledAntisymmetric` whose base has rank 2.

    The rank is the exact :attr:`ScaledAntisymmetric.base_rank`, and any
    other rank raises `UnsupportedRankError`.  Diagonalizes the Hermitian
    matrix iC with LAPACK (`np.linalg.eigh`) and checks that exactly two
    eigenvalues are significant.
    """
    if c.base_rank != 2:
        raise UnsupportedRankError("spectral split needs exact rank 2")
    # eigh returns the eigenvalues of iC in ascending order
    eigvals, vecs = np.linalg.eigh(1j * c.to_float())
    lam = 0.5 * (eigvals[-1] - eigvals[0])
    if lam <= 0.0:
        raise UnsupportedRankError("matrix has no nonzero spectrum")
    significant = int(np.sum(np.abs(eigvals) > 1e-9 * max(1.0, lam)))
    if significant != 2:
        raise UnsupportedRankError(f"spectral split needs numeric rank 2, saw {significant}")
    u0 = _fix_phase(vecs[:, 0])
    u1 = _fix_phase(vecs[:, -1])
    return SpectralPair(lambda_magnitude=float(lam), u0=u0, u1=u1)


# ---------------------------------------------------------------------------
# nonnegative factorizations
# ---------------------------------------------------------------------------

def as_float_array(m) -> np.ndarray:
    """Float copy of an exact array: its `entries` shaped by its `dims`.  An
    entry past float range raises `OverflowError`."""
    return np.array(list(map(float, m.entries))).reshape(m.dims)


@dataclass(frozen=True, eq=False)
class NonnegFactorization:
    """Sum of r rank-1 terms, each a tuple of one vector per mode.

    Entries may be floats or exact rationals; negativity is *not* enforced at
    construction so that the verifier can report it as a failure mode.
    """

    dims: tuple[int, ...]
    terms: tuple[tuple[tuple, ...], ...]

    def __post_init__(self):
        if len(self.dims) < 2:
            raise DimensionError("need order >= 2")
        for term in self.terms:
            if len(term) != len(self.dims):
                raise DimensionError("each term needs one vector per mode")
            for vec, d in zip(term, self.dims):
                if len(vec) != d:
                    raise DimensionError("factor vector length does not match dims")

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def r(self) -> int:
        return len(self.terms)

    @cached_property
    def is_rational(self) -> bool:
        """True when every entry is an int or a Fraction; one pass per instance."""
        return is_exact(x for term in self.terms for vec in term for x in vec)

    def reproduces(self, target) -> bool:
        """True when the exact reconstruction of these rational factors
        equals the exact array ``target`` cell for cell (False when the dims
        differ).  Each factor vector is scaled to ints by the lcm of its
        denominators, so a term is an integer outer product over the product
        of its scales; the terms are added as ints over den, the lcm of those
        products.  A target cell p/q (lowest terms) equals the cell's sum
        x/den exactly when q divides den and p * (den / q) == x, so no cell
        becomes a Fraction.
        """
        if target.dims != self.dims:
            return False
        if not self.is_rational:
            raise ValidationError("exact reconstruction needs rational factors")
        strides = [math.prod(self.dims[m + 1 :]) for m in range(self.order)]
        scales = [[math.lcm(*(x.denominator for x in vec)) for vec in term] for term in self.terms]
        den = math.lcm(*map(math.prod, scales))
        flat = [0] * math.prod(self.dims)
        for term, sc in zip(self.terms, scales):
            # the first vector also carries the lift from this term's scales to den
            sc[0] *= den // math.prod(sc)
            # zero entries add nothing, so walk only the support: unit and
            # singleton factorizations then cost one product per nonzero cell
            support = [
                [(i * stride, x.numerator * (k // x.denominator)) for i, x in enumerate(vec) if x]
                for vec, k, stride in zip(term, sc, strides)
            ]
            for cell in product(*support):
                offsets, factors = zip(*cell)
                flat[sum(offsets)] += math.prod(factors)
        return all(
            den % e.denominator == 0 and e.numerator * (den // e.denominator) == x
            for e, x in zip(target.entries, flat)
        )


def _hals_sweeps(v: np.ndarray, w: np.ndarray, h: np.ndarray, sweeps: int) -> None:
    """Columnwise nonnegative coordinate descent (HALS), floor-clipped in place.

    Each column update is the exact nonnegative minimizer of the Frobenius
    objective with everything else fixed, so iterates stay nonnegative and the
    objective never increases.  An update of row h_k (column w_k likewise) is
    max((g_k - gram_k @ h + gram_kk * h_k) / max(gram_kk, floor), floor),
    evaluated in that order into scratch buffers.
    """
    r = w.shape[1]
    h_rows = list(h)
    w_cols = [w[:, k] for k in range(r)]
    num_h, term_h = np.empty(h.shape[1]), np.empty(h.shape[1])
    num_w, term_w = np.empty(w.shape[0]), np.empty(w.shape[0])
    for _ in range(sweeps):
        wtv = w.T @ v
        wtw = w.T @ w
        diag = wtw.diagonal().tolist()
        den = [max(d, _FLOOR) for d in diag]
        for k, hk in enumerate(h_rows):
            np.matmul(wtw[k], h, out=num_h)
            np.subtract(wtv[k], num_h, out=num_h)
            np.add(num_h, np.multiply(diag[k], hk, out=term_h), out=num_h)
            np.divide(num_h, den[k], out=num_h)
            np.maximum(num_h, _FLOOR, out=hk)
        vht = v @ h.T
        hht = h @ h.T
        diag = hht.diagonal().tolist()
        den = [max(d, _FLOOR) for d in diag]
        for k, wk in enumerate(w_cols):
            np.matmul(w, hht[:, k], out=num_w)
            np.subtract(vht[:, k], num_w, out=num_w)
            np.add(num_w, np.multiply(diag[k], wk, out=term_w), out=num_w)
            np.divide(num_w, den[k], out=num_w)
            np.maximum(num_w, _FLOOR, out=wk)


def _max_rel_err(v: np.ndarray, w: np.ndarray, h: np.ndarray) -> float:
    """max|V - WH| / max|V| for a V whose largest entry is 1."""
    return float(np.max(np.abs(v - w @ h)))


def _dot(a, b):
    return sum(map(mul, a, b))


def _primitive(v, sign: int) -> tuple[int, ...]:
    """The nonzero int vector ``v`` divided by the gcd of its entries, with
    its sign flipped when ``sign`` is negative: the one integer homogeneous
    representative of its ray (of the opposite ray when ``sign < 0``)."""
    g = math.gcd(*v) if sign > 0 else -math.gcd(*v)
    return tuple(x // g for x in v)


@dataclass(frozen=True, eq=False)
class _Columns:
    """The columns of a matrix as integer homogeneous points of one plane
    (``_column_points``): ``rows`` and ``last_pivot`` are the integer
    reduced rows R and last pivot L of ``reduced_rows``, ``basis`` the rows
    of B = m[:, pivots], ``s`` = 1^T B times ``s_den``, the lcm of its
    denominators, and ``points`` maps each point to the first column on it,
    in column order."""

    rows: list[list[int]]
    last_pivot: int
    basis: list[tuple]
    s: list[int]
    s_den: int
    points: dict[tuple[int, ...], int]


def _column_points(m: RatMatrix) -> _Columns:
    """The columns of ``m`` as points of one plane, read by both exact stages.

    Column j of m is B c_j with c_j = R_j / L (R_j is column j of R), and
    when it is nonzero it is the point c_j / (s.c_j) of the plane s.y = 1
    (s.c_j is the sum of column j, up to the positive scale of s).  That
    point is kept as the int vector P = R_j divided by the gcd of its
    entries, signed so that s.P > 0: the point is P / (s.P), and equal
    points have equal P.  No Fraction is built.
    """
    pivots, rows, last = reduced_rows(m)
    basis = [tuple(row[j] for j in pivots) for row in m.iter_rows()]
    [s_den], [s] = _integer_rows([[sum(col) for col in zip(*basis)]])
    points: dict[tuple[int, ...], int] = {}
    for j, col in enumerate(zip(*rows)):
        if w := _dot(s, col):
            points.setdefault(_primitive(col, w), j)
    return _Columns(rows, last, basis, s, s_den, points)


def _lex_order(s):
    """A key that orders integer homogeneous points p (s.p > 0) as their
    points p / (s.p) compare lexicographically, by cross-multiplying."""

    def compare(p, q):
        wp, wq = _dot(s, p), _dot(s, q)
        a, b = [x * wq for x in p], [y * wp for y in q]
        return (a > b) - (a < b)

    return cmp_to_key(compare)


def _pick_generators(columns: _Columns, r: int) -> tuple[int, ...]:
    """The sorted columns of r of the points of ``columns`` (from
    ``_column_points``) that span a simplex holding every point, when r such
    points exist.

    At r <= 2 the points lie on one line, and the pick is its two ends (one
    point at r = 1), read exactly.  Past that it is successive projection in
    floats (Gillis and Vavasis 2014): each coordinate is first divided by its
    largest magnitude, by one int true division each (correctly rounded, as
    a Fraction's float is), a linear map that keeps the simplex's vertices
    its vertices and keeps the norms from underflowing; then r times, the
    point of largest norm (the first on ties) is picked and projected out of
    all of them, so each pick is a vertex."""
    points, s = columns.points, columns.s
    if r <= 2:
        key = _lex_order(s)
        return tuple(sorted({points[min(points, key=key)], points[max(points, key=key)]}))
    weights = {p: _dot(s, p) for p in points}
    # each axis's largest magnitude |x| / (s.p), as the pair (|x|, s.p)
    scale = []
    for axis in range(len(s)):
        top, w_top = 0, 1
        for p, w in weights.items():
            if abs(p[axis]) * w_top > top * w:
                top, w_top = abs(p[axis]), w
        scale.append((top, w_top))
    pts = np.array(
        [[x * w_top / (w * top) for x, (top, w_top) in zip(p, scale)] for p, w in weights.items()]
    )
    cols = list(points.values())
    picked = []
    for _ in range(r):
        norms = np.einsum("ij,ij->i", pts, pts)
        k = int(np.argmax(norms))
        if not norms[k]:
            break
        picked.append(cols[k])
        pts -= np.outer(pts @ pts[k], pts[k] / norms[k])
    return tuple(sorted(picked))


def _separable_factorization(m: RatMatrix, r: int, columns: _Columns) -> NonnegFactorization | None:
    """An exact r-term nonnegative factorization of ``m`` read off r of its
    columns, or else r of its rows, whose cone holds all the others; None
    when rank(m) != r or neither side has such r lines.

    With S the columns and H their coordinates, m = m[:, S] @ H; on the row
    side, m = H^T @ m[S, :].  At rank <= 2 the two extreme columns always
    qualify (Cohen and Rothblum 1993); in general these are the separable
    matrices of Arora, Ge, Kannan and Moitra (2012).  At r = rank their cone
    is simplicial, so S is unique; a side's pick (`_pick_generators`) is
    confirmed by one exact elimination of that side that scans the pick
    first (on the side itself, not on its r-row coordinate matrix, whose
    long entries eliminate more slowly): its integer reduced rows are H
    times its last pivot, so H >= 0 is read off their signs, and H is built
    in Fractions only for the witness returned.  ``columns`` is
    ``_column_points(m)``.
    """
    mt = m.transpose()
    for side, lines, transposed in ((m, mt, False), (mt, m, True)):
        points = _column_points(side) if transposed else columns
        if len(points.rows) != r:
            return None
        chosen = _pick_generators(points, r)
        pivots, rows, last = reduced_rows(side, first=chosen)
        # H = rows / last >= 0: every nonzero entry has the sign of last
        if pivots == chosen and {x > 0 for row in rows for x in row if x} <= {last > 0}:
            h = [tuple(as_exact(Fraction(x, last)) for x in row) for row in rows]
            terms = [(lines.row(j), row) for j, row in zip(chosen, h)]
            if transposed:
                terms = [(w, line) for line, w in terms]
            return NonnegFactorization(dims=m.dims, terms=tuple(terms))
    return None


def _det3(a, b, c):
    """det[a b c]: for points on a plane s.y = 1 with s > 0, or integer
    homogeneous points p with s.p > 0, it is positive exactly when a, b, c
    turn left (counterclockwise)."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _wrap(x, points, s):
    """The point v != x of ``points`` with none of them right of x -> v (the
    farthest such on ties); x must be a vertex of their hull or outside it.
    The points are integer homogeneous (s.p > 0), and distances are compared
    by cross-multiplying."""
    wx = _dot(s, x)

    def reach(p):
        """|p / (s.p) - x / (s.x)|^2 times (s.x)^2, as (numerator, denominator)."""
        wp = _dot(s, p)
        return sum((y * wx - z * wp) ** 2 for y, z in zip(p, x)), wp * wp

    def farther(c, v):
        (nc, dc), (nv, dv) = reach(c), reach(v)
        return nc * dv > nv * dc

    v = None
    for c in points:
        if c == x:
            continue
        if v is None or (turn := _det3(x, v, c)) < 0 or turn == 0 and farther(c, v):
            v = c
    return v


def _triangle_factorization(m: RatMatrix, columns: _Columns) -> NonnegFactorization | None:
    """An exact 3-term nonnegative factorization of a rank-3 ``m`` from a
    triangle nested between its columns and the nonnegative orthant, or None.

    With B the basis columns m[:, pivots] and s = 1^T B, column j of m is
    B c_j and becomes the point c_j / (s.c_j) of the plane s.y = 1
    (``columns`` is ``_column_points(m)``).  A 3-term factorization of m is
    a triangle T with P <= T <= Q, where P is the hull of those points and
    Q = {y : s.y = 1, B y >= 0} (Gillis and Glineur 2012), and then W = B T
    and H = T^-1 @ coords.  A walk from a point of Q's boundary runs along
    the tangent to P that keeps P on its left, to where it leaves Q, and
    does so once more (Aggarwal, Booth, O'Rourke, Suri and Yap 1989); its
    three points are such a triangle when P also lies left of the closing
    side.  The walks start where the line of an edge of P leaves Q behind
    the edge, and then at the corners of Q, which catch triangles pinned by
    columns on Q's boundary.  None when the rank is not 3 or no walk
    closes, which proves nothing about mr(m).

    Every point is an integer homogeneous one, a primitive int vector p
    with s.p > 0 standing for p / (s.p), so the geometry runs on ints: the
    least point and the ties of the wrap are cross-multiplied, and each
    entry of W and H is one Fraction.
    """
    if len(columns.rows) != 3:
        return None
    s, points = columns.s, columns.points
    # Q's edge lines, each scaled to ints
    sides = _integer_rows([row for row in dict.fromkeys(columns.basis) if any(row)])[1]
    # gift wrapping from the least point, a vertex of P since s > 0
    hull = [min(points, key=_lex_order(s))]
    while (v := _wrap(hull[-1], points, s)) != hull[0]:
        hull.append(v)

    def leave(p, q):
        """The point where the ray from p through q leaves Q: with the
        direction D = q (s.p) - p (s.q) and the first side row to reach 0,
        it is p (-row.D) + (row.p) D, divided by the gcd of its entries."""
        wp, wq = _dot(s, p), _dot(s, q)
        d = [y * wp - x * wq for x, y in zip(p, q)]
        best = None
        for row in sides:
            if (rd := _dot(row, d)) < 0:
                rp = _dot(row, p)
                if best is None or rp * best[1] > best[0] * rd:  # rp / -rd is smaller
                    best = (rp, rd)
        rp, rd = best
        return _primitive([-rd * x + rp * y for x, y in zip(p, d)], 1)

    def walk(t0):
        t1 = leave(t0, _wrap(t0, hull, s))
        t2 = leave(t1, _wrap(t1, hull, s))
        return (t0, t1, t2) if all(_det3(t2, t0, p) >= 0 for p in hull) else None

    def corners():
        for r1, r2 in combinations(sides, 2):
            # r1 x r2 spans the line where both sides are 0
            c = (
                r1[1] * r2[2] - r1[2] * r2[1],
                r1[2] * r2[0] - r1[0] * r2[2],
                r1[0] * r2[1] - r1[1] * r2[0],
            )
            w = _dot(s, c)
            if w and all(_dot(row, c) * w >= 0 for row in sides):
                yield _primitive(c, w)

    flush = (leave(b, a) for a, b in zip(hull, hull[1:] + hull[:1]))
    tri = next(filter(None, map(walk, chain(flush, corners()))), None)
    if tri is None:
        return None
    t0, t1, t2 = tri
    w0, w1, w2 = (_dot(s, t) for t in tri)
    # Cramer's rule: column j of H solves T h = c_j, with c_j = R_j / L and
    # column k of T the point t_k * s_den / (s.t_k) of the plane 1^T B y = 1
    den = columns.s_den * columns.last_pivot * _det3(t0, t1, t2)
    cols = list(zip(*columns.rows))
    h = (
        tuple(Fraction(_det3(c, t1, t2) * w0, den) for c in cols),
        tuple(Fraction(_det3(t0, c, t2) * w1, den) for c in cols),
        tuple(Fraction(_det3(t0, t1, c) * w2, den) for c in cols),
    )
    # W = B T
    scaled = list(zip(*_integer_rows(columns.basis)))
    terms = tuple(
        (tuple(Fraction(_dot(row, t) * columns.s_den, d * w) for d, row in scaled), hk)
        for t, w, hk in zip(tri, (w0, w1, w2), h)
    )
    return NonnegFactorization(dims=m.dims, terms=terms)


# W scaled back to M's scale may pass float range, and the result is then None
@np.errstate(over="ignore")
def nmf_search(m: RatMatrix, r: int, budget: SearchBudget) -> NonnegFactorization | None:
    """Search for an r-term nonnegative factorization of a nonnegative
    `RatMatrix`; any other input raises `ValidationError`.

    At r = rank, exact stages run first: when r of its columns, or else r
    of its rows, generate a cone holding all the others (such lines always
    exist at rank <= 2), the result is that rational factorization,
    M = M[:, S] @ H (or H^T @ M[S, :]) with H >= 0.  S is the two extreme
    columns at rank <= 2 and is otherwise picked by successive projection
    in floats, with no cap; each side's pick is confirmed by one exact
    elimination.  At r = rank = 3 with no such lines, a greedy walk looks
    for a triangle nested between the same normalized columns and the
    nonnegative orthant (`_triangle_factorization`) and lifts it to a
    rational 3-term factorization.  Neither stage draws random numbers.
    Every input they do not settle (rank >= 4, r != rank, or a walk that
    does not close) gets the float search below on a float copy of M, built
    only then and divided by its largest entry (W is multiplied back by it),
    so the search is the same at every scale of M; with an entry past float
    range, every entry underflowing to 0, or a W past it once multiplied
    back, the result is None.

    Each restart of the float search runs floor-clipped HALS sweeps, whose
    success metric is the relative max-norm error max|M - WH| / max|M| <=
    `_NMF_TOL`, in three perturb-and-retry rounds seeded by `_NMF_SEED`.
    A round runs at most `budget.iterations` sweeps, checked every 25: it
    ends at the tol, and also when 25 sweeps lower the error by less than
    1 % (`_STALL_RATIO`).  The search stops at the first round that reaches
    the tol.  A search that never reaches it does `budget.restarts * 3`
    rounds and returns None, which is *not* evidence that no such
    factorization exists; otherwise the result is the factorization of the
    first round that reaches it, with each H row scaled to a largest entry
    of 1 and its W column by the same factor.
    """
    if not isinstance(m, RatMatrix):
        raise ValidationError(f"nmf_search takes a RatMatrix, got {type(m).__name__}")
    if any(e < 0 for e in m.entries):
        raise ValidationError("matrix must be nonnegative")
    if r < 1:
        raise ValidationError("rank target must be >= 1")
    if not any(m.entries):
        return NonnegFactorization(dims=m.dims, terms=())
    columns = _column_points(m)
    exact = _separable_factorization(m, r, columns)
    if exact is None and r == 3:
        exact = _triangle_factorization(m, columns)
    if exact is not None:
        return exact
    try:
        v = as_float_array(m)
    except OverflowError:
        return None  # an entry past float range
    vmax = float(np.max(v))
    if not vmax:
        return None  # every entry underflowed to 0
    v /= vmax  # the search runs at a largest entry of 1, at every scale of M
    tol = _NMF_TOL
    rng = np.random.default_rng(_NMF_SEED)
    nrow, ncol = v.shape
    init_scale = math.sqrt(float(np.mean(v)) / r)
    for _ in range(budget.restarts):
        w = rng.uniform(0.1, 1.0, size=(nrow, r)) * init_scale
        h = rng.uniform(0.1, 1.0, size=(r, ncol)) * init_scale
        for _ in range(3):  # perturb-and-retry rounds
            # the round's sweeps in chunks, checked against tol and the
            # stall rule after each
            left, err = budget.iterations, math.inf
            while True:
                chunk = min(_SWEEP_CHUNK, left)
                _hals_sweeps(v, w, h, chunk)
                left -= chunk
                err, last = _max_rel_err(v, w, h), err
                if err <= tol or left <= 0 or err > last * _STALL_RATIO:
                    break
            if err <= tol:
                break
            w *= rng.uniform(0.7, 1.3, size=w.shape)
            h *= rng.uniform(0.7, 1.3, size=h.shape)
        if err <= tol:
            break
    if not err <= tol:
        return None
    # each H row to a largest entry of 1 (HALS floors every entry at
    # _FLOOR), so W multiplied back stays near M's largest entry
    peaks = h.max(axis=1)
    h = h / peaks[:, None]
    w = w * peaks * vmax
    if not np.isfinite(w).all():
        return None
    terms = tuple(zip(map(tuple, w.T.tolist()), map(tuple, h.tolist())))
    return NonnegFactorization(dims=m.dims, terms=terms)


@dataclass(frozen=True)
class FactorizationCheck:
    passed: bool
    reason: str | None = None


def verify_nonneg_factorization(target, fact: NonnegFactorization) -> FactorizationCheck:
    """Check exactly that `fact` is a nonnegative factorization of `target`.

    `target` is an exact array (a `RatMatrix` or a `DenseTensor`).  The check
    passes only when every factor entry is an int or a Fraction, none is
    negative, and `fact.reproduces(target)`; otherwise
    `reason` is the first failure, in that order: "not rational",
    "negativity" or "error".
    """
    if target.dims != fact.dims:
        raise DimensionError(f"target dims {target.dims} do not match factorization dims {fact.dims}")
    if not fact.is_rational:
        return FactorizationCheck(passed=False, reason="not rational")
    if any(x.numerator < 0 for term in fact.terms for vec in term for x in vec):
        return FactorizationCheck(passed=False, reason="negativity")
    if not fact.reproduces(target):
        return FactorizationCheck(passed=False, reason="error")
    return FactorizationCheck(passed=True)


# ---------------------------------------------------------------------------
# tensor fitting by alternating least squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CpDecomposition:
    dims: tuple[int, ...]
    terms: tuple[tuple[tuple[float, ...], ...], ...]
    residual: float

    @property
    def r(self) -> int:
        return len(self.terms)

def _khatri_rao(factors: list[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for a in factors[1:]:
        out = (out[:, None, :] * a[None, :, :]).reshape(-1, out.shape[1])
    return out


def cp_als(
    t,
    r: int,
    iters: int = 400,
    seed: int = DEFAULT_SEED,
    restarts: int = 8,
) -> CpDecomposition:
    """Alternating-least-squares fit of an order>=3 tensor by r rank-1 terms.

    Factors are unconstrained in sign.  Runs `restarts` seeded starts for
    `iters` sweeps each and returns the decomposition with the lowest
    Frobenius residual (ties broken by restart index).
    """
    arr = as_float_array(t)
    if arr.ndim < 3:
        raise ValidationError("cp_als needs order >= 3; use the matrix path instead")
    if any(d > 16 for d in arr.shape):
        raise ValidationError("cp_als supports mode sizes up to 16")
    if r < 1:
        raise ValidationError("rank target must be >= 1")
    dims = arr.shape
    order = arr.ndim
    unfolds = [np.moveaxis(arr, m, 0).reshape(dims[m], -1) for m in range(order)]
    scale = float(np.max(np.abs(arr))) or 1.0
    rng = np.random.default_rng(seed)
    best: tuple[float, int, list[np.ndarray]] | None = None
    for restart in range(restarts):
        factors = [rng.uniform(-1.0, 1.0, size=(d, r)) * scale ** (1.0 / order) for d in dims]
        for _ in range(iters):
            for m in range(order):
                others = [factors[j] for j in range(order) if j != m]
                kr = _khatri_rao(others)
                gram = np.ones((r, r))
                for a in others:
                    gram *= a.T @ a
                rhs = unfolds[m] @ kr
                try:
                    sol = np.linalg.solve(gram + 1e-12 * np.eye(r), rhs.T)
                except np.linalg.LinAlgError:
                    sol = np.linalg.lstsq(gram, rhs.T, rcond=None)[0]
                factors[m] = sol.T
        full = _khatri_rao([factors[j] for j in range(1, order)])
        resid = float(np.linalg.norm(unfolds[0] - factors[0] @ full.T))
        if best is None or resid < best[0]:
            best = (resid, restart, [f.copy() for f in factors])
    assert best is not None
    terms = tuple(
        tuple(tuple(float(x) for x in f[:, i]) for f in best[2]) for i in range(r)
    )
    return CpDecomposition(dims=tuple(dims), terms=terms, residual=best[0])
