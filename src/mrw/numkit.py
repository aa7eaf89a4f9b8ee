"""Seeded, budgeted floating-point numerics.

Three tools live here: an iterative rotation (Jacobi) eigensolver specialized
to the Hermitian matrices arising from antisymmetric input, a nonnegative
factorization search driven by multiplicative updates with random restarts,
and an alternating-least-squares tensor fitter.  Searches are deterministic
given (input, seed, budget): restarts are ranked by (residual, restart index)
so the outcome never depends on execution order.  A successful search is a
witness, never a proof of optimality; failure after budget exhaustion proves
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dtensor import DenseTensor, _iter_indices
from .errors import DimensionError, UnsupportedRankError, ValidationError
from .ratlinalg import RatMatrix, rank_exact

DEFAULT_SEED = 1729

_FLOOR = 1e-12


@dataclass(frozen=True)
class SearchBudget:
    """Restart/iteration limits for the stochastic searches."""

    restarts: int
    iterations: int

    def scaled(self, factor: float) -> "SearchBudget":
        return SearchBudget(
            restarts=max(1, int(round(self.restarts * factor))),
            iterations=max(1, int(round(self.iterations * factor))),
        )


DEFAULT_NMF_BUDGET = SearchBudget(restarts=16, iterations=3000)
DEFAULT_CP_BUDGET = SearchBudget(restarts=8, iterations=400)


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

    def reconstruct(self) -> np.ndarray:
        lam = 1j * self.lambda_magnitude
        return lam * (np.outer(self.u0, np.conj(self.u0)) - np.outer(self.u1, np.conj(self.u1)))

    def reconstruction_error(self, c: np.ndarray) -> float:
        return float(np.max(np.abs(self.reconstruct() - np.asarray(c, dtype=complex))))


def hermitian_jacobi(h: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Diagonalize a Hermitian matrix by cyclic complex Jacobi rotations.

    Sweeps run in fixed row-major order over the strict upper triangle, so the
    result is deterministic.  Stops once every off-diagonal magnitude is at
    most tol * max(1, largest initial magnitude).

    Returns (eigenvalues, V) with V's columns the eigenvectors (unordered).
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionError("jacobi needs a square matrix")
    if n == 1:
        return np.array([a[0, 0].real]), np.eye(1, dtype=complex)
    threshold = tol * max(1.0, float(np.max(np.abs(a))))
    v = np.eye(n, dtype=complex)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag <= threshold:
                    continue
                off = max(off, mag)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                sigma = (t * c) * (apq / mag)
                # column rotation: H <- H U with U the (p,q) plane rotation
                col_p = a[:, p].copy()
                a[:, p] = c * col_p - np.conj(sigma) * a[:, q]
                a[:, q] = sigma * col_p + c * a[:, q]
                # row rotation: H <- U^H H
                row_p = a[p, :].copy()
                a[p, :] = c * row_p - sigma * a[q, :]
                a[q, :] = np.conj(sigma) * row_p + c * a[q, :]
                vcol_p = v[:, p].copy()
                v[:, p] = c * vcol_p - np.conj(sigma) * v[:, q]
                v[:, q] = sigma * vcol_p + c * v[:, q]
        if off <= threshold:
            break
    else:
        raise ValidationError("jacobi rotations failed to converge")
    return np.real(np.diag(a)), v


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    pivot = vec[k]
    if abs(pivot) == 0.0:
        return vec
    return vec * (np.conj(pivot) / abs(pivot))


def antisym_spectral(c, tol: float = 1e-12) -> SpectralPair:
    """Spectral split of an antisymmetric rank-2 matrix.

    Accepts an exact `RatMatrix`, a `ScaledAntisymmetric`, or a float array.
    Exact inputs are validated exactly (antisymmetry and rank 2); float input
    is validated numerically.  Diagonalizes iC by Jacobi rotations to `tol`.
    """
    from .constructions import ScaledAntisymmetric

    if isinstance(c, RatMatrix):
        if not c.is_antisymmetric():
            raise ValidationError("matrix is not antisymmetric")
        if rank_exact(c) != 2:
            raise UnsupportedRankError("spectral split needs exact rank 2")
        cf = np.array(c.to_float_rows(), dtype=float)
    elif isinstance(c, ScaledAntisymmetric):
        if rank_exact(c.base) != 2:
            raise UnsupportedRankError("spectral split needs exact rank 2")
        cf = c.to_float()
    else:
        cf = np.asarray(c, dtype=float)
        if cf.ndim != 2 or cf.shape[0] != cf.shape[1]:
            raise DimensionError("expected a square matrix")
        scale = max(1.0, float(np.max(np.abs(cf))))
        if float(np.max(np.abs(cf + cf.T))) > 1e-9 * scale:
            raise ValidationError("matrix is not antisymmetric")

    eigvals, vecs = hermitian_jacobi(1j * cf, tol=tol)
    i_min = int(np.argmin(eigvals))
    i_max = int(np.argmax(eigvals))
    lam = 0.5 * (eigvals[i_max] - eigvals[i_min])
    if lam <= 0.0:
        raise UnsupportedRankError("matrix has no nonzero spectrum")
    significant = int(np.sum(np.abs(eigvals) > 1e-9 * max(1.0, lam)))
    if significant != 2:
        raise UnsupportedRankError(f"spectral split needs numeric rank 2, saw {significant}")
    u0 = _fix_phase(vecs[:, i_min])
    u1 = _fix_phase(vecs[:, i_max])
    return SpectralPair(lambda_magnitude=float(lam), u0=u0, u1=u1)


# ---------------------------------------------------------------------------
# nonnegative factorizations
# ---------------------------------------------------------------------------

def _as_float_array(m) -> np.ndarray:
    if isinstance(m, RatMatrix):
        return np.array(m.to_float_rows(), dtype=float)
    if isinstance(m, DenseTensor):
        return m.to_numpy()
    return np.asarray(m, dtype=float)


def _rank1_sum(dims: tuple[int, ...], terms) -> np.ndarray:
    """Float sum of the outer products of each term's per-mode vectors."""
    out = np.zeros(dims, dtype=float)
    for term in terms:
        block = np.array([float(x) for x in term[0]], dtype=float)
        for vec in term[1:]:
            block = np.multiply.outer(block, np.array([float(x) for x in vec]))
        out += block
    return out


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

    def is_rational(self) -> bool:
        return all(
            isinstance(x, (int, Fraction)) and not isinstance(x, bool)
            for term in self.terms
            for vec in term
            for x in vec
        )

    def has_negative_entry(self) -> bool:
        return any(x < 0 for term in self.terms for vec in term for x in vec)

    def reconstruct_float(self) -> np.ndarray:
        return _rank1_sum(self.dims, self.terms)

    def reconstruct_exact(self):
        """Exact reconstruction; RatMatrix for order 2, DenseTensor otherwise."""
        if not self.is_rational():
            raise ValidationError("exact reconstruction needs rational factors")
        values = {}

        def accumulate(prefix: tuple[int, ...], weight: Fraction, mode: int, term):
            if mode == self.order:
                values[prefix] = values.get(prefix, Fraction(0)) + weight
                return
            for i, x in enumerate(term[mode]):
                accumulate(prefix + (i,), weight * Fraction(x), mode + 1, term)

        for term in self.terms:
            accumulate((), Fraction(1), 0, term)
        flat = [values.get(idx, Fraction(0)) for idx in _iter_indices(self.dims)]
        if self.order == 2:
            return RatMatrix(self.dims[0], self.dims[1], flat)
        return DenseTensor(self.dims, flat)


def from_matrix_factors(w: np.ndarray, h: np.ndarray) -> NonnegFactorization:
    terms = tuple(
        (tuple(float(x) for x in w[:, i]), tuple(float(x) for x in h[i, :]))
        for i in range(w.shape[1])
    )
    return NonnegFactorization(dims=(w.shape[0], h.shape[1]), terms=terms)


def _hals_sweeps(v: np.ndarray, w: np.ndarray, h: np.ndarray, sweeps: int) -> None:
    """Columnwise nonnegative coordinate descent (HALS), floor-clipped in place.

    Each column update is the exact nonnegative minimizer of the Frobenius
    objective with everything else fixed, so iterates stay nonnegative and the
    objective never increases.
    """
    r = w.shape[1]
    for _ in range(sweeps):
        wtv = w.T @ v
        wtw = w.T @ w
        for k in range(r):
            num = wtv[k] - wtw[k] @ h + wtw[k, k] * h[k]
            h[k] = np.maximum(num / max(wtw[k, k], _FLOOR), _FLOOR)
        vht = v @ h.T
        hht = h @ h.T
        for k in range(r):
            num = vht[:, k] - w @ hht[:, k] + hht[k, k] * w[:, k]
            w[:, k] = np.maximum(num / max(hht[k, k], _FLOOR), _FLOOR)


def _chebyshev_refit(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Minimize max|b - a @ x| over x >= 0, jointly for all columns of b.

    One linear program with a shared epsilon variable: columns decouple, so
    the shared optimum equals the worst columnwise optimum.  Returns the
    stacked solution (r x ncols), or None if the solver fails.
    """
    from scipy.optimize import linprog
    from scipy.sparse import block_diag, csr_matrix, hstack, vstack

    m, r = a.shape
    ncols = b.shape[1]
    blocks = block_diag([csr_matrix(a)] * ncols, format="csr")
    eps_col = csr_matrix(np.ones((m * ncols, 1)))
    upper = hstack([blocks, -eps_col], format="csr")
    lower = hstack([-blocks, -eps_col], format="csr")
    a_ub = vstack([upper, lower], format="csr")
    rhs = b.T.ravel()
    b_ub = np.concatenate([rhs, -rhs])
    cost = np.zeros(r * ncols + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not res.success:
        return None
    return np.maximum(res.x[: r * ncols].reshape(ncols, r).T, 0.0)


def _max_rel_err(v: np.ndarray, w: np.ndarray, h: np.ndarray, vmax: float) -> float:
    return float(np.max(np.abs(v - w @ h))) / vmax


def nmf_search(
    m,
    r: int,
    budget: SearchBudget | None = None,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-6,
) -> NonnegFactorization | None:
    """Search for an r-term nonnegative factorization of a nonnegative matrix.

    Each restart runs floor-clipped HALS sweeps (`budget.iterations` per
    round) and then polishes with alternating Chebyshev linear-program refits,
    which directly attack the success metric: relative max-norm error
    max|M - WH| / max|M| <= tol.  Three perturb-and-retry rounds run per
    restart.  The result is the factorization of the lowest-index restart that
    reaches tol (deterministic and independent of any parallel completion
    order); if none succeeds the search returns None, which is *not* evidence
    that no such factorization exists.
    """
    if isinstance(m, RatMatrix):
        if any(e < 0 for e in m.entries):
            raise ValidationError("matrix must be nonnegative")
    v = _as_float_array(m)
    if v.ndim != 2:
        raise DimensionError("nmf_search expects a matrix")
    if np.any(v < 0):
        raise ValidationError("matrix must be nonnegative")
    if r < 1:
        raise ValidationError("rank target must be >= 1")
    budget = budget or DEFAULT_NMF_BUDGET
    vmax = float(np.max(v))
    if vmax == 0.0:
        return NonnegFactorization(dims=v.shape, terms=())
    rng = np.random.default_rng(seed)
    nrow, ncol = v.shape
    init_scale = math.sqrt(float(np.mean(v)) / r)
    rounds = 3
    best: tuple[float, int, np.ndarray, np.ndarray] | None = None
    for restart in range(budget.restarts):
        w = rng.uniform(0.1, 1.0, size=(nrow, r)) * init_scale
        h = rng.uniform(0.1, 1.0, size=(r, ncol)) * init_scale
        for _ in range(rounds):
            _hals_sweeps(v, w, h, budget.iterations)
            err = _max_rel_err(v, w, h, vmax)
            if best is None or err < best[0]:
                best = (err, restart, w.copy(), h.copy())
            # alternating minimax polish; monotone in the max-norm error
            for _ in range(20):
                h_new = _chebyshev_refit(w, v)
                if h_new is None:
                    break
                h = h_new
                w_new = _chebyshev_refit(h.T, v.T)
                if w_new is None:
                    break
                w = w_new.T
                err_new = _max_rel_err(v, w, h, vmax)
                if err_new < best[0]:
                    best = (err_new, restart, w.copy(), h.copy())
                if err_new >= err - 1e-12:
                    err = min(err, err_new)
                    break
                err = err_new
            if best[0] <= tol:
                break
            w *= rng.uniform(0.7, 1.3, size=w.shape)
            h *= rng.uniform(0.7, 1.3, size=h.shape)
        if best is not None and best[0] <= tol:
            break
    assert best is not None
    if best[0] > tol:
        return None
    return from_matrix_factors(best[2], best[3])


@dataclass(frozen=True)
class FactorizationCheck:
    max_abs_error: float | Fraction
    passed: bool
    reason: str | None = None


def verify_nonneg_factorization(target, fact: NonnegFactorization, tol) -> FactorizationCheck:
    """Reconstruct `fact` and compare against `target`.

    The comparison is exact (Fraction arithmetic, including tol = 0) when both
    sides are rational, float otherwise.  Any negative factor entry fails the
    check with reason "negativity" regardless of the error.
    """
    if isinstance(target, RatMatrix):
        tdims: tuple[int, ...] = (target.rows, target.cols)
    elif isinstance(target, DenseTensor):
        tdims = target.dims
    else:
        tdims = tuple(np.asarray(target).shape)
    if tdims != fact.dims:
        raise DimensionError(f"target dims {tdims} do not match factorization dims {fact.dims}")

    exact_target = isinstance(target, RatMatrix) or (
        isinstance(target, DenseTensor) and target.is_exact()
    )
    if exact_target and fact.is_rational():
        rec = fact.reconstruct_exact()
        if isinstance(target, RatMatrix):
            diffs = [abs(a - b) for a, b in zip(rec.entries, target.entries)]
        else:
            diffs = [abs(Fraction(a) - Fraction(b)) for a, b in zip(rec.values, target.values)]
        err: float | Fraction = max(diffs, default=Fraction(0))
        within = err <= tol
    else:
        rec_f = fact.reconstruct_float()
        err = float(np.max(np.abs(rec_f - _as_float_array(target)))) if rec_f.size else 0.0
        within = err <= tol
    if fact.has_negative_entry():
        return FactorizationCheck(max_abs_error=err, passed=False, reason="negativity")
    return FactorizationCheck(max_abs_error=err, passed=within, reason=None if within else "error")


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

    def reconstruct(self) -> np.ndarray:
        return _rank1_sum(self.dims, self.terms)


def _khatri_rao(factors: list[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for a in factors[1:]:
        out = (out[:, None, :] * a[None, :, :]).reshape(-1, out.shape[1])
    return out


def cp_als(
    t,
    r: int,
    iters: int | None = None,
    seed: int = DEFAULT_SEED,
    restarts: int | None = None,
) -> CpDecomposition:
    """Alternating-least-squares fit of an order>=3 tensor by r rank-1 terms.

    Factors are unconstrained in sign.  Runs `restarts` seeded starts for
    `iters` sweeps each and returns the decomposition with the lowest
    Frobenius residual (ties broken by restart index).
    """
    arr = _as_float_array(t)
    if arr.ndim < 3:
        raise ValidationError("cp_als needs order >= 3; use the matrix path instead")
    if any(d > 16 for d in arr.shape):
        raise ValidationError("cp_als supports mode sizes up to 16")
    if r < 1:
        raise ValidationError("rank target must be >= 1")
    iters = iters if iters is not None else DEFAULT_CP_BUDGET.iterations
    restarts = restarts if restarts is not None else DEFAULT_CP_BUDGET.restarts
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
