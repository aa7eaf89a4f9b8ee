"""Application calculators built on the exact kernel and the bounds module.

Three families live here: per-level rank/monotone-lower profiles of the
degree-d coefficient flattenings (branching-program level sizes), hidden-
variable models that replay a joint distribution from a nonnegative
factorization (with seeded sampling), and deterministic two-party
communication complexity plus the multiparty separation report.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import box_cover_exact, support_pattern
from .constructions import (
    DivTensorSpec,
    FunctionFSpec,
    divisibility_tensor,
    flattening,
    offset_square_matrix,
    spaced_distance_block,
)
from .errors import CapacityError, DimensionError, ValidationError
from .numkit import DEFAULT_SEED, NonnegFactorization, verify_nonneg_factorization
from .ratlinalg import CAPACITY_LIMIT, RatMatrix, is_exact, rank_exact


# ---------------------------------------------------------------------------
# branching-program level profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbpLevel:
    level: int
    rank: int
    mr_lower: int
    mr_lower_certified: bool


@dataclass(frozen=True)
class AbpProfile:
    n: int
    d: int
    levels: tuple[AbpLevel, ...]
    total_size: int           # sum of exact level ranks
    total_monotone_lower: int  # sum of per-level monotone lower bounds
    rank_cap_ok: bool          # rank(level d/2 +- k) <= 3 + 4k
    mirror_ok: bool            # mirrored levels have equal rank
    step_inequality_ok: bool | None  # middle step: rk(M_{mid-1}) <= rk(M_mid) + rk(S)

    @property
    def separation_ratio(self) -> float:
        return self.total_monotone_lower / self.total_size


def abp_profile(n: int, d: int) -> AbpProfile:
    """Exact level ranks plus certified per-level monotone lower bounds.

    The monotone bound for level j is the box-cover lower bound of
    spaced_distance_block(spec, d/2 - min(j, d-j)), the square distance block
    of size n^min(j, d-j) sitting inside that level's flattening (full
    off-diagonal support); ranks are exact over the rationals.  Levels
    mirrored around d/2 share their block, so the bound is computed once per
    block.
    """
    spec = FunctionFSpec(n, d)
    if spec.total_size > CAPACITY_LIMIT:
        raise CapacityError(f"n^d = {spec.total_size} exceeds capacity")
    ranks = [rank_exact(flattening(spec, k)) for k in range(d + 1)]

    block_bound: dict[int, tuple[int, bool]] = {}
    levels = []
    for j in range(d + 1):
        k = spec.half - min(j, d - j)
        if k not in block_bound:
            res = box_cover_exact(support_pattern(spaced_distance_block(spec, k)))
            block_bound[k] = (res.lower, res.exact)
        lb, certified = block_bound[k]
        levels.append(AbpLevel(level=j, rank=ranks[j], mr_lower=lb, mr_lower_certified=certified))

    half = d // 2
    rank_cap_ok = all(
        ranks[half - k] <= 3 + 4 * k and ranks[half + k] <= 3 + 4 * k
        for k in range(half + 1)
    )
    mirror_ok = all(ranks[half - k] == ranks[half + k] for k in range(half + 1))
    step_ok: bool | None = None
    if d >= 4:
        step_ok = ranks[half - 1] <= ranks[half] + rank_exact(offset_square_matrix(spec))
    return AbpProfile(
        n=n,
        d=d,
        levels=tuple(levels),
        total_size=sum(ranks),
        total_monotone_lower=sum(lv.mr_lower for lv in levels),
        rank_cap_ok=rank_cap_ok,
        mirror_ok=mirror_ok,
        step_inequality_ok=step_ok,
    )


# ---------------------------------------------------------------------------
# hidden-variable models
# ---------------------------------------------------------------------------

def quantum_distribution(u0, u1, v0, v1) -> np.ndarray:
    """Outcome distribution 0.5 * |u0(x) v0(y) + u1(x) v1(y)|^2."""
    u0, u1, v0, v1 = (np.asarray(v, dtype=complex) for v in (u0, u1, v0, v1))
    if not (u0.shape == u1.shape == v0.shape == v1.shape) or u0.ndim != 1:
        raise DimensionError("need four vectors of equal length")
    amp = np.outer(u0, v0) + np.outer(u1, v1)
    return 0.5 * np.abs(amp) ** 2


@dataclass(frozen=True, eq=False)
class HiddenVariableModel:
    """Shared value Z with conditionally independent sides.

    weights[z] is Prob{Z = z}; cond_x[z] / cond_y[z] are the conditional
    distributions of the two outputs.  Entries are exact Fractions or floats;
    distribution constraints are checked exactly in the rational case and to
    1e-12 otherwise.
    """

    weights: tuple
    cond_x: tuple[tuple, ...]
    cond_y: tuple[tuple, ...]

    def __post_init__(self):
        if not (len(self.weights) == len(self.cond_x) == len(self.cond_y)):
            raise DimensionError("weights and conditionals must align")
        for dist in (self.weights, *self.cond_x, *self.cond_y):
            if any(p < 0 for p in dist):
                raise ValidationError("probabilities must be nonnegative")
            total = sum(dist)
            if isinstance(total, Fraction):
                if total != 1:
                    raise ValidationError("distribution must sum to 1 exactly")
            elif abs(total - 1.0) > 1e-12:
                raise ValidationError("distribution must sum to 1 within 1e-12")

    @property
    def support_size(self) -> int:
        return len(self.weights)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.cond_x[0]), len(self.cond_y[0])) if self.weights else (0, 0)

    def is_rational(self) -> bool:
        return is_exact(p for dist in (self.weights, *self.cond_x, *self.cond_y) for p in dist)

    def joint_float(self) -> np.ndarray:
        nx, ny = self.shape
        out = np.zeros((nx, ny))
        for w, cx, cy in zip(self.weights, self.cond_x, self.cond_y):
            out += float(w) * np.outer([float(p) for p in cx], [float(p) for p in cy])
        return out

    def joint_exact(self) -> RatMatrix:
        if not self.is_rational():
            raise ValidationError("exact joint needs rational probabilities")
        terms = tuple(
            (tuple(w * px for px in cx), cy)
            for w, cx, cy in zip(self.weights, self.cond_x, self.cond_y)
        )
        return NonnegFactorization(dims=self.shape, terms=terms).reconstruct_exact()


def exact_unit_factorizations(p: RatMatrix) -> list[NonnegFactorization]:
    """Three exact nonnegative factorizations of a rational matrix: row-based
    (one term per row), column-based, and singleton-support (one term per
    nonzero cell).  Useful as hidden-variable witnesses and soundness probes."""
    nr, nc = p.rows, p.cols

    def unit(k: int, size: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1) if i == k else Fraction(0) for i in range(size))

    rows = NonnegFactorization(
        dims=(nr, nc), terms=tuple((unit(k, nr), tuple(p.row(k))) for k in range(nr))
    )
    pt = p.transpose()
    cols = NonnegFactorization(
        dims=(nr, nc), terms=tuple((tuple(pt.row(k)), unit(k, nc)) for k in range(nc))
    )
    singles = NonnegFactorization(
        dims=(nr, nc),
        terms=tuple(
            (tuple(p[i, j] if x == i else Fraction(0) for x in range(nr)), unit(j, nc))
            for i in range(nr)
            for j in range(nc)
            if p[i, j] != 0
        ),
    )
    return [rows, cols, singles]


def hv_model_from_factorization(p, fact: NonnegFactorization) -> HiddenVariableModel:
    """Turn a verified nonnegative factorization of a joint distribution into
    a hidden-variable model with one shared value per term.

    Verification is exact when both sides are rational, within 1e-9 otherwise.
    Zero-mass terms are dropped with a warning; float weights are renormalized
    by their total (at most ~1e-6 drift permitted).
    """
    if fact.order != 2:
        raise DimensionError("hidden-variable models need a two-sided factorization")
    tol = 0 if (isinstance(p, RatMatrix) and fact.is_rational()) else 1e-9
    check = verify_nonneg_factorization(p, fact, tol)
    if not check.passed:
        raise ValidationError(
            f"factorization does not verify against the target ({check.reason}, "
            f"error {float(check.max_abs_error):.3g})"
        )
    weights = []
    cond_x = []
    cond_y = []
    for term in fact.terms:
        u, v = term
        su = sum(u)
        sv = sum(v)
        mass = su * sv
        if mass == 0:
            warnings.warn("dropping zero-mass factorization term")
            continue
        weights.append(mass)
        cond_x.append(tuple(x / su for x in u))
        cond_y.append(tuple(y / sv for y in v))
    total = sum(weights)
    if isinstance(total, Fraction):
        if total != 1:
            raise ValidationError("term masses of an exact factorization must sum to 1")
    else:
        if abs(total - 1.0) > 1e-6:
            raise ValidationError("term masses drift too far from 1")
        weights = [w / total for w in weights]
    return HiddenVariableModel(
        weights=tuple(weights), cond_x=tuple(cond_x), cond_y=tuple(cond_y)
    )


@dataclass(frozen=True, eq=False)
class HvSampleReport:
    trials: int
    seed: int
    counts: np.ndarray
    tv_distance: float


def hv_sample(model: HiddenVariableModel, trials: int, seed: int = DEFAULT_SEED) -> HvSampleReport:
    """Sample the model: draw Z, then the two sides independently given Z.

    Per-z draws are pooled multinomially over the product distribution, which
    is distributionally identical to trial-by-trial sampling and deterministic
    given the seed.  Reports the empirical joint and its total-variation
    distance to the model's exact joint.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    rng = np.random.default_rng(seed)
    nx, ny = model.shape
    weights = np.array([float(w) for w in model.weights])
    z_counts = rng.multinomial(trials, weights)
    counts = np.zeros((nx, ny), dtype=np.int64)
    for t_z, cx, cy in zip(z_counts, model.cond_x, model.cond_y):
        if t_z == 0:
            continue
        cell_probs = np.outer([float(p) for p in cx], [float(p) for p in cy]).ravel()
        counts += rng.multinomial(int(t_z), cell_probs).reshape(nx, ny)
    tv = 0.5 * float(np.sum(np.abs(counts / trials - model.joint_float())))
    return HvSampleReport(trials=trials, seed=seed, counts=counts, tv_distance=tv)


# ---------------------------------------------------------------------------
# deterministic two-party communication
# ---------------------------------------------------------------------------

_dcc_cache: dict[tuple[int, tuple[int, ...]], int] = {}


def _dcc_state(rows: tuple[int, ...], ncols: int) -> tuple[int, tuple[int, ...]]:
    # duplicate rows follow identical optimal paths, so dedup + sort is safe
    return (ncols, tuple(sorted(set(rows))))


def _dcc_solve(rows: tuple[int, ...], ncols: int) -> int:
    state = _dcc_state(rows, ncols)
    cached = _dcc_cache.get(state)
    if cached is not None:
        return cached
    distinct = state[1]
    full = (1 << ncols) - 1
    if len(distinct) == 1 and distinct[0] in (0, full):
        _dcc_cache[state] = 0
        return 0
    best = math.inf
    k = len(distinct)
    # row party speaks: bipartition the distinct rows, first row pinned left
    if k >= 2:
        for assign in range(2 ** (k - 1)):
            left = [distinct[0]]
            right = []
            for i in range(1, k):
                (left if assign >> (i - 1) & 1 else right).append(distinct[i])
            if not right:
                continue
            cost = 1 + max(_dcc_solve(tuple(left), ncols), _dcc_solve(tuple(right), ncols))
            if cost < best:
                best = cost
    # column party speaks: bipartition the columns, column 0 pinned left
    if ncols >= 2:
        for assign in range(2 ** (ncols - 1)):
            left_cols = [0] + [j for j in range(1, ncols) if assign >> (j - 1) & 1]
            if len(left_cols) == ncols:
                continue
            right_cols = [j for j in range(1, ncols) if not assign >> (j - 1) & 1]
            left_rows = tuple(
                sum(((r >> c) & 1) << i for i, c in enumerate(left_cols)) for r in distinct
            )
            right_rows = tuple(
                sum(((r >> c) & 1) << i for i, c in enumerate(right_cols)) for r in distinct
            )
            cost = 1 + max(
                _dcc_solve(left_rows, len(left_cols)),
                _dcc_solve(right_rows, len(right_cols)),
            )
            if cost < best:
                best = cost
    _dcc_cache[state] = int(best)
    return int(best)


def dcc_exact_2party(m) -> int:
    """Minimum depth of a leaf-monochromatic deterministic protocol tree.

    At every node one party announces one bit by bipartitioning its current
    input set; leaves must be constant submatrices; the value is the minimax
    depth.  Exhaustive over bipartitions with memoization (duplicate rows
    merged); exponential in principle, capped at 16x16 input.
    """
    if isinstance(m, RatMatrix):
        grid = [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
    else:
        grid = [list(row) for row in np.asarray(m).tolist()]
    nrows = len(grid)
    ncols = len(grid[0]) if nrows else 0
    if nrows < 1 or ncols < 1:
        raise DimensionError("matrix must be nonempty")
    if nrows > 16 or ncols > 16:
        raise CapacityError("exact protocol search is capped at 16x16")
    rows = []
    for row in grid:
        bits = 0
        for j, v in enumerate(row):
            if v not in (0, 1):
                raise ValidationError("protocol search needs a 0/1 matrix")
            bits |= int(v) << j
        rows.append(bits)
    return _dcc_solve(tuple(rows), ncols)


# ---------------------------------------------------------------------------
# multiparty separation report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommBoundReport:
    nbits: int
    d: int
    log_mr_exact: int          # (d-1) * nbits
    log_rk_upper: float        # log2(d * 2^nbits)
    trivial_protocol_cost: int  # all but one player announce, last answers
    separation_ratio: float
    mr_cross_check: int | None = None
    flattening_rank: int | None = None
    rank_upper_dn: int | None = None

    def __post_init__(self):
        if self.log_rk_upper <= 0:
            raise ValidationError("rank upper bound must be positive")


def comm_report(nbits: int, d: int, cross_check: bool | None = None) -> CommBoundReport:
    """Bounds for the d-party divisibility function on nbits-bit inputs.

    log of the exact monotone rank is (d-1)*nbits; log of the rank upper
    bound is log2(d) + nbits; a trivial protocol costs (d-1)*nbits + 1 bits.
    For small instances the monotone rank and a mode-flattening rank lower
    bound are recomputed from the dense tensor as a cross-check.
    """
    if nbits < 1:
        raise ValidationError("need nbits >= 1")
    if d < 2:
        raise ValidationError("need at least two parties")
    n_big = 1 << nbits
    log_mr = (d - 1) * nbits
    log_rk = math.log2(d) + nbits
    report = dict(
        nbits=nbits,
        d=d,
        log_mr_exact=log_mr,
        log_rk_upper=log_rk,
        trivial_protocol_cost=log_mr + 1,
        separation_ratio=log_mr / log_rk,
    )
    small = n_big ** d <= CAPACITY_LIMIT
    if cross_check is None:
        cross_check = small
    if cross_check:
        if not small:
            raise CapacityError("cross-check needs base^order within capacity")
        from .bounds import div_tensor_mr_exact, rank_lower_bound

        spec = DivTensorSpec(n_big, d)
        tensor = divisibility_tensor(spec)
        report["mr_cross_check"] = div_tensor_mr_exact(spec)
        report["flattening_rank"] = rank_lower_bound(tensor)
        report["rank_upper_dn"] = d * n_big
    return CommBoundReport(**report)


def comm_ladder(nbits: int, d_max: int) -> list[CommBoundReport]:
    """Reports for a geometric ladder of party counts up to d_max."""
    ds = []
    d = 2
    while d <= d_max:
        ds.append(d)
        d = max(d + 1, int(d * 2))
    if ds and ds[-1] != d_max:
        ds.append(d_max)
    return [comm_report(nbits, d, cross_check=False) for d in ds]
