"""Application calculators built on the exact kernel and the bounds module.

Three families live here: per-level rank/monotone-lower profiles of the
degree-d coefficient flattenings (branching-program level sizes), hidden-
variable models that replay a joint distribution from a nonnegative
factorization (with seeded sampling), and deterministic two-party
communication complexity plus the multiparty separation report.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .bounds import (
    SupportPattern,
    crown_cover_number,
    crown_lower_bound,
    singleton_box_predicate,
    support_pattern,
)
from .constructions import (
    DivTensorSpec,
    EdmSpec,
    FunctionFSpec,
    divisibility_tensor,
    flattening,
    offset_square_matrix,
)
from .errors import CapacityError, DimensionError, ValidationError
from .numkit import DEFAULT_SEED, NonnegFactorization, verify_nonneg_factorization
from .ratlinalg import CAPACITY_LIMIT, RatMatrix, exact_sum, is_exact, rank_exact


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

    Every level reads the one coefficient array, built once as the middle
    flattening M (H x H, H = n^(d/2)), in its own shape; a reshape copies
    nothing.  Level j's crown is a principal block of M: for j <= d/2 and
    s = n^(d/2-j), its entry (i, p*s) is M[i*s, p*s] (i, p < n^j); for
    j > d/2, m = d-j and t = n^(j-d/2), its entry (p*t, c) is M[p, c]
    (p, c < n^m).  crown_lower_bound checks once that M is zero exactly on
    its diagonal, so every principal block is too, and level j reports
    kappa(n^min(j, d-j)), its crown's exact cover number.  Ranks are exact
    over the rationals.
    """
    spec = FunctionFSpec(n, d)
    coeffs = flattening(spec, spec.half)
    crown_lower_bound(coeffs)
    levels = []
    for j in range(d + 1):
        flat = coeffs.reshape(n ** j, n ** (d - j))
        bound = crown_cover_number(n ** min(j, d - j))
        levels.append(AbpLevel(level=j, rank=rank_exact(flat), mr_lower=bound, mr_lower_certified=True))
    ranks = [lv.rank for lv in levels]

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

@dataclass(frozen=True, eq=False)
class HiddenVariableModel:
    """Shared value Z with conditionally independent sides.

    weights[z] is Prob{Z = z}; cond_x[z] / cond_y[z] are the conditional
    distributions of the two outputs.  Entries are exact (int or Fraction),
    nonnegative, and each distribution sums to 1 exactly (one
    common-denominator sum, :func:`exact_sum`); anything else raises
    `ValidationError`.
    """

    weights: tuple
    cond_x: tuple[tuple, ...]
    cond_y: tuple[tuple, ...]

    def __post_init__(self):
        if not (len(self.weights) == len(self.cond_x) == len(self.cond_y)):
            raise DimensionError("weights and conditionals must align")
        for dist in (self.weights, *self.cond_x, *self.cond_y):
            # exactness first: the sign is read from the numerator
            if not is_exact(dist):
                raise ValidationError("distribution must be exact and sum to 1 exactly")
            if any(p.numerator < 0 for p in dist):
                raise ValidationError("probabilities must be nonnegative")
            if exact_sum(dist) != 1:
                raise ValidationError("distribution must be exact and sum to 1 exactly")

    @property
    def support_size(self) -> int:
        return len(self.weights)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.cond_x[0]), len(self.cond_y[0])) if self.weights else (0, 0)


# every zero and one the unit factorizations place is one of these two shared
# (immutable) Fractions
_ZERO, _ONE = Fraction(0), Fraction(1)


def _unit(k: int, size: int, value=_ONE) -> tuple:
    return (_ZERO,) * k + (value,) + (_ZERO,) * (size - k - 1)


def row_unit_factorization(p: RatMatrix) -> NonnegFactorization:
    """Exact nonnegative factorization of a rational matrix with one term per
    row: the k-th unit vector times row k."""
    nr = p.rows
    return NonnegFactorization(
        dims=p.dims, terms=tuple((_unit(k, nr), tuple(p.row(k))) for k in range(nr))
    )


def column_unit_factorization(p: RatMatrix) -> NonnegFactorization:
    """Exact nonnegative factorization with one term per column: column k
    times the k-th unit vector."""
    pt, nc = p.transpose(), p.cols
    return NonnegFactorization(
        dims=p.dims, terms=tuple((tuple(pt.row(k)), _unit(k, nc)) for k in range(nc))
    )


def singleton_factorization(p: RatMatrix) -> NonnegFactorization:
    """Exact nonnegative factorization with one term per nonzero cell."""
    nr, nc = p.dims
    return NonnegFactorization(
        dims=p.dims,
        terms=tuple(
            (_unit(i, nr, p[i, j]), _unit(j, nc))
            for i in range(nr)
            for j in range(nc)
            if p[i, j] != 0
        ),
    )


def exact_unit_factorizations(p: RatMatrix) -> list[NonnegFactorization]:
    """Three exact nonnegative factorizations of a rational matrix: row-based
    (one term per row), column-based, and singleton-support (one term per
    nonzero cell).  Useful as hidden-variable witnesses and soundness probes."""
    return [row_unit_factorization(p), column_unit_factorization(p), singleton_factorization(p)]


def edm_folding_factorization(spec: EdmSpec) -> NonnegFactorization:
    """Exact nonnegative factorization of edm(spec) by repeated folding.

    With centre c and u = |x - c|, v = |y - c|:
    (x - y)^2 = (u - v)^2 + 4uv [x, y on opposite sides of c].  The indicator
    part is two nonnegative rank-1 terms; (u - v)^2 is the distance matrix of
    the folded values, so the fold repeats with c = (min + max) / 2 until one
    value is left.  Each fold merges the two extremes, so r <= 2(n - 1); an
    arithmetic progression halves at every fold, giving r = 2 ceil(log2 n).
    """
    xs = list(spec.values)
    zero = Fraction(0)
    terms = []
    while len(set(xs)) > 1:
        c = Fraction(min(xs) + max(xs), 2)  # exact on int values too
        u = [abs(x - c) for x in xs]
        below = tuple(ui if x < c else zero for x, ui in zip(xs, u))
        above = tuple(ui if x > c else zero for x, ui in zip(xs, u))
        terms += [(tuple(4 * b for b in below), above), (tuple(4 * a for a in above), below)]
        xs = u
    return NonnegFactorization(dims=(spec.n, spec.n), terms=tuple(terms))


def divisibility_rank_witness(spec: DivTensorSpec) -> NonnegFactorization:
    """Exact signed rank-1 decomposition of the divisibility tensor.

    A cell depends only on S = sum(i + 1), which takes m = order*(base-1) + 1
    values.  With nodes lambda_t = 1..m, solve sum_t c_t lambda_t^S = [base | S]
    exactly through the Lagrange dual basis of the Vandermonde system; term t
    is c_t (lambda_t^(i+1))_i in the first mode and (lambda_t^(i+1))_i in the
    others.  Entries are signed, so this witnesses rank <= m <= base*order
    (check it by exact reconstruction), not monotone rank.
    """
    base, order = spec.base, spec.order
    m = order * (base - 1) + 1
    nodes = range(1, m + 1)
    terms = []
    for t in nodes:
        # coefficients of L_t(z) = prod_{s != t} (z - s) / (t - s), lowest first
        poly = [Fraction(1)]
        for s in nodes:
            if s != t:
                poly = [(hi - s * lo) / (t - s) for hi, lo in zip([0, *poly], [*poly, 0])]
        # sum_k L_t[k] f(order + k) solves for c_t * t^order
        c = sum((p for k, p in enumerate(poly) if (order + k) % base == 0), Fraction(0)) / t**order
        powers = tuple(Fraction(t) ** (i + 1) for i in range(base))
        terms.append((tuple(c * p for p in powers),) + (powers,) * (order - 1))
    return NonnegFactorization(dims=(base,) * order, terms=tuple(terms))


def hv_model_from_factorization(p: RatMatrix, fact: NonnegFactorization) -> HiddenVariableModel:
    """Turn a nonnegative factorization of a joint distribution into a
    hidden-variable model with one shared value per term.

    A factorization that fails :func:`verify_nonneg_factorization` against p
    raises `ValidationError`.  Weights and conditionals are Fractions, even
    when its entries are ints: every sum is one :func:`exact_sum`.  Zero-mass
    terms are dropped with a warning.
    """
    if fact.order != 2:
        raise DimensionError("hidden-variable models need a two-sided factorization")
    check = verify_nonneg_factorization(p, fact)
    if not check.passed:
        raise ValidationError(f"factorization does not verify against the target ({check.reason})")
    weights = []
    cond_x = []
    cond_y = []
    for u, v in fact.terms:
        # exact_sum returns a Fraction, so every division by it stays exact;
        # a zero entry is the shared zero Fraction, with no division
        su = exact_sum(u)
        sv = exact_sum(v)
        mass = su * sv
        if mass == 0:
            warnings.warn("dropping zero-mass factorization term")
            continue
        weights.append(mass)
        cond_x.append(tuple(x / su if x else _ZERO for x in u))
        cond_y.append(tuple(y / sv if y else _ZERO for y in v))
    # the masses sum to the entry sum of p; the model checks that it is 1
    return HiddenVariableModel(
        weights=tuple(weights), cond_x=tuple(cond_x), cond_y=tuple(cond_y)
    )


@dataclass(frozen=True, eq=False)
class HvSampleReport:
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
    if trials > np.iinfo(np.int64).max:
        raise ValidationError(f"trials must be at most {np.iinfo(np.int64).max}: the counts are int64")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    nx, ny = model.shape
    weights = np.array([float(w) for w in model.weights])
    z_counts = rng.multinomial(trials, weights)
    counts = np.zeros((nx, ny), dtype=np.int64)
    joint = np.zeros((nx, ny))
    for w, t_z, cx, cy in zip(weights, z_counts, model.cond_x, model.cond_y):
        cell_probs = np.outer([float(p) for p in cx], [float(p) for p in cy])
        joint += w * cell_probs
        if t_z:
            counts += rng.multinomial(int(t_z), cell_probs.ravel()).reshape(nx, ny)
    tv = 0.5 * float(np.sum(np.abs(counts / trials - joint)))
    return HvSampleReport(counts=counts, tv_distance=tv)


# ---------------------------------------------------------------------------
# deterministic two-party communication
# ---------------------------------------------------------------------------

def distinct_lines(rows: Iterable[tuple]) -> list[tuple]:
    """The distinct columns, as tuples, of the distinct rows of a matrix
    given as its rows (tuples), in one hashing pass over the entries.
    Dropping a repeated column keeps distinct rows distinct, so no line of
    the result repeats: each column has one entry per distinct row."""
    return list(set(zip(*set(rows))))


def row_masks(cols: Sequence[tuple]) -> list[int]:
    """The row bitmasks of the 0/1 matrix with columns `cols`: bit k of row
    i is entry i of cols[k].  `int` reads a Fraction one as 1."""
    return [sum(int(col[i]) << k for k, col in enumerate(cols)) for i in range(len(cols[0]))]


@functools.cache
def _splits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # (part, rest, starts, sets) over the subsets R of n items with two or
    # more items, as bitmasks ascending in `sets`: one entry per split of R
    # into a part S that holds R's lowest item and a nonempty rest R \ S,
    # the splits of each R contiguous from its entry in `starts`.  Built by
    # doubling with S = R kept at the head of every run (adding item i to a
    # set puts it either in the part or in the rest of each split), then
    # those heads, which add nothing to a level, are dropped: each run moves
    # down one place per set before it.
    part = rest = starts = np.zeros(0, dtype=np.intp)
    for i in range(n):
        hi = 1 << i
        part, rest, starts = (
            np.concatenate((part, [hi], np.stack((part | hi, part), axis=1).ravel())),
            np.concatenate((rest, [0], np.stack((rest, rest | hi), axis=1).ravel())),
            np.concatenate((starts, [len(part)], len(part) + 1 + 2 * starts)),
        )
    proper = rest != 0
    sets = np.arange(1, 1 << n)
    wide = np.bitwise_count(sets) >= 2
    out = (part[proper], rest[proper], (starts - np.arange(len(starts)))[wide], sets[wide])
    for a in out:
        a.flags.writeable = False
    return out


def reduced_depths(keys: Sequence[tuple[int, ...]], ncols: int) -> list[int]:
    """Protocol depth of each of a batch of reduced 0/1 matrices of one
    shape: keys[b] holds the row bitmasks of instance b, all with the same
    number r of distinct rows over the same ncols = c distinct columns.

    One boolean table per instance, over every row subset R and column
    subset C, holds "R x C has depth at most k"; the tables are stacked as
    (B, 2^r, 2^c), so one numpy pass advances every instance a level.  Level
    0 marks the constant sub-rectangles (an empty side counts as constant),
    and level k + 1 adds each R x C that some row split or column split (the
    lowest item pinned to one half, `_splits` shared by the batch) cuts into
    two halves of depth at most k.  An instance's depth is the first level
    that holds its full rectangle; it then leaves the batch.  A level touches
    about (3^r 2^c + 2^r 3^c) / 2 cells per instance.
    """
    count = len(keys)
    nrows = len(keys[0]) if count else 0
    # level 0: R x C is constant when C lies inside the meet (AND) of R's
    # rows or outside their join (OR); both built by doubling over the rows
    meet = np.empty((count, 1 << nrows), dtype=np.int64)
    join = np.empty_like(meet)
    meet[:, 0], join[:, 0] = (1 << ncols) - 1, 0
    row_bits = np.array(keys, dtype=np.int64).reshape(count, nrows)
    for i in range(nrows):
        meet[:, 1 << i:2 << i] = meet[:, :1 << i] & row_bits[:, i, None]
        join[:, 1 << i:2 << i] = join[:, :1 << i] | row_bits[:, i, None]
    masks = np.arange(1 << ncols)
    le = (masks & meet[:, :, None] == masks) | (masks & join[:, :, None] == 0)
    splits = (_splits(nrows), _splits(ncols))
    depths = [0] * count
    alive = np.arange(count)
    depth = 0
    while True:
        done = le[:, -1, -1]
        if done.any():
            for b in alive[done].tolist():
                depths[b] = depth
            alive, le = alive[~done], le[~done]
        if not alive.size:
            return depths
        # the row sweep runs on the table, the column sweep on its transpose
        # (a view, so numpy gathers along the middle axis either way); both
        # read level k, so both are taken before either is written: a split
        # whose halves first reach depth k + 1 must not count at level k + 1
        sides = (le, le.transpose(0, 2, 1))
        hits = [
            np.logical_or.reduceat(np.take(side, part, axis=1) & np.take(side, rest, axis=1), starts, axis=1)
            for side, (part, rest, starts, _) in zip(sides, splits)
        ]
        for side, (_, _, _, sets), hit in zip(sides, splits, hits):
            side[:, sets] |= hit
        depth += 1


def dcc_exact_2party(m: RatMatrix) -> int:
    """Minimum depth of a leaf-monochromatic deterministic protocol tree for
    a 0/1 matrix.

    At every node one party announces one bit by bipartitioning its current
    input set; leaves must be constant submatrices; the value is the minimax
    depth.  Depth does not change under duplicated rows or columns, so the
    input is cut by `distinct_lines` to the c distinct columns of its r
    distinct rows, and only an input that passes the guard on r + c is
    packed by `row_masks` and handed to `reduced_depths` as a batch of one;
    nothing is kept once the call returns.  A level touches about
    (3^r 2^c + 2^r 3^c) / 2 cells, so r + c is capped at 16.  At the cap, in
    a fresh process on one core of a shared 2-vCPU host: the 8x8 identity
    took 0.014-0.018 s, a random 8x8 input 0.016-0.021 s and the 12
    distinct rows of 4 bits 0.035-0.050 s at 45 MB peak.  Past it, the 16
    distinct rows of 4 bits would need 21.5 M row splits of 16 cells per
    level.
    """
    if not {0, 1}.issuperset(m.entries):
        raise ValidationError("protocol search needs a 0/1 matrix")
    cols = distinct_lines(m.iter_rows())
    nlines = len(cols) + len(cols[0])
    if nlines > 16:
        raise CapacityError(
            "exact protocol search is capped at 16 distinct rows plus distinct columns, "
            f"got {nlines}"
        )
    return reduced_depths([row_masks(cols)], len(cols))[0]


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


def _divisibility_mr(spec: DivTensorSpec, pattern: SupportPattern) -> int:
    """Exact monotone rank of the divisibility tensor of `spec`, whose
    support is `pattern`: base^(order-1).

    Index sums of two cells differing only in coordinate m differ by less than
    the base, so both cannot be divisible: every box is a singleton, the cover
    number equals the support size, and the singleton factorization matches it.
    A support of another size, or one the singleton-box predicate refutes,
    raises `ValidationError`.
    """
    expected = spec.base ** (spec.order - 1)
    if pattern.size != expected:
        raise ValidationError(
            f"support size {pattern.size} deviates from base^(order-1) = {expected}"
        )
    if not singleton_box_predicate(pattern):
        raise ValidationError("singleton-box predicate failed for divisibility tensor")
    return pattern.size


def comm_report(nbits: int, d: int, cross_check: bool = True) -> CommBoundReport:
    """Bounds for the d-party divisibility function on nbits-bit inputs.

    log of the exact monotone rank is (d-1)*nbits; log of the rank upper
    bound is log2(d) + nbits; a trivial protocol costs (d-1)*nbits + 1 bits.
    With `cross_check`, small instances (base^d = 2^(nbits*d) within the
    capacity guard) recompute the monotone rank and a mode-flattening rank
    lower bound from the dense tensor; the base is built only for that, so a
    huge nbits costs nothing.
    """
    if nbits < 1:
        raise ValidationError("need nbits >= 1")
    if d < 2:
        raise ValidationError("need at least two parties")
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
    # base^d = 2^(nbits*d) is within CAPACITY_LIMIT = 2^20 exactly when
    # nbits*d <= 20; the base itself is built only for the cross-check
    if cross_check and nbits * d <= CAPACITY_LIMIT.bit_length() - 1:
        n_big = 1 << nbits
        spec = DivTensorSpec(n_big, d)
        tensor = divisibility_tensor(spec)
        report["mr_cross_check"] = _divisibility_mr(spec, support_pattern(tensor))
        # the tensor is symmetric in its modes (whether an index sum is
        # divisible does not depend on the order of its terms), so every mode
        # flattening is mode 0's up to a column permutation, of equal rank
        report["flattening_rank"] = rank_exact(tensor.mode_flattening(0))
        report["rank_upper_dn"] = d * n_big
    return CommBoundReport(**report)


def comm_ladder(nbits: int, d_max: int) -> list[CommBoundReport]:
    """Reports for the party counts 2, 4, 8, ... below d_max, then d_max;
    nbits < 1 or d_max < 2 raises `ValidationError`, as in `comm_report`."""
    if d_max < 2:
        raise ValidationError("need at least two parties")
    ds = [2]
    while ds[-1] < d_max:
        ds.append(min(2 * ds[-1], d_max))
    return [comm_report(nbits, d, cross_check=False) for d in ds]
