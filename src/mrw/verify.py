"""Desk-scale verification suite.

Each check replays one reproduction claim end to end against the library and
reports pass/fail with the observed and expected values.  The suite is
deterministic given (scale, seed): every stochastic component derives its own
seed from the master seed.  `scale="small"` trims sizes and trial counts for
quick runs; `scale="full"` runs the complete set.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .bounds import box_cover_exact, support_pattern
from .constructions import (
    CorrelationSpec,
    DivTensorSpec,
    EdmSpec,
    FunctionFSpec,
    build_correlation,
    divisibility_tensor,
    edm,
    flattening,
    offset_square_matrix,
    outcome_distribution,
)
from .errors import ValidationError
from .models import (
    _divisibility_mr,
    abp_profile,
    comm_ladder,
    comm_report,
    distinct_lines,
    divisibility_rank_witness,
    edm_folding_factorization,
    exact_unit_factorizations,
    hv_model_from_factorization,
    hv_sample,
    reduced_depths,
    row_masks,
)
from .numkit import DEFAULT_SEED, verify_nonneg_factorization
from .ratlinalg import RatMatrix, rank_exact
from .serialize import canonical_dumps, matrix_to_obj


@dataclass(frozen=True)
class CheckResult:
    id: str
    claim: str
    status: str  # "pass" | "fail" | "skipped"
    observed: str
    expected: str
    runtime_ms: int


@dataclass(frozen=True)
class VerifyReport:
    scale: str
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_obj(self) -> dict:
        return {
            "scale": self.scale,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {
                    "id": c.id,
                    "claim": c.claim,
                    "status": c.status,
                    "observed": c.observed,
                    "expected": c.expected,
                    "runtimeMs": c.runtime_ms,
                }
                for c in self.checks
            ],
        }


def _random_distinct_fractions(rng: random.Random, n: int) -> list[Fraction]:
    vals: set[Fraction] = set()
    while len(vals) < n:
        vals.add(Fraction(rng.randint(-60, 60), rng.randint(1, 10)))
    return sorted(vals)


def check_edm_rank(scale: str, seed: int):
    ns = (3, 5, 8, 16) if scale == "full" else (3, 5, 8)
    rng = random.Random(seed)
    ranks = {}
    for n in ns:
        m = edm(EdmSpec(_random_distinct_fractions(rng, n)))
        ranks[n] = rank_exact(m)
    ok = all(r == 3 for r in ranks.values())
    return ok, f"ranks {ranks}", "rank 3 at every size"


def check_edm_mr_bracket(scale: str, seed: int):
    n = 16 if scale == "full" else 8
    spec = EdmSpec.integers(n)
    m = edm(spec)
    cover = box_cover_exact(support_pattern(m))
    log_floor = math.ceil(math.log2(n))
    fact = edm_folding_factorization(spec)
    chk = verify_nonneg_factorization(m, fact)
    ok = cover.lower >= log_floor and chk.passed and fact.r == 2 * log_floor
    return (
        ok,
        f"cover lower {cover.lower}; witness r={fact.r} {'exact' if chk.passed else chk.reason}",
        f"cover lower >= {log_floor}; exact folding witness r={2 * log_floor}",
    )


_WORKED_MIDDLE = [[0, 1, 4, 9], [1, 0, 1, 4], [4, 1, 0, 1], [9, 4, 1, 0]]
_WORKED_LEFT = [[0, 1, 4, 9, 1, 0, 1, 4], [4, 1, 0, 1, 9, 4, 1, 0]]
_WORKED_STEP = [[1], [9]]


def check_worked_example(scale: str, seed: int):
    spec = FunctionFSpec(2, 4)
    pairs = [
        (flattening(spec, 2), _WORKED_MIDDLE),
        (flattening(spec, 1), _WORKED_LEFT),
        (offset_square_matrix(spec), _WORKED_STEP),
    ]
    same = [
        canonical_dumps(matrix_to_obj(got))
        == canonical_dumps(matrix_to_obj(RatMatrix.from_rows(want)))
        for got, want in pairs
    ]
    return all(same), f"byte-identical: {same}", "all three displayed matrices byte-identical"


def check_abp_profile(scale: str, seed: int):
    p24 = abp_profile(2, 4)
    ok = p24.total_size == 9
    details = [f"total(2,4)={p24.total_size}"]
    ns = (2, 3, 4) if scale == "full" else (2, 3)
    ds = (2, 4, 6) if scale == "full" else (2, 4)
    for n in ns:
        for d in ds:
            p = p24 if (n, d) == (2, 4) else abp_profile(n, d)
            flags = p.rank_cap_ok and p.mirror_ok and (p.step_inequality_ok in (True, None))
            ok = ok and flags
            if not flags:
                details.append(f"flags failed at ({n},{d})")
    return ok, "; ".join(details), "total 9 at (2,4); caps, mirror and step hold everywhere"


def check_abp_trend(scale: str, seed: int):
    ratios = [abp_profile(n, 4).separation_ratio for n in (2, 3, 4)]
    ok = all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
    return ok, f"ratios {[round(x, 4) for x in ratios]}", "non-decreasing over n in {2,3,4}"


def check_quantum_pipeline(scale: str, seed: int):
    sizes = (2, 4, 8, 16) if scale == "full" else (2, 4, 8)
    worst_spectral = 0.0
    worst_dist = 0.0
    for n in sizes:
        corr = build_correlation(CorrelationSpec(n))
        p = corr.p_matrix
        if any(p[i, i] != 0 for i in range(n)):
            return False, f"nonzero diagonal at N={n}", "zero diagonal"
        if not p.is_symmetric() or p.entry_sum() != 1:
            return False, f"symmetry/normalization failed at N={n}", "symmetric, sums to 1"
        worst_spectral = max(worst_spectral, corr.spectral_error)
        worst_dist = max(worst_dist, corr.reconstruction_error)
        poly = corr.c_matrix.char_poly()
        expected = [Fraction(0)] * (n + 1)
        expected[n] = Fraction(1)
        expected[n - 2] = Fraction(1, 2)
        if list(poly.coeffs) != expected:
            return False, f"characteristic polynomial off at N={n}", "x^N + (1/2) x^(N-2)"
    ok = worst_spectral <= 1e-9 and worst_dist <= 1e-9
    return (
        ok,
        f"max spectral err {worst_spectral:.2e}; max distribution err {worst_dist:.2e}",
        "both within 1e-9; polynomial exact",
    )


def check_hv_chain(scale: str, seed: int):
    p = outcome_distribution(CorrelationSpec(4))
    cover = box_cover_exact(support_pattern(p))
    facts = exact_unit_factorizations(p)
    sizes = []
    for fact in facts:
        chk = verify_nonneg_factorization(p, fact)
        if not chk.passed:
            return False, "an exact factorization failed verification", "all verify exactly"
        if fact.r < cover.lower:
            return False, f"r={fact.r} below cover bound {cover.lower}", "r >= cover bound"
        sizes.append(fact.r)
    trials, tv_limit = (10**6, 0.01) if scale == "full" else (10**5, 0.02)
    model = hv_model_from_factorization(p, facts[0])
    rep = hv_sample(model, trials, seed=seed + 17)
    ok = rep.tv_distance <= tv_limit
    return (
        ok,
        f"cover lower {cover.lower}; exact witnesses r={sizes}; TV {rep.tv_distance:.4f} "
        f"at {trials} trials",
        f"every exact witness r >= {cover.lower}; TV <= {tv_limit}",
    )


_DIV_EXPECTED = "support = mr = base^(order-1); exact rank witness r <= base*order"


def check_divisibility(scale: str, seed: int):
    configs = [(2, 3), (3, 3), (2, 4)] if scale == "full" else [(2, 3)]
    details = []
    for base, order in configs:
        spec = DivTensorSpec(base, order)
        tensor = divisibility_tensor(spec)
        pattern = support_pattern(tensor)
        mr = _divisibility_mr(spec, pattern)  # raises unless support = mr = base^(order-1)
        witness = divisibility_rank_witness(spec)
        exact = witness.reproduces(tensor)
        ok_one = exact and witness.r <= base * order
        details.append(
            f"({base},{order}): support {pattern.size}, mr {mr}, "
            f"rank witness r={witness.r} {'exact' if exact else 'wrong'}"
        )
        if not ok_one:
            return False, "; ".join(details), _DIV_EXPECTED
    return True, "; ".join(details), _DIV_EXPECTED


@functools.cache
def _relabellings(ncols: int) -> np.ndarray:
    """The (ncols!, 2^ncols) uint64 table whose entry [p, v] is 1 << w, w
    the ncols-bit row v with its bits moved by the p-th permutation of the
    columns: ORing a row set's entries of line p gives the set, as one
    2^ncols-bit mask, under relabelling p.  Read-only, built once per ncols."""
    assert ncols <= 6, "a set of rows over more than 6 columns does not fit 64 bits"
    bits = ((np.arange(1 << ncols)[:, None] >> np.arange(ncols)) & 1).astype(np.uint8)
    perms = np.array(list(itertools.permutations(range(ncols))), dtype=np.uint8)
    table = np.uint64(1) << (bits << perms[:, None, :]).sum(axis=2, dtype=np.uint64)
    table.flags.writeable = False
    return table


def _columns(rows: np.ndarray, ncols: int) -> np.ndarray:
    """The columns, as bitmasks of the rows (bit i from row i), of a batch
    of 0/1 matrices of one shape given as row bitmasks: rows[b] holds the
    rows of matrix b."""
    bits = (rows[:, :, None] >> np.arange(ncols)) & 1
    return (bits << np.arange(rows.shape[1])[:, None]).sum(axis=1)


def _classes(rows: np.ndarray, cols: np.ndarray) -> list[tuple[int, int, int]]:
    """The class of each of a batch of reduced keys of one shape, given by
    its rows and its columns as bitmasks: the lesser of its code and its
    transpose's.  A code is the shape plus the set of rows as one mask,
    the least over the column relabellings; a key repeats no row, so it is
    its row set, and two keys share a class exactly when row and column
    permutations and transposition take one to the other."""
    nrows, ncols = rows.shape[1], cols.shape[1]

    def codes(lines: np.ndarray, width: int) -> list[int]:
        # one (width!, batch) mask array at a time, ORed line by line
        table = _relabellings(width)
        return functools.reduce(np.bitwise_or, (table[:, line] for line in lines.T)).min(axis=0).tolist()

    return [min((nrows, ncols, a), (ncols, nrows, b)) for a, b in zip(codes(rows, ncols), codes(cols, nrows))]


def _class_of(rows: Iterable[tuple[int, ...]]) -> tuple[int, int, int]:
    """The class of one 0/1 matrix, given as its rows (tuples): its distinct
    lines', packed as row bitmasks."""
    cols = distinct_lines(rows)
    grid = np.array([row_masks(cols)])
    return _classes(grid, _columns(grid, len(cols)))[0]


def check_log_rank_chain(scale: str, seed: int):
    """Protocol depth >= log2 rank and >= log2 cover number on every 0/1
    matrix up to side x side, plus seeded random big x big matrices.

    Depth, rank and cover number are invariant under duplicating and
    permuting rows and columns and under transposition.  So one state per
    set of distinct rows covers every matrix up to side x side, and the
    chain is evaluated once per class of distinct lines under row and
    column permutations and transposition (`_classes`).  A state's distinct
    lines form a state whose columns are distinct, so only those states are
    coded, in one numpy pass per shape; the random matrices, drawn as 0/1
    rows, are cut by `distinct_lines` and packed by `row_masks` first.  At
    full scale and seed 1729 the 2,716 states (2,696 small, 20 random 6x6)
    fall into 123 classes of 11 shapes; at small scale the 114 states (109
    and 5 random 5x5) into 24 classes.  The classes of one shape get their
    depths from one `reduced_depths` sweep, then each class its rank and
    cover bound.  The count reported is per state.  Each state with distinct
    columns is classed once and kept with its class, in enumeration order;
    on failure the first of them whose class breaks the chain is reported,
    or else a random one.  That is the first state of all to hold a broken
    class: a state with a repeated column comes after its distinct lines,
    a state with fewer columns and the same class.
    """
    side = 4 if scale == "full" else 3
    big, count = (6, 20) if scale == "full" else (5, 5)
    rng = np.random.default_rng(seed + 23)
    randoms = [rng.integers(0, 2, size=(big, big)).tolist() for _ in range(count)]
    kept: list[tuple[int, tuple[int, ...], tuple[int, int, int]]] = []
    total = count
    for nc in range(1, side + 1):
        for nr in range(1, min(side, 1 << nc) + 1):
            rows = np.array(list(itertools.combinations(range(1 << nc), nr)))
            cols = _columns(rows, nc)
            total += len(rows)
            ordered = np.sort(cols, axis=1)
            distinct = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
            rows, cols = rows[distinct], cols[distinct]
            kept += zip(itertools.repeat(nc), map(tuple, rows.tolist()), _classes(rows, cols))
    classes = dict.fromkeys(cls for _, _, cls in kept)
    classes.update(dict.fromkeys(_class_of(map(tuple, grid)) for grid in randoms))
    by_shape: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for cls in classes:
        by_shape.setdefault(cls[:2], []).append(cls)
    broken = set()
    for (nr, nc), group in by_shape.items():
        keys = [tuple(v for v in range(1 << nc) if code >> v & 1) for _, _, code in group]
        for cls, rows, depth in zip(group, keys, reduced_depths(keys, nc)):
            m = RatMatrix(nr, nc, [(r >> j) & 1 for r in rows for j in range(nc)])
            lows = (rank_exact(m), box_cover_exact(support_pattern(m)).lower)
            if any(depth < math.ceil(math.log2(low)) for low in lows if low >= 1):
                broken.add(cls)
    if broken:
        for nc, rows, cls in kept:
            if cls in broken:
                return False, f"chain violated at {(nc, rows)}", "depth >= log2(rank), log2(cover)"
        return False, f"chain violated on random {big}x{big}", "chain holds"
    return True, f"{total} canonical instances checked", "chain holds on all instances"


def check_separation_report(scale: str, seed: int):
    ladder = comm_ladder(2, 10**6)
    ratios = [r.separation_ratio for r in ladder]
    if not all(a < b for a, b in zip(ratios, ratios[1:])):
        return False, "ratios not strictly increasing", "strictly increasing in d"
    for rep in ladder:
        if rep.log_mr_exact != (rep.d - 1) * rep.nbits:
            return False, f"monotone side off at d={rep.d}", "(d-1)*nbits"
        if abs(rep.log_rk_upper - math.log2(rep.d * 2**rep.nbits)) > 1e-12:
            return False, f"rank side off at d={rep.d}", "log2(d * 2^nbits)"
    crossed = {c: any(r.log_mr_exact > r.log_rk_upper**c for r in ladder) for c in (1, 2, 3)}
    small = comm_report(1, 2)
    ok = all(crossed.values()) and small.mr_cross_check == 2
    return (
        ok,
        f"power thresholds crossed: {crossed}; mr cross-check at (1,2): {small.mr_cross_check}",
        "thresholds 1..3 crossed within d <= 1e6; cross-check equals 2",
    )


# every check takes (scale, seed) and returns (ok, observed, expected)
_CHECKS = [
    ("edm-rank-3", "squared-difference distance matrices have exact rank 3", check_edm_rank),
    (
        "edm-mr-bracket",
        "distance-matrix monotone rank bracketed by cover bound and exact folding witness",
        check_edm_mr_bracket,
    ),
    ("worked-example-fidelity", "the d=4, n=2 displayed matrices reproduce byte-exactly", check_worked_example),
    ("abp-profile", "level ranks: total 9 at (2,4); caps, mirror symmetry, step bound", check_abp_profile),
    ("abp-separation-trend", "monotone/plain level-size ratio grows with n at d=4", check_abp_trend),
    ("quantum-pipeline", "correlation objects: exact distribution and spectral split agree", check_quantum_pipeline),
    ("hv-lower-bound-chain", "hidden-variable support size dominates the cover bound; sampling matches", check_hv_chain),
    ("divisibility-tensor", "divisibility tensor: singleton boxes, exact monotone rank, exact rank witness", check_divisibility),
    ("log-rank-chain", "protocol depth dominates log rank and log cover bound", check_log_rank_chain),
    ("separation-report", "multiparty separation ratio grows without bound", check_separation_report),
]

CHECK_IDS = [cid for cid, _, _ in _CHECKS]

RUNTIME_LIMIT_SECONDS = 600.0


def run_verify_suite(scale: str = "small", seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run every check at the given scale; deterministic given the seed."""
    if scale not in ("small", "full"):
        raise ValidationError("scale must be 'small' or 'full'")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    results = []
    suite_start = time.perf_counter()
    for cid, claim, fn in _CHECKS:
        start = time.perf_counter()
        try:
            ok, observed, expected = fn(scale, seed)
            status = "pass" if ok else "fail"
        except Exception as exc:  # a crashed check is a failed check
            status, observed, expected = "fail", f"raised {exc!r}", "check completes"
        ms = int((time.perf_counter() - start) * 1000)
        results.append(
            CheckResult(
                id=cid, claim=claim, status=status, observed=observed, expected=expected,
                runtime_ms=ms,
            )
        )
    total = time.perf_counter() - suite_start
    within = total <= RUNTIME_LIMIT_SECONDS
    # wall time varies run to run, so it goes in runtime_ms, never in observed
    results.append(
        CheckResult(
            id="runtime-budget",
            claim="full suite finishes within the wall-clock budget",
            status="pass" if within else "fail",
            observed="within budget" if within else "over budget",
            expected=f"<= {RUNTIME_LIMIT_SECONDS:.0f}s",
            runtime_ms=int(total * 1000),
        )
    )
    return VerifyReport(scale=scale, seed=seed, checks=tuple(results))
