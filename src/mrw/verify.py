"""Desk-scale verification suite.

Each check replays one reproduction claim end to end against the library and
reports pass/fail with the observed and expected values.  The suite is
deterministic given (scale, seed): every stochastic component derives its own
seed from the master seed.  `scale="small"` trims sizes and trial counts for
quick runs; `scale="full"` runs the complete set.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import box_cover_exact, div_tensor_mr_exact, support_pattern
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
)
from .models import (
    abp_profile,
    comm_ladder,
    comm_report,
    dcc_exact_2party,
    exact_unit_factorizations,
    hv_model_from_factorization,
    hv_sample,
    quantum_distribution,
)
from .numkit import (
    DEFAULT_NMF_BUDGET,
    DEFAULT_SEED,
    SpectralPair,
    cp_als,
    nmf_search,
    verify_nonneg_factorization,
)
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


def check_edm_mr_bracket(scale: str, seed: int, budget_factor: float = 1.0):
    n, r = (16, 10) if scale == "full" else (8, 8)
    m = edm(EdmSpec.integers(n))
    cover = box_cover_exact(support_pattern(m))
    log_floor = math.ceil(math.log2(n))
    fact = nmf_search(
        m, r, budget=DEFAULT_NMF_BUDGET.scaled(budget_factor), seed=seed, tol=1e-3
    )
    if fact is None:
        return False, f"cover lower {cover.lower}; no factorization at r={r}", (
            f"cover lower >= {log_floor} and verified r={r} witness"
        )
    vmax = max(m.entries)
    chk = verify_nonneg_factorization(m, fact, tol=1e-3 * float(vmax))
    rel = float(chk.max_abs_error) / float(vmax)
    ok = cover.lower >= log_floor and chk.passed and fact.r == r
    return (
        ok,
        f"cover lower {cover.lower}; witness r={fact.r} relative err {rel:.2e} (heuristic)",
        f"cover lower >= {log_floor}; witness error <= 1e-3 relative",
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
            p = abp_profile(n, d)
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
        pair = SpectralPair(corr.lambda_magnitude, corr.u0, corr.u1)
        worst_spectral = max(worst_spectral, pair.reconstruction_error(corr.c_matrix.to_float()))
        pq = quantum_distribution(corr.u0, corr.u1, corr.v0, corr.v1)
        worst_dist = max(
            worst_dist, float(np.max(np.abs(pq - np.array(p.to_float_rows()))))
        )
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
    p = build_correlation(CorrelationSpec(4)).p_matrix
    cover = box_cover_exact(support_pattern(p))
    facts = exact_unit_factorizations(p)
    sizes = []
    for fact in facts:
        chk = verify_nonneg_factorization(p, fact, tol=0)
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


def check_divisibility(scale: str, seed: int):
    configs = [(2, 3), (3, 3), (2, 4)] if scale == "full" else [(2, 3)]
    details = []
    for base, order in configs:
        spec = DivTensorSpec(base, order)
        tensor = divisibility_tensor(spec)
        pattern = support_pattern(tensor)
        expected = base ** (order - 1)
        mr = div_tensor_mr_exact(spec)  # runs the singleton-box predicate
        fit = cp_als(tensor, base * order, seed=seed)
        ok_one = pattern.size == expected and mr == expected and fit.residual < 1e-6
        details.append(f"({base},{order}): support {pattern.size}, mr {mr}, residual {fit.residual:.1e}")
        if not ok_one:
            return False, "; ".join(details), f"support = mr = base^(order-1), residual < 1e-6"
    return True, "; ".join(details), "support = mr = base^(order-1); residual < 1e-6"


def _log_rank_chain_holds(rows: tuple[int, ...], ncols: int) -> bool:
    m = RatMatrix(len(rows), ncols, [(r >> j) & 1 for r in rows for j in range(ncols)])
    depth = dcc_exact_2party(m)
    rank = rank_exact(m)
    if rank >= 1 and depth < math.ceil(math.log2(rank)):
        return False
    cover = box_cover_exact(support_pattern(m))
    if cover.lower >= 1 and depth < math.ceil(math.log2(cover.lower)):
        return False
    return True


def check_log_rank_chain(scale: str, seed: int):
    side = 4 if scale == "full" else 3
    # depth, rank and cover number are all invariant under duplicating rows
    # and permuting rows, so checking one canonical representative per
    # (ncols, distinct sorted rows) state covers every matrix exhaustively.
    seen: set[tuple[int, tuple[int, ...]]] = set()
    checked = 0
    for nr in range(1, side + 1):
        for nc in range(1, side + 1):
            for code in range(1 << (nr * nc)):
                rows = tuple((code >> (i * nc)) & ((1 << nc) - 1) for i in range(nr))
                state = (nc, tuple(sorted(set(rows))))
                if state in seen:
                    continue
                seen.add(state)
                checked += 1
                if not _log_rank_chain_holds(state[1], nc):
                    return False, f"chain violated at {state}", "depth >= log2(rank), log2(cover)"
    big, count = (6, 20) if scale == "full" else (5, 5)
    rng = np.random.default_rng(seed + 23)
    for _ in range(count):
        grid = rng.integers(0, 2, size=(big, big))
        rows = tuple(int(sum(int(v) << j for j, v in enumerate(row))) for row in grid)
        checked += 1
        if not _log_rank_chain_holds(rows, big):
            return False, f"chain violated on random {big}x{big}", "chain holds"
    return True, f"{checked} canonical instances checked", "chain holds on all instances"


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


_CHECKS = [
    ("edm-rank-3", "squared-difference distance matrices have exact rank 3", check_edm_rank),
    (
        "edm-mr-bracket",
        "distance-matrix monotone rank bracketed by cover bound and searched witness",
        check_edm_mr_bracket,
    ),
    ("worked-example-fidelity", "the d=4, n=2 displayed matrices reproduce byte-exactly", check_worked_example),
    ("abp-profile", "level ranks: total 9 at (2,4); caps, mirror symmetry, step bound", check_abp_profile),
    ("abp-separation-trend", "monotone/plain level-size ratio grows with n at d=4", check_abp_trend),
    ("quantum-pipeline", "correlation objects: exact distribution and spectral split agree", check_quantum_pipeline),
    ("hv-lower-bound-chain", "hidden-variable support size dominates the cover bound; sampling matches", check_hv_chain),
    ("divisibility-tensor", "divisibility tensor: singleton boxes, exact monotone rank, low-rank fit", check_divisibility),
    ("log-rank-chain", "protocol depth dominates log rank and log cover bound", check_log_rank_chain),
    ("separation-report", "multiparty separation ratio grows without bound", check_separation_report),
]

CHECK_IDS = [cid for cid, _, _ in _CHECKS]

RUNTIME_LIMIT_SECONDS = 600.0


def run_verify_suite(
    scale: str = "small", seed: int = DEFAULT_SEED, budget_factor: float = 1.0
) -> VerifyReport:
    """Run every check at the given scale; deterministic given the seed."""
    if scale not in ("small", "full"):
        raise ValueError("scale must be 'small' or 'full'")
    results = []
    suite_start = time.perf_counter()
    for cid, claim, fn in _CHECKS:
        start = time.perf_counter()
        try:
            if fn is check_edm_mr_bracket:
                ok, observed, expected = fn(scale, seed, budget_factor)
            else:
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
