"""Seeded inputs, operations and output checks for the three workloads.

Every workload is a closed loop: one process issues its operations one after
another, each starting when the previous one has returned.  A workload is
described by four functions:

* ``inputs(seed)`` -- a JSON-able description of every input, a pure function
  of the seed (the benchmark's self-test checks this byte for byte);
* ``prepare(inputs, workdir)`` -- untimed set-up: builds library objects and,
  for the CLI workload, writes the input files;
* ``operations(prepared)`` -- the timed operations as ``(label, thunk)``
  pairs; each thunk returns the output that is checked later;
* ``check(prepared, outputs)`` -- runs after the timed region and returns
  ``(attempted, failures, bracket_gap)``, where ``failures`` maps each
  failing operation to one message.

The checks use code that is independent of the layer under test: sympy's
``DomainMatrix`` for exact ranks, determinants and characteristic
polynomials, numpy for numeric re-checks, the paper's closed forms, and
plain Python for box covers and protocol-depth bounds.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
from fractions import Fraction

import numpy as np

VERIFY_SUITE_SEED = 1729


def _rat(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _rows_str(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def _rows_frac(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _sympy_qq(rows):
    # imported here: only the checks need sympy, and its import is slow
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix(
        [[QQ(x.numerator, x.denominator) for x in row] for row in rows],
        (len(rows), len(rows[0])),
        QQ,
    )


def _to_fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _ref_rank(rows) -> int:
    return _sympy_qq(_rows_frac(rows)).rank()


# ---------------------------------------------------------------------------
# verify-full: the reproduction suite, as `mrw verify --scale full` runs it
# ---------------------------------------------------------------------------
#
# The suite's only input is its seed, and that seed sets how many NMF restarts
# `edm-mr-bracket` needs: the suite took 9.9 s to 27.7 s at seeds 1..7 and
# 1729.  The timed call therefore always uses the CLI's default seed, so that
# runs at different benchmark seeds measure the same work.

def verify_inputs(seed: int) -> dict:
    return {"scale": "full", "suite_seed": VERIFY_SUITE_SEED}


def verify_prepare(inputs: dict, workdir: str) -> dict:
    return dict(inputs)


def verify_operations(prepared: dict):
    from mrw.verify import run_verify_suite

    scale, seed = prepared["scale"], prepared["suite_seed"]
    return [("verify", lambda: run_verify_suite(scale=scale, seed=seed))]


_EDM_BRACKET = re.compile(r"cover lower (\d+); witness r=(\d+)")
_HV_BRACKET = re.compile(r"cover lower (\d+); exact witnesses r=\[([\d, ]+)\]")


def verify_check(prepared: dict, outputs: list):
    report = outputs[0]
    failures = {c.id: f"{c.status} ({c.observed})" for c in report.checks if c.status != "pass"}
    observed = {c.id: c.observed for c in report.checks}
    gap = 0
    edm_m = _EDM_BRACKET.search(observed.get("edm-mr-bracket", ""))
    hv_m = _HV_BRACKET.search(observed.get("hv-lower-bound-chain", ""))
    if edm_m is None or hv_m is None:
        failures["brackets"] = "monotone-rank brackets missing from the observed strings"
    else:
        gap += int(edm_m.group(2)) - int(edm_m.group(1))
        gap += min(int(r) for r in hv_m.group(2).split(",")) - int(hv_m.group(1))
    return len(report.checks), failures, gap


def verify_check_times(outputs: list) -> dict[str, float]:
    """Per-check seconds from CheckResult.runtime_ms (the synthetic
    runtime-budget entry is the whole suite and is left out)."""
    return {
        c.id: c.runtime_ms / 1000.0 for c in outputs[0].checks if c.id != "runtime-budget"
    }


# ---------------------------------------------------------------------------
# exact-pipeline: exact rational kernels through the library
# ---------------------------------------------------------------------------

_SQUARE_SIZES = (16, 18, 20, 22, 24)
_EDM_SIZES = (32, 40, 48, 56, 64)
_FLATTEN_SPECS = ((8, 4), (2, 10), (4, 6))
_CHARPOLY_SIZES = (10, 11, 12)
_ABP_SPECS = ((3, 6), (4, 6))
_CORRELATION_N = 32
_HV_TRIALS = 10**6


def exact_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    square = []
    for n in _SQUARE_SIZES:
        full = [[_rat(rng) for _ in range(n)] for _ in range(n)]
        k = n // 2
        x = [[_rat(rng) for _ in range(k)] for _ in range(n)]
        y = [[_rat(rng) for _ in range(n)] for _ in range(k)]
        low = [
            [sum((x[i][t] * y[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
        square.append({"full": _rows_str(full), "low": _rows_str(low)})
    edms = []
    for n in _EDM_SIZES:
        vals: set[Fraction] = set()
        while len(vals) < n:
            vals.add(Fraction(rng.randint(-60, 60), rng.randint(1, 10)))
        edms.append([str(v) for v in sorted(vals)])
    charpoly = [
        _rows_str([[_rat(rng) for _ in range(n)] for _ in range(n)]) for n in _CHARPOLY_SIZES
    ]
    return {
        "abp": [list(s) for s in _ABP_SPECS],
        "square": square,
        "edm": edms,
        "flatten": [list(s) for s in _FLATTEN_SPECS],
        "charpoly": charpoly,
        "correlation": sorted(rng.sample(range(-200, 201), _CORRELATION_N)),
        "hv_trials": _HV_TRIALS,
        "hv_seed": rng.randint(0, 2**31 - 1),
    }


def exact_prepare(inputs: dict, workdir: str) -> dict:
    from mrw.constructions import CorrelationSpec, EdmSpec, FunctionFSpec
    from mrw.ratlinalg import RatMatrix

    def mat(rows):
        return RatMatrix.from_rows(_rows_frac(rows))

    return {
        "inputs": inputs,
        "square": [(mat(s["full"]), mat(s["low"])) for s in inputs["square"]],
        "edm": [EdmSpec([Fraction(v) for v in vals]) for vals in inputs["edm"]],
        "flatten": [FunctionFSpec(n, d) for n, d in inputs["flatten"]],
        "charpoly": [mat(rows) for rows in inputs["charpoly"]],
        "correlation": CorrelationSpec(_CORRELATION_N, inputs["correlation"]),
    }


def exact_operations(prepared: dict):
    from mrw.constructions import build_correlation, edm, flattening
    from mrw.models import (
        abp_profile,
        exact_unit_factorizations,
        hv_model_from_factorization,
        hv_sample,
    )
    from mrw.ratlinalg import char_poly_exact, det_exact, rank_exact

    ops = []
    for n, d in prepared["inputs"]["abp"]:
        ops.append((f"abp_profile({n},{d})", lambda n=n, d=d: abp_profile(n, d)))
    for full, low in prepared["square"]:
        ops.append((f"rank_exact(square {full.rows})", lambda a=full: rank_exact(a)))
        ops.append((f"det_exact(square {full.rows})", lambda a=full: det_exact(a)))
        ops.append((f"rank_exact(low-rank {low.rows})", lambda a=low: rank_exact(a)))
    for spec in prepared["edm"]:
        ops.append((f"rank_exact(edm {spec.n})", lambda s=spec: rank_exact(edm(s))))
    for spec in prepared["flatten"]:
        ops.append((
            f"rank_exact(flattening({spec.n},{spec.d}))",
            lambda s=spec: [rank_exact(flattening(s, k)) for k in range(s.d + 1)],
        ))
    for m in prepared["charpoly"]:
        ops.append((f"char_poly_exact({m.rows})", lambda a=m: char_poly_exact(a)))

    trials, hv_seed = prepared["inputs"]["hv_trials"], prepared["inputs"]["hv_seed"]

    def quantum():
        corr = build_correlation(prepared["correlation"])
        poly = corr.c_matrix.char_poly()
        fact = exact_unit_factorizations(corr.p_matrix)[0]
        model = hv_model_from_factorization(corr.p_matrix, fact)
        sample = hv_sample(model, trials, seed=hv_seed)
        return corr, poly, model, sample, rank_exact(corr.p_matrix)

    ops.append((f"quantum path N={_CORRELATION_N}", quantum))
    return ops


def _flattening_rows(n: int, d: int, k: int) -> list[list[int]]:
    # entry of the degree-d coefficient array at packed index i is
    # (left - right)^2 with left/right the two packed half-indices
    half = n ** (d // 2)
    cols = n ** (d - k)
    return [
        [((i * cols + j) // half - (i * cols + j) % half) ** 2 for j in range(cols)]
        for i in range(n**k)
    ]


def _crown_cover(m: int) -> int:
    """Biclique-cover number of the m x m off-diagonal pattern (de Caen,
    Gregory and Pullman 1981): least k with C(k, floor(k/2)) >= m."""
    k = 1
    while math.comb(k, k // 2) < m:
        k += 1
    return k


def exact_check(prepared: dict, outputs: list):
    inputs = prepared["inputs"]
    failures: dict[str, str] = {}
    it = iter(outputs)

    def fail(key: str, message: str) -> None:
        failures.setdefault(key, message)

    for n, d in inputs["abp"]:
        prof = next(it)
        for lv in prof.levels:
            want = _ref_rank(_flattening_rows(n, d, lv.level))
            if lv.rank != want:
                fail(f"abp({n},{d})", f"level {lv.level}: rank {lv.rank} != {want}")
            block = n ** min(lv.level, d - lv.level)
            cover = _crown_cover(block) if block > 1 else 0
            if lv.mr_lower > cover or (lv.mr_lower_certified and lv.mr_lower != cover):
                fail(f"abp({n},{d})", f"level {lv.level}: cover bound {lv.mr_lower} vs {cover}")
    for s in inputs["square"]:
        full, low = _sympy_qq(_rows_frac(s["full"])), _sympy_qq(_rows_frac(s["low"]))
        got_rank, got_det, got_low = next(it), next(it), next(it)
        n = len(s["full"])
        if got_rank != full.rank():
            fail(f"rank square {n}", f"rank {got_rank}")
        if got_det != _to_fraction(full.det()):
            fail(f"det square {n}", "differs from sympy")
        if got_low != low.rank():
            fail(f"rank low-rank {n}", f"rank {got_low}")
    for vals in inputs["edm"]:
        got = next(it)
        if got != 3:
            fail(f"rank edm {len(vals)}", f"rank {got}, closed form 3")
    for n, d in inputs["flatten"]:
        ranks = next(it)
        for k, got in enumerate(ranks):
            cap = 3 + 4 * abs(k - d // 2) if 0 < k < d else 1
            if got != _ref_rank(_flattening_rows(n, d, k)) or got > cap:
                fail(f"flattening({n},{d})", f"k={k}: rank {got} (cap {cap})")
        if ranks != ranks[::-1] or ranks[d // 2] != 3:
            fail(f"flattening({n},{d})", f"ranks {ranks} not mirrored around 3")
    for rows in inputs["charpoly"]:
        poly = next(it)
        want = [_to_fraction(c) for c in _sympy_qq(_rows_frac(rows)).charpoly()]
        if list(poly.coeffs) != want[::-1]:
            fail(f"char_poly_exact({len(rows)})", "differs from sympy")

    corr, poly, model, sample, p_rank = next(it)
    n = _CORRELATION_N
    want_poly = [Fraction(0)] * (n + 1)
    want_poly[n], want_poly[n - 2] = Fraction(1), Fraction(1, 2)
    b = [Fraction(v) for v in inputs["correlation"]]
    total = sum((b[y] - b[x]) ** 2 for x in range(n) for y in range(x + 1, n))
    want_p = [(b[y] - b[x]) ** 2 / (2 * total) for x in range(n) for y in range(n)]
    row_mass = [sum(want_p[i * n : (i + 1) * n]) for i in range(n)]
    if list(poly.coeffs) != want_poly:
        fail("quantum", "char poly is not x^N + (1/2) x^(N-2)")
    elif list(corr.p_matrix.entries) != want_p:
        fail("quantum", "outcome distribution P differs from s^2 (b_y - b_x)^2")
    elif list(model.weights) != row_mass:
        fail("quantum", "hidden-variable weights are not the row masses of P")
    elif int(sample.counts.sum()) != inputs["hv_trials"] or not sample.tv_distance <= 0.05:
        fail("quantum", f"hv sample: TV {sample.tv_distance}")
    elif p_rank != 3:
        fail("quantum", f"rank(P) = {p_rank}, closed form 3")
    # monotone rank of P lies in [rank(P), support of the hidden-variable model]
    gap = model.support_size - p_rank
    return len(outputs), failures, gap


# ---------------------------------------------------------------------------
# search-batch: the CLI on seeded JSON files
# ---------------------------------------------------------------------------
#
# Family -> (count, commands).  Near-crown patterns (the off-diagonal 8x8 or
# 7x7 pattern under seeded row and column permutations, less one seeded cell)
# make the exact box-cover search work hard at a cost that varies little with
# the seed.  Dense 0/1 and low-rank integer matrices leave a gap between rank
# and the trivial bound, so `mr` runs its small NMF search; its cost varies
# sixfold between inputs that succeed at once and inputs that fail, so these
# families are kept to a count whose total is steady from seed to seed.  0/1
# tensors go through mode flattenings; small 0/1 matrices go through the
# protocol-depth search, whose memo is shared across calls in one process.
_SEARCH_FAMILIES = {
    "near-crown": (48, ("mr", "rank")),
    "dense01": (4, ("mr", "rank")),
    "lowrank-int": (16, ("mr", "rank")),
    "tensor01": (48, ("mr",)),
    "dcc01": (64, ("dcc", "rank")),
}


def _matrix_obj(grid: list[list[int]]) -> dict:
    return {
        "rows": len(grid),
        "cols": len(grid[0]),
        "entries": [str(v) for row in grid for v in row],
    }


def _near_crown(rng: random.Random, index: int) -> dict:
    n = 7 if index % 4 == 3 else 8
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    grid = [[0 if rows[i] == cols[j] else 1 for j in range(n)] for i in range(n)]
    i, j = rng.choice([(i, j) for i in range(n) for j in range(n) if grid[i][j]])
    grid[i][j] = 0
    return _matrix_obj(grid)


def _dense01(rng: random.Random, index: int) -> dict:
    n = 7 + index % 2
    density = 0.8 + 0.1 * rng.random()
    return _matrix_obj([[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)])


def _lowrank_int(rng: random.Random, index: int) -> dict:
    nr, nc = rng.randint(5, 8), rng.randint(5, 8)
    k = 2 + index % 2
    w = [[rng.randint(0, 4) for _ in range(k)] for _ in range(nr)]
    h = [[rng.randint(0, 4) for _ in range(nc)] for _ in range(k)]
    return _matrix_obj(
        [[sum(w[i][t] * h[t][j] for t in range(k)) for j in range(nc)] for i in range(nr)]
    )


def _tensor01(rng: random.Random, index: int) -> dict:
    n = 3 + index % 2
    return {"dims": [n, n, n], "entries": [str(rng.randint(0, 1)) for _ in range(n**3)]}


def _dcc01(rng: random.Random, index: int) -> dict:
    n = 5 + index % 2
    return _matrix_obj([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])


_MAKERS = {
    "near-crown": _near_crown,
    "dense01": _dense01,
    "lowrank-int": _lowrank_int,
    "tensor01": _tensor01,
    "dcc01": _dcc01,
}


def search_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    files = []
    for family, (count, commands) in _SEARCH_FAMILIES.items():
        for index in range(count):
            obj = _MAKERS[family](rng, index)
            files.append({"name": f"{family}-{index}", "object": obj, "commands": list(commands)})
    # interleave the commands so no family runs as one block
    ops = [(f["name"], cmd) for f in files for cmd in f["commands"]]
    rng.shuffle(ops)
    return {"files": files, "ops": [list(op) for op in ops]}


def search_prepare(inputs: dict, workdir: str) -> dict:
    in_dir = os.path.join(workdir, "in")
    out_dir = os.path.join(workdir, "out")
    os.makedirs(in_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for f in inputs["files"]:
        path = os.path.join(in_dir, f["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(f["object"], indent=2) + "\n")
        paths[f["name"]] = path
    return {"inputs": inputs, "paths": paths, "out_dir": out_dir}


def search_operations(prepared: dict):
    from mrw.cli import main

    ops = []
    objects = {f["name"]: f["object"] for f in prepared["inputs"]["files"]}
    for i, (name, cmd) in enumerate(prepared["inputs"]["ops"]):
        flag = "--tensor" if "dims" in objects[name] else "--matrix"
        out = os.path.join(prepared["out_dir"], f"{i:03d}-{cmd}-{name}.json")
        argv = [cmd, flag, prepared["paths"][name], "--out", out]
        ops.append((f"{cmd} {name}", lambda argv=argv, out=out: (main(argv), out)))
    return ops


def _grid_of(obj: dict) -> list[list[Fraction]]:
    cols = obj["cols"]
    vals = [Fraction(e) for e in obj["entries"]]
    return [vals[i : i + cols] for i in range(0, len(vals), cols)]


def _tensor_rank_lower(obj: dict) -> int:
    arr = np.array([int(e) for e in obj["entries"]], dtype=np.int64).reshape(obj["dims"])
    best = 0
    for mode in range(arr.ndim):
        flat = np.moveaxis(arr, mode, 0).reshape(arr.shape[mode], -1)
        best = max(best, _ref_rank(flat.tolist()))
    return best


def _support(obj: dict) -> set[tuple[int, ...]]:
    if "dims" in obj:
        idx = itertools.product(*(range(d) for d in obj["dims"]))
        return {cell for cell, e in zip(idx, obj["entries"]) if Fraction(e) != 0}
    cols = obj["cols"]
    return {(i // cols, i % cols) for i, e in enumerate(obj["entries"]) if Fraction(e) != 0}


def _check_mr(obj: dict, rep: dict, rank: int) -> list[str]:
    bad = []
    lower, upper, cover = rep["lower"], rep["upper"], rep["cover"]
    if not (rank <= lower <= upper):
        bad.append(f"bracket [{lower}, {upper}] vs rank {rank}")
    if cover["lower"] > lower or cover["lower"] > cover["upper"]:
        bad.append("cover bound above the reported lower bound")
    if "boxes" in rep:
        support = _support(obj)
        covered: set[tuple[int, ...]] = set()
        for box in rep["boxes"]:
            cells = set(itertools.product(*box))
            if not cells <= support:
                bad.append(f"box {box} leaves the support")
            covered |= cells
        if covered != support or len(rep["boxes"]) != cover["upper"]:
            bad.append("boxes do not form a cover of the stated size")
    if "factorization" in rep:
        fact = rep["factorization"]
        w = np.array([[float(x) for x in term[0]] for term in fact["terms"]]).T
        h = np.array([[float(x) for x in term[1]] for term in fact["terms"]])
        target = np.array(_grid_of(obj), dtype=float)
        vmax = float(target.max())
        err = float(np.max(np.abs(w @ h - target))) / vmax
        if (w < 0).any() or (h < 0).any() or err > 2e-6 or w.shape[1] != upper:
            bad.append(f"factorization fails the numpy re-check (relative error {err:.2e})")
    return bad


def _distinct_log(lines) -> int:
    return math.ceil(math.log2(len({tuple(x) for x in lines})))


def search_check(prepared: dict, outputs: list):
    objects = {f["name"]: f["object"] for f in prepared["inputs"]["files"]}
    ref_rank = {}
    for name, obj in objects.items():
        ref_rank[name] = _tensor_rank_lower(obj) if "dims" in obj else _ref_rank(_grid_of(obj))
    failures: dict[str, str] = {}
    gap = 0
    for (name, cmd), (code, out_path) in zip(prepared["inputs"]["ops"], outputs):
        where = f"{cmd} {name}"
        if code != 0:
            failures[where] = f"exit code {code}"
            continue
        with open(out_path, encoding="utf-8") as fh:
            rep = json.load(fh)
        rank = ref_rank[name]
        if cmd == "rank":
            if rep["rank"] != rank:
                failures[where] = f"rank {rep['rank']} != {rank}"
        elif cmd == "dcc":
            grid = _grid_of(objects[name])
            low = math.ceil(math.log2(rank)) if rank > 0 else 0
            high = min(_distinct_log(grid), _distinct_log(zip(*grid))) + 1
            if not (low <= rep["depth"] <= high):
                failures[where] = f"depth {rep['depth']} outside [{low}, {high}]"
        else:
            bad = _check_mr(objects[name], rep, rank)
            if bad:
                failures[where] = "; ".join(bad)
            gap += rep["upper"] - rep["lower"]
    return len(outputs), failures, gap


WORKLOADS = {
    "verify-full": (verify_inputs, verify_prepare, verify_operations, verify_check),
    "exact-pipeline": (exact_inputs, exact_prepare, exact_operations, exact_check),
    "search-batch": (search_inputs, search_prepare, search_operations, search_check),
}
