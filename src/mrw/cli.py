"""Command-line front end.

Thin wrappers over the library: `gen` emits objects in the shared JSON
formats, `rank`/`mr`/`dcc` analyze files, `abp`/`quantum`/`comm` print
reports, and `verify` replays the desk-scale reproduction suite.  Exit codes:
0 success, 1 verification/check failure, 2 input or I/O error.  Every
stochastic command takes --seed (default 1729); MRW_BUDGET or --budget scales
the default search budgets.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .bounds import DEFAULT_NODE_BUDGET, mr_bounds
from .constructions import (
    CorrelationSpec,
    DivTensorSpec,
    EdmSpec,
    FunctionFSpec,
    build_correlation,
    divisibility_tensor,
    edm,
    flattening,
    offset_matrix,
    offset_square_matrix,
    outcome_distribution,
)
from .errors import WorkbenchError
from .models import (
    abp_profile,
    comm_ladder,
    comm_report,
    dcc_exact_2party,
    hv_model_from_factorization,
    hv_sample,
)
from .numkit import DEFAULT_SEED, SpectralPair
from .ratlinalg import rank_exact
from .serialize import (
    canonical_dumps,
    load_json_file,
    matrix_to_obj,
    mr_report_to_obj,
    parse_matrix,
    parse_tensor,
    tensor_to_obj,
)
from .verify import run_verify_suite


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_values(raw: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in raw.split(",") if part.strip()]


def _load_matrix(path: str):
    matrix, warns = parse_matrix(load_json_file(path))
    for w in warns:
        print(f"warning: {w}", file=sys.stderr)
    return matrix


def _budget_factor(args) -> float:
    env = os.environ.get("MRW_BUDGET")
    if args.budget is not None:
        return args.budget
    if env is not None:
        return float(env)
    return 1.0


def cmd_gen(args) -> int:
    kind = args.object
    if kind == "edm":
        spec = EdmSpec(_parse_values(args.values)) if args.values else EdmSpec.integers(args.n)
        _emit(args, canonical_dumps(matrix_to_obj(edm(spec))))
    elif kind == "flatten":
        _emit(args, canonical_dumps(matrix_to_obj(flattening(FunctionFSpec(args.n, args.d), args.k))))
    elif kind == "subsidiary":
        spec = FunctionFSpec(args.n, args.d)
        m = offset_matrix(spec) if args.root else offset_square_matrix(spec)
        _emit(args, canonical_dumps(matrix_to_obj(m)))
    elif kind == "divtensor":
        tensor = divisibility_tensor(DivTensorSpec(args.base, args.order))
        _emit(args, canonical_dumps(tensor_to_obj(tensor)))
    elif kind == "correlation":
        spec = CorrelationSpec(args.N)
        if args.part == "base":
            _emit(args, canonical_dumps(matrix_to_obj(build_correlation(spec).c_matrix.base)))
        else:
            _emit(args, canonical_dumps(matrix_to_obj(outcome_distribution(spec))))
    return 0


def cmd_rank(args) -> int:
    m = _load_matrix(args.matrix)
    _emit(args, canonical_dumps({"rows": m.rows, "cols": m.cols, "rank": rank_exact(m)}))
    return 0


def cmd_mr(args) -> int:
    if args.matrix:
        target = _load_matrix(args.matrix)
    else:
        target, warns = parse_tensor(load_json_file(args.tensor))
        for w in warns:
            print(f"warning: {w}", file=sys.stderr)
    budget = int(DEFAULT_NODE_BUDGET * _budget_factor(args))
    rep = mr_bounds(target, node_budget=budget)
    _emit(args, canonical_dumps(mr_report_to_obj(rep, rational=args.rational)))
    return 0


def cmd_abp(args) -> int:
    profile = abp_profile(args.n, args.d)
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["level", "rank", "mrLower", "mrLowerCertified"])
        for lv in profile.levels:
            writer.writerow([lv.level, lv.rank, lv.mr_lower, lv.mr_lower_certified])
        _emit(args, buf.getvalue())
        return 0
    obj = {
        "n": profile.n,
        "d": profile.d,
        "levels": [
            {
                "level": lv.level,
                "rank": lv.rank,
                "mrLower": lv.mr_lower,
                "mrLowerCertified": lv.mr_lower_certified,
            }
            for lv in profile.levels
        ],
        "totalSize": profile.total_size,
        "totalMonotoneLower": profile.total_monotone_lower,
        "separationRatio": profile.separation_ratio,
        "rankCapOk": profile.rank_cap_ok,
        "mirrorOk": profile.mirror_ok,
        "stepInequalityOk": profile.step_inequality_ok,
    }
    _emit(args, canonical_dumps(obj))
    return 0


def cmd_quantum(args) -> int:
    corr = build_correlation(CorrelationSpec(args.N))
    pair = SpectralPair(corr.lambda_magnitude, corr.u0, corr.u1)
    obj = {
        "N": args.N,
        "lambdaMagnitude": corr.lambda_magnitude,
        "spectralReconstructionError": pair.reconstruction_error(corr.c_matrix.to_float()),
        "distributionError": corr.reconstruction_error,
        "sumP": str(corr.p_matrix.entry_sum()),
        "charPoly": [str(c) for c in corr.c_matrix.char_poly().coeffs],
    }
    if args.simulate:
        from .models import exact_unit_factorizations

        model = hv_model_from_factorization(corr.p_matrix, exact_unit_factorizations(corr.p_matrix)[0])
        rep = hv_sample(model, args.simulate, seed=args.seed)
        obj["simulation"] = {
            "trials": args.simulate,
            "seed": args.seed,
            "tvDistance": rep.tv_distance,
            "supportSize": model.support_size,
            "sharedBits": math.log2(model.support_size),
        }
    if args.rational:
        obj["P"] = matrix_to_obj(corr.p_matrix)
    _emit(args, canonical_dumps(obj))
    return 0


def _comm_obj(rep) -> dict:
    obj = {
        "nbits": rep.nbits,
        "d": rep.d,
        "logMrExact": rep.log_mr_exact,
        "logRkUpper": rep.log_rk_upper,
        "trivialProtocolCost": rep.trivial_protocol_cost,
        "separationRatio": rep.separation_ratio,
    }
    if rep.mr_cross_check is not None:
        obj["mrCrossCheck"] = rep.mr_cross_check
        obj["flatteningRank"] = rep.flattening_rank
        obj["rankUpperDn"] = rep.rank_upper_dn
    return obj


def cmd_comm(args) -> int:
    if args.ladder:
        reports = comm_ladder(args.nbits, args.d)
        if args.csv:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["d", "logMrExact", "logRkUpper", "separationRatio"])
            for rep in reports:
                writer.writerow([rep.d, rep.log_mr_exact, rep.log_rk_upper, rep.separation_ratio])
            _emit(args, buf.getvalue())
        else:
            _emit(args, canonical_dumps([_comm_obj(r) for r in reports]))
        return 0
    _emit(args, canonical_dumps(_comm_obj(comm_report(args.nbits, args.d))))
    return 0


def cmd_dcc(args) -> int:
    m = _load_matrix(args.matrix)
    _emit(args, canonical_dumps({"rows": m.rows, "cols": m.cols, "depth": dcc_exact_2party(m)}))
    return 0


def cmd_verify(args) -> int:
    report = run_verify_suite(scale=args.scale, seed=args.seed, budget_factor=_budget_factor(args))
    for c in report.checks:
        print(f"[{c.status.upper():>4}] {c.id}: {c.observed} ({c.runtime_ms} ms)")
    if args.json:
        _emit(args, canonical_dumps(report.to_obj()))
    print(f"verify: {'all checks passed' if report.passed else 'CHECKS FAILED'}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mrw", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mrw {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for stochastic steps")
    common.add_argument("--budget", type=float, default=None, help="budget multiplier (overrides MRW_BUDGET)")
    common.add_argument("--csv", action="store_true", help="emit a CSV table where supported")
    common.add_argument("--rational", action="store_true", help="emit exact rationals where supported")
    common.add_argument("--out", help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="generate objects in the shared JSON formats")
    gen_sub = gen.add_subparsers(dest="object", required=True)
    g_edm = gen_sub.add_parser("edm", parents=[common])
    g_edm.add_argument("--n", type=int, default=4)
    g_edm.add_argument("--values", help="comma-separated distinct rationals")
    g_fl = gen_sub.add_parser("flatten", parents=[common])
    g_fl.add_argument("--n", type=int, required=True)
    g_fl.add_argument("--d", type=int, required=True)
    g_fl.add_argument("--k", type=int, required=True)
    g_sub = gen_sub.add_parser("subsidiary", parents=[common])
    g_sub.add_argument("--n", type=int, required=True)
    g_sub.add_argument("--d", type=int, required=True)
    g_sub.add_argument("--root", action="store_true", help="emit the unsquared offsets")
    g_div = gen_sub.add_parser("divtensor", parents=[common])
    g_div.add_argument("--base", type=int, required=True)
    g_div.add_argument("--order", type=int, required=True)
    g_cor = gen_sub.add_parser("correlation", parents=[common])
    g_cor.add_argument("--N", type=int, required=True)
    g_cor.add_argument("--part", choices=["P", "base"], default="P")
    for p in (g_edm, g_fl, g_sub, g_div, g_cor):
        p.set_defaults(func=cmd_gen)
    gen.set_defaults(func=cmd_gen)

    rank_p = sub.add_parser("rank", parents=[common], help="exact rank of a matrix file")
    rank_p.add_argument("--matrix", required=True)
    rank_p.set_defaults(func=cmd_rank)

    mr_p = sub.add_parser("mr", parents=[common], help="monotone-rank bracket of a matrix/tensor file")
    src = mr_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix")
    src.add_argument("--tensor")
    mr_p.set_defaults(func=cmd_mr)

    abp_p = sub.add_parser("abp", parents=[common], help="level rank profile")
    abp_p.add_argument("--n", type=int, required=True)
    abp_p.add_argument("--d", type=int, required=True)
    abp_p.set_defaults(func=cmd_abp)

    q_p = sub.add_parser("quantum", parents=[common], help="correlation pipeline report")
    q_p.add_argument("--N", type=int, required=True)
    q_p.add_argument("--simulate", type=int, default=0, help="sample this many trials")
    q_p.set_defaults(func=cmd_quantum)

    comm_p = sub.add_parser("comm", parents=[common], help="multiparty separation report")
    comm_p.add_argument("--nbits", type=int, required=True)
    comm_p.add_argument("--d", type=int, required=True)
    comm_p.add_argument("--ladder", action="store_true", help="table of reports up to d")
    comm_p.set_defaults(func=cmd_comm)

    dcc_p = sub.add_parser("dcc", parents=[common], help="exact two-party protocol depth")
    dcc_p.add_argument("--matrix", required=True)
    dcc_p.set_defaults(func=cmd_dcc)

    ver_p = sub.add_parser("verify", parents=[common], help="replay the reproduction suite")
    ver_p.add_argument("--scale", choices=["small", "full"], default="small")
    ver_p.add_argument("--json", action="store_true", help="also emit the JSON report")
    ver_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
