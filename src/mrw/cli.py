"""Command-line front end.

Thin wrappers over the library: `gen` emits objects in the shared JSON
formats, `rank`/`mr`/`dcc` analyze files, `abp`/`quantum`/`comm` print
reports, and `verify` replays the desk-scale reproduction suite.  Exit codes:
0 success, 1 verification/check failure, 2 input or I/O error.  Every command
takes --out; `quantum --simulate` and `verify` read --seed (default 1729);
--budget (`mr` only) scales the default search budgets;
`mr` and `quantum` take --rational, `abp` and `comm` take --csv.  A command
given a flag it does not read exits 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys

from . import __version__
from .bounds import mr_bounds
from .constructions import (
    CorrelationSpec,
    DivTensorSpec,
    EdmSpec,
    FunctionFSpec,
    build_correlation,
    difference_matrix,
    divisibility_tensor,
    edm,
    flattening,
    offset_matrix,
    offset_square_matrix,
    outcome_distribution,
)
from .errors import ValidationError, WorkbenchError
from .models import (
    abp_profile,
    comm_ladder,
    comm_report,
    dcc_exact_2party,
    hv_model_from_factorization,
    hv_sample,
    row_unit_factorization,
)
from .numkit import DEFAULT_SEED
from .ratlinalg import rank_exact
from .serialize import (
    canonical_dumps,
    exact_text,
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


def _parse_values(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _emit_csv(args, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _emit(args, buf.getvalue())


def _load(path: str, parse):
    """The array `parse` reads from the JSON file at `path`, with one
    stderr line per warning."""
    array, warns = parse(load_json_file(path))
    for w in warns:
        print(f"warning: {w}", file=sys.stderr)
    return array


# mr's search work grows as factor * 50k cover nodes and at most factor^2 *
# 18,000 HALS sweeps (3 restarts of 3 rounds of 2,000; a stalled round ends
# sooner), so the factor is capped; README "Performance notes" has the
# worst-case time this allows
_BUDGET_CEILING = 10.0


def _budget_factor(args) -> float:
    factor = args.budget
    if not (math.isfinite(factor) and 0 < factor <= _BUDGET_CEILING):
        raise ValidationError(
            f"budget must be a number > 0 and <= {_BUDGET_CEILING:g}, got {factor!r}"
        )
    return factor


def cmd_gen(args) -> int:
    kind = args.object
    if kind == "edm":
        spec = EdmSpec(_parse_values(args.values)) if args.values is not None else EdmSpec.integers(args.n)
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
            _emit(args, canonical_dumps(matrix_to_obj(difference_matrix(spec).base)))
        else:
            _emit(args, canonical_dumps(matrix_to_obj(outcome_distribution(spec))))
    return 0


def cmd_rank(args) -> int:
    m = _load(args.matrix, parse_matrix)
    _emit(args, canonical_dumps({"rows": m.rows, "cols": m.cols, "rank": rank_exact(m)}))
    return 0


def cmd_mr(args) -> int:
    target = _load(args.matrix, parse_matrix) if args.matrix else _load(args.tensor, parse_tensor)
    rep = mr_bounds(target, budget_factor=_budget_factor(args))
    _emit(args, canonical_dumps(mr_report_to_obj(rep, rational=args.rational)))
    return 0


def cmd_abp(args) -> int:
    profile = abp_profile(args.n, args.d)
    if args.csv:
        _emit_csv(
            args,
            ["level", "rank", "mrLower", "mrLowerCertified"],
            ([lv.level, lv.rank, lv.mr_lower, lv.mr_lower_certified] for lv in profile.levels),
        )
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
    obj = {
        "N": args.N,
        "lambdaMagnitude": corr.lambda_magnitude,
        "spectralReconstructionError": corr.spectral_error,
        "distributionError": corr.reconstruction_error,
        "sumP": exact_text(corr.p_matrix.entry_sum()),
        "charPoly": [exact_text(c) for c in corr.c_matrix.char_poly().coeffs],
    }
    if args.simulate:
        model = hv_model_from_factorization(corr.p_matrix, row_unit_factorization(corr.p_matrix))
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
            _emit_csv(
                args,
                ["d", "logMrExact", "logRkUpper", "separationRatio"],
                ([r.d, r.log_mr_exact, r.log_rk_upper, r.separation_ratio] for r in reports),
            )
        else:
            _emit(args, canonical_dumps([_comm_obj(r) for r in reports]))
        return 0
    _emit(args, canonical_dumps(_comm_obj(comm_report(args.nbits, args.d))))
    return 0


def cmd_dcc(args) -> int:
    m = _load(args.matrix, parse_matrix)
    _emit(args, canonical_dumps({"rows": m.rows, "cols": m.cols, "depth": dcc_exact_2party(m)}))
    return 0


def cmd_verify(args) -> int:
    report = run_verify_suite(scale=args.scale, seed=args.seed)
    for c in report.checks:
        print(f"[{c.status.upper():>4}] {c.id}: {c.observed} ({c.runtime_ms} ms)")
    if args.json:
        _emit(args, canonical_dumps(report.to_obj()))
    print(f"verify: {'all checks passed' if report.passed else 'CHECKS FAILED'}")
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` returns a
    fresh namespace on every call and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(prog="mrw", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mrw {__version__}")

    def flag(*names, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    # the shared flags, each given only to the commands that read it
    out = flag("--out", help="write output to a file instead of stdout")
    seed = flag("--seed", type=int, default=DEFAULT_SEED, help="seed for stochastic steps")
    as_csv = flag("--csv", action="store_true", help="emit a CSV table")
    rational = flag("--rational", action="store_true", help="emit exact rationals")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate objects in the shared JSON formats")
    gen_sub = gen.add_subparsers(dest="object", required=True)
    g_edm = gen_sub.add_parser("edm", parents=[out])
    g_edm.add_argument("--n", type=int, default=4)
    g_edm.add_argument("--values", help="comma-separated distinct rationals")
    g_fl = gen_sub.add_parser("flatten", parents=[out])
    g_fl.add_argument("--n", type=int, required=True)
    g_fl.add_argument("--d", type=int, required=True)
    g_fl.add_argument("--k", type=int, required=True)
    g_sub = gen_sub.add_parser("subsidiary", parents=[out])
    g_sub.add_argument("--n", type=int, required=True)
    g_sub.add_argument("--d", type=int, required=True)
    g_sub.add_argument("--root", action="store_true", help="emit the unsquared offsets")
    g_div = gen_sub.add_parser("divtensor", parents=[out])
    g_div.add_argument("--base", type=int, required=True)
    g_div.add_argument("--order", type=int, required=True)
    g_cor = gen_sub.add_parser("correlation", parents=[out])
    g_cor.add_argument("--N", type=int, required=True)
    g_cor.add_argument("--part", choices=["P", "base"], default="P")
    for p in (g_edm, g_fl, g_sub, g_div, g_cor):
        p.set_defaults(func=cmd_gen)
    gen.set_defaults(func=cmd_gen)

    rank_p = sub.add_parser("rank", parents=[out], help="exact rank of a matrix file")
    rank_p.add_argument("--matrix", required=True)
    rank_p.set_defaults(func=cmd_rank)

    mr_p = sub.add_parser("mr", parents=[out, rational],
                          help="monotone-rank bracket of a matrix/tensor file")
    mr_p.add_argument("--budget", type=float, default=1.0, help="search budget multiplier")
    src = mr_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix")
    src.add_argument("--tensor")
    mr_p.set_defaults(func=cmd_mr)

    abp_p = sub.add_parser("abp", parents=[out, as_csv], help="level rank profile")
    abp_p.add_argument("--n", type=int, required=True)
    abp_p.add_argument("--d", type=int, required=True)
    abp_p.set_defaults(func=cmd_abp)

    q_p = sub.add_parser("quantum", parents=[out, seed, rational], help="correlation pipeline report")
    q_p.add_argument("--N", type=int, required=True)
    q_p.add_argument("--simulate", type=int, default=0, help="sample this many trials")
    q_p.set_defaults(func=cmd_quantum)

    comm_p = sub.add_parser("comm", parents=[out, as_csv], help="multiparty separation report")
    comm_p.add_argument("--nbits", type=int, required=True)
    comm_p.add_argument("--d", type=int, required=True)
    comm_p.add_argument("--ladder", action="store_true", help="table of reports up to d")
    comm_p.set_defaults(func=cmd_comm)

    dcc_p = sub.add_parser("dcc", parents=[out], help="exact two-party protocol depth")
    dcc_p.add_argument("--matrix", required=True)
    dcc_p.set_defaults(func=cmd_dcc)

    ver_p = sub.add_parser("verify", parents=[out, seed], help="replay the reproduction suite")
    ver_p.add_argument("--scale", choices=["small", "full"], default="small")
    ver_p.add_argument("--json", action="store_true", help="also emit the JSON report")
    ver_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
