"""mrw benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload {verify-full,exact-pipeline,search-batch}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each repetition runs in a fresh Python
process (``child.py``) that imports ``mrw`` from ``src/``, with BLAS pinned
to one thread.  Repetitions are started until ``--seconds`` have passed.

With ``--trace 0`` every repetition is untraced and the end-to-end metrics
listed in ``BENCHMARK.json`` are reported as medians over repetitions.  With
``--trace 1`` untraced and traced repetitions alternate; the per-layer
metrics come from the traced ones, and ``trace.overhead_s`` is the
difference of the two medians.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run metadata (versions, nproc, commit, line count of ``src/mrw``).
Spans and per-repetition results are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1729
# a repetition is not started unless it can finish well inside 180 s
RUN_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0
MIN_SETUPS = 5
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(workload: str, seed: int, traced: bool, workdir: str, setup_only=False) -> dict:
    result = os.path.join(workdir, "result.json")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", **PINNED)
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--src", SRC, "--workdir", workdir, "--result", result,
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        rep = json.load(fh)
    rep["setup_s"] = rep["ready_monotonic"] - spawned
    rep["traced"] = traced
    return rep


def run_reps(workload: str, seed: int, seconds: float, trace: bool, out_dir: str):
    """Repetitions until `seconds` have passed, then set-up-only processes
    until set-up has been timed MIN_SETUPS times."""
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_child(workload, seed, traced, os.path.join(out_dir, f"rep{len(reps)}")))
        elapsed = time.monotonic() - start
        longest = max(r["setup_s"] + r["wall_s"] for r in reps)
        both_kinds = not trace or len(reps) >= 2
        if (elapsed >= seconds and both_kinds) or elapsed + 1.5 * longest > RUN_LIMIT_S:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        workdir = os.path.join(out_dir, f"setup{len(setups)}")
        setups.append(run_child(workload, seed, False, workdir, setup_only=True)["setup_s"])
    return reps, setups


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(names: list[str], reps: list[dict], setups: list[float]) -> dict[str, float]:
    values = {
        "setup_s": _median(setups),
        "wall_ref_s": _median(r["wall_ref_s"] for r in reps),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in reps),
        "bracket_gap": _median(r["bracket_gap"] for r in reps if r["bracket_gap"] is not None),
    }
    return {name: values[name] for name in names}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * int(q) // 100)) - 1]


def per_layer_value(name: str, traced: list[dict], untraced: list[dict]) -> float:
    """Evaluate one per-layer metric from its name.

    <module>.<function>.calls | .self_s | .found_ratio | .exact_ratio,
    <module>.self_s | .share, cli.<command>.p<q>_ms | .samples,
    verify.<check>.s, trace.overhead_s."""
    parts = name.split(".")
    if name == "trace.overhead_s":
        return _median(r["wall_ref_s"] for r in traced) - _median(r["wall_ref_s"] for r in untraced)
    if len(parts) == 2:
        module, stat = parts
        layer = [r["trace"]["modules"] for r in traced]
        if stat == "share":
            return _median(m.get(module, 0.0) / sum(m.values()) for m in layer)
        return _median(m.get(module, 0.0) for m in layer)
    module, item, stat = parts
    if module == "verify":
        return _median(r["check_s"][item] for r in traced if "check_s" in r)
    if module == "cli" and item != "main":
        samples = [ms for r in traced for ms in r["trace"]["cli_ms"].get(item, [])]
        if stat == "samples":
            return len(samples)
        return _percentile(samples, float(stat[1:].removesuffix("_ms")))
    funcs = [r["trace"]["functions"].get(f"{module}.{item}") for r in traced]
    funcs = [f or {"calls": 0, "self_s": 0.0, "ok": 0} for f in funcs]
    if stat == "calls":
        return funcs[0]["calls"]
    if stat == "self_s":
        return _median(f["self_s"] for f in funcs)
    if stat in ("found_ratio", "exact_ratio"):
        calls = sum(f["calls"] for f in funcs)
        return sum(f["ok"] for f in funcs) / calls if calls else 0.0
    raise ValueError(f"unknown per-layer metric {name}")


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _src_lines() -> int:
    total = 0
    pkg = os.path.join(SRC, "mrw")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mrw", "__init__.py")):
        print(f"error: no mrw package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = os.path.join(
        ROOT, ".bench_out", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    try:
        reps, setups = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = {}
    for i, rep in enumerate(reps):
        failures.update({f"rep{i} {k}": v for k, v in rep["failures"].items()})
    if len({r["bracket_gap"] for r in reps}) != 1:
        failures["bracket_gap"] = "repetitions at one seed disagree"
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        untraced = [r for r in reps if not r["traced"]]
        metrics = {
            m["name"]: {"value": per_layer_value(m["name"], traced, untraced), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in end_to_end(list(units), reps, setups).items()
        }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(reps),
        "setups": len(setups),
        "traced_repetitions": sum(r["traced"] for r in reps),
        "wall_s": [r["wall_s"] for r in reps],
        "wall_ref_s": [r["wall_ref_s"] for r in reps],
        "nproc": os.cpu_count(),
        "versions": reps[0]["versions"],
        "commit": _commit(),
        "src_mrw_lines": _src_lines(),
        "failures": failures,
    }
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "reps": reps, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(len(r["failures"]) for r in reps),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
