"""One repetition of one workload, in a fresh Python process.

Started by ``run.py``; not meant to be run by hand.  It imports the library
from the checkout's ``src`` directory, builds the workload's inputs, runs the
timed operations (with or without the tracer), checks the outputs after the
timed region and writes one JSON result file.  A fresh process per
repetition keeps module-global caches (the protocol-depth memo in
``mrw.models``) from carrying over between repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True, help="directory that holds the mrw package")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop when inputs are ready")
    args = parser.parse_args(argv)

    # set-up: the imports a user pays for, then input generation and files
    import numpy
    import scipy
    import scipy.optimize  # noqa: F401  (nmf_search imports it on first use)

    import mrw
    import mrw.cli  # noqa: F401

    expected = os.path.realpath(os.path.join(args.src, "mrw"))
    if os.path.dirname(os.path.realpath(mrw.__file__)) != expected:
        print(f"error: imported mrw from {mrw.__file__}, expected {expected}", file=sys.stderr)
        return 3

    from speed import SpeedProbe
    from tracing import Tracer, summarize
    from workloads import WORKLOADS, verify_check_times

    make_inputs, prepare, operations, check = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    prepared = prepare(make_inputs(args.seed), args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"ready_monotonic": ready}, fh)
        return 0

    # the tracer must be in place before the operations look up functions
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ops = operations(prepared)
    outputs, raised = [], {}
    with SpeedProbe() as probe:
        start = time.perf_counter()
        for label, thunk in ops:
            try:
                outputs.append(thunk())
            except Exception as exc:  # a raising operation is a failed one
                outputs.append(None)
                raised[label] = f"raised {exc!r}"
        wall = time.perf_counter() - start - probe.handler_s
    if tracer:
        tracer.uninstall()

    attempted, failures, gap = len(ops), raised, None
    if not raised:
        try:
            attempted, failures, gap = check(prepared, outputs)
        except Exception as exc:  # unreadable output counts as one failure
            failures = {"check": f"raised {exc!r}"}
    result = {
        "ready_monotonic": ready,
        "wall_s": wall,
        "wall_ref_s": wall * probe.speed(),
        "probe_samples": probe.samples,
        "attempted": attempted,
        "failures": failures,
        "bracket_gap": gap,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_version(numpy),
        },
    }
    if args.workload == "verify-full" and not raised:
        result["check_s"] = verify_check_times(outputs)
    if tracer:
        result["trace"] = summarize(tracer.spans)
        with open(os.path.join(args.workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([s.to_obj() for s in tracer.spans], fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _blas_version(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


if __name__ == "__main__":
    sys.exit(main())
