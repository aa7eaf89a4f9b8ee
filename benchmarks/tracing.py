"""Span tracing of mrw's layers, done from outside the package.

The tracer replaces every binding of the listed public functions across the
``mrw`` and ``mrw.*`` module namespaces with a wrapper that records a span
(name, start, end, parent) in memory.  Modules import each other with
``from .x import y`` and ``mr_bounds`` imports ``nmf_search`` lazily, so
patching only the defining module would miss calls; patching every namespace
that holds the same function object catches all of them.  Methods are
patched on their class.  Nothing under ``src/mrw`` is changed on disk, and
``uninstall`` restores every original binding.

A span's self time is its duration minus the time its child spans cover.
Unlisted helpers (for example ``hadamard`` inside ``abp_profile``) count in
the self time of the listed function that called them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# module -> public functions that form the layer boundary
LAYERS = {
    "ratlinalg": ("rank_exact", "det_exact", "char_poly_exact"),
    "dtensor": ("DenseTensor.mode_flattening",),
    "constructions": ("flattening", "edm", "build_correlation"),
    "numkit": ("nmf_search", "cp_als", "antisym_spectral", "verify_nonneg_factorization"),
    "bounds": ("box_cover_exact", "mr_bounds", "support_pattern"),
    "models": ("dcc_exact_2party", "abp_profile", "hv_model_from_factorization", "hv_sample"),
    "serialize": ("parse_matrix", "parse_tensor", "canonical_dumps"),
    "cli": ("main",),
    "verify": ("run_verify_suite",),
}

# useful-outcome predicates for the layers that can waste work
OUTCOMES = {
    "numkit.nmf_search": lambda result: result is not None,
    "bounds.box_cover_exact": lambda result: result.exact,
}

# a tag recorded with the span: the subcommand of a CLI call
TAGS = {
    "cli.main": lambda args, kwargs: (args[0] if args else kwargs["argv"])[0],
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag", "ok")

    def __init__(self, name: str, parent: int, tag):
        self.name = name
        self.parent = parent
        self.tag = tag
        self.ok = None
        self.start = self.end = 0.0

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "tag": self.tag,
            "ok": self.ok,
        }


class Tracer:
    """Collects spans for every call into the listed functions while
    installed.  Single-threaded: the open-span stack gives each span its
    parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        outcome = OUTCOMES.get(name)
        tag_of = TAGS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, tag_of(args, kwargs) if tag_of else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if outcome is not None:
                span.ok = bool(outcome(result))
            return result

        return traced

    def install(self) -> None:
        import mrw  # noqa: F401
        import mrw.cli  # noqa: F401  (the package does not import its CLI)

        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "mrw" or n.startswith("mrw.")]
        for module, names in LAYERS.items():
            home = sys.modules[f"mrw.{module}"]
            for qualname in names:
                name = f"{module}.{qualname.split('.')[-1]}"
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[str, str]]:
        return [(getattr(o, "__name__", repr(o)), a) for o, a, _ in self._patches]


def self_times(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Per span: (self time, time covered by its direct children).

    Spans come from one thread, so the children of a span run one after
    another inside it and their durations add up to the covered time."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)], covered


def summarize(spans: list[Span]) -> dict:
    """Per-function and per-module aggregates of one traced repetition."""
    selfs, _ = self_times(spans)
    funcs: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "ok": 0})
    modules: dict[str, float] = defaultdict(float)
    cli_ms: dict[str, list[float]] = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        f = funcs[span.name]
        f["calls"] += 1
        f["self_s"] += self_s
        f["ok"] += bool(span.ok)
        modules[span.name.split(".")[0]] += self_s
        if span.name == "cli.main":
            cli_ms[span.tag].append((span.end - span.start) * 1000.0)
    return {"functions": dict(funcs), "modules": dict(modules), "cli_ms": dict(cli_ms)}

