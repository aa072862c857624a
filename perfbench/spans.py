"""Spans around the package's public functions, recorded from outside.

A Tracer wraps each function in TARGETS.  It replaces the attribute on the
defining module and on every loaded `delrank` module that holds the same
function object, so calls through `from .model import from_coords` are
traced as well as calls through `model.from_coords`.  Each call appends a
span (name, start, end, parent span, job, counts) to an in-memory list.

Per-layer metrics are derived from the spans of one pass.  A span's self
time is its duration minus the durations of its child spans; spans of one
thread nest, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TARGETS = {
    "cli": ("main", "load_polytope_file"),
    "model": (
        "from_coords",
        "from_distances",
        "distance_matrix",
        "circumcenter",
        "is_centrally_symmetric",
        "verify_empty_sphere",
    ),
    "deps": ("dependency_module",),
    "basis": ("classify_basicity", "is_affine_basis"),
    "rank": ("rank_of", "bspace_constraints"),
    "hyp": ("face_dimension", "face_system"),
    "exact": ("rank", "solve", "sparse_rank", "hermite_normal_form", "is_positive_definite"),
}


def _cells(args, result):
    m = args[0]
    return {"cells": len(m) * (len(m[0]) if m else 0)}


def _sparse(args, result):
    rows = args[0]
    return {"rows": len(rows), "nnz": sum(len(r) for r in rows), "rank": result}


# counts taken from a traced call's arguments and result, outside its timed interval
COUNTS = {
    "exact.rank": _cells,
    "exact.sparse_rank": _sparse,
    "model.verify_empty_sphere": lambda args, result: {"points": result.points_checked},
    "basis.classify_basicity": lambda args, result: {"tested": result.tested},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, job, counts)
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counts = COUNTS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job, None)
            if counts is not None:
                spans[sid] = (name, start, end, parent, self.job, counts(args, result))
            return result

        return traced

    def take(self) -> list[tuple]:
        """The spans recorded since the last take; parent indices point into this list."""
        out, self.spans = self.spans, []
        return out

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key == "delrank" or key.startswith("delrank.")]
        for short, names in TARGETS.items():
            home = sys.modules[f"delrank.{short}"]
            for fname in names:
                original = getattr(home, fname)
                traced = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, traced)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one pass, named <module>.<function>.<measure>."""
    calls = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    for name, start, end, parent, _job, extra in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
            if name == "exact.rank" and spans[parent][0] == "basis.classify_basicity":
                counts["basis.classify_basicity"]["visited"] += 1
        if extra:
            for key, value in extra.items():
                counts[name][key] += value
    self_s = defaultdict(float)
    for sid, (name, start, end, *_rest) in enumerate(spans):
        self_s[name] += end - start - child[sid]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for short, names in TARGETS.items():
        for fname in names:
            name = f"{short}.{fname}"
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = total[name]
            m[f"{name}.self_s"] = self_s[name]
    sphere = counts["model.verify_empty_sphere"]
    m["model.verify_empty_sphere.points"] = sphere["points"]
    m["model.verify_empty_sphere.points_per_s"] = ratio(sphere["points"], total["model.verify_empty_sphere"])
    search = counts["basis.classify_basicity"]
    m["basis.classify_basicity.visited"] = search["visited"]
    m["basis.classify_basicity.tested"] = search["tested"]
    m["basis.classify_basicity.useful_ratio"] = ratio(search["tested"], search["visited"])
    sparse = counts["exact.sparse_rank"]
    m["exact.sparse_rank.rows"] = sparse["rows"]
    m["exact.sparse_rank.nnz"] = sparse["nnz"]
    m["exact.sparse_rank.pivot_ratio"] = ratio(sparse["rank"], sparse["rows"])
    m["exact.rank.cells"] = counts["exact.rank"]["cells"]
    return m
