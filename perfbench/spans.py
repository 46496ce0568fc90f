"""Outside-in spans around kplane's public functions, and the per-layer
metrics derived from them.

Each traced function is replaced in every ``kplane*`` module namespace that
holds the function object: extremal, cc, verify and the package itself bind
``apply_T`` and the rest by name, so patching ``kplane.transform`` alone would
miss most calls. No source of the package changes. Spans stay in memory as
dicts (name, start, end, parent index, op id) and are written out once, after
the timed body.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

from metrics import PER_LAYER

SUITE_FUNCTIONS = {
    "suite_concentration_k2": "concentration-k2",
    "suite_concentration_k1": "concentration-k1",
    "suite_slide": "slide",
    "suite_superadditivity": "superadd",
    "suite_compactness": "compactness",
    "suite_truncation": "truncation",
    "suite_interaction": "interaction",
}


def _operator_key(args, kwargs):
    """(grid, k, d, splits) of an apply_T / apply_T_adjoint call; None for
    indicator-backed profiles, which take the closed form and build nothing."""
    params = kwargs.get("params", args[0] if args else None)
    prof = args[1] if len(args) > 1 else kwargs.get("f", kwargs.get("g"))
    if prof.indicator is not None:
        return {"key": None}
    return {"key": (prof.grid.fingerprint(), params.k, params.d, prof.splits)}


def _cli_name(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None) or ["main"]
    return {"name": f"cli.{argv[0]}"}


def _file_position(args, kwargs):
    path = kwargs.get("path", args[0])
    return {"pos0": path.tell() if hasattr(path, "tell") else None}


def _bytes_written(out, span, args, kwargs):
    path = kwargs.get("path", args[0])
    if span["pos0"] is None:
        return {"bytes": os.path.getsize(path)}
    return {"bytes": path.tell() - span["pos0"]}


def _search_counts(out, span, args, kwargs):
    return {"iterations": out.iterations_used, "damped": len(out.damped_steps),
            "recentered": len(out.recentered_steps)}


def _suite_failed(out, span, args, kwargs):
    return {"failed": sum(not r.passed for r in out)}


#: (module, attribute, span name, pre hook, post hook); a pre hook returns
#: span fields known before the call, a post hook fields read from the result
TARGETS = (
    ("kplane.transform", "apply_T", "transform.apply_T", _operator_key, None),
    ("kplane.transform", "apply_T_adjoint", "transform.apply_T_adjoint",
     _operator_key, None),
    ("kplane.transform", "apply_T_indicator", "transform.apply_T_indicator", None, None),
    ("kplane.transform", "discretize_T_R", "transform.discretize_T_R", None, None),
    ("kplane.transform", "singular_value_profile",
     "transform.singular_value_profile", None, None),
    ("kplane.extremal", "search_extremizer", "extremal.search_extremizer",
     None, _search_counts),
    ("kplane.extremal", "functional_ratio", "extremal.functional_ratio", None, None),
    ("kplane.extremal", "constant_B_with_error", "extremal.constant_B_with_error",
     None, None),
    ("kplane.symmetry", "normalize_dilation", "symmetry.normalize_dilation", None, None),
    ("kplane.symmetry", "dilate_profile", "symmetry.dilate_profile", None, None),
    ("kplane.symmetry", "rearrange", "symmetry.rearrange", None, None),
    ("kplane.symmetry", "truncate", "symmetry.truncate", None, None),
    ("kplane.cc", "interaction_term", "cc.interaction_term", None, None),
    ("kplane.cc", "interaction_bound_check", "cc.interaction_bound_check", None, None),
    ("kplane.cc", "classify_trichotomy", "cc.classify_trichotomy", None, None),
    ("kplane.core", "weighted_lp_norm", "core.weighted_lp_norm", None, None),
    ("kplane.core", "make_grid", "core.make_grid", None, None),
    ("kplane.core", "indicator_profile", "core.indicator_profile", None, None),
    ("kplane.core", "write_profile_csv", "core.write_profile_csv",
     _file_position, _bytes_written),
    ("kplane.cli", "main", "cli", _cli_name, None),
) + tuple(("kplane.verify", fn, f"verify.{suite}", None, _suite_failed)
          for fn, suite in SUITE_FUNCTIONS.items())


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name, pre, post):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "op": self.op}
            if pre is not None:
                span.update(pre(args, kwargs))
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = clock()
                stack.pop()
            if post is not None:
                span.update(post(out, span, args, kwargs))
            return out

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "kplane" or n.startswith("kplane.")]
        for module, attr, name, pre, post in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(original, name, pre, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                row = dict(span)
                if row.get("key") is not None:
                    row["key"] = repr(row["key"])
                fh.write(json.dumps(row) + "\n")


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(spans: list[dict], wall_s: float) -> dict:
    """Per-layer metrics of PER_LAYER (all but trace_overhead_frac, which
    needs an untraced run) from one traced body.

    ``X.s`` is the inclusive time of span X, ``X.self_s`` that time minus the
    time of its child spans. For the operator applies, the first call per
    operator key stands in for the build and later calls are repeats."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    agg: dict = defaultdict(lambda: defaultdict(float))
    roots_s = 0.0
    for span, inner in zip(spans, child_s):
        dur = span["end"] - span["start"]
        span["self_s"] = dur - inner
        row = agg[span["name"]]
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - inner
        for field in ("iterations", "damped", "recentered", "failed", "bytes"):
            row[field] += span.get(field, 0)
        if span["parent"] is None:
            roots_s += dur
    for name in ("transform.apply_T", "transform.apply_T_adjoint"):
        seen, repeats = set(), []
        row = agg[name]
        for span in spans:
            if span["name"] != name or span.get("key") is None:
                continue
            dur = span["end"] - span["start"]
            if span["key"] in seen:
                repeats.append(dur)
            else:
                seen.add(span["key"])
                row["first_s"] += dur
        row["distinct"] = len(seen)
        row["repeat_s"] = sum(repeats)
        row["repeat_p50_ms"] = 1e3 * statistics.median(repeats) if repeats else 0.0
        row["repeat_p90_ms"] = 1e3 * _p90(repeats)
    out = {}
    for metric, _unit in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if layer:
            out[metric] = float(agg[layer][field]) if layer in agg else 0.0
    out["trace_coverage_frac"] = roots_s / wall_s if wall_s > 0 else 0.0
    return out
