"""Spans around calls into the package's public functions.

The tracer replaces each listed function, in every ``sigmafp`` module that
binds it, with a wrapper that records a span: name, start, end, parent span
and request id.  A span with no open parent starts a new request.  Spans
stay in memory until the run ends; self time is a span's duration minus the
time its child spans cover.  Worker processes forked by ``jobs=2`` inherit
the wrappers but record nothing, so pool work shows as parent-side time.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) of every wrapped function, grouped by layer.
WRAPPED = (
    ("randstream", "CounterStream.uniform_int"),
    ("grassmann", "sample_rows"),
    ("grassmann", "sample_point"),
    ("grassmann", "is_virtual_subdirect"),
    ("linalg", "rref"),
    ("linalg", "det"),
    ("linalg", "cofactor"),
    ("linalg", "inverse"),
    ("linalg", "subspaces_intersect_trivially"),
    ("cones", "union_meets_subspace"),
    ("cones", "piece_subspace_lps"),
    ("cones", "cones_meet_nontrivially"),
    ("cones", "union_is_tame"),
    ("lp", "solve"),
    ("lp", "verify_farkas"),
    ("product", "build_gamma"),
    ("product", "block_subspace"),
    ("decisions", "is_finitely_presented"),
    ("decisions", "openness_certificate"),
    ("decisions", "run_measure_experiment"),
    ("formats", "parse_problem"),
    ("formats", "parse_subspace"),
    ("cli", "main"),
)

# subspaces_intersect_trivially is named after its nearest wrapped caller.
_SIT_ROLE = {
    "grassmann.is_virtual_subdirect": "vsp",
    "cones.union_meets_subspace": "prefilter",
    "cones.cones_meet_nontrivially": "prefilter",
}


def _tableau_cells(problem) -> int:
    """Entries of the phase-1 tableau the simplex builds for `problem`:
    one row per constraint; a column per nonnegative variable, two per free
    variable, one slack per inequality and one artificial per row."""
    m = len(problem.constraints)
    structural = problem.num_vars + (problem.num_vars - len(problem.nonneg_vars))
    slacks = sum(c.relation != "=" for c in problem.constraints)
    return m * (structural + slacks + m)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.stack: list[int] = []
        self.request = 0
        self.counts: Counter = Counter()
        self.active = False
        self._restore: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.active = False

    def _name(self, base: str, args, kwargs) -> str:
        if base == "linalg.subspaces_intersect_trivially":
            parent = self.spans[self.stack[-1]][0] if self.stack else ""
            return f"{base}.{_SIT_ROLE.get(parent, 'other')}"
        if base == "decisions.run_measure_experiment" and kwargs.get("jobs", 1) > 1:
            return base + ".jobs2"
        return base

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        if name == "lp.solve":
            c[f"lp.solve.{result.status}"] += 1
            c["lp.solve.tableau_cells"] += _tableau_cells(args[0])
        elif name == "linalg.rref":
            c["linalg.rref.cells"] += args[0].rows * args[0].cols
        elif name == "linalg.subspaces_intersect_trivially.prefilter" and result:
            c["cones.prefilter.skips"] += 1
        elif name == "cones.piece_subspace_lps":
            c["cones.piece_subspace_lps.lps_built"] += len(result)

    def wrap(self, base: str, fn):
        tracer, spans, stack = self, self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = tracer._name(base, args, kwargs)
            if not stack:
                tracer.request += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            tracer._count(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, sf) -> None:
        """Patch every module of the package that binds a listed function."""
        modules = [m for n, m in sys.modules.items() if n == "sigmafp" or n.startswith("sigmafp.")]
        for module_name, attr in WRAPPED:
            owner = getattr(sf, module_name)
            if "." in attr:  # a method: patch the class attribute
                cls_name, method = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [(owner, method)]
            else:
                method = attr
                fn = getattr(owner, attr)
                targets = [(m, a) for m in modules for a, v in vars(m).items() if v is fn]
            fn = getattr(owner, method)
            wrapped = self.wrap(f"{module_name}.{method}", fn)
            for target, name in targets:
                self._restore.append((target, name, fn))
                setattr(target, name, wrapped)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for target, name, fn in reversed(self._restore):
            setattr(target, name, fn)
        self._restore.clear()

    def layer_totals(self) -> tuple[Counter, Counter, Counter]:
        """Calls and self seconds per span name, and lp.solve spans that
        run under openness_certificate."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls, self_s, under_cert = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name == "lp.solve":
                p = parent
                while p is not None and self.spans[p][0] != "decisions.openness_certificate":
                    p = self.spans[p][3]
                if p is not None:
                    under_cert["calls"] += 1
                    under_cert["self_s"] += end - start - child[i]
        return calls, self_s, under_cert

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "request": request}) + "\n")


def layer_metrics(tracer: Tracer, sf) -> dict:
    """Every per-layer figure the traced run can give, by metric name."""
    calls, self_s, under_cert = tracer.layer_totals()
    counts = tracer.counts
    out = {}
    sit = "linalg.subspaces_intersect_trivially"
    names = [f"{m}.{a.split('.')[-1]}" for m, a in WRAPPED if a != sit.split(".")[1]]
    names += [f"{sit}.{role}" for role in ("vsp", "prefilter", "other")]
    names.append("decisions.run_measure_experiment.jobs2")
    for name in set(names) | set(calls):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = 1000 * self_s[name]
    out.update({k: v for k, v in counts.items() if k != "cones.prefilter.skips"})
    for status in ("feasible", "infeasible", "optimal", "unbounded"):
        out.setdefault(f"lp.solve.{status}", 0)
    out.setdefault("lp.solve.tableau_cells", 0)
    out.setdefault("linalg.rref.cells", 0)
    out.setdefault("cones.piece_subspace_lps.lps_built", 0)
    prefilter = calls["linalg.subspaces_intersect_trivially.prefilter"]
    out["cones.prefilter.skip_ratio"] = counts["cones.prefilter.skips"] / prefilter if prefilter else 0
    solved = calls["lp.solve"]
    out["cones.lp_yield"] = counts["lp.solve.feasible"] / solved if solved else 0
    points = calls["grassmann.sample_point"]
    out["grassmann.sample_rows_per_point"] = calls["grassmann.sample_rows"] / points if points else 0
    out["lp.solve.under_certify.calls"] = under_cert["calls"]
    out["lp.solve.under_certify.self_ms"] = 1000 * under_cert["self_s"]
    serial = "decisions.run_measure_experiment"
    jobs2 = serial + ".jobs2"
    if calls[serial] and calls[jobs2]:
        out[f"{serial}.pool_ms_per_call"] = 1000 * (
            self_s[jobs2] / calls[jobs2] - self_s[serial] / calls[serial])
    else:
        out[f"{serial}.pool_ms_per_call"] = 0
    out["product.block_subspace.cache_size"] = sf.product.block_subspace.cache_info().currsize
    out["cones._cone_span.cache_size"] = sf.cones._cone_span.cache_info().currsize
    out["trace.spans"] = len(tracer.spans)
    out["trace.requests"] = tracer.request
    return out
