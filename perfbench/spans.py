"""Spans around calls into riemcond's public functions, kept in memory.

A Tracer replaces every module attribute that binds a traced function with a
wrapper, not only the attribute in the function's home module: experiments
and solver import mv_jacobian and compact_qr by name, and the riemcond
package re-exports most of them. Camera.center_homogeneous is wrapped on the
class. scipy.linalg.svd and svdvals are counted, not spanned.

Each span is (name, start_ns, end_ns, parent, call_id, raised, out): parent is
the index of the enclosing span (-1 at the top), call_id the benchmark call it
belongs to, and out a small summary of the return value for the functions in
OUTCOMES. A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys

import scipy.linalg

from env import CLOCK

# Home module (under riemcond) -> public functions that get a span.
TRACED = {
    "multiview": (
        "mv_domain_check",
        "mv_project",
        "mv_jacobian",
        "mv_weingarten",
        "mv_weingarten_hat",
        "kappa_from_factors",
        "mv_kappa",
        "triangulate_linear",
    ),
    "linalg": ("compact_qr", "congruence_by_inverse"),
    "curvature": ("weingarten",),
    "condition": ("kappa_bounds",),
    "solver": ("lm_minimize", "triangulate"),
    "experiments": ("experiment_sweep", "experiment_validate"),
}
METHODS = (("multiview", "Camera", "center_homogeneous"),)
SVD_FUNCTIONS = ("svd", "svdvals")

# Return-value summaries kept on the span.
OUTCOMES = {
    "mv_domain_check": lambda ok: bool(ok),
    "lm_minimize": lambda res: (res.iterations, res.status.value == "Converged"),
}


def traced_names():
    names = [fn for fns in TRACED.values() for fn in fns]
    names += [method for _, _, method in METHODS]
    return names


class Tracer:
    """Context manager that installs the wrappers on entry and restores them on exit."""

    def __init__(self):
        self.spans = []
        self.svd_calls = {}  # call_id -> count
        self.call_id = -1
        self._stack = []
        self._restore = []

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, CLOCK
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.call_id, True, None)
                raise
            end = clock()
            stack.pop()
            out = outcome(result) if outcome is not None else None
            spans[idx] = (name, start, end, parent, self.call_id, False, out)
            return result

        return traced

    def _svd_counter(self, fn):
        counts = self.svd_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[self.call_id] = counts.get(self.call_id, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "riemcond" or n.startswith("riemcond."))]
        for home, names in TRACED.items():
            home_mod = sys.modules[f"riemcond.{home}"]
            for name in names:
                original = getattr(home_mod, name)
                wrapper = self._span_wrapper(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for home, cls_name, name in METHODS:
            cls = getattr(sys.modules[f"riemcond.{home}"], cls_name)
            self._patch(cls, name, self._span_wrapper(name, vars(cls)[name]))
        for name in SVD_FUNCTIONS:
            self._patch(scipy.linalg, name, self._svd_counter(getattr(scipy.linalg, name)))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path) -> None:
        """Write the spans as gzip'd JSON lines."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, svd_calls, window_calls, window_items, items):
    """Per-layer metrics from recorded spans.

    Counts cover the first window_calls benchmark calls (window_items items),
    so they repeat exactly for a seed; times cover every traced call (items).
    """
    n = len(spans)
    child_ns = [0] * n
    under_lm = [False] * n
    for i, (name, start, end, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            under_lm[i] = under_lm[parent] or spans[parent][0] == "lm_minimize"

    names = traced_names()
    calls = dict.fromkeys(names, 0)
    raised = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    rejects = lm_iters = lm_converged = lm_projects = lm_domain = 0
    for i, (name, start, end, parent, call_id, did_raise, out) in enumerate(spans):
        self_ns[name] += end - start - child_ns[i]
        if call_id >= window_calls:
            continue
        calls[name] += 1
        raised[name] += did_raise
        if name == "mv_domain_check" and out is False:
            rejects += 1
        elif name == "lm_minimize" and out is not None:
            lm_iters += out[0]
            lm_converged += out[1]
        if under_lm[i]:
            lm_projects += name == "mv_project"
            lm_domain += name == "mv_domain_check"

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name in names:
        metrics[f"{name}.calls_per_item"] = (ratio(calls[name], window_items), "count")
        metrics[f"{name}.self_ms_per_item"] = (ratio(self_ns[name] / 1e6, items), "ms")
        metrics[f"{name}.raised"] = (ratio(raised[name], window_items), "count")
    metrics["mv_domain_check.reject_frac"] = (ratio(rejects, calls["mv_domain_check"]), "frac")
    lm = calls["lm_minimize"]
    metrics["lm_minimize.iters_per_call"] = (ratio(lm_iters, lm), "count")
    metrics["lm_minimize.converged_frac"] = (ratio(lm_converged, lm), "frac")
    metrics["lm_minimize.project_calls_per_call"] = (ratio(lm_projects, lm), "count")
    metrics["lm_minimize.domain_checks_per_call"] = (ratio(lm_domain, lm), "count")
    svd = sum(c for call_id, c in svd_calls.items() if 0 <= call_id < window_calls)
    metrics["scipy.svd.calls_per_item"] = (ratio(svd, window_items), "count")
    return metrics
