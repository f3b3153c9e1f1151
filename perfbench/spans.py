"""In-memory spans around calls into the maximin package, and the per-layer
metrics derived from them.

A :class:`Tracer` replaces every public function of the package modules
(every name bound to it in any package module, so ``from .model import
validate`` bindings are covered too) with a wrapper that records one span per
call: layer, function, thread, start, end, parent span and a few facts read
from the arguments or the result.  Spans stay in memory until the traced op
ends.  It also counts calls to the private ``lp._pivot`` and credits them to
the enclosing ``simplex_solve`` span, so that the pivots of a solve that
raises (the hull oracle's phase 1 ends in ``Infeasible`` whenever the origin
is outside the hull) are counted too.  Nothing inside the package is
changed; :meth:`Tracer.install` returns a function that puts the original
functions back.

A span's self time is its duration minus the part of it that its child spans
cover.  Child spans may run on other threads (cross-validation fans out to a
thread pool), so the covered part is the length of the union of the child
intervals.  A call made on a thread with no open span of its own is parented
to the innermost open span of the thread that installed the tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import resource
import statistics
import threading
import time

LAYERS = ("cli", "io", "model", "grouping", "estimator", "lp", "oracle",
          "select", "variance", "simulate")

# rss high-water mark is read around these calls only (lp.rss_growth_mib)
_RSS_TRACKED = {"estimator.fit_maximal_penalty"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _file_bytes(args, kwargs):
    path = _arg(args, kwargs, 1, "path")
    return {"bytes": os.path.getsize(path)} if path and os.path.exists(path) else {}


def _simplex_info(args, kwargs, result):
    shape = getattr(_arg(args, kwargs, 1, "A"), "shape", None)
    return {"rows": int(shape[0]), "cols": int(shape[1])} if shape and len(shape) == 2 else {}


def _fit_info(args, kwargs, result):
    return {"iterations": int(result.iterations)} if result is not None else {}


# facts recorded per call; each probe gets (args, kwargs, result) and the
# result is None when the call raised
PROBES = {
    "lp.simplex_solve": _simplex_info,
    "estimator.fit_reweighted": _fit_info,
    "estimator.fit_with_config": _fit_info,
    "oracle.hull_projection": lambda a, k, r: (
        {"fw_iters": int(r.iterations), "gap": float(r.gap)} if r is not None else {}),
    "io.read_csv": lambda a, k, r: {"rows": int(r[0].n)} if r is not None else {},
    "io.write_fit": lambda a, k, r: _file_bytes(a, k),
    "io.write_series": lambda a, k, r: _file_bytes(a, k),
    "select.cv_group_count": lambda a, k, r: {"n_jobs": int(k.get("n_jobs", 1))},
    "cli.main": lambda a, k, r: {"command": str((_arg(a, k, 0, "argv") or ["?"])[0])},
}


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans for calls into the package while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _pivots(self) -> int:
        """Pivots made so far on this thread."""
        return getattr(self._local, "pivots", 0)

    def _count_pivots(self, fn):
        local = self._local

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            local.pivots = getattr(local, "pivots", 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        probe = PROBES.get(key)
        track_rss = key in _RSS_TRACKED
        count_pivots = key == "lp.simplex_solve"
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home and home is not stack else None
            sid = next(self._ids)
            stack.append(sid)
            rss0 = _maxrss_mib() if track_rss else 0.0
            pivots0 = self._pivots() if count_pivots else 0
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = probe(args, kwargs, result) if probe else {}
                if track_rss:
                    info["rss_growth_mib"] = _maxrss_mib() - rss0
                if count_pivots:
                    info["pivots"] = self._pivots() - pivots0
                spans.append((sid, parent, layer, name, threading.get_ident(),
                              start, end, info))

        return traced

    def install(self):
        """Wrap every public package function; returns the undo function."""
        modules = {layer: importlib.import_module(f"maximin.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        bindings = [importlib.import_module("maximin"), *modules.values()]
        undo = []
        for mod in bindings:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, name, wrappers[id(obj)][1])
                    undo.append((mod, name, obj))
        lp = modules["lp"]
        undo.append((lp, "_pivot", lp._pivot))
        lp._pivot = self._count_pivots(lp._pivot)
        self._home_stack = self._stack()

        def uninstall():
            for mod, name, obj in undo:
                setattr(mod, name, obj)

        return uninstall


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Self time of every span of one process, keyed by span id."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[5], span[6]))
    return {s[0]: (s[6] - s[5]) - _covered(children.get(s[0], ()), s[5], s[6])
            for s in spans}


_FITS = ("fit_reweighted", "fit_with_config")

# self time of these functions, summed per op, under these metric names
SELF_TIME = {
    "io.read_csv": "io.read_csv_s", "io.write_fit": "io.write_fit_s",
    "io.read_fit": "io.read_fit_s", "io.write_series": "io.write_series_s",
    "model.validate": "model.validate_s", "grouping.consecutive_blocks": "grouping.blocks_s",
    "estimator.fit_reweighted": "estimator.fit_s", "estimator.fit_with_config": "estimator.fit_s",
    "estimator.lambda_max": "estimator.lambda_max_s",
    "estimator.fit_maximal_penalty": "estimator.maximal_s",
    "estimator.rescale": "estimator.rescale_s", "lp.simplex_solve": "lp.simplex_s",
    "oracle.hull_projection": "oracle.hull_projection_s",
    "oracle.pred_maximin_effect": "oracle.pred_maximin_s",
    "select.select_penalty": "select.select_penalty_s", "select.cv_group_count": "select.cv_s",
    "variance.emp_explained_variance": "variance.emp_explained_variance_s",
    "variance.cumulative_cross_product": "variance.cumulative_cross_product_s",
}
COUNTS = ("io.fit_json_bytes", "io.series_bytes", "model.validate_calls",
          "estimator.fit_calls", "estimator.outer_iters", "lp.pivots",
          "lp.tableau_bytes_computed", "oracle.fw_iters", "variance.calls")


def layer_metrics(span_sets, import_seconds=()) -> dict:
    """Per-layer metrics of one op from the span sets of its processes.

    Times are self times in seconds summed over the op; counts are summed;
    ``lp.tableau_bytes_computed`` is the largest tableau the op built.
    """
    m = dict.fromkeys([f"{layer}.self_s" for layer in LAYERS], 0.0)
    m.update(dict.fromkeys([*SELF_TIME.values(), "cli.fit_s", "cli.evaluate_s",
                            "lp.rss_growth_mib", "oracle.fw_gap"], 0.0))
    m.update(dict.fromkeys(COUNTS, 0))
    rows = 0
    cv_wall = cv_busy = cv_capacity = 0.0
    cv_fits = 0
    for spans in span_sets:
        own = self_times(spans)
        by_id = {s[0]: s for s in spans}

        def ancestors(span):
            parent = by_id.get(span[1])
            while parent is not None:
                yield parent
                parent = by_id.get(parent[1])

        for span in spans:
            sid, _, layer, name, _, start, end, info = span
            key = f"{layer}.{name}"
            m[f"{layer}.self_s"] += own[sid]
            if key in SELF_TIME:
                m[SELF_TIME[key]] += own[sid]
            if key == "cli.main" and info.get("command") in ("fit", "evaluate"):
                m[f"cli.{info['command']}_s"] += own[sid]
            elif key == "io.read_csv":
                rows += info.get("rows", 0)
            elif key == "io.write_fit":
                m["io.fit_json_bytes"] += info.get("bytes", 0)
            elif key == "io.write_series":
                m["io.series_bytes"] += info.get("bytes", 0)
            elif key == "model.validate":
                m["model.validate_calls"] += 1
            elif key == "variance.emp_explained_variance":
                m["variance.calls"] += 1
            elif key == "lp.simplex_solve":
                m["lp.pivots"] += info.get("pivots", 0)
                if "rows" in info:
                    r, c = info["rows"], info["cols"]
                    m["lp.tableau_bytes_computed"] = max(
                        m["lp.tableau_bytes_computed"], 8 * (r + 1) * (c + r + 1))
            elif key == "estimator.fit_maximal_penalty":
                m["lp.rss_growth_mib"] = max(m["lp.rss_growth_mib"],
                                             info.get("rss_growth_mib", 0.0))
            elif key == "oracle.hull_projection":
                m["oracle.fw_iters"] += info.get("fw_iters", 0)
                m["oracle.fw_gap"] = max(m["oracle.fw_gap"], info.get("gap", 0.0))
            elif key == "select.cv_group_count":
                cv_wall += end - start
                cv_capacity += (end - start) * info.get("n_jobs", 1)
            if layer == "estimator" and name in _FITS:
                outer = [a for a in ancestors(span) if a[2] == "estimator" and a[3] in _FITS]
                if not outer:
                    m["estimator.fit_calls"] += 1
                    m["estimator.outer_iters"] += info.get("iterations", 0)
                    if any(a[2] == "select" and a[3] == "cv_group_count"
                           for a in ancestors(span)):
                        cv_fits += 1
                        cv_busy += end - start
    # the rank-1 update in lp._pivot writes and reads one tableau-sized
    # temporary and reads and writes the tableau: four tableau sweeps a pivot
    m["lp.bytes_per_pivot_computed"] = 4 * m["lp.tableau_bytes_computed"]
    m["io.read_csv_rows_per_s"] = rows / m["io.read_csv_s"] if m["io.read_csv_s"] > 0 else 0.0
    m["select.fits_per_s"] = cv_fits / cv_wall if cv_wall > 0 else 0.0
    m["select.parallel_efficiency"] = cv_busy / cv_capacity if cv_capacity > 0 else 0.0
    m["cli.import_s"] = statistics.mean(import_seconds) if import_seconds else 0.0
    return m


# counts that must repeat exactly across traced runs of one seed
EXACT_COUNTS = ("lp.pivots", "estimator.outer_iters", "oracle.fw_iters",
                "model.validate_calls", "io.fit_json_bytes", "variance.calls")
