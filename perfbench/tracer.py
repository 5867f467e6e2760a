"""Outside-in span tracer for the finslerkelvin package.

`Tracer.install()` replaces the functions and methods of the eight layer
modules with timing wrappers, at every place the package binds them: the
defining module, every module that imported the name with
`from .x import y`, the package namespace, and the class dictionaries of
the norm, field, context and report classes.  The program's source is not
touched.

Each wrapped call is one span (id, parent id, name, start, end), kept in
per-thread in-memory lists and written once by `dump()`.  Every thread
has its own span stack; the work items that `verify._pmap` hands to its
thread pool are recorded as spans whose parent is the submitting `_pmap`
span, so worker time is never credited to the caller's self time.  A few
spans also carry one number (`aux`): Newton iterations, points evaluated,
bytes rendered, pool width, worker CPU time.

`layer_metrics()` reads a dump back and derives the per-layer numbers.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from types import FunctionType

import numpy as np

PACKAGE = "finslerkelvin"
LAYERS = ("cli", "verify", "sampling", "norms", "fields", "kelvin",
          "operators", "report")
# Private helpers traced besides the public names: the Newton dual (its
# iteration count is the layer's work), the thread pool, and the chain-rule
# jet, which runs as a closure behind `ScalarField.jet` and would otherwise
# be credited to the fields layer.
PRIVATE = ("verify._pmap", "norms._support_point", "kelvin._pullback_jet")
TRACED_DUNDERS = ("__init__", "__call__")
PMAP = "verify._pmap"
PMAP_ITEM = "verify._pmap.item"
SUITE_SPANS = {
    "verify.run_identity_suite": "identities",
    "verify.run_kelvin_suite": "kelvin",
    "verify.run_counterexample_scan": "counterexample",
    "verify.run_semilinear_suite": "semilinear",
    "verify.run_nlaplace_suite": "nlaplace",
}
SPAN_FIELDS = 5  # id, parent, name, start, end


class _ThreadBuffers(threading.local):
    """Span stack and recorded spans/aux values of the current thread."""

    def __init__(self, registry: list, lock: threading.Lock):
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.aux: list[tuple] = []
        with lock:
            registry.append((self.spans, self.aux))


class Tracer:
    """Records spans of the package's layers once `install()` has run."""

    def __init__(self):
        self._names: list[str] = []
        self._ids = itertools.count()
        self._registry: list = []
        self._local = _ThreadBuffers(self._registry, threading.Lock())
        self._halton: list[tuple[int, int, int]] = []

    def _name_id(self, name: str) -> int:
        self._names.append(name)
        return len(self._names) - 1

    # -- aux hooks ---------------------------------------------------------

    def _aux_hook(self, name: str):
        if name == "norms._support_point":
            return lambda args, kwargs, result: result[2]
        if name == "fields.ScalarField.__call__":
            return lambda args, kwargs, result: np.size(args[1]) // args[0].dim
        if name.startswith("report.render_"):
            return lambda args, kwargs, result: len(result)
        if name == "sampling.halton":
            return self._halton_call
        return None

    def _halton_call(self, args, kwargs, result) -> int:
        count, dim = args[0], args[1]
        skip = kwargs.get("skip", args[2] if len(args) > 2 else 0)
        self._halton.append((dim, skip, count))
        return count

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        aux = self._aux_hook(name)
        local, ids, clock = self._local, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            stack = local.stack
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                local.spans.append((sid, parent, name_id, start, clock()))
            if aux is not None:
                local.aux.append((sid, aux(args, kwargs, result)))
            return result

        return traced

    def _wrap_pmap(self, fn):
        pmap_id, item_id = self._name_id(PMAP), self._name_id(PMAP_ITEM)
        local, ids, clock = self._local, self._ids, time.perf_counter

        def traced_pmap(work, items, *rest, **kwargs):
            threads = rest[0] if rest else kwargs.get("threads", 1)
            stack = local.stack
            parent = stack[-1] if stack else -1
            sid = next(ids)

            def item(x):
                # runs on a pool thread (empty stack) or inline; either way
                # the submitting _pmap span is the parent
                inner = local.stack
                isid = next(ids)
                inner.append(isid)
                start, cpu = clock(), time.thread_time()
                try:
                    return work(x)
                finally:
                    cpu = time.thread_time() - cpu
                    inner.pop()
                    local.spans.append((isid, sid, item_id, start, clock()))
                    local.aux.append((isid, cpu))

            stack.append(sid)
            start = clock()
            try:
                return fn(item, items, *rest, **kwargs)
            finally:
                stack.pop()
                local.spans.append((sid, parent, pmap_id, start, clock()))
                local.aux.append((sid, float(threads or 1)))

        return traced_pmap

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                  for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, module in layers.items():
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (isinstance(obj, FunctionType)
                        and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or name in PRIVATE)):
                    wrapper = (self._wrap_pmap(obj) if name == PMAP
                               else self._wrap(obj, name))
                    for ns in namespaces:
                        _rebind(ns, obj, wrapper)
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._install_methods(obj, layer, module.__file__)

    def _install_methods(self, cls: type, layer: str, source: str) -> None:
        for attr, fn in list(vars(cls).items()):
            # dataclass-generated methods have no source file of their own
            if (isinstance(fn, FunctionType)
                    and fn.__code__.co_filename == source
                    and (not attr.startswith("_") or attr in TRACED_DUNDERS)):
                _rebind(cls, fn, self._wrap(fn, f"{layer}.{cls.__name__}.{attr}"))

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every recorded span (with its thread index) to `path`."""
        spans, aux = [], []
        for thread, (thread_spans, thread_aux) in enumerate(self._registry):
            rows = np.array(thread_spans, dtype=float).reshape(-1, SPAN_FIELDS)
            spans.append(np.column_stack([rows, np.full(len(rows), thread)]))
            aux.append(np.array(thread_aux, dtype=float).reshape(-1, 2))
        np.savez(path,
                 spans=np.concatenate(spans),
                 aux=np.concatenate(aux),
                 names=np.array(self._names),
                 halton=np.array(self._halton, dtype=float).reshape(-1, 3))


def _rebind(namespace, original, wrapper) -> None:
    for key, value in list(vars(namespace).items()):
        if value is original:
            setattr(namespace, key, wrapper)


# ---------------------------------------------------------------------------
# analysis


def _distinct_halton_points(calls: np.ndarray) -> int:
    """Size of the union of Halton index ranges, per dimension."""
    total = 0
    for dim in np.unique(calls[:, 0]):
        ranges = sorted((int(s), int(s + c)) for _, s, c in calls[calls[:, 0] == dim])
        hi = -1
        for lo, end in ranges:
            total += max(0, end - max(lo, hi))
            hi = max(hi, end)
    return total


def layer_metrics(path: str, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, from the spans `dump()` wrote.

    A span's self time is its duration minus the durations of its children
    on the same thread.  The `_pmap` spans that ran a thread pool are pure
    waiting on the submitting thread: their time is `verify.pool_wait_s`,
    not verify self time, and their worker items count on their own
    threads.  `wall_s` is the traced process's wall time from spawn until
    `cli.main` returned; the share of it that layer self time explains is
    `trace.coverage_ratio`.
    """
    with np.load(path) as dump:
        spans, aux_rows = dump["spans"], dump["aux"]
        names, halton = [str(n) for n in dump["names"]], dump["halton"]
    sid, parent, name, start, end, thread = spans.T
    name = name.astype(int)
    dur = end - start
    order = np.argsort(sid)
    has_parent = parent >= 0
    pidx = order[np.searchsorted(sid[order], parent)]
    pidx[~has_parent] = -1
    same = has_parent & (thread[pidx] == thread)
    self_time = dur - np.bincount(pidx[same], weights=dur[same], minlength=len(sid))
    aux = np.zeros(len(sid))
    aux[order[np.searchsorted(sid[order], aux_rows[:, 0])]] = aux_rows[:, 1]

    def mask(predicate) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if predicate(n)]
        return np.isin(name, ids)

    def named(*full) -> np.ndarray:
        return mask(lambda n: n in full)

    pool = named(PMAP) & (aux > 1)
    pool_items = named(PMAP_ITEM) & has_parent & pool[np.maximum(pidx, 0)]
    self_time[pool] = 0.0
    pool_capacity = float(np.sum(dur[pool] * aux[pool]))
    layer_self = {layer: float(self_time[mask(lambda n, l=layer: n.split(".")[0] == l)].sum())
                  for layer in LAYERS}

    out = {f"{layer}.self_s": value for layer, value in layer_self.items()}
    for span, suite in SUITE_SPANS.items():
        out[f"verify.suite_s.{suite}"] = float(dur[named(span)].sum())
    out["verify.pool_wait_s"] = float(dur[pool].sum())
    out["verify.pool_busy_ratio"] = (float(aux[pool_items].sum()) / pool_capacity
                                     if pool_capacity else 0.0)

    generated = float(halton[:, 2].sum()) if len(halton) else 0.0
    out["sampling.points_generated"] = generated
    out["sampling.plan_reuse_ratio"] = (_distinct_halton_points(halton) / generated
                                        if generated else 0.0)

    def method_calls(layer: str, method: str) -> float:
        return float(mask(lambda n: n.startswith(layer + ".")
                          and n.endswith("." + method)).sum())

    newton = named("norms._support_point")
    out["norms.jet_calls"] = method_calls("norms", "jet")
    out["norms.value_calls"] = method_calls("norms", "value")
    out["norms.newton_solves"] = float(newton.sum())
    out["norms.newton_iters_mean"] = float(aux[newton].mean()) if newton.any() else 0.0
    out["norms.newton_iters_max"] = float(aux[newton].max()) if newton.any() else 0.0

    out["fields.jet_calls"] = float(named("fields.ScalarField.jet").sum())
    out["fields.eval_calls"] = float(named("fields.ScalarField.__call__").sum())

    out["kelvin.map_calls"] = float(named("kelvin.kelvin_map", "kelvin.kelvin_inverse").sum())
    out["kelvin.jacobian_calls"] = float(named("kelvin.jacobian_matrix").sum())
    out["kelvin.context_builds"] = float(named("kelvin.KelvinContext.__init__").sum())

    jets = named("operators.numeric_jet")
    stencil_evals = (named("fields.ScalarField.__call__") & has_parent
                     & jets[np.maximum(pidx, 0)])
    out["operators.numeric_jets"] = float(jets.sum())
    out["operators.field_points_per_jet"] = (float(aux[stencil_evals].sum()) / jets.sum()
                                             if jets.any() else 0.0)
    out["operators.operator_calls"] = float(named("operators.anisotropic_laplacian",
                                                  "operators.finsler_n_laplacian").sum())

    out["report.bytes"] = float(aux[mask(lambda n: n.startswith("report.render_"))].sum())
    out["trace.coverage_ratio"] = sum(layer_self.values()) / wall_s
    return out
