"""Per-layer tracing from outside the program, by wrapping module attributes.

The tracer replaces functions of the ``oscembed`` modules (and the library
calls ``smoothness.linprog`` and ``weights.quad``) with wrappers that record
a span per call: id, parent id, thread, name, start and end.  Every module
binding of a wrapped function is replaced, so ``from .space import
load_space`` in ``cli`` is traced too.  Each thread keeps its own span
stack, so calls made in pool threads nest under their own thread's spans;
pool tasks keep a link to the span that submitted them.  A span's self time
is its duration minus the durations of its children on the same thread.

Spans are kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("space", "rearrange", "weights", "rispace", "smoothness", "embed", "corpus", "cli")

# Private functions and library bindings wrapped besides the public functions.
EXTRA = {
    "smoothness": ("_ball_average", "linprog"),
    "weights": ("quad",),
    "embed": ("_pool_map",),
}

LP_SPANS = ("smoothness.hajlasz_seminorm_l1", "smoothness.k_functional_l1",
            "smoothness.k_functional_l1_nonhomogeneous")
MODULUS_SPANS = ("smoothness.modulus", "smoothness.modulus_profile", "smoothness.nabla",
                 "smoothness.t_r_operator", "smoothness._ball_average",
                 "smoothness.besov_seminorm", "smoothness.besov_from_profile",
                 "smoothness.radius_grid", "smoothness.k_bounds")
REPORT_EXCLUDED = ("embed.measure_growth_constant", "embed.pool_task")


class Tracer:
    """Installs wrappers on the oscembed modules and records their spans."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, thread, name, start, end)
        self.lp_rows = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        sid = next(self._ids)  # one C-level call, atomic under the interpreter lock
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, threading.get_ident(), name, start, end))

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return traced

    def _wrap_linprog(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            a_ub = kwargs.get("A_ub")
            if a_ub is not None:
                with tracer._lock:
                    tracer.lp_rows += int(a_ub.shape[0])
            return tracer._call("smoothness.linprog", fn, args, kwargs)

        return traced

    def _wrap_pool_map(self, fn):
        tracer = self

        def traced(task, items):
            def run(items):
                submitter = tracer._stack()[-1]  # this _pool_map span

                def timed_task(item):
                    return tracer._call("embed.pool_task", task, (item,), {},
                                        parent=submitter)

                return fn(timed_task, items)

            return tracer._call("embed._pool_map", run, (items,), {})

        return traced

    # -- installing ----------------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"oscembed.{name}") for name in LAYERS}
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if inspect.isclass(value) and value.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    self._wrap_methods(layer, value)
                    continue
                own = inspect.isfunction(value) and value.__module__ == mod.__name__ \
                    and not attr.startswith("_")
                if not (own or attr in EXTRA.get(layer, ())):
                    continue
                if attr == "linprog":
                    wrapper = self._wrap_linprog(value)
                elif attr == "_pool_map":
                    wrapper = self._wrap_pool_map(value)
                else:
                    wrapper = self._wrap(f"{layer}.{attr}", value)
                wrapped[id(value)] = (value, wrapper)
        # rebind every module attribute that refers to a wrapped function
        for mod in [*modules.values(), importlib.import_module("oscembed")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue  # properties and class attributes
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.lp_rows = 0

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        by_id = {s[0]: s for s in spans}
        child_time = defaultdict(float)
        for sid, parent, thread, _name, start, end in spans:
            if parent is not None and by_id.get(parent, (None, None, None))[2] == thread:
                child_time[parent] += end - start
        dur = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        outer_embed = 0.0
        for sid, parent, _thread, name, start, end in spans:
            dur[name] += end - start
            self_time[name] += end - start - child_time[sid]
            calls[name] += 1
            if name.startswith("embed.") and name not in REPORT_EXCLUDED \
                    and not _has_embed_ancestor(by_id, parent):
                outer_embed += end - start

        def total(table, names):
            return sum(table[n] for n in names)

        def layer_self(prefix):
            return sum(v for k, v in self_time.items() if k.startswith(prefix))

        return {
            "space.load_s": dur["space.load_space"],
            "space.diagnostics_s": dur["space.diagnostics"],
            "space.ball_masses_calls": calls["space.Space.ball_masses"],
            "embed.growth_s": dur["embed.measure_growth_constant"],
            "embed.report_s": outer_embed,
            "embed.pool_busy_s": dur["embed.pool_task"],
            "smoothness.lp_build_s": total(self_time, LP_SPANS),
            "smoothness.linprog_s": dur["smoothness.linprog"],
            "smoothness.linprog_calls": calls["smoothness.linprog"],
            "smoothness.lp_rows": self.lp_rows,
            "smoothness.modulus_self_s": total(self_time, MODULUS_SPANS),
            "smoothness.ball_average_passes": calls["smoothness._ball_average"],
            "rispace.quasi_norm_calls": calls["rispace.quasi_norm"],
            "rispace.quasi_norm_self_s": self_time["rispace.quasi_norm"],
            "weights.integral_calls": calls["weights.PowerLog.integral_dt_over_t"],
            "weights.quad_calls": calls["weights.quad"],
            "weights.quad_s": dur["weights.quad"],
            "rearrange.rearrangement_calls": calls["rearrange.rearrangement"],
            "rearrange.self_s": layer_self("rearrange."),
        }


def write_spans(path: Path, spans: list) -> None:
    """Write spans as compact rows; times are seconds from the first start."""
    names = sorted({s[3] for s in spans})
    index = {n: k for k, n in enumerate(names)}
    t0 = min((s[4] for s in spans), default=0.0)
    threads = {}
    rows = [[sid, parent, threads.setdefault(thread, len(threads)), index[name],
             round(start - t0, 9), round(end - t0, 9)]
            for sid, parent, thread, name, start, end in spans]
    with open(path, "w") as fh:
        json.dump({"columns": ["id", "parent", "thread", "name", "start_s", "end_s"],
                   "names": names, "spans": rows}, fh, separators=(",", ":"))
        fh.write("\n")


def _has_embed_ancestor(by_id: dict, parent) -> bool:
    while parent is not None:
        span = by_id.get(parent)
        if span is None:
            return False
        if span[3].startswith("embed."):
            return True
        parent = span[1]
    return False
