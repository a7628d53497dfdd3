"""Spans around idsim's layer functions, recorded from outside the package.

``Tracer.install`` replaces a function under every name it is looked up by:
module attributes (including ``from .model import`` bindings in other
modules), dict values such as ``harness._RUNNERS``, and class attributes for
methods. Each call then records a span (name, start, end, parent, work) in
memory; ``save`` writes them out when the process ends. Nothing in ``src/``
changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types

from workloads import KERNELS

# The package's modules, in the order their names are searched.
MODULES = ("model", "core", "baselines", "analysis", "multicast", "harness", "cli")


def _kernel_work(fn):
    """Counter for a pair-metric kernel: rows x candidates evaluated."""
    sig = inspect.signature(fn)

    def count(args, kwargs) -> int:
        bound = sig.bind(*args, **kwargs).arguments
        y, cands = bound["y"], bound["cands"]
        rows = 1
        for dim in y.shape[:-1]:
            rows *= dim
        return rows * cands.shape[0]

    return count


def _frames(args, kwargs) -> int:
    """Counter for ``harness.run_experiment``: trials x grid points."""
    cfg = args[0] if args else kwargs["cfg"]
    return cfg.trials * len(cfg.zeta_db_grid)


class Tracer:
    def __init__(self) -> None:
        # One list per span: [name, start, end, parent index, work].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def install(self, package, names=None) -> list[str]:
        """Wrap the package's functions and methods; return the span names.

        With ``names`` only those functions are wrapped; otherwise every
        function and non-dunder method defined in ``MODULES``.
        """
        mods = [getattr(package, m) for m in MODULES]
        targets = {}  # original function -> span name
        classes = []
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, val in vars(mod).items():
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    classes.append(val)
                    for meth, fn in vars(val).items():
                        if isinstance(fn, types.FunctionType) and not meth.startswith("__"):
                            targets[fn] = f"{layer}.{val.__name__}.{meth}"
                elif isinstance(val, types.FunctionType) and val.__module__ == mod.__name__:
                    targets[val] = f"{layer}.{attr}"
        if names is not None:
            missing = set(names) - set(targets.values())
            if missing:
                raise LookupError(f"functions not found in idsim: {sorted(missing)}")
            targets = {fn: n for fn, n in targets.items() if n in names}
        wrapped = {}
        for fn, name in targets.items():
            work = _frames if name == "harness.run_experiment" else None
            if name in KERNELS:
                work = _kernel_work(fn)
            wrapped[fn] = self.wrap(name, fn, work)

        def swap(val):
            return wrapped.get(val, val) if isinstance(val, types.FunctionType) else val

        for ns in [vars(package)] + [vars(m) for m in mods]:
            for attr, val in list(ns.items()):
                if attr.startswith("__"):
                    continue
                if isinstance(val, dict):
                    for key, item in list(val.items()):
                        if swap(item) is not item:
                            val[key] = swap(item)
                elif swap(val) is not val:
                    ns[attr] = swap(val)
        for cls in classes:
            for meth, fn in list(vars(cls).items()):
                if swap(fn) is not fn:
                    setattr(cls, meth, swap(fn))
        return sorted(targets.values())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def span_stats(spans: list[list]) -> dict[str, dict]:
    """Per-name calls, total and self seconds, and summed work.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the traced code is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, _, work) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - child_time[i]
        st["work"] += work
    return stats
