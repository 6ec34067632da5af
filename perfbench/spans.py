"""Span recorder for the traced benchmark run.

The program itself carries no tracing.  ``SpanRecorder.install`` wraps the
public functions of each ``pgroups`` layer module and rebinds every
``pgroups.*`` name that refers to them, so calls across modules, and calls
within a module through its globals, are recorded.  Per-element helpers are
left alone; their cost lands in the caller's self time.

A span is ``(layer, name, start, end, parent)``; a request's spans share
its root span, ``pgroups.cli.main``.  Spans stay in memory until ``summary``
turns them into per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = (
    "groups",
    "indicators",
    "matrix",
    "lattice",
    "endos",
    "symbolic",
    "claims",
    "reports",
    "cli",
)

#: Called once per element or per pair; wrapping them would time the wrapper.
PER_ELEMENT_HELPERS = frozenset(
    {
        "add",
        "neg",
        "smul",
        "height",
        "exponent",
        "ind_of",
        "precedes",
        "apply",
        "compose",
        "endo_add",
    }
)

DAGGER_FUNCTIONS = frozenset({"dagger_subgroup", "dagger_ideal"})

#: Counters that come with every layer, whether or not it was called.
_LAYER_COUNTERS = tuple(f"{layer}.calls" for layer in LAYERS)
_EXTRA_COUNTERS = (
    "endos.dagger_calls",
    "endos.action_entries",
    "endos.ideals_found",
    "endos.ring_builds",
    "indicators.elements_scanned",
    "groups.elements_materialized",
    "lattice.nodes_found",
    "claims.reports",
    "claims.skipped",
)

_ACTION_METHODS = ("action_row", "action_rows")


def _is_public_function(module, name: str, obj) -> bool:
    """Functions (``lru_cache`` ones included) defined in ``module``."""
    if name.startswith("_") or name in PER_ELEMENT_HELPERS:
        return False
    if not callable(obj) or inspect.isclass(obj):
        return False
    return getattr(obj, "__module__", None) == module.__name__


def _result_size(out) -> int:
    """Elements held by a ``groups`` result: a Subgroup or an element list."""
    if isinstance(out, list):
        return len(out)
    return len(getattr(out, "elements", ()))


class SpanRecorder:
    """Records layer spans and work counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = dict.fromkeys(
            _LAYER_COUNTERS + _EXTRA_COUNTERS, 0
        )
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, count):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else -1
            sid = len(rec.spans)
            # An open span holds its layer name until it closes, so a
            # callee can tell whether it was entered from its own layer.
            rec.spans.append(layer)
            rec._stack.append(sid)
            rec.counters[layer + ".calls"] += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.spans[sid] = (layer, name, start, perf_counter(), parent)
                rec._stack.pop()
            if count is not None:
                outer = parent < 0 or rec.spans[parent] != layer
                count(rec.counters, args, kwargs, out, outer)
            return out

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and the ring's action methods."""
        modules = [importlib.import_module(f"pgroups.{layer}") for layer in LAYERS]
        namespaces = [
            m for n, m in list(sys.modules.items()) if n == "pgroups" or n.startswith("pgroups.")
        ]
        for layer, module in zip(LAYERS, modules):
            for name, fn in list(vars(module).items()):
                if not _is_public_function(module, name, fn):
                    continue
                traced = self._wrap(layer, name, fn, _COUNTS.get(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, attr, value))
                            setattr(ns, attr, traced)
        self._install_ring(importlib.import_module("pgroups.endos").EndoRing)

    def _install_ring(self, ring_cls) -> None:
        counters = self.counters

        def count_builds(counters, args, kwargs, out, outer):
            counters["endos.ring_builds"] += 1

        init = ring_cls.__init__
        self._restore.append((ring_cls, "__init__", init))
        ring_cls.__init__ = self._wrap("endos", "EndoRing", init, count_builds)

        prop = ring_cls.__dict__["action"]
        self._restore.append((ring_cls, "action", prop))

        def action(ring):
            table = prop.fget(ring)
            counters["endos.action_entries"] += table.size
            return table

        ring_cls.action = property(action, doc=prop.__doc__)

        chunks = ring_cls.action_chunks
        self._restore.append((ring_cls, "action_chunks", chunks))

        @functools.wraps(chunks)
        def action_chunks(ring, *args, **kwargs):
            for start, block in chunks(ring, *args, **kwargs):
                counters["endos.action_entries"] += block.size
                yield start, block

        ring_cls.action_chunks = action_chunks

        for name in _ACTION_METHODS:
            method = getattr(ring_cls, name)
            self._restore.append((ring_cls, name, method))
            setattr(ring_cls, name, _counting(method, counters))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer self time and span-derived totals, plus the counters.

        Self time is a span's duration minus that of its direct children;
        spans nest strictly because the workload runs on one thread.
        """
        n = len(self.spans)
        child_time = [0.0] * n
        in_dagger = [False] * n
        self_s = dict.fromkeys(LAYERS, 0.0)
        dagger_s = ideal_enum_s = ring_build_s = 0.0
        for sid, (layer, name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            if parent >= 0:
                child_time[parent] += dur
            outer_dagger = parent < 0 or not in_dagger[parent]
            if name in DAGGER_FUNCTIONS:
                in_dagger[sid] = True
                if outer_dagger:
                    dagger_s += dur
            elif parent >= 0:
                in_dagger[sid] = in_dagger[parent]
            if name == "enumerate_ideals":
                ideal_enum_s += dur
            elif name == "EndoRing":
                ring_build_s += dur
        for sid, (layer, _name, start, end, _parent) in enumerate(self.spans):
            self_s[layer] += (end - start) - child_time[sid]
        out: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out["endos.dagger_s"] = dagger_s
        out["endos.ideal_enum_s"] = ideal_enum_s
        out["endos.ring_build_s"] = ring_build_s
        out.update(self.counters)
        out["trace.spans"] = n
        return out


def _counting(method, counters):
    @functools.wraps(method)
    def counted(ring, *args, **kwargs):
        out = method(ring, *args, **kwargs)
        counters["endos.action_entries"] += out.size
        return out

    return counted


# -- work counters attached to specific entry points --------------------------


def _count_elements(counters, args, kwargs, out, outer):
    if outer:
        counters["groups.elements_materialized"] += _result_size(out)


def _count_scanned(counters, args, kwargs, out, outer):
    elements = kwargs.get("elements", args[2] if len(args) > 2 else None)
    G = kwargs.get("G", args[0] if args else None)
    counters["indicators.elements_scanned"] += (
        len(elements) if elements is not None else G.order
    )


def _count_dagger(counters, args, kwargs, out, outer):
    counters["endos.dagger_calls"] += 1


def _count_ideals(counters, args, kwargs, out, outer):
    counters["endos.ideals_found"] += len(out)


def _count_nodes(counters, args, kwargs, out, outer):
    counters["lattice.nodes_found"] += len(out.nodes)


def _count_reports(counters, args, kwargs, out, outer):
    counters["claims.reports"] += len(out)
    counters["claims.skipped"] += sum(r.status == "skipped" for r in out)


_COUNTS = {
    "enumerate_elements": _count_elements,
    "subgroup_from_set": _count_elements,
    "subgroup_generated": _count_elements,
    "subgroup_sum": _count_elements,
    "subgroup_meet": _count_elements,
    "fundamental_subgroup": _count_elements,
    "block_subgroup": _count_elements,
    "full_subgroup": _count_elements,
    "zero_subgroup": _count_elements,
    "indicator_subgroup": _count_scanned,
    "dagger_subgroup": _count_dagger,
    "dagger_ideal": _count_dagger,
    "enumerate_ideals": _count_ideals,
    "enumerate_fi_subgroups": _count_nodes,
    "run_claims": _count_reports,
}
