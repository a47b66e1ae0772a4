"""Span tracer for the traced benchmark run.

``Tracer.install`` rebinds the public functions of every tunnelslopes module,
in this process only, to wrappers that record one span per call: name,
start, end and parent. Nested library calls therefore become child spans,
and a span's self time is its duration minus the time its children cover.
Spans are kept in flat arrays and written out when the run ends;
``uninstall`` restores the original functions. Nothing is wrapped unless
``install`` is called, so the untraced run measures the library as shipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("rationals", "contfrac", "convert", "sl2", "twobridge", "tunnels", "oracle", "cli")

# projective_add_invert is one step of every continued-fraction fold; a span
# per step would cost more than the step and hide the fold it belongs to.
UNTRACED = {"rationals.projective_add_invert"}

# Work done by one call, read after its span has ended: (counter, measure).
SIZES = {
    "contfrac.even_cf_expand": ("entries", lambda args, out: len(out.a_entries) + len(out.b_entries)),
    "contfrac.cf_eval": ("entries", lambda args, out: len(args[0])),
    "rationals.render": ("bytes", lambda args, out: len(out)),
    "tunnels.serialize": ("bytes", lambda args, out: len(out)),
    "convert.convert_range": ("pairs", lambda args, out: len(out)),
    "sl2.word_product": ("exponents", lambda args, out: len(args[0])),
    "twobridge.unit_rewrite": ("units", lambda args, out: len(out[0])),
    "twobridge.cabling_steps": ("steps", lambda args, out: len(out[1])),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        # Per name: calls, busy_s (outermost spans only), self_s, size counter.
        self.stats: dict[str, list] = {}
        self._open: list[int] = []
        self._child_time: list[float] = []
        self._saved: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        package = importlib.import_module("tunnelslopes")
        modules = {layer: importlib.import_module(f"tunnelslopes.{layer}") for layer in LAYERS}
        namespaces = [vars(package)] + [vars(m) for m in modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in UNTRACED
                ):
                    continue
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._saved.append((ns, key, fn))
                            ns[key] = wrapper

    def uninstall(self) -> None:
        while self._saved:
            ns, key, fn = self._saved.pop()
            ns[key] = fn

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = [0, 0.0, 0.0, 0]
        size = SIZES.get(name, (None, None))[1]
        depth = [0]
        open_spans, child_time = self._open, self._child_time
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            self.span_name.append(name_id)
            self.span_parent.append(open_spans[-1] if open_spans else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(index)
            child_time.append(0.0)
            depth[0] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[0] -= 1
                open_spans.pop()
                children = child_time.pop()
                starts[index] = t0
                ends[index] = t1
                duration = t1 - t0
                if child_time:
                    child_time[-1] += duration
                stat[0] += 1
                stat[2] += duration - children
                if depth[0] == 0:
                    stat[1] += duration
            if size is not None:
                stat[3] += size(args, out)
            return out

        return traced

    def value(self, function: str, stat: str) -> float:
        """One aggregate of a traced function: calls, busy_s, self_s or its size counter."""
        calls, busy, own, size = self.stats.get(function, (0, 0.0, 0.0, 0))
        if stat == "calls":
            return calls
        if stat == "busy_s":
            return busy
        if stat == "self_s":
            return own
        if stat == SIZES.get(function, (None,))[0]:
            return size
        raise KeyError(f"{function} has no statistic {stat!r}")

    def table(self) -> dict:
        """Every traced function that ran, with all of its aggregates."""
        out = {}
        for name, (calls, busy, own, size) in sorted(self.stats.items()):
            if calls:
                row = {"calls": calls, "busy_s": busy, "self_s": own}
                if name in SIZES:
                    row[SIZES[name][0]] = size
                out[name] = row
        return out

    def write_spans(self, path) -> None:
        """One line per span: id, parent id (-1 for a root), name, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
