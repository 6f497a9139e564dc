"""Spans and counts at the boundaries between spmve's modules, installed from
outside the package for the traced run only.

A wrapper replaces a public function at every module attribute through which
the package reaches it, so nothing under src/ changes.  Functions of
``graph``, ``fileformat`` and ``sptree`` are wrapped where other modules
imported them, which leaves calls inside their own module (``diameter``
calling ``shortest_distances``, say) inside the caller's span.  The
engines are reached as ``kernel.kernelize``, ``exact.search_tree`` and so
on, so those are wrapped in their own module as well.

Spans (name, start, end, parent) live in flat arrays while the run lasts;
``write`` saves them at the end.  A span's self time is its length minus the
part its child spans cover.
"""

import gzip
import sys
import time
from array import array
from collections import defaultdict

ROOT = "cli.solve"

# (defining module, function, span name, also wrap in the defining module)
BOUNDARIES = (
    ("spmve.fileformat", "parse_instance", "fileformat.parse", False),
    ("spmve.graph", "diameter", "graph.diameter", False),
    ("spmve.graph", "shortest_path", "graph.dijkstra", False),
    ("spmve.graph", "st_distance", "graph.dijkstra", False),
    ("spmve.graph", "shortest_distances", "graph.dijkstra", False),
    ("spmve.graph", "min_st_cut", "graph.min_st_cut", False),
    ("spmve.graph", "evaluate_solution", "graph.evaluate", False),
    ("spmve.graph", "cluster_vertex_deletion_set", "graph.cvd_set", False),
    ("spmve.sptree", "build_sp_tree", "sptree.build", False),
    ("spmve.kernel", "kernelize", "kernel.kernelize", True),
    ("spmve.kernel", "lift_solution", "kernel.lift", True),
    ("spmve.exact", "search_tree", "exact.search", True),
    ("spmve.exact", "cvd_fpt", "exact.cvd", True),
    ("spmve.poly", "sp_min_cost", "poly.sp_dp", True),
    ("spmve.poly", "sp_max_length", "poly.sp_dp", True),
)
NAMES = (ROOT,) + tuple(dict.fromkeys(b[2] for b in BOUNDARIES))
ROOT_CODE = 0


class Recorder:
    """Open spans on a stack, finished spans in arrays; ``on`` gates both."""

    def __init__(self):
        self.on = False
        self.name = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.kernel_m = 0

    def open(self, code):
        idx = len(self.name)
        self.name.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def totals(self):
        """Per span name: (calls, summed self time in seconds), plus the
        summed length of the root spans."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        root_s = 0.0
        for i, code in enumerate(self.name):
            length = self.end[i] - self.start[i]
            calls[NAMES[code]] += 1
            self_s[NAMES[code]] += length - child[i]
            if self.parent[i] < 0:
                root_s += length
        return calls, self_s, root_s

    def write(self, path):
        """Spans as gzip'd TSV: id, parent id, name, start and end in
        microseconds from the first span."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            for i, code in enumerate(self.name):
                fh.write(f"{i}\t{self.parent[i]}\t{NAMES[code]}\t"
                         f"{(self.start[i] - origin) * 1e6:.1f}\t"
                         f"{(self.end[i] - origin) * 1e6:.1f}\n")


def _wrap(fn, code, rec):
    def traced(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        idx = rec.open(code)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if code == KERNELIZE:
            rec.kernel_m += result.kernel.graph.m
        return result
    traced.__wrapped__ = fn
    return traced


KERNELIZE = NAMES.index("kernel.kernelize")


def install(rec):
    """Wrap every boundary in the loaded spmve modules.  Returns the number
    of attributes wrapped."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "spmve" or name.startswith("spmve.")}
    wrapped = 0
    for home, func, span, at_home in BOUNDARIES:
        original = getattr(modules.get(home), func, None)
        if original is None:
            continue  # the layer is gone; its metrics read 0
        traced = _wrap(original, NAMES.index(span), rec)
        for name, mod in modules.items():
            if (name != home or at_home) and getattr(mod, func, None) is original:
                setattr(mod, func, traced)
                wrapped += 1
    return wrapped
