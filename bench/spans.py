"""Span tracing of endlab from outside the package.

``Tracer.install`` replaces every public module-level function of the
endlab modules but those in ``SKIP``, at every name a module binds it to
(so ``rigidity.pak_report`` is traced as well as ``decor.pak_report``),
plus the methods listed in ``METHODS`` and ``numpy.linalg.svd``, with
wrappers that record spans.  An SVD span is charged to the layer of the
span that encloses it.
Spans are aggregated in memory as a calling-context tree: one node per
distinct chain of span names from the root, holding the call count, the
total time and the time covered by child spans, so a node's self time is
its total minus its children's.  ``HOOKS`` turn selected return values
into counters.  The tree is written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("mink", "cellsurf", "surfgroup", "decor", "polysurf", "rigidity",
           "crossratio", "volume", "svgout", "fixtures", "cli")

#: (module, class, method) wrapped besides the public module functions
METHODS = (
    ("polysurf", "PolySurface", "__init__"),
    ("polysurf", "PolySurface", "links"),
    ("polysurf", "PolySurface", "decoration_from_deformation"),
    ("cellsurf", "CellSurface", "vertex_star"),
    ("surfgroup", "SurfaceGroupPresentation", "dehn_reduce"),
    ("surfgroup", "Genus2Presentation", "cycle_is_contractible"),
)

#: Public functions cheaper than a span; wrapping them would swamp the trace.
SKIP = {"cellsurf.twin"}

SVD = "numpy.linalg.svd"


def _count_cycles(counters, result):
    counters["cellsurf.cycles_enumerated"] += len(result)


def _count_checked(counters, result):
    counters["cellsurf.cycles_checked"] += result.checked_cycles


def _count_tight(counters, result):
    counters["decor.tight"] += int(result.tight)


def _count_newton(counters, result):
    counters["crossratio.newton_iterations"] += result.iterations


HOOKS = {
    "cellsurf.simple_cycles_upto": _count_cycles,
    "cellsurf.closed_trails_upto": _count_cycles,
    "cellsurf.validate_admissible": _count_checked,
    "decor.is_tight": _count_tight,
    "crossratio.solve_vertex_conditions": _count_newton,
}


class Node:
    __slots__ = ("name", "parent", "children", "count", "total", "child_total")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.children = {}
        self.count = 0
        self.total = 0.0
        self.child_total = 0.0

    @property
    def self_time(self):
        return self.total - self.child_total

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


class Tracer:
    def __init__(self):
        self.root = Node("", None)
        self.top = self.root
        self.counters = {"cellsurf.cycles_enumerated": 0,
                         "cellsurf.cycles_checked": 0, "decor.tight": 0,
                         "crossratio.newton_iterations": 0}
        self._undo = []

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.top
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name, parent)
            self.top = node
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                node.count += 1
                node.total += dt
                parent.child_total += dt
                self.top = parent
            if hook is not None:
                hook(self.counters, result)
            return result
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name (used for whole cases)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        import numpy

        mods = {m: importlib.import_module("endlab." + m) for m in MODULES}
        wrappers = {}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                name = "%s.%s" % (owner, obj.__name__)
                if owner not in mods or name in SKIP:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name)
                self._patch(mod, attr, wrappers[obj])
        for m, cls_name, meth in METHODS:
            cls = getattr(mods[m], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth,
                        self._wrap(fn, "%s.%s.%s" % (m, cls_name, meth)))
        self._patch(numpy.linalg, "svd", self._wrap(numpy.linalg.svd, SVD))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self):
        """Flat list of nodes, parents before children, for the span file."""
        ids = {}
        out = []
        for node in self.root.walk():
            if node is self.root:
                ids[node] = None
                continue
            ids[node] = len(out)
            out.append({"id": ids[node], "parent": ids[node.parent],
                        "name": node.name, "count": node.count,
                        "total_s": node.total, "self_s": node.self_time})
        return {"spans": out, "counters": dict(self.counters)}


class Profile:
    """Queries over a dumped calling-context tree."""

    def __init__(self, dump):
        self.counters = dump["counters"]
        self.nodes = dump["spans"]
        for n in self.nodes:
            n["children"] = []
        for n in self.nodes:
            if n["parent"] is not None:
                self.nodes[n["parent"]]["children"].append(n)
        self.roots = [n for n in self.nodes if n["parent"] is None]

    def _parent(self, n):
        return None if n["parent"] is None else self.nodes[n["parent"]]

    def _outermost(self, nodes, names):
        """Nodes named in ``names`` with no ancestor of the same name."""
        for n in nodes:
            if n["name"] in names:
                yield n
            else:
                yield from self._outermost(n["children"], names)

    def calls(self, name):
        return sum(n["count"] for n in self.nodes if n["name"] == name)

    def inclusive(self, *names, within=None):
        """Time inside the named spans, nested calls counted once."""
        start = self.roots if within is None else [
            n for n in self.nodes if n["name"] == within]
        return sum(n["total_s"] for n in self._outermost(start, set(names)))

    def exclusive(self, names, minus):
        """Time in the named spans less the time of descendant ``minus`` spans."""
        total = 0.0
        for n in self._outermost(self.roots, set(names)):
            total += n["total_s"] - sum(
                c["total_s"] for c in self._outermost(n["children"], set(minus)))
        return total

    def svd(self, module):
        """(seconds, calls) of SVDs whose enclosing span is in ``module``."""
        hits = [n for n in self.nodes if n["name"] == SVD
                and self._parent(n) is not None
                and self._parent(n)["name"].split(".", 1)[0] == module]
        return (sum(n["total_s"] for n in hits), sum(n["count"] for n in hits))

    def self_time(self, module):
        return sum(n["self_s"] for n in self.nodes
                   if n["name"].split(".", 1)[0] == module)
