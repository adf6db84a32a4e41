"""Per-layer tracing from outside the program.

A ``Tracer`` is installed in a forked child only.  It wraps every binding
of the layers' public functions (the defining module's attribute and every
copy another gentlegp module imported), the public ``Matrix`` methods and
``GentleAlgebra.__hash__``/``__eq__``, and records one span per call in
memory.  The child sends the spans to the parent when it exits; the parent
turns them into self times.  No code of the program changes.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "quiver", "gentle", "linalg", "strings", "reps", "gp",
          "surface")
TRACER_FID = 0  # span of the tracer's own bookkeeping, in no layer

# metric group -> the wrapped callables it sums
GROUPS = {
    "linalg.elim": ("linalg.Matrix.rank", "linalg.Matrix.kernel_basis",
                    "linalg.Matrix.solve", "linalg.Matrix.column_space_basis"),
    "linalg.mul": ("linalg.Matrix.mul",),
    "reps.hom": ("reps.hom_dim", "reps.hom_basis"),
    "reps.module_signature": ("reps.module_signature",),
    "reps.cover": ("reps.projective_cover",),
    "reps.syzygy": ("reps.syzygy",),
    "gentle.algebra_hash": ("gentle.GentleAlgebra.__hash__",),
    "gentle.algebra_eq": ("gentle.GentleAlgebra.__eq__",),
    "gentle.validate": ("gentle.validate_gentle", "gentle.gentle_violations"),
    "quiver.parse": ("quiver.parse_presentation",),
    "gp.oracle": ("gp.gp_oracle",),
    "gp.membership": ("gp.classifier_membership", "gp.gp_signatures"),
    "gp.stable": ("gp.stable_category_table",),
}


# The hooks read the program's objects; when a later version changes their
# shape, the count is skipped instead of failing the traced command.

def _count_elim(counters, args):
    m = args[0]
    try:
        cells = m.nrows * m.ncols
        nnz = sum(map(bool, itertools.chain.from_iterable(m.rows)))
    except (AttributeError, TypeError):
        return
    counters["elim.cells"] += cells
    counters["elim.nnz"] += nnz


def _count_basis(counters, algebra):
    try:
        counters["basis_paths"] += len(algebra.path_basis)
    except (AttributeError, TypeError):
        pass


def _count_ext(counters, profile):
    counters["ext.calls"] += 1
    counters["ext.certified"] += bool(getattr(profile, "certified", False))


PRE_HOOKS = {name: _count_elim for name in GROUPS["linalg.elim"]}
POST_HOOKS = {"gentle.validate_gentle": _count_basis,
              "reps.ext_profile": _count_ext}


class Tracer:
    def __init__(self):
        self.names = ["<tracer>"]
        self.fid = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = [-1]
        self.counters = Counter()
        self.caches = []

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        fids, starts, ends, parents = self.fid, self.start, self.end, self.parent
        stack, counters, clock = self.stack, self.counters, time.perf_counter_ns
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)

        def traced(*args, **kwargs):
            if pre is not None:
                i = len(fids)
                fids.append(TRACER_FID)
                parents.append(stack[-1])
                ends.append(0)
                starts.append(clock())
                pre(counters, args)
                ends[i] = clock()
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                post(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the layers' callables; call in the child, before the command."""
        from gentlegp.gentle import GentleAlgebra
        from gentlegp.linalg import Matrix

        replaced = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"gentlegp.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if hasattr(obj, "cache_info"):
                    self.caches.append(obj)
                elif not inspect.isfunction(obj):
                    continue
                replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for name, attr in list(vars(Matrix).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, classmethod):
                setattr(Matrix, name, classmethod(
                    self._wrap(attr.__func__, f"linalg.Matrix.{name}")))
            elif inspect.isfunction(attr):
                setattr(Matrix, name, self._wrap(attr, f"linalg.Matrix.{name}"))
        for name in ("__hash__", "__eq__"):
            setattr(GentleAlgebra, name, self._wrap(
                getattr(GentleAlgebra, name), f"gentle.GentleAlgebra.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "gentlegp" and not modname.startswith("gentlegp."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def collect(self):
        """Spans and counters as plain data, for the parent."""
        counters = dict(self.counters)
        for fn in self.caches:
            info = fn.cache_info()
            counters["cache.hits"] = counters.get("cache.hits", 0) + info.hits
            counters["cache.misses"] = (counters.get("cache.misses", 0)
                                        + info.misses)
        return {"names": self.names, "fid": self.fid, "start": self.start,
                "end": self.end, "parent": self.parent, "counters": counters}


def self_times(start, end, parent):
    """Per span: its duration minus the time its child spans cover.  Spans
    are in entry order and nest, so a parent precedes its children."""
    child = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [e - s - c for s, e, c in zip(start, end, child)]


class Totals:
    """Per-callable calls and self time, plus counters, summed over the
    commands of a traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counters = Counter()

    def add(self, collected):
        names = collected["names"]
        selfs = self_times(collected["start"], collected["end"],
                           collected["parent"])
        for f, s in zip(collected["fid"], selfs):
            if f != TRACER_FID:
                self.calls[names[f]] += 1
                self.self_ns[names[f]] += s
        self.counters.update(collected["counters"])

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        def calls(keys):
            return sum(self.calls[k] for k in keys), "count"

        def self_s(keys):
            return sum(self.self_ns[k] for k in keys) / 1e9, "s"

        out = {}
        for layer in LAYERS:
            keys = [n for n in self.calls if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = calls(keys)
            out[f"{layer}.self_s"] = self_s(keys)
        for g, what in (("linalg.elim", calls), ("linalg.elim", self_s),
                        ("linalg.mul", calls), ("linalg.mul", self_s),
                        ("reps.hom", calls), ("reps.hom", self_s),
                        ("reps.module_signature", calls),
                        ("reps.cover", calls), ("reps.cover", self_s),
                        ("reps.syzygy", calls),
                        ("gentle.algebra_hash", calls),
                        ("gentle.algebra_hash", self_s),
                        ("gentle.algebra_eq", calls),
                        ("gentle.validate", self_s),
                        ("quiver.parse", self_s),
                        ("gp.oracle", calls), ("gp.membership", self_s),
                        ("gp.stable", self_s)):
            out[f"{g}.{what.__name__}"] = what(GROUPS[g])
        c = self.counters
        out["linalg.elim.cells"] = (c["elim.cells"], "count")
        out["linalg.elim.nnz_share"] = (_ratio(c["elim.nnz"], c["elim.cells"]),
                                        "ratio")
        out["reps.ext_certified_share"] = (
            _ratio(c["ext.certified"], c["ext.calls"]), "ratio")
        out["reps.cache_hit_ratio"] = (
            _ratio(c["cache.hits"], c["cache.hits"] + c["cache.misses"]),
            "ratio")
        out["gentle.basis_paths"] = (c["basis_paths"], "count")
        return out


def _ratio(num, den):
    return num / den if den else 0.0
