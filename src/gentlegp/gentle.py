"""Gentle-algebra validation, path basis, critical cycles, radical summands.

The validated algebra is purely combinatorial: a finite basis of
relation-free paths plus composition data.  Everything homological lives
in :mod:`gentlegp.reps`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .quiver import Path, PresentationError, QuiverError, QuiverPresentation

# the largest path basis _enumerate_basis_paths builds before refusing
MAX_BASIS_PATHS = 100000


@dataclass(frozen=True)
class GentleViolation:
    axiom: str  # G1 | G2-admissible | G3 | G4 | infinite-dimensional
    witness: tuple

    def describe(self):
        return f"{self.axiom}: witness {self.witness}"


class NotGentleError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        msgs = "; ".join(v.describe() for v in self.violations)
        super().__init__(f"presentation is not gentle: {msgs}")


class BasisTooLargeError(QuiverError):
    """A valid presentation whose path basis exceeds MAX_BASIS_PATHS."""


@dataclass(frozen=True)
class CriticalCycle:
    """Repetition-free cycle of arrows with every consecutive composition
    in the relation ideal; stored in canonical rotation (lexicographically
    least arrow first, traversal order)."""

    arrows: tuple[str, ...]

    @property
    def length(self):
        return len(self.arrows)

    @property
    def name(self):
        """Right-to-left reading of the cycle, as path-algebra products
        are conventionally written."""
        return "".join(reversed(self.arrows))

    @staticmethod
    def from_arrows(arrows):
        arrows = tuple(arrows)
        least = min(range(len(arrows)), key=lambda i: arrows[i])
        return CriticalCycle(arrows[least:] + arrows[:least])


def gentle_violations(p: QuiverPresentation) -> list[GentleViolation]:
    """All violations of the gentle axioms, each with a witness."""
    violations = []

    for v in p.vertices:
        n_out = len(p.arrows_out(v))
        n_in = len(p.arrows_in(v))
        if n_out > 2 or n_in > 2:
            violations.append(GentleViolation("G1", (v,)))

    # G3: per arrow, at most one forbidden continuation / predecessor
    n_succ = Counter(e for (l, e) in p.relations)
    n_pred = Counter(l for (l, e) in p.relations)
    for b in p.arrows:
        if n_succ[b.name] > 1 or n_pred[b.name] > 1:
            violations.append(GentleViolation("G3", (b.name,)))

    # G4: per arrow, at most one allowed continuation / predecessor
    for b in p.arrows:
        succ = [a.name for a in p.arrows_out(b.target)
                if (a.name, b.name) not in p.relations]
        pred = [a.name for a in p.arrows_in(b.source)
                if (b.name, a.name) not in p.relations]
        if len(succ) > 1 or len(pred) > 1:
            violations.append(GentleViolation("G4", (b.name,)))

    # admissibility / finite dimensionality: no relation-free cycle in the
    # allowed-composition graph (nodes = arrows)
    cycle = _find_cycle(p)
    if cycle is not None:
        violations.append(GentleViolation("infinite-dimensional", tuple(cycle)))

    return violations


def _find_cycle(p):
    """A cycle in the graph on arrows whose edges are the allowed
    (relation-free) compositions, or None."""
    succ = {a.name: [b.name for b in p.arrows_out(a.target)
                     if (b.name, a.name) not in p.relations]
            for a in p.arrows}
    # iterative depth-first search, successors in declaration order;
    # color 1 marks the arrows on the current path, 2 the finished ones
    color = {name: 0 for name in succ}
    for root in succ:
        if color[root]:
            continue
        color[root] = 1
        stack_path = [root]
        pending = [iter(succ[root])]
        while pending:
            for w in pending[-1]:
                if color[w] == 1:
                    return stack_path[stack_path.index(w):]
                if color[w] == 0:
                    color[w] = 1
                    stack_path.append(w)
                    pending.append(iter(succ[w]))
                    break
            else:
                color[stack_path.pop()] = 2
                pending.pop()
    return None


@dataclass(frozen=True, eq=False)
class GentleAlgebra:
    """Compares and hashes by identity: each validation is its own key."""

    presentation: QuiverPresentation
    path_basis: tuple[Path, ...]

    @staticmethod
    def from_presentation(p: QuiverPresentation) -> "GentleAlgebra":
        violations = gentle_violations(p)
        if violations:
            raise NotGentleError(violations)
        return GentleAlgebra(p, tuple(_enumerate_basis_paths(p)))

    @property
    def vertices(self):
        return self.presentation.vertices

    @property
    def arrows(self):
        return self.presentation.arrows

    @property
    def arrow_map(self):
        return self.presentation.arrow_map

    @property
    def relations(self):
        return self.presentation.relations

    def dimension(self):
        return len(self.path_basis)

    @cached_property
    def _paths_from(self):
        grouped = {v: [] for v in self.vertices}
        for p in self.path_basis:
            grouped[p.source].append(p)
        return {v: tuple(paths) for v, paths in grouped.items()}

    def basis_paths_from(self, v):
        """Basis paths starting at v, shortest first."""
        return self._paths_from.get(v, ())

    def left_multiply(self, arrow_name, path: Path):
        """Compose ``path`` then ``arrow``; None encodes zero in the algebra."""
        a = self.arrow_map[arrow_name]
        if a.source != path.target:
            return None
        if path.arrows and (arrow_name, path.arrows[-1]) in self.relations:
            return None
        return Path(path.arrows + (arrow_name,), path.source, a.target)


def validate_gentle(p: QuiverPresentation) -> GentleAlgebra:
    """Validate the gentle axioms; raises NotGentleError with all violations."""
    return GentleAlgebra.from_presentation(p)


def _enumerate_basis_paths(p: QuiverPresentation):
    """All relation-free paths, lazy paths included, by breadth-first
    extension.  Finite because validation rejected relation-free cycles."""
    basis = [p.lazy_path(v) for v in p.vertices]
    frontier = [Path((a.name,), a.source, a.target) for a in p.arrows]
    while frontier:
        basis.extend(frontier)
        nxt = []
        for path in frontier:
            last = path.arrows[-1]
            for a in p.arrows_out(path.target):
                if (a.name, last) not in p.relations:
                    nxt.append(Path(path.arrows + (a.name,),
                                    path.source, a.target))
        frontier = nxt
        if len(basis) > MAX_BASIS_PATHS:
            raise BasisTooLargeError(
                f"path basis exceeds {MAX_BASIS_PATHS} paths; "
                "the algebra is too large for this library")
    basis.sort(key=lambda q: (len(q.arrows), q.source, q.arrows))
    return basis


def critical_cycles(a: GentleAlgebra) -> list[CriticalCycle]:
    """The set C of repetition-free cycles whose consecutive compositions
    all lie in the ideal, canonically rotated and sorted.

    By (G3) the forbidden-composition graph is a partial permutation on
    arrows, so its cycles are disjoint and each arrow lies on at most one.
    """
    succ = {}
    for later, earlier in a.relations:
        succ[earlier] = later  # unique by G3
    cycles = []
    seen = set()
    for start in sorted(succ):
        if start in seen:
            continue
        chain = [start]
        pos = {start: 0}
        cur = start
        while cur in succ:
            cur = succ[cur]
            if cur in pos:
                arc = chain[pos[cur]:]
                cycles.append(CriticalCycle.from_arrows(arc))
                seen.update(arc)
                break
            if cur in seen:
                break
            pos[cur] = len(chain)
            chain.append(cur)
        seen.update(chain)
    cycles.sort(key=lambda c: c.arrows)
    return cycles


def cycle_of_arrow(a: GentleAlgebra, arrow_name: str):
    """The critical cycle containing the arrow, or None."""
    for c in critical_cycles(a):
        if arrow_name in c.arrows:
            return c
    return None


def radical_summand_word(a: GentleAlgebra, arrow_name: str):
    """Arrows of the maximal directed string carried by the left ideal
    generated by ``arrow_name``, in traversal order (the generating arrow
    itself excluded).  Empty tuple means the summand is simple."""
    if arrow_name not in a.arrow_map:
        raise PresentationError(f"unknown arrow {arrow_name!r}")
    word = []
    cur = arrow_name
    while True:
        target = a.arrow_map[cur].target
        # the allowed continuation of cur, unique by G4
        cur = next((b.name for b in a.presentation.arrows_out(target)
                    if (b.name, cur) not in a.relations), None)
        if cur is None:
            return tuple(word)
        word.append(cur)


def radical_summand_vertices(a: GentleAlgebra, arrow_name: str):
    """Vertices visited by the radical-summand string, start first."""
    arr = a.arrow_map[arrow_name]
    verts = [arr.target]
    for name in radical_summand_word(a, arrow_name):
        verts.append(a.arrow_map[name].target)
    return verts
