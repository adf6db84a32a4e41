"""Gentle-algebra validation, dimension, critical cycles, radical summands.

The validated algebra is purely combinatorial: each arrow's allowed
continuation (unique by G4), which strings follow, and the permitted
threads they chain into, giving dimension, socles and radical summands.
The library counts the relation-free paths but never lists them.
Everything homological lives in :mod:`gentlegp.reps`, which builds each
projective as the string module of
:func:`gentlegp.strings.projective_word`.  The critical cycles come from
the forbidden compositions alone, never the continuations or threads.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .quiver import (InputError, PresentationError, QuiverError,
                     QuiverPresentation, opposite)

# the largest dimension (number of basis paths) the library works with
MAX_BASIS_PATHS = 100000


class GentleViolation(NamedTuple):
    axiom: str  # G1 | G2-admissible | G3 | G4 | infinite-dimensional
    witness: tuple

    def describe(self):
        return f"{self.axiom}: witness {self.witness}"


class NotGentleError(InputError):
    def __init__(self, violations):
        self.violations = list(violations)
        msgs = "; ".join(v.describe() for v in self.violations)
        super().__init__(f"presentation is not gentle: {msgs}")


class BasisTooLargeError(QuiverError):
    """A valid presentation whose path basis exceeds MAX_BASIS_PATHS."""


class CriticalCycle(NamedTuple):
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
    succ = {b.name: [a.name for a in p.arrows_out(b.target)
                     if (a.name, b.name) not in p.relations]
            for b in p.arrows}
    for b in p.arrows:
        pred = [a.name for a in p.arrows_in(b.source)
                if (b.name, a.name) not in p.relations]
        if len(succ[b.name]) > 1 or len(pred) > 1:
            violations.append(GentleViolation("G4", (b.name,)))

    # admissibility / finite dimensionality: no relation-free cycle in the
    # allowed-composition graph (nodes = arrows)
    cycle = _find_cycle(succ)
    if cycle is not None:
        violations.append(GentleViolation("infinite-dimensional", tuple(cycle)))

    return violations


def _find_cycle(succ):
    """A cycle in the graph on arrows whose edges are the allowed
    (relation-free) compositions, given as arrow -> successors, or None."""
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


class GentleAlgebra:
    """Compares and hashes by identity: each validation is its own key."""

    def __init__(self, presentation: QuiverPresentation):
        self.presentation = presentation

    @cached_property
    def continuation(self):
        """Arrow name -> the arrow out of its target that it composes with
        to no relation (unique by G4), or None."""
        out = self.presentation.arrows_out
        return {a.name: next((b.name for b in out(a.target)
                              if (b.name, a.name) not in self.relations), None)
                for a in self.arrows}

    @cached_property
    def _threads(self):
        """The permitted threads, the maximal paths of allowed
        compositions: the (thread, position) of each arrow, a thread
        being a tuple of arrow names in traversal order, and the
        dimension, |Q_0| plus L(L+1)/2 per thread of L arrows, as a
        relation-free path of positive length is a segment of one thread.
        By G4 an arrow has at most one allowed continuation and one
        allowed predecessor, and finite dimension rules out a closed
        thread, so the threads start at the arrows that nothing continues
        into and partition the arrows."""
        nxt = self.continuation
        continued = set(nxt.values())
        place, dimension = {}, len(self.vertices)
        for a in self.arrows:
            if a.name in continued:
                continue
            thread = [a.name]
            while (b := nxt[thread[-1]]) is not None:
                thread.append(b)
            thread = tuple(thread)
            place.update((b, (thread, i)) for i, b in enumerate(thread))
            dimension += len(thread) * (len(thread) + 1) // 2
        return place, dimension

    @cached_property
    def socle_index(self):
        """Vertex w -> the vertices u, in algebra order, with w in the
        socle of P_u.  That socle is the target of the last arrow of the
        thread through each arrow out of u, or u itself when u is a sink."""
        place = self._threads[0]
        index = {v: [] for v in self.vertices}
        for u in self.vertices:
            ends = [self.arrow_map[place[b.name][0][-1]].target
                    for b in self.presentation.arrows_out(u)]
            for w in dict.fromkeys(ends or [u]):
                index[w].append(u)
        return {w: tuple(us) for w, us in index.items()}

    @cached_property
    def vertex_index(self):
        """Vertex -> its position in algebra order."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def opposite(self):
        """The opposite algebra, validated once; its opposite is this one."""
        op = validate_gentle(opposite(self.presentation))
        op.opposite = self
        return op

    @cached_property
    def memo(self):
        """The modules :mod:`gentlegp.reps` derives from the algebra, by
        field and what they are built from; owned by the algebra, so
        they go when it goes."""
        return {}

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
        """The number of basis paths, counted once per algebra off the
        permitted threads.  No basis is built."""
        return self._threads[1]

    def check_basis_size(self):
        """Raise BasisTooLargeError when the path basis would exceed
        MAX_BASIS_PATHS paths; counts them without building anything."""
        if self.dimension() > MAX_BASIS_PATHS:
            raise BasisTooLargeError(
                f"path basis exceeds {MAX_BASIS_PATHS} paths; "
                "the algebra is too large for this library")


def validate_gentle(p: QuiverPresentation) -> GentleAlgebra:
    """Validate the gentle axioms; raises NotGentleError with all violations."""
    violations = gentle_violations(p)
    if violations:
        raise NotGentleError(violations)
    return GentleAlgebra(p)


def critical_cycles(a: GentleAlgebra) -> list[CriticalCycle]:
    """The set C of repetition-free cycles whose consecutive compositions
    all lie in the ideal, canonically rotated and sorted.

    By (G3) the forbidden-successor map is a partial injection on arrows,
    so a walk from an arrow no earlier walk visited closes into a cycle
    only if it started on one.
    """
    succ = {earlier: later for later, earlier in a.relations}
    cycles = []
    seen = set()
    for start in succ:
        walk = []
        cur = start
        while cur in succ and cur not in seen:
            seen.add(cur)
            walk.append(cur)
            cur = succ[cur]
        if walk and cur == start:
            cycles.append(CriticalCycle.from_arrows(walk))
    cycles.sort(key=lambda c: c.arrows)
    return cycles


def radical_summand_word(a: GentleAlgebra, arrow_name: str):
    """Arrows of the maximal directed string carried by the left ideal
    generated by ``arrow_name``, in traversal order (the generating arrow
    itself excluded).  Empty tuple means the summand is simple."""
    if arrow_name not in a.arrow_map:
        raise PresentationError(f"unknown arrow {arrow_name!r}")
    thread, i = a._threads[0][arrow_name]
    return thread[i + 1:]
