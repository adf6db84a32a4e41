"""Gentle-algebra validation, dimension, critical cycles, radical summands.

The validated algebra is purely combinatorial: each arrow's allowed
continuation (unique by G4), which strings follow, and the permitted
threads they chain into, giving dimension and radical summands.
The library counts the relation-free paths but never lists them.
Everything homological lives in :mod:`gentlegp.reps`, which builds each
projective as the string module of
:func:`gentlegp.strings.projective_word`.  The critical cycles come from
the forbidden compositions alone, never the continuations or threads.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, repeat
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
        least = arrows.index(min(arrows))
        return CriticalCycle(arrows[least:] + arrows[:least])


def _allowed_successors(p: QuiverPresentation):
    """Arrow name -> the arrows out of its target that it composes with to
    no relation, in declaration order: the allowed-continuation index that
    G4, the cycle search and GentleAlgebra.continuation read."""
    out = {v: [] for v in p.vertices}
    for a in p.arrows:
        out[a.source].append(a.name)
    succ = {a.name: out[a.target] for a in p.arrows}
    for later, earlier in p.relations:
        # a copy, as arrows into one vertex share its list
        succ[earlier] = rest = succ[earlier].copy()
        rest.remove(later)
    return succ


def gentle_violations(p: QuiverPresentation,
                      succ=None) -> list[GentleViolation]:
    """All violations of the gentle axioms, each with a witness.  ``succ``
    is the index of :func:`_allowed_successors`, built here unless the
    caller has it.  Each axiom is checked on counts first and walked in
    declaration order only to name the arrows or vertices that break it."""
    if succ is None:
        succ = _allowed_successors(p)
    violations = []
    sources = Counter(a.source for a in p.arrows)
    targets = Counter(a.target for a in p.arrows)
    if max(sources.values(), default=0) > 2 or \
            max(targets.values(), default=0) > 2:
        violations += [GentleViolation("G1", (v,)) for v in p.vertices
                       if sources[v] > 2 or targets[v] > 2]

    # G3: per arrow, at most one forbidden continuation / predecessor
    laters, earliers = zip(*p.relations) if p.relations else ((), ())
    if len(set(laters)) < len(laters) or len(set(earliers)) < len(earliers):
        n_succ, n_pred = Counter(earliers), Counter(laters)
        violations += [GentleViolation("G3", (b.name,)) for b in p.arrows
                       if n_succ[b.name] > 1 or n_pred[b.name] > 1]

    # G4: per arrow, at most one allowed continuation / predecessor; b's
    # allowed predecessors are the arrows that b is an allowed successor of
    pred = Counter(chain.from_iterable(succ.values()))
    single = max(map(len, succ.values()), default=0) <= 1 and \
        max(pred.values(), default=0) <= 1
    if not single:
        violations += [GentleViolation("G4", (b.name,)) for b in p.arrows
                       if len(succ[b.name]) > 1 or pred[b.name] > 1]

    # admissibility / finite dimensionality: no relation-free cycle in the
    # allowed-composition graph (nodes = arrows); with one successor and
    # one predecessor each, the walks from the arrows without one tell
    if not single or not _walks_cover(succ, pred):
        cycle = _find_cycle(succ)
        if cycle is not None:
            violations.append(
                GentleViolation("infinite-dimensional", tuple(cycle)))

    return violations


def _walks_cover(succ, pred):
    """Whether the walks along ``succ`` from the arrows with no
    predecessor visit every arrow, in a graph where each arrow has at
    most one successor and one predecessor: if not, the rest close into
    cycles."""
    visited = 0
    for start in succ:
        if pred[start]:
            continue
        cur = start
        while True:
            visited += 1
            if not (after := succ[cur]):
                break
            cur = after[0]
    return visited == len(succ)


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

    def __init__(self, presentation: QuiverPresentation, continuation):
        self.presentation = presentation
        # arrow name -> the arrow out of its target that it composes with
        # to no relation (unique by G4), or None
        self.continuation = continuation

    @cached_property
    def _threads(self):
        """The permitted threads, the maximal paths of allowed
        compositions: the thread of each arrow, a tuple of arrow names in
        traversal order, the arrow's position in it, and the
        dimension, |Q_0| plus L(L+1)/2 per thread of L arrows, as a
        relation-free path of positive length is a segment of one thread.
        By G4 an arrow has at most one allowed continuation and one
        allowed predecessor, and finite dimension rules out a closed
        thread, so the threads start at the arrows that nothing continues
        into and partition the arrows."""
        nxt = self.continuation
        continued = set(nxt.values())
        thread_of, position, dimension = {}, {}, len(self.vertices)
        for a in self.arrows:
            if a.name in continued:
                continue
            thread = [a.name]
            while (b := nxt[thread[-1]]) is not None:
                thread.append(b)
            thread = tuple(thread)
            thread_of.update(zip(thread, repeat(thread)))
            position.update(zip(thread, range(len(thread))))
            dimension += len(thread) * (len(thread) + 1) // 2
        return thread_of, position, dimension

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
        return self._threads[2]

    def check_basis_size(self):
        """Raise BasisTooLargeError when the path basis would exceed
        MAX_BASIS_PATHS paths; counts them without building anything."""
        if self.dimension() > MAX_BASIS_PATHS:
            raise BasisTooLargeError(
                f"path basis exceeds {MAX_BASIS_PATHS} paths; "
                "the algebra is too large for this library")


def validate_gentle(p: QuiverPresentation) -> GentleAlgebra:
    """Validate the gentle axioms; raises NotGentleError with all violations."""
    succ = _allowed_successors(p)
    violations = gentle_violations(p, succ)
    if violations:
        raise NotGentleError(violations)
    return GentleAlgebra(p, {b: s[0] if s else None for b, s in succ.items()})


def critical_cycles(a: GentleAlgebra) -> list[CriticalCycle]:
    """The set C of repetition-free cycles whose consecutive compositions
    all lie in the ideal, canonically rotated and sorted.

    By (G3) the forbidden-successor map is a partial injection on arrows,
    so a walk from an arrow no earlier walk visited closes into a cycle
    only if it started on one.
    """
    succ = {earlier: later for later, earlier in a.relations}
    cycles = []
    for start in list(succ):
        # a walk takes each arrow it visits out of succ
        walk = []
        cur = start
        while (nxt := succ.pop(cur, None)) is not None:
            walk.append(cur)
            cur = nxt
        if walk and cur == start:
            cycles.append(CriticalCycle.from_arrows(walk))
    cycles.sort()
    return cycles


def radical_summand_word(a: GentleAlgebra, arrow_name: str):
    """Arrows of the maximal directed string carried by the left ideal
    generated by ``arrow_name``, in traversal order (the generating arrow
    itself excluded).  Empty tuple means the summand is simple."""
    if arrow_name not in a.arrow_map:
        raise PresentationError(f"unknown arrow {arrow_name!r}")
    thread_of, position, _ = a._threads
    return thread_of[arrow_name][position[arrow_name] + 1:]
