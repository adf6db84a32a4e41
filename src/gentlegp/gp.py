"""Gorenstein-projective classification and the singularity-category
descriptor, with an independent homological oracle as a cross-check.

The classifier is purely combinatorial and never consults the oracle;
agreement between the two routes is the point of the library.
"""

from __future__ import annotations

from typing import NamedTuple

from .gentle import GentleAlgebra, critical_cycles
from .linalg import QQ
# bench/test_bench.py::BindingProbe reads gp.projective_rep (unused here)
from .reps import (Coresolution, InternalError, Representation, ext_profile,
                   embedding_obstruction, hom_dim, isomorphism, syzygy,
                   projective_cover, projective_rep, radical_summand_rep)
from .strings import projective_word, radical_summand_string


class ClassificationMismatchError(AssertionError):
    """Computed homological data contradicts the combinatorial
    classification; indicates a bug, never silently ignored."""


def singularity_descriptor(a: GentleAlgebra) -> tuple[int, ...]:
    """The sorted critical-cycle lengths.  D_sg(Lambda) is a product with
    one factor per critical cycle: for a cycle of length n, the
    (n - 1)-cluster category of type A1 with n objects (Kalck)."""
    return tuple(sorted(c.length for c in critical_cycles(a)))


class OracleCertificate(NamedTuple):
    module_label: str
    verdict: str  # GP | not-GP
    ext_dims: list
    status: str   # embedding | terminated | gorenstein
    obstruction: int
    reason: str


def gp_oracle(m: Representation, coresolution: Coresolution,
              label: str = "") -> OracleCertificate:
    """Brute-force Gorenstein-projectivity check over an algebra whose
    injective coresolution, from gorenstein_dimension, has length d: a GP
    module embeds into a projective, and M is GP iff Ext^i(M, Lambda) = 0
    for 1 <= i <= d (Auslander-Reiten)."""
    obstruction, hom_m = embedding_obstruction(m)
    if obstruction > 0:
        return OracleCertificate(label, "not-GP", [], "embedding",
                                 obstruction,
                                 "does not embed into a projective module")
    bound = coresolution.bound
    profile = ext_profile(m, bound, coresolution, hom_m)
    if not profile.all_zero:
        first = next(i + 1 for i, x in enumerate(profile.dims) if x)
        return OracleCertificate(label, "not-GP", profile.dims,
                                 profile.status, obstruction,
                                 f"Ext^{first} against the algebra is nonzero")
    # the resolution's first syzygy vanishes exactly on projectives
    if not any(profile.syzygy_dim_vectors[1]):
        return OracleCertificate(label, "GP", profile.dims, profile.status,
                                 obstruction, "projective")
    vanishing = f"Ext^i against the algebra is zero for 1 <= i <= {bound}"
    if profile.status == "terminated":
        # Ext^n(M, Lambda) is nonzero at n = pd M, here at most the bound
        raise InternalError(f"{label or 'module'} is not projective, has "
                            f"finite projective dimension, and {vanishing}")
    return OracleCertificate(label, "GP", profile.dims, profile.status,
                             obstruction, vanishing)


def classified_words(a: GentleAlgebra) -> frozenset:
    """The canonical words of the classified GPs.  The indecomposable GPs
    are the projective P_v at every vertex v and the radical summand R(alpha)
    of every arrow alpha on a critical cycle (Kalck), all string modules.
    String modules are isomorphic iff their words agree up to inversion
    (Butler-Ringel), so this set decides membership by canonical word."""
    words = [projective_word(a, v)[0] for v in a.vertices]
    words += [radical_summand_string(a, x)
              for c in critical_cycles(a) for x in c.arrows]
    return frozenset(w.canonical() for w in words)


class StableCategoryTable(NamedTuple):
    cycles: list  # critical cycles: each a shift orbit, its arrows objects
    matrix: list  # stable hom dims, objects in cycle order, row = source

    @property
    def is_identity(self):
        n = len(self.matrix)
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))


def stable_category_table(a: GentleAlgebra, fld=QQ) -> StableCategoryTable:
    """The critical cycles, which are the shift orbits, and the stable-hom
    matrix of the non-projective GPs; verifies the cyclic syzygy action and
    the delta-shaped stable homs, raising ClassificationMismatchError."""
    cycles = critical_cycles(a)
    # one cover per object, for the orbit check and the stable homs into it
    reps = {arrow: radical_summand_rep(a, arrow, fld)
            for c in cycles for arrow in c.arrows}
    covers = {arrow: projective_cover(r) for arrow, r in reps.items()}

    # shift orbit: Omega R(alpha_i) = R(alpha_{i+1}), by a witness checked here
    shift = {arrow: nxt for c in cycles
             for arrow, nxt in zip(c.arrows, c.arrows[1:] + c.arrows[:1])}
    for arrow, nxt in shift.items():
        omega, r = syzygy(covers[arrow]), reps[nxt]
        f = isomorphism(omega, r)
        if not (f and f[:2] == (omega, r) and f.is_isomorphism()):
            raise ClassificationMismatchError(
                f"syzygy of the radical summand at {arrow!r} does not "
                f"match the next summand {nxt!r} on its cycle")

    # the maps R(x) -> R(y) through a projective are those that lift along
    # the cover P -> R(y); Hom(R(x), -) is left exact, so they span dim
    # Hom(R(x), P) - dim Hom(R(x), R(shift y)): x's row solves each once
    matrix = []
    for x in reps.values():
        row = {y: hom_dim(x, r) for y, r in reps.items()}
        into = {p: hom_dim(x, p) for p in dict.fromkeys(
            covers[y].projective for y, h in row.items() if h)}
        matrix.append([h and h - into[covers[y].projective] + row[shift[y]]
                       for y, h in row.items()])
    table = StableCategoryTable(cycles, matrix)
    if not table.is_identity:
        raise ClassificationMismatchError(
            "stable-hom matrix of the non-projective GPs is not the identity")
    return table
