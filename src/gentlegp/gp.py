"""Gorenstein-projective classification and the singularity-category
descriptor, with an independent homological oracle as a cross-check.

The classifier is purely combinatorial and never consults the oracle;
agreement between the two routes is the point of the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .gentle import (CriticalCycle, GentleAlgebra, critical_cycles,
                     radical_summand_word)
from .linalg import QQ
from .reps import (InternalError, Representation, ext_profile,
                   embedding_obstruction, module_signature, projective_cover,
                   projective_rep, radical_summand_rep, stable_hom_dim,
                   syzygy)


class ClassificationMismatchError(AssertionError):
    """Computed homological data contradicts the combinatorial
    classification; indicates a bug, never silently ignored."""


@dataclass(frozen=True)
class GPClassification:
    projectives: tuple[str, ...]  # vertex ids
    nonprojective: tuple  # (cycle, arrow name) pairs, cycle order


def classify_gp(a: GentleAlgebra) -> GPClassification:
    """Indecomposable GPs: all projectives plus one radical summand per
    arrow on a critical cycle."""
    nonproj = []
    for c in critical_cycles(a):
        for arrow in c.arrows:
            nonproj.append((c, arrow))
    return GPClassification(tuple(a.vertices), tuple(nonproj))


@dataclass(frozen=True)
class SingularityDescriptor:
    cycle_lengths: tuple[int, ...]  # sorted multiset

    def factor_labels(self):
        return [f"{n - 1}-cluster category of type A1"
                for n in self.cycle_lengths]

    @property
    def object_count(self):
        return sum(self.cycle_lengths)


def singularity_descriptor(a: GentleAlgebra) -> SingularityDescriptor:
    return SingularityDescriptor(
        tuple(sorted(c.length for c in critical_cycles(a))))


@dataclass
class OracleCertificate:
    module_label: str
    verdict: str  # GP | not-GP
    ext_dims: list
    status: str   # embedding | terminated | gorenstein
    obstruction: int
    reason: str


def gp_oracle(a: GentleAlgebra, m: Representation, d: int,
              label: str = "") -> OracleCertificate:
    """Brute-force Gorenstein-projectivity check over an algebra of
    Gorenstein dimension d: a GP module embeds into a projective, and
    M is GP iff Ext^i(M, Lambda) = 0 for 1 <= i <= d (Auslander-Reiten)."""
    obstruction = embedding_obstruction(m)
    if obstruction > 0:
        return OracleCertificate(label, "not-GP", [], "embedding",
                                 obstruction,
                                 "does not embed into a projective module")
    bound = max(d, 1)
    profile = ext_profile(m, bound, d)
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


@lru_cache(maxsize=None)
def gp_signatures(a: GentleAlgebra, fld, /):
    """Signatures of every classified indecomposable GP module, grouped by
    dimension vector; their hom profiles are computed only when a module
    with the same dimension vector is compared with them."""
    cls = classify_gp(a)
    modules = [projective_rep(a, v, fld) for v in cls.projectives]
    modules += [radical_summand_rep(a, arrow, fld)
                for _, arrow in cls.nonprojective]
    grouped = {}
    for g in modules:
        sig = module_signature(g)
        grouped.setdefault(sig.dim_vector, []).append(sig)
    return MappingProxyType({dv: tuple(sigs) for dv, sigs in grouped.items()})


def classifier_membership(a: GentleAlgebra, m: Representation) -> bool:
    """Does M match (by signature) a module on the classified GP list?"""
    sig = module_signature(m)
    return sig in gp_signatures(a, m.field).get(sig.dim_vector, ())


@dataclass
class StableCategoryTable:
    objects: list  # (cycle name, arrow) in cycle order
    orbits: list   # lists of arrow names, shift orbit order
    matrix: list   # stable hom dims, row = source object

    @property
    def is_identity(self):
        n = len(self.objects)
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))


def stable_category_table(a: GentleAlgebra, fld=QQ) -> StableCategoryTable:
    """Objects, shift orbits, and the stable-hom matrix of the
    non-projective GPs; verifies the cyclic syzygy action and the
    delta-shaped stable homs, raising ClassificationMismatchError otherwise."""
    cycles = critical_cycles(a)
    objects = []
    orbits = []
    for c in cycles:
        orbits.append(list(c.arrows))
        for arrow in c.arrows:
            objects.append((c.name, arrow))

    # one cover and one syzygy per object, shared by the orbit check and
    # the stable homs into it
    reps = {arrow: radical_summand_rep(a, arrow, fld) for _, arrow in objects}
    covers = {arrow: projective_cover(r) for arrow, r in reps.items()}
    omegas = {arrow: syzygy(r, covers[arrow]) for arrow, r in reps.items()}

    # shift orbit: the syzygy of R(alpha_i) is R(alpha_{i+1}) along the cycle
    for c in cycles:
        n = c.length
        for i, arrow in enumerate(c.arrows):
            nxt = c.arrows[(i + 1) % n]
            if module_signature(omegas[arrow]) != module_signature(reps[nxt]):
                raise ClassificationMismatchError(
                    f"syzygy of the radical summand at {arrow!r} does not "
                    f"match the next summand {nxt!r} on its cycle")

    matrix = [[stable_hom_dim(reps[x], reps[y], covers[y], omegas[y])
               for _, y in objects] for _, x in objects]
    table = StableCategoryTable(objects, orbits, matrix)
    if objects and not table.is_identity:
        raise ClassificationMismatchError(
            "stable-hom matrix of the non-projective GPs is not the identity")
    return table


@dataclass(frozen=True)
class ComparisonReport:
    compatible: bool
    left: tuple[int, ...]
    right: tuple[int, ...]
    witness_length: int | None  # first length with differing multiplicity


def compare_derived_invariant(a: GentleAlgebra,
                              b: GentleAlgebra) -> ComparisonReport:
    """Necessary condition for derived equivalence: equal multisets of
    critical-cycle lengths."""
    da = singularity_descriptor(a).cycle_lengths
    db = singularity_descriptor(b).cycle_lengths
    if da == db:
        return ComparisonReport(True, da, db, None)
    lengths = sorted(set(da) | set(db))
    witness = next(l for l in lengths if da.count(l) != db.count(l))
    return ComparisonReport(False, da, db, witness)
