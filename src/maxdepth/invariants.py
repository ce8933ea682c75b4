"""Module-level invariants of M = S/I.

Depth, mdepth and every predicate come from the face scan over link homology,
and `projdim` is n - depth (Auslander-Buchsbaum); the Betti numbers over the
lcm lattice are the test oracle `tests/betti_oracle.py`.  Non-squarefree
ideals are handled through polarization with the documented degree shift.
"""
from __future__ import annotations

from functools import reduce
from operator import and_
from typing import NamedTuple

from .errors import (
    InternalCheckError,
    NotInSupportError,
    PreconditionError,
    UndefinedModuleError,
)
from .ideals import (
    FieldSpec,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    RingDescriptor,
    associated_primes,
    per_limits,
    polarize,
    variable,
)
from .complexes import (
    SimplicialComplex,
    face_meets,
    from_squarefree_ideal,
)
from .linalg import _mask_homology


class HochsterDegree(NamedTuple):
    """(face mask, homology dim) pairs of one degree, by ascending mask from the scan."""
    contributions: tuple[tuple[int, int], ...]

    @property
    def nonzero(self) -> bool:
        return bool(self.contributions)

    @property
    def finite_length(self) -> bool:
        """Only the empty face contributes."""
        return all(s == 0 for s, _ in self.contributions)

    @property
    def k_dim(self) -> int | None:
        """Total K-dimension when finite length, else None."""
        if not self.finite_length:
            return None
        return sum(h for _, h in self.contributions)


class HochsterTable(NamedTuple):
    degrees: tuple[HochsterDegree, ...]  # cohomological degree i at position i, 0..dim


def complex_table(cx: SimplicialComplex, field: FieldSpec,
                  twins: tuple[tuple[int, ...], ...] = ()) -> HochsterTable:
    """Local cohomology nonvanishing table of k[cx] from link homology.

    Degree i collects dim H~_{i-|s|-1}(link s) over all faces s; finite
    length at i means only the empty face contributes there.

    Only the faces equal to their meet, the intersection of the facets
    that hold them, are scanned, in ascending mask order.  Any other
    face s has a vertex outside s in every facet through s, so link s is a
    cone over that vertex and has no reduced homology.  Every meet holds
    the cone C of vertices in every facet, and meet(s) = meet'(s - C) + C
    for meet' over the facets less C, which `face_meets` walks.  The link's
    facets are the masks of the facets through s, less s.

    `twins` are classes of interchangeable vertices: swapping two vertices
    of a class must map facets to facets.  Such a swap is an automorphism
    of cx, so it maps each face to one with an isomorphic link, and a face
    equal to its meet to another.  Each scanned face is therefore sent to
    its orbit's representative, which holds the first k vertices of each
    class the face meets in k vertices, and the homology is computed once
    per representative and copied to every face of the orbit.  The faces
    are still walked in the same order, so the table does not depend on
    `twins`.  Cone vertices leave their class, and a class left with fewer
    than two vertices is dropped; with no class, each face is its own
    representative.
    """
    d = max(len(f) for f in cx.facets)  # Krull dimension of k[cx]
    contribs: list[list[tuple[int, int]]] = [[] for _ in range(d + 1)]
    masks = cx.masks
    cone = reduce(and_, masks)
    masks = [m ^ cone for m in masks]
    orbits = []  # (class mask, masks of its first 0, 1, 2, ... vertices)
    for c in twins:
        firsts = [0]
        for v in c:
            if not cone >> v & 1:
                firsts.append(firsts[-1] | 1 << v)
        if len(firsts) > 2:
            orbits.append((firsts[-1], firsts))
    seen: dict[int, tuple[tuple[int, int], ...]] = {}  # representative -> homology
    for sm in sorted(sm for sm, meet in face_meets(masks).items() if sm == meet):
        rep = sm
        for c, firsts in orbits:
            rep = rep & ~c | firsts[(sm & c).bit_count()]
        if rep not in seen:
            seen[rep] = _mask_homology([fm ^ rep for fm in masks if fm & rep == rep], field)
        for j, h in seen[rep]:
            contribs[j + (sm | cone).bit_count() + 1].append((sm | cone, h))
    return HochsterTable(tuple(HochsterDegree(tuple(c)) for c in contribs))


def _shifted_table(I: MonomialIdeal) -> HochsterTable:
    """Table of S/I: non-squarefree ideals go through polarization, whose
    table is shifted down by the number of added variables.  `polarize`
    checks the vertex cap before it builds the polarized ring.  Vertices of
    pol I that lie in the same generators are interchangeable, so their
    classes go to `complex_table` as twins."""
    field = I.ring.field_spec
    if I.is_squarefree:
        return complex_table(from_squarefree_ideal(I), field)
    pol = polarize(I)
    columns: dict[tuple[int, ...], list[int]] = {}
    for v, column in enumerate(zip(*(g.exponents for g in pol.gens))):
        columns.setdefault(column, []).append(v)
    twins = tuple(tuple(c) for c in columns.values() if len(c) > 1)
    raw = complex_table(from_squarefree_ideal(pol), field, twins)
    a = pol.ring.n - I.ring.n
    if any(d.nonzero for d in raw.degrees[:a]):
        raise InternalCheckError("polarized table nonzero below the shift")
    return HochsterTable(raw.degrees[a:])


class ModuleProfile(NamedTuple):
    ring: RingDescriptor
    dim: int
    depth: int
    mdepth: int
    ass: tuple[PrimeSupport, ...]
    hochster: HochsterTable

    @property
    def assd(self) -> tuple[PrimeSupport, ...]:
        """Associated primes p with dim R/p = depth."""
        return tuple(p for p in self.ass if p.dim_in(self.ring) == self.depth)

    @property
    def maximal_depth(self) -> bool:
        """depth M = dim R/p for some p in Ass M, that is depth = mdepth."""
        return self.depth == self.mdepth

    @property
    def cohen_macaulay(self) -> bool:
        return self.depth == self.dim

    @property
    def unmixed(self) -> bool:
        return self.dim == self.mdepth

    @property
    def generalized_cm(self) -> bool:
        """Every H^i below the dimension has finite length."""
        return all(self.hochster.degrees[i].finite_length for i in range(self.dim))


@per_limits
def profile(I: MonomialIdeal) -> ModuleProfile:
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal defines the zero module")
    rng = I.ring
    table = _shifted_table(I)  # before Ass, so the vertex cap is checked first
    ass = tuple(sorted(associated_primes(I)))
    dims = [p.dim_in(rng) for p in ass]
    nonzero = [i for i, d in enumerate(table.degrees) if d.nonzero]
    depth, dim = min(nonzero), max(nonzero)
    if dim != max(dims):
        raise InternalCheckError(
            f"table dimension {dim} disagrees with Krull dimension {max(dims)}"
        )
    return ModuleProfile(
        ring=rng, dim=dim, depth=depth, mdepth=min(dims), ass=ass, hochster=table,
    )


def projdim(I: MonomialIdeal) -> int:
    """Projective dimension of S/I: n - depth, by Auslander-Buchsbaum."""
    return I.ring.n - profile(I).depth


# ---------------------------------------------------------------------------
# localization at face primes and formal direct sums

def localization_profile(I: MonomialIdeal, face) -> ModuleProfile:
    """Profile of S/(I_F + (x_j : j in F)), I_F setting x_j = 1 for j in F:
    the localization at P_F = (x_j : j not in F), in the same ring; for
    squarefree I, the ideal of link F.  Guarded by two always-on oracles:
    the depth inequality over the face, and depth additivity whenever P_F
    contains a depth-witness associated prime.
    """
    face = tuple(sorted(set(face)))
    glob = profile(I)
    gens = [Monomial(tuple(0 if j in face else e for j, e in enumerate(g.exponents)))
            for g in I.gens]
    if any(not 0 <= v < I.ring.n for v in face) or any(g.is_one for g in gens):
        raise NotInSupportError(f"{face} is not a face; its prime is outside Supp")
    local = profile(MonomialIdeal(I.ring, tuple(gens + [variable(I.ring, v) for v in face])))
    if glob.depth > local.depth + len(face):
        raise InternalCheckError("depth inequality failed at a face prime")
    if any(set(q.vars).isdisjoint(face) for q in glob.assd):  # P_F contains q
        if glob.depth != local.depth + len(face) or not local.maximal_depth:
            raise InternalCheckError("localization equality failed under the Assd hypothesis")
    return local


def direct_sum_profile(profiles: list[ModuleProfile]) -> ModuleProfile:
    """Formal direct sum of cyclic modules over one ring."""
    if not profiles:
        raise PreconditionError("direct sum needs at least one summand")
    rng = profiles[0].ring
    if any(p.ring != rng for p in profiles):
        raise PreconditionError("direct sum needs a common ring and field")
    if len(profiles) == 1:
        return profiles[0]
    ass = tuple(sorted({p for pr in profiles for p in pr.ass}))
    dim_s = max(p.dim for p in profiles)
    merged = tuple(
        HochsterDegree(tuple(
            c for p in profiles if i < len(p.hochster.degrees)
            for c in p.hochster.degrees[i].contributions
        ))
        for i in range(dim_s + 1)
    )
    return ModuleProfile(
        ring=rng, dim=dim_s, depth=min(p.depth for p in profiles),
        mdepth=min(p.dim_in(rng) for p in ass), ass=ass,
        hochster=HochsterTable(merged),
    )
