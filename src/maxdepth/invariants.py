"""Module-level invariants of M = S/I.

Depth, mdepth and every predicate come from the face scan over link homology.
`projdim` reads Betti numbers off upper-Koszul subcomplexes over the lcm
lattice; `profile` never calls it, and only the tests and `regress` check
depth = n - projdim (Auslander-Buchsbaum).  Non-squarefree ideals are handled
through polarization with the documented degree shift.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    InternalCheckError,
    NotInSupportError,
    PreconditionError,
    SquarefreeRequiredError,
    UndefinedModuleError,
)
from .ideals import (
    FieldSpec,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    RingDescriptor,
    associated_primes,
    polarize,
)
from .complexes import (
    SimplicialComplex,
    all_faces,
    from_squarefree_ideal,
    link,
    to_ideal,
)
from .linalg import reduced_homology


class HochsterDegree(NamedTuple):
    degree: int
    contributions: tuple[tuple[tuple[int, ...], int], ...]  # (face, homology dim)

    @property
    def nonzero(self) -> bool:
        return bool(self.contributions)

    @property
    def finite_length(self) -> bool:
        """Only the empty face contributes."""
        return all(s == () for s, _ in self.contributions)

    @property
    def k_dim(self) -> int | None:
        """Total K-dimension when finite length, else None."""
        if not self.finite_length:
            return None
        return sum(h for _, h in self.contributions)


class HochsterTable(NamedTuple):
    degrees: tuple[HochsterDegree, ...]  # cohomological degrees 0..dim
    polarized: bool = False

    def at(self, i: int) -> HochsterDegree:
        return self.degrees[i]

    @property
    def depth(self) -> int:
        return min(d.degree for d in self.degrees if d.nonzero)

    @property
    def dim(self) -> int:
        return max(d.degree for d in self.degrees if d.nonzero)


@lru_cache(maxsize=None)
def complex_table(cx: SimplicialComplex, field: FieldSpec) -> HochsterTable:
    """Local cohomology nonvanishing table of k[cx] from link homology.

    Degree i collects dim H~_{i-|s|-1}(link s) over all faces s; finite
    length at i means only the empty face contributes there.

    Only faces equal to the intersection of the facets that hold them are
    scanned.  Any other face s has a vertex outside s in every facet
    through s, so link s is a cone over that vertex and has no reduced
    homology.  The link is built from the facets found by that test.
    """
    d = max(len(f) for f in cx.facets)  # Krull dimension of k[cx]
    contribs: dict[int, list[tuple[tuple[int, ...], int]]] = {i: [] for i in range(d + 1)}
    masks = [sum(1 << v for v in f) for f in cx.facets]
    everything = (1 << cx.n) - 1
    for s in all_faces(cx):
        sm = sum(1 << v for v in s)
        common = everything
        star = []
        for f, fm in zip(cx.facets, masks):
            if fm & sm == sm:
                common &= fm
                star.append(f)
        if common != sm:
            continue  # link s is a cone
        lk = SimplicialComplex(cx.n, tuple(tuple(v for v in f if not sm >> v & 1) for f in star))
        hv = reduced_homology(lk, field)
        for j, h in hv.dims:
            contribs[j + len(s) + 1].append((s, h))
    return HochsterTable(tuple(HochsterDegree(i, tuple(contribs[i])) for i in range(d + 1)))


def _shifted_table(I: MonomialIdeal) -> HochsterTable:
    """Table of S/I: non-squarefree ideals go through polarization, whose
    table is shifted down by the number of added variables."""
    field = I.ring.field_spec
    if I.is_squarefree:
        return complex_table(from_squarefree_ideal(I), field)
    pol = polarize(I)
    raw = complex_table(from_squarefree_ideal(pol.ideal), field)
    a = pol.added_vars
    if any(d.nonzero for d in raw.degrees[:a]):
        raise InternalCheckError("polarized table nonzero below the shift")
    degrees = tuple(HochsterDegree(d.degree - a, d.contributions) for d in raw.degrees[a:])
    return HochsterTable(degrees, polarized=True)


class ModuleProfile(NamedTuple):
    ring: RingDescriptor
    ideal: MonomialIdeal | None  # None for formal direct sums
    dim: int
    depth: int
    mdepth: int
    ass: tuple[PrimeSupport, ...]
    hochster: HochsterTable

    @property
    def field(self) -> FieldSpec:
        return self.ring.field_spec

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
        return all(self.hochster.at(i).finite_length for i in range(self.dim))


def krull_dim(I: MonomialIdeal) -> int:
    """dim S/I = max of dim R/p over the associated primes."""
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal defines the zero module")
    return max(p.dim_in(I.ring) for p in associated_primes(I))


def mdepth(I: MonomialIdeal) -> int:
    """min of dim R/p over the associated primes."""
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal defines the zero module")
    return min(p.dim_in(I.ring) for p in associated_primes(I))


def depth(I: MonomialIdeal) -> int:
    return profile(I).depth


def profile(I: MonomialIdeal) -> ModuleProfile:
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal defines the zero module")
    rng = I.ring
    table = _shifted_table(I)  # before Ass, so the vertex cap is checked first
    ass = tuple(sorted(associated_primes(I)))
    dims = [p.dim_in(rng) for p in ass]
    if table.dim != max(dims):
        raise InternalCheckError(
            f"table dimension {table.dim} disagrees with Krull dimension {max(dims)}"
        )
    return ModuleProfile(
        ring=rng, ideal=I, dim=table.dim, depth=table.depth, mdepth=min(dims), ass=ass,
        hochster=table,
    )


# ---------------------------------------------------------------------------
# independent depth route: Betti numbers over the lcm lattice

def _upper_koszul(I: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """Faces s of the variable set with x^b / x_s still inside I."""
    n = I.ring.n
    sup = b.support
    faces = []
    for k in range(len(sup) + 1):
        for s in itertools.combinations(sup, k):
            exps = list(b.exponents)
            for v in s:
                exps[v] -= 1
            if I.contains(Monomial(tuple(exps))):
                faces.append(s)
    if not faces:
        return SimplicialComplex(n, ((),))
    return SimplicialComplex(n, tuple(faces))


def projdim(I: MonomialIdeal) -> int:
    """Projective dimension of S/I via multigraded Betti numbers.

    beta_{i,b}(S/I) = dim H~_{i-2} of the upper-Koszul subcomplex at b, for
    b running over the lcm lattice of the generators.
    """
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal defines the zero module")
    field = I.ring.field_spec
    lattice: set[Monomial] = set()
    frontier = set(I.gens)
    while frontier:
        lattice |= frontier
        frontier = {
            a.lcm(g) for a in frontier for g in I.gens
        } - lattice
    top = 0
    for b in sorted(lattice, key=lambda m: (m.degree, m.exponents)):
        hv = reduced_homology(_upper_koszul(I, b), field)
        for j, h in hv.dims:
            if h:
                top = max(top, j + 2)
    return top


# ---------------------------------------------------------------------------
# localization at face primes and formal direct sums

class LocalizationProfile(NamedTuple):
    face: tuple[int, ...]
    codim_of_prime: int  # dim R/p_F = |F|
    profile: ModuleProfile


def localization_profile(I: MonomialIdeal, face) -> LocalizationProfile:
    """Profile of k[link F], standing for the localization at the face prime.

    Guarded by two always-on oracles: the depth inequality over the face,
    and depth additivity whenever the face prime contains a depth-witness
    associated prime.
    """
    if not I.is_squarefree:
        raise SquarefreeRequiredError("localization at face primes needs a squarefree ideal")
    cx = from_squarefree_ideal(I)
    face = tuple(sorted(set(face)))
    if not cx.is_face(face):
        raise NotInSupportError(f"{face} is not a face; its prime is outside Supp")
    local = profile(to_ideal(link(cx, face), I.ring))
    glob = profile(I)
    if glob.depth > local.depth + len(face):
        raise InternalCheckError("depth inequality failed at a face prime")
    p_face = PrimeSupport.of(set(range(I.ring.n)) - set(face))
    if any(p_face.contains(q) for q in glob.assd):
        if glob.depth != local.depth + len(face) or not local.maximal_depth:
            raise InternalCheckError("localization equality failed under the Assd hypothesis")
    return LocalizationProfile(face, len(face), local)


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
        HochsterDegree(i, tuple(
            c for p in profiles if i < len(p.hochster.degrees)
            for c in p.hochster.at(i).contributions
        ))
        for i in range(dim_s + 1)
    )
    return ModuleProfile(
        ring=rng, ideal=None, dim=dim_s, depth=min(p.depth for p in profiles),
        mdepth=min(p.dim_in(rng) for p in ass), ass=ass,
        hochster=HochsterTable(merged, polarized=any(p.hochster.polarized for p in profiles)),
    )
