"""Module-level invariants of M = S/I.

Depth comes out of two independent routes: the face scan over link homology
(the route every predicate uses) and the largest nonzero Betti number read
off upper-Koszul subcomplexes over the lcm lattice, tied together by
Auslander-Buchsbaum.  Non-squarefree ideals are handled through polarization
with the documented degree shift.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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
    minimal_primes,
    to_ideal,
)
from .linalg import reduced_homology


@dataclass(frozen=True)
class HochsterDegree:
    degree: int
    contributions: tuple[tuple[tuple[int, ...], int], ...]  # (face, homology dim)
    nonzero: bool
    finite_length: bool
    k_dim: int | None  # total K-dimension when finite length


@dataclass(frozen=True)
class HochsterTable:
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
    degrees = []
    for i in range(d + 1):
        entries = tuple(contribs[i])
        nonzero = bool(entries)
        finite = all(s == () for s, _ in entries)
        k_dim = sum(h for s, h in entries if s == ()) if finite else None
        degrees.append(HochsterDegree(i, entries, nonzero, finite, k_dim))
    return HochsterTable(tuple(degrees))


def complex_depth(cx: SimplicialComplex, field: FieldSpec) -> int:
    return complex_table(cx, field).depth


def complex_is_cm(cx: SimplicialComplex, field: FieldSpec) -> bool:
    t = complex_table(cx, field)
    return t.depth == t.dim


def _shifted_table(I: MonomialIdeal) -> tuple[HochsterTable, tuple[PrimeSupport, ...]]:
    """Table and Ass for S/I, read off one complex.

    Non-squarefree ideals go through polarization.  The facet complements
    of the complex are the minimal vertex covers of pol I; sending each
    vertex back to its variable gives Ass(S/I), as in `associated_primes`.
    """
    field = I.ring.field_spec
    if I.is_squarefree:
        cx = from_squarefree_ideal(I)
        return complex_table(cx, field), tuple(sorted(minimal_primes(cx)))
    pol = polarize(I)
    cx = from_squarefree_ideal(pol.ideal)
    ass = {
        PrimeSupport.of(pol.slot_owner[v] for v in range(cx.n) if v not in f)
        for f in cx.facets
    }
    raw = complex_table(cx, field)
    a = pol.added_vars
    for d in raw.degrees:
        if d.degree < a and d.nonzero:
            raise InternalCheckError("polarized table nonzero below the shift")
    degrees = tuple(
        HochsterDegree(d.degree - a, d.contributions, d.nonzero, d.finite_length, d.k_dim)
        for d in raw.degrees
        if d.degree >= a
    )
    return HochsterTable(degrees, polarized=True), tuple(sorted(ass))


@dataclass(frozen=True)
class ModuleProfile:
    ring: RingDescriptor
    ideal: MonomialIdeal | None  # None for formal direct sums
    dim: int
    depth: int
    mdepth: int
    ass: tuple[PrimeSupport, ...]
    assd: tuple[PrimeSupport, ...]
    maximal_depth: bool
    cohen_macaulay: bool
    unmixed: bool
    generalized_cm: bool
    hochster: HochsterTable

    @property
    def field(self) -> FieldSpec:
        return self.ring.field_spec


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
    table, ass = _shifted_table(I)
    dims = [p.dim_in(rng) for p in ass]
    dim_m, mdepth_m = max(dims), min(dims)
    depth_m = table.depth
    if table.dim != dim_m:
        raise InternalCheckError(
            f"table dimension {table.dim} disagrees with Krull dimension {dim_m}"
        )
    assd = tuple(p for p in ass if p.dim_in(rng) == depth_m)
    unmixed = dim_m == mdepth_m
    gcm = all(table.at(i).finite_length for i in range(dim_m))
    return ModuleProfile(
        ring=rng,
        ideal=I,
        dim=dim_m,
        depth=depth_m,
        mdepth=mdepth_m,
        ass=ass,
        assd=assd,
        maximal_depth=depth_m == mdepth_m,
        cohen_macaulay=depth_m == dim_m,
        unmixed=unmixed,
        generalized_cm=gcm,
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


@lru_cache(maxsize=None)
def projdim(I: MonomialIdeal) -> int:
    """Projective dimension of S/I via multigraded Betti numbers.

    beta_{i,b}(S/I) = dim H~_{i-2} of the upper-Koszul subcomplex at b, for
    b running over the lcm lattice of the generators.
    """
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal defines the zero module")
    if I.is_zero:
        return 0
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

@dataclass(frozen=True)
class LocalizationProfile:
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
    dims = [p.dim_in(rng) for p in ass]
    depth_s = min(p.depth for p in profiles)
    dim_s = max(p.dim for p in profiles)
    mdepth_s = min(dims)
    assd = tuple(p for p in ass if p.dim_in(rng) == depth_s)
    merged = []
    for i in range(dim_s + 1):
        parts = [p.hochster.at(i) for p in profiles if i < len(p.hochster.degrees)]
        contributions = tuple(c for d in parts for c in d.contributions)
        nonzero = any(d.nonzero for d in parts)
        finite = all(d.finite_length for d in parts)
        k_dim = sum(d.k_dim for d in parts) if finite else None
        merged.append(HochsterDegree(i, contributions, nonzero, finite, k_dim))
    table = HochsterTable(tuple(merged), polarized=any(p.hochster.polarized for p in profiles))
    return ModuleProfile(
        ring=rng,
        ideal=None,
        dim=dim_s,
        depth=depth_s,
        mdepth=mdepth_s,
        ass=ass,
        assd=assd,
        maximal_depth=depth_s == mdepth_s,
        cohen_macaulay=depth_s == dim_s,
        unmixed=dim_s == mdepth_s,
        generalized_cm=all(merged[i].finite_length for i in range(dim_s)),
        hochster=table,
    )
