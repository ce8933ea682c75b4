"""Dimension filtration, sequential CM decision, attached-prime reports.

The filtration levels are stored as ideals I^(i) with M_i = I^(i)/I; the
empty intersection at the top is encoded by the unit ideal (M_i = M).
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import MalformedInputError, SquarefreeRequiredError, UndefinedModuleError
from .ideals import (
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    irreducible_covers,
    minimal_primes_of,
    unit_ideal,
)
from .complexes import (
    all_faces,
    facet_subcomplex_min_dim,
    from_squarefree_ideal,
    to_ideal,
)
from .invariants import complex_table, profile
from .random_instances import random_complex


class FiltrationLevel(NamedTuple):
    index: int
    ideal: MonomialIdeal  # I^(i)
    nonzero: bool  # M_i != 0
    ass_level: tuple[PrimeSupport, ...]  # Ass^i = primes of dimension i


class DimensionFiltration(NamedTuple):
    base: MonomialIdeal
    levels: tuple[FiltrationLevel, ...]  # indices 0..dim
    t: int  # smallest i with M_i != 0

    def level(self, i: int) -> FiltrationLevel:
        return self.levels[i]


def dimension_filtration(I: MonomialIdeal) -> DimensionFiltration:
    """Level ideals I^(i), the intersection of the irreducible components
    q_C = (x_k^j : (k, j) in C) of dimension above i, in one top-down pass:
    J starts as the unit ideal and meets each q_C in decreasing order of
    dimension, and a level's ideal is J once the components of dimension
    i + 1 have entered.

    J cap q_C is generated by the lcms of the generators g of J with the
    x_k^j.  A g inside q_C (g_k >= j for some (k, j) in C) stays as it is,
    and it stays minimal: a generator of J cap q_C dividing it lies in J,
    so it is a multiple of a generator of J and that can only be g.  Any
    other g is raised at each (k, j) of C to g + (j - g_k) e_k.  Only the
    raised candidates need the divisibility test, taken in ascending degree
    against the generators kept so far: a proper divisor has lower degree,
    so it was decided before, and a discarded one has a kept divisor.

    The test runs on exponent vectors packed into one int, one field of
    w = bit_length(max exponent) + 1 bits per variable.  No exponent of J
    exceeds the largest exponent of I (a pair (k, j) of a cover has j at
    most the largest exponent of x_k in I), so it fits below the top bit of
    its field, the guard bit.  With G the guard bits, each field of
    (B | G) - A holds 2^(w-1) + b_k - a_k, which lies in [1, 2^w): no
    field borrows from the next, and its guard bit is set exactly when
    a_k <= b_k.  So x^a divides x^b iff ((B | G) - A) & G == G.
    """
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal defines the zero module")
    rng = I.ring
    n = rng.n
    covers = irreducible_covers(I)  # by size: by decreasing dimension
    ass = sorted({PrimeSupport.of(k for k, _ in c) for c in covers})  # Ass(S/I)
    w = max((e for g in I.gens for e in g.exponents), default=0).bit_length() + 1
    mask = (1 << w) - 1
    guard = sum(1 << (k * w + w - 1) for k in range(n))
    gens = [(0, 0)]  # J as (degree, packed exponents): the unit ideal
    li = unit_ideal(rng)
    levels = []
    for i in reversed(range(max(p.dim_in(rng) for p in ass) + 1)):
        entering = [c for c in covers if n - len(c) == i + 1]
        for c in entering:
            pairs = [(k * w, j) for k, j in c]
            kept, raised = [], set()
            for deg, a in gens:
                at = [(s, j, (a >> s) & mask) for s, j in pairs]
                if any(e >= j for _, j, e in at):
                    kept.append((deg, a))
                else:
                    raised.update((deg + j - e, a + ((j - e) << s)) for s, j, e in at)
            for deg, b in sorted(raised):
                bg = b | guard
                if not any((bg - a) & guard == guard for _, a in kept):
                    kept.append((deg, b))
            gens = kept
        if entering:  # otherwise the level repeats the one above
            li = MonomialIdeal(rng, tuple(
                Monomial(tuple((a >> (k * w)) & mask for k in range(n))) for _, a in gens
            ))
        levels.append(
            FiltrationLevel(
                index=i,
                ideal=li,
                nonzero=li != I,
                ass_level=tuple(p for p in ass if p.dim_in(rng) == i),
            )
        )
    t = min(lv.index for lv in levels if lv.nonzero)
    return DimensionFiltration(I, tuple(reversed(levels)), t)


def ass_of_submodule(f: DimensionFiltration, i: int) -> tuple[PrimeSupport, ...]:
    """Ass(M_i) = union of the level sets up to i (the partition of Ass M)."""
    return tuple(
        sorted(p for lv in f.levels[: i + 1] for p in lv.ass_level)
    )


def mdepth_chain(f: DimensionFiltration) -> tuple[int, ...]:
    """mdepth of each nonzero M_i; constant and equal to t."""
    rng = f.base.ring
    out = []
    for lv in f.levels:
        if lv.nonzero:
            out.append(min(p.dim_in(rng) for p in ass_of_submodule(f, lv.index)))
    return tuple(out)


class DepthInterval(NamedTuple):
    lo: int
    hi: int

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


class LevelIntervals(NamedTuple):
    index: int
    module: DepthInterval | None  # depth of M_i, None when M_i = 0
    quotient: DepthInterval | None  # depth of M_i/M_{i-1}, None when zero


def quotient_depth_intervals(f: DimensionFiltration) -> tuple[LevelIntervals, ...]:
    """Depth-Lemma interval propagation along 0 -> M_i -> M -> M/M_i -> 0.

    Single deterministic pass: the M_i intervals are pinned first against
    the exactly computable ends S/I and S/I^(i), then the consecutive
    quotients are bounded through their own short exact sequences.
    """
    I = f.base
    rng = I.ring
    depth_m = profile(I).depth
    module_iv: dict[int, DepthInterval | None] = {}
    for lv in f.levels:
        if not lv.nonzero:
            module_iv[lv.index] = None
            continue
        if lv.ideal.is_unit:  # M_i = M
            module_iv[lv.index] = DepthInterval(depth_m, depth_m)
            continue
        depth_q = profile(lv.ideal).depth  # depth of M/M_i = S/I^(i)
        dim_mi = max(p.dim_in(rng) for p in ass_of_submodule(f, lv.index))
        if depth_q < depth_m:
            module_iv[lv.index] = DepthInterval(depth_q + 1, depth_q + 1)
        else:
            module_iv[lv.index] = DepthInterval(depth_m, dim_mi)
    out = []
    for lv in f.levels:
        i = lv.index
        mod = module_iv[i]
        if mod is None:
            out.append(LevelIntervals(i, None, None))
            continue
        prev = module_iv[i - 1] if i > 0 else None
        quotient_nonzero = bool(lv.ass_level)
        if not quotient_nonzero:
            out.append(LevelIntervals(i, mod, None))
        elif prev is None:
            out.append(LevelIntervals(i, mod, mod))
        else:
            lo = max(0, min(mod.lo, prev.lo - 1))
            out.append(LevelIntervals(i, mod, DepthInterval(lo, i)))
    return tuple(out)


class SeqCMResult(NamedTuple):
    status: str  # "true" | "false" | "undecided"
    witness_skeleton: int | None = None
    witness_face: tuple[int, ...] | None = None
    witness_degree: int | None = None


def is_sequentially_cm(I: MonomialIdeal) -> SeqCMResult:
    """Pure-skeleton criterion (Duval 1996): every pure i-skeleton
    Delta^[i] Cohen-Macaulay.

    Reisner's criterion on Delta^[i] asks that each link of a face s, of
    dimension i - |s|, have no homology below its dimension, that is no
    contribution (s, h) at a degree k < i + 1 of the skeleton's table, in
    homology degree k - |s| - 1.  The witness is the least (|s|, s, degree).

    The verdict is read off the table of Delta_{>=i}, the subcomplex
    generated by the facets of dimension >= i, instead of Delta^[i] itself.
    Delta^[i] is the i-skeleton of Delta_{>=i}, links commute with taking
    skeleta (lk_{X^(m)} s = (lk_X s)^(m-|s|)), and a skeleton has the
    homology of the whole complex below its top dimension.  So both tables
    hold the same contributions at every degree k < i + 1.  Delta_{>=0} is
    Delta, whose table `profile` caches, and Delta_{>=i} changes only at
    the facet sizes of Delta.

    Non-squarefree input is reported undecided; the filtration-based
    check only produces intervals there.
    """
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal defines the zero module")
    if not I.is_squarefree:
        return SeqCMResult("undecided")
    field_spec = I.ring.field_spec
    cx = from_squarefree_ideal(I)
    for i in range(cx.dim + 1):
        t = complex_table(facet_subcomplex_min_dim(cx, i), field_spec)
        low = [(len(s), s, k - len(s) - 1) for k in range(i + 1) for s, _ in t.at(k).contributions]
        if low:
            return SeqCMResult("false", i, *min(low)[1:])
    return SeqCMResult("true")


# ---------------------------------------------------------------------------
# attached primes

ATT_NOTES = (
    "depth-min-att assumes every prime in Supp(M) contains a depth-witness "
    "associated prime; the existential reading of that hypothesis is NOT used.",
    "for squarefree ideals the depth-min-att hypothesis collapses to the "
    "Cohen-Macaulay case, so it is mostly informative on ideals with "
    "embedded primes.",
)


class AttClaim(NamedTuple):
    degree: int
    kind: str  # "full" | "min-att" | "lower-bound"
    tag: str  # justification
    primes: tuple[PrimeSupport, ...]


class AttReport(NamedTuple):
    claims: tuple[AttClaim, ...]
    notes: tuple[str, ...] = ATT_NOTES


def att_report(I: MonomialIdeal) -> AttReport:
    """Attached primes of the local cohomology modules, degree by degree.

    Claims carry their justification: the top degree equals Assh, the
    sequentially CM case pins every degree to the level sets, the depth
    degree reports min-Att = Assd when the Supp hypothesis verifies, and
    everything else is a lower bound from associated primes.
    """
    prof = profile(I)
    f = dimension_filtration(I)
    seq = is_sequentially_cm(I)
    rng = I.ring
    assh = tuple(p for p in prof.ass if p.dim_in(rng) == prof.dim)
    hypothesis = bool(prof.assd) and all(
        any(p.contains(q) for q in prof.assd) for p in sorted(minimal_primes_of(I))
    )
    claims = []
    for i in range(prof.dim + 1):
        ass_i = f.level(i).ass_level
        if seq.status == "true":
            claims.append(AttClaim(i, "full", "seqcm-level", ass_i))
        elif i == prof.dim:
            claims.append(AttClaim(i, "full", "top-assh", assh))
        elif i == prof.depth and hypothesis:
            claims.append(AttClaim(i, "min-att", "depth-min-att (hypothesis verified)", prof.assd))
        else:
            claims.append(AttClaim(i, "lower-bound", "lower-bound-only", ass_i))
    return AttReport(tuple(claims))


class PsuppEntry(NamedTuple):
    degree: int
    faces: tuple[tuple[int, ...], ...]


def psupp_monomial(I: MonomialIdeal, i: int) -> PsuppEntry:
    """Faces F whose link has nonvanishing local cohomology in degree i - |F|.

    Since lk_{lk F} G = lk(F cup G), G contributes to degree i - |F| of
    k[lk F] exactly when F cup G contributes to degree i of k[cx]: the hits
    are the faces inside a face that contributes to degree i of cx's table.
    """
    if not I.is_squarefree:
        raise SquarefreeRequiredError("Psupp scan needs a squarefree ideal")
    cx = from_squarefree_ideal(I)
    t = complex_table(cx, I.ring.field_spec)
    tops = [set(s) for s, _ in t.at(i).contributions] if 0 <= i < len(t.degrees) else []
    return PsuppEntry(i, tuple(f for f in all_faces(cx) if any(s.issuperset(f) for s in tops)))


# ---------------------------------------------------------------------------
# open-question prober: finite-length local cohomology under maximal depth

class ProbeConfig(NamedTuple("ProbeConfig", [
    ("samples", int), ("max_vertices", int), ("min_vertices", int), ("seed", int)
])):
    __slots__ = ()

    def __new__(cls, samples: int = 200, max_vertices: int = 7, min_vertices: int = 3,
                seed: int = 0):
        self = super().__new__(cls, samples, max_vertices, min_vertices, seed)
        if samples < 0 or not 1 <= min_vertices <= max_vertices:
            raise MalformedInputError(
                f"probe needs samples >= 0 and 1 <= min_vertices <= max_vertices, got {self}"
            )
        return self


class ProbeHit(NamedTuple):
    ideal: MonomialIdeal
    degree: int
    depth: int
    dim: int


class ProbeReport(NamedTuple):
    config: ProbeConfig
    samples_run: int
    eligible: int  # instances with maximal depth and depth > 0
    hits: tuple[ProbeHit, ...]


def probe_open_question(config: ProbeConfig) -> ProbeReport:
    """Random search for a maximal-depth module whose nonzero H^i has finite length.

    Every hit is reported verbatim; an empty hit list means no
    counterexample was found at this sample size.
    """
    import random  # only the prober needs it; the other commands start without it

    rng = random.Random(config.seed)
    hits = []
    eligible = 0
    for _ in range(config.samples):
        n = rng.randint(config.min_vertices, config.max_vertices)
        cx = random_complex(rng, n)
        prof = profile(to_ideal(cx))
        if not (prof.maximal_depth and prof.depth > 0):
            continue
        eligible += 1
        for entry in prof.hochster.degrees:
            if entry.nonzero and entry.finite_length:
                hits.append(ProbeHit(prof.ideal, entry.degree, prof.depth, prof.dim))
    return ProbeReport(config, config.samples, eligible, tuple(hits))
