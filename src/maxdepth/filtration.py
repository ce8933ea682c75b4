"""Dimension filtration, sequential CM decision, attached-prime reports.

The filtration levels are stored as ideals I^(i) with M_i = I^(i)/I; the
empty intersection at the top is encoded by the unit ideal (M_i = M).
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import MalformedInputError
from .ideals import (
    FieldSpec,
    MonomialIdeal,
    PrimeSupport,
    QQ,
    associated_primes,
    irreducible_covers,
    meet_covers,
    per_limits,
    ring,
    unit_ideal,
)
from .complexes import face_key, face_meets, face_tuples, to_ideal
from .invariants import profile
from .random_instances import random_complex


class FiltrationLevel(NamedTuple):
    ideal: MonomialIdeal  # I^(i), for the level at position i
    nonzero: bool  # M_i != 0
    ass_level: tuple[PrimeSupport, ...]  # Ass^i = primes of dimension i


class DimensionFiltration(NamedTuple):
    base: MonomialIdeal
    levels: tuple[FiltrationLevel, ...]  # level i at position i, for i = 0..dim

    @property
    def t(self) -> int:
        """The smallest i with M_i != 0; the top level, M = M_dim, is nonzero."""
        return next(i for i, lv in enumerate(self.levels) if lv.nonzero)


@per_limits
def dimension_filtration(I: MonomialIdeal) -> DimensionFiltration:
    """Level ideals I^(i), the intersection of the irreducible components
    q_C = (x_k^j : (k, j) in C) of dimension above i, in one top-down pass:
    J starts as the unit ideal and meets the components of each dimension
    in turn (`meet_covers`), and a level's ideal is J once the components
    of dimension i + 1 have entered.
    """
    rng = I.ring
    n = rng.n
    ass = sorted(associated_primes(I))  # rejects the unit ideal
    covers = irreducible_covers(I)  # by size: by decreasing dimension
    li = unit_ideal(rng)
    levels = []
    for i in reversed(range(max(p.dim_in(rng) for p in ass) + 1)):
        entering = [c for c in covers if n - len(c) == i + 1]
        if entering:  # otherwise the level repeats the one above
            li = meet_covers(li, entering)
        levels.append(FiltrationLevel(li, li != I, tuple(p for p in ass if p.dim_in(rng) == i)))
    return DimensionFiltration(I, tuple(reversed(levels)))


def ass_of_submodule(f: DimensionFiltration, i: int) -> tuple[PrimeSupport, ...]:
    """Ass(M_i) = union of the level sets up to i (the partition of Ass M)."""
    return tuple(
        sorted(p for lv in f.levels[: i + 1] for p in lv.ass_level)
    )


def mdepth_chain(f: DimensionFiltration) -> tuple[int, ...]:
    """mdepth of each nonzero M_i; constant and equal to t."""
    rng = f.base.ring
    return tuple(
        min(p.dim_in(rng) for p in ass_of_submodule(f, i))
        for i, lv in enumerate(f.levels) if lv.nonzero
    )


class DepthInterval(NamedTuple):
    lo: int
    hi: int


class LevelIntervals(NamedTuple):
    module: DepthInterval | None  # depth of M_i, None when M_i = 0
    quotient: DepthInterval | None  # depth of M_i/M_{i-1}, None when zero


def _kernel_depth(depth_b: float, depth_c: float, dim_a: int) -> DepthInterval:
    """Depth Lemma for the kernel A of B -> C -> 0, from the exact depths of
    B and C (infinite when C = 0): depth A >= min(depth B, depth C + 1), with
    equality unless depth B = depth C, where only dim A bounds it above."""
    lo = min(depth_b, depth_c + 1)
    return DepthInterval(lo, lo if depth_c != depth_b else dim_a)


def quotient_depth_intervals(f: DimensionFiltration) -> tuple[LevelIntervals, ...]:
    """Depth-Lemma intervals for each M_i and each quotient M_i/M_{i-1}, in
    one pass up the levels: M_i, of dimension dim M_i (the top level up to i
    holding a prime), is the kernel of M -> S/I^(i), and M_i/M_{i-1} =
    I^(i)/I^(i-1), nonzero iff level i holds a prime and then of dimension
    i, the kernel of S/I^(i-1) -> S/I^(i), where S/I^(-1) = M."""
    depth_m = profile(f.base).depth
    out = []
    depth_prev, dim_mi = depth_m, None  # depth S/I^(i-1), and dim M_i
    for i, lv in enumerate(f.levels):
        if lv.ass_level:
            dim_mi = i
        depth_q = math.inf if lv.ideal.is_unit else profile(lv.ideal).depth  # S/I^(i) = 0 on top
        out.append(LevelIntervals(
            _kernel_depth(depth_m, depth_q, dim_mi) if lv.nonzero else None,
            _kernel_depth(depth_prev, depth_q, i) if lv.ass_level else None,
        ))
        depth_prev = depth_q
    return tuple(out)


class SeqCMResult(NamedTuple):
    status: str  # "true" | "false"
    witness_skeleton: int | None = None  # the first failing level i
    witness_face: tuple[int, ...] | None = None  # None on non-squarefree input
    witness_degree: int | None = None


@per_limits
def is_sequentially_cm(I: MonomialIdeal) -> SeqCMResult:
    """M = S/I is sequentially CM iff depth S/I^(i) > i at every level i < dim.

    S/I^(i) = M/M_i.  If M is seqCM, so is M/M_i, whose filtration
    quotients are CM of dimension above i, so its depth exceeds i.
    Conversely, going down from the top: M/M_{d-1} is CM of dimension d,
    and the Depth Lemma on 0 -> M_i/M_{i-1} -> M/M_{i-1} -> M/M_i -> 0
    gives depth M_i/M_{i-1} >= i, so a nonzero quotient, of dimension i,
    is CM (Stanley, Schenzel).  This holds for any module, and `profile`
    gives each depth exactly.

    The first failing level i is the witness.  On squarefree input the
    face and homology degree are the least (|s|, s, k - |s| - 1) over the
    contributions (s, h) at degrees k <= i of that level's table, s read
    as a tuple: a link with homology below its dimension in the pure
    skeleton Delta^[i] (Duval 1996).  On non-squarefree input that table's
    faces belong to the polarization, so the witness is the level alone.
    """
    profile(I)  # rejects the unit ideal, then checks the vertex cap before the cover search
    for i, lv in enumerate(dimension_filtration(I).levels[:-1]):
        p = profile(lv.ideal)
        if p.depth <= i:
            (_, face), j = min((face_key(s), k - s.bit_count() - 1)
                               for k in range(i + 1) for s, _ in p.hochster.degrees[k].contributions)
            return SeqCMResult("false", i, *(face, j) if I.is_squarefree else ())
    return SeqCMResult("true")


# ---------------------------------------------------------------------------
# attached primes

class AttClaim(NamedTuple):
    tag: str  # justification: "seqcm-level" | "top-assh" | "lower-bound-only"
    primes: tuple[PrimeSupport, ...]  # Ass^i, for the claim at position i

    @property
    def kind(self) -> str:
        """"lower-bound" when the primes only bound Att from below, else "full"."""
        return "lower-bound" if self.tag == "lower-bound-only" else "full"


def att_report(I: MonomialIdeal) -> tuple[AttClaim, ...]:
    """Attached primes of the local cohomology modules, degree by degree.

    Claim i lists Ass^i, the associated primes p with dim R/p = i, read off
    level i of the dimension filtration; all are attached to H^i.  That is
    all of Att H^i when M is sequentially CM, and at the top degree, where
    Att = Assh; anywhere else it is a lower bound.  The seqCM verdict is
    asked first, so the vertex cap is checked before the search cap.
    """
    seq = is_sequentially_cm(I)
    levels = dimension_filtration(I).levels
    top = len(levels) - 1
    return tuple(
        AttClaim("seqcm-level" if seq.status == "true" else "top-assh" if i == top
                 else "lower-bound-only", lv.ass_level)
        for i, lv in enumerate(levels)
    )


def psupp_monomial(I: MonomialIdeal, i: int) -> tuple[tuple[int, ...], ...]:
    """Faces F with P_F in Psupp^i(S/I): S'/I_F, on the variables outside F
    with x_j = 1 for j in F, has local cohomology in degree i - |F|.

    x_j owns a block of max(1, e_j) vertices of pol I, e_j its exponent in
    the lcm of the generators, laid out as `polarize` lays them out.  With
    F' the union of F's blocks, S'/I_F polarizes to k[lk F'] up to free
    vertices, whose degree shifts cancel, and lk_{lk F'} G = lk(F' cup G):
    P_F is a hit exactly when a face contributing to degree i of the table
    holds F'.  So each such face is read as the variables whose whole block
    it holds, and the hits are the faces those generate.
    """
    t = profile(I).hochster.degrees
    tops = t[i].contributions if 0 <= i < len(t) else ()
    widths = [max(1, e) for e in I.lcm_of_gens().exponents]
    blocks = [(1 << w) - 1 << sum(widths[:j]) for j, w in enumerate(widths)]
    return tuple(face_tuples(face_meets(
        [sum(1 << j for j, b in enumerate(blocks) if s & b == b) for s, _ in tops])))


# ---------------------------------------------------------------------------
# open-question prober: finite-length local cohomology under maximal depth

class ProbeConfig(NamedTuple("ProbeConfig", [
    ("samples", int), ("max_vertices", int), ("min_vertices", int), ("seed", int),
    ("field", FieldSpec),
])):
    __slots__ = ()

    def __new__(cls, samples: int = 200, max_vertices: int = 7, min_vertices: int = 3,
                seed: int = 0, field: FieldSpec = QQ):
        if samples < 0 or not 1 <= min_vertices <= max_vertices:
            raise MalformedInputError(
                "probe needs samples >= 0 and 1 <= min_vertices <= max_vertices, got "
                f"ProbeConfig(samples={samples!r}, max_vertices={max_vertices!r}, "
                f"min_vertices={min_vertices!r}, seed={seed!r})"
            )
        return super().__new__(cls, samples, max_vertices, min_vertices, seed, field)


class ProbeHit(NamedTuple):
    ideal: MonomialIdeal
    degree: int
    depth: int
    dim: int


def probe_open_question(config: ProbeConfig) -> tuple[int, tuple[ProbeHit, ...]]:
    """Random search for a maximal-depth module whose nonzero H^i has finite length.

    Returns the number of eligible samples, those with maximal depth and
    depth > 0, and every hit verbatim; an empty hit list means no
    counterexample was found at this sample size.
    """
    import random  # only the prober needs it; the other commands start without it

    rng = random.Random(config.seed)
    hits = []
    eligible = 0
    for _ in range(config.samples):
        n = rng.randint(config.min_vertices, config.max_vertices)
        cx = random_complex(rng, n)
        I = to_ideal(cx, ring(cx.n, config.field))
        prof = profile(I)
        if not (prof.maximal_depth and prof.depth > 0):
            continue
        eligible += 1
        for i, entry in enumerate(prof.hochster.degrees):
            if entry.nonzero and entry.finite_length:
                hits.append(ProbeHit(I, i, prof.depth, prof.dim))
    return eligible, tuple(hits)
