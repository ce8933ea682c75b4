"""Built-in regression suite: the worked examples the engine must reproduce.

`run_regression` prints one ok/FAIL line per check and reports overall
success; the CLI `regress` command exits nonzero on any mismatch.
"""
from __future__ import annotations

from .ideals import (
    F2,
    QQ,
    MonomialIdeal,
    PrimeSupport,
    associated_primes,
    meet_covers,
    parse_generators,
    polarize,
    quotient_by_variable,
    ring,
    tensor_join,
    unit_ideal,
)
from .complexes import (
    SimplicialComplex,
    cycle_edge_ideal,
    from_squarefree_ideal,
    to_ideal,
)
from .invariants import localization_profile, profile, projdim
from .filtration import (
    att_report,
    dimension_filtration,
    is_sequentially_cm,
    mdepth_chain,
    psupp_monomial,
    quotient_depth_intervals,
)

# the ten minimal primes of the 8-cycle edge ideal, 0-based variable indices
C8_PRIMES = (
    (0, 2, 4, 6),
    (1, 3, 5, 7),
    (1, 2, 4, 6, 7),
    (1, 2, 4, 5, 7),
    (0, 2, 4, 5, 7),
    (0, 2, 3, 5, 7),
    (0, 1, 3, 4, 6),
    (0, 1, 3, 5, 6),
    (0, 2, 3, 5, 6),
    (1, 3, 4, 6, 7),
)


def c8_ideal():
    return cycle_edge_ideal(8)


def c8_prime_supports():
    return frozenset(PrimeSupport(p) for p in C8_PRIMES)


def two_planes_ideal():
    """(x1,x2) intersect (x3,x4) in four variables."""
    return parse_generators("x1*x3,x1*x4,x2*x3,x2*x4", nvars=4)


def _checks():
    I8 = c8_ideal()
    p8 = profile(I8)
    f8 = dimension_filtration(I8)
    yield "C8 associated primes are the ten listed", (
        associated_primes(I8) == c8_prime_supports()
    )
    yield "C8 edge ideal is the intersection of its ten primes", (
        meet_covers(unit_ideal(I8.ring), [[(k, 1) for k in p] for p in C8_PRIMES]) == I8
    )
    yield "C8 generators already minimal", MonomialIdeal(I8.ring, I8.gens) == I8
    yield "C8 dim 4", p8.dim == 4
    yield "C8 depth 3", p8.depth == 3
    yield "C8 mdepth 3", p8.mdepth == 3
    yield "C8 has maximal depth", p8.maximal_depth
    yield "C8 projdim 5 (Auslander-Buchsbaum)", projdim(I8) == 5

    top2 = frozenset(PrimeSupport(p) for p in C8_PRIMES[:2])
    level3 = meet_covers(unit_ideal(I8.ring), [[(k, 1) for k in p] for p in C8_PRIMES[:2]])
    yield "C8 filtration: levels 1 and 2 vanish", (
        not f8.levels[1].nonzero and not f8.levels[2].nonzero
    )
    yield "C8 filtration: level-3 ideal is p1 cap p2", f8.levels[3].ideal == level3
    yield "C8 filtration: top level ideal is the unit ideal", f8.levels[4].ideal.is_unit
    yield "C8 filtration: t = 3", f8.t == 3
    rest = c8_prime_supports() - top2
    yield "C8 Ass(M_t) set difference identity", (
        associated_primes(I8) - associated_primes(level3) == rest
    )
    yield "C8 mdepth chain constant 3", mdepth_chain(f8) == (3, 3)
    iv8 = quotient_depth_intervals(f8)
    yield "C8 level-3 depth interval [2,2]", iv8[3].module == (2, 2)
    # M/M_3 = S/(p1 cap p2), two 4-planes meeting only at the origin
    yield "C8 top filtration quotient has depth 1", iv8[4].quotient == (1, 1)
    yield "C8 not sequentially CM", is_sequentially_cm(I8).status == "false"
    yield "C3 sequentially CM", is_sequentially_cm(cycle_edge_ideal(3)).status == "true"
    yield "C5 sequentially CM", is_sequentially_cm(cycle_edge_ideal(5)).status == "true"
    for gens, verdict, why in (("x4^2,x2*x3*x4,x2^2*x4", ("true", None), "depth S/I^(i) > i, i < 3"),
                               ("x1^2*x3,x1*x4,x2*x3,x2*x4", ("false", 1), "depth S/I^(1) <= 1")):
        res = is_sequentially_cm(parse_generators(gens, nvars=4))
        yield f"({gens}) sequentially CM {verdict[0]}: {why}", res[:2] == verdict

    # two triangles glued at vertex 3, plus an isolated vertex 6: the pure
    # 2-skeleton drops the isolated vertex, and the link of vertex 3 in it
    # is two disjoint edges, disconnected below its dimension 1
    two_triangles = SimplicialComplex(6, ((0, 1, 2), (2, 3, 4), (5,)))
    for field in (QQ, F2):
        res = is_sequentially_cm(to_ideal(two_triangles, ring(6, field)))
        witness = (res.status, res.witness_skeleton, res.witness_face, res.witness_degree)
        yield f"non-pure seqCM witness over {field.label}: skeleton 2, vertex 3, H~_0", (
            witness == ("false", 2, (2,), 0)
        )

    top8 = att_report(I8)[4]
    yield "C8 top attached primes are the two 4-dimensional ones", (
        top8.kind == "full" and frozenset(top8.primes) == top2
    )
    yield "C8 Psupp degree 3 contains the empty face", () in psupp_monomial(I8, 3)

    I2 = two_planes_ideal()
    p2 = profile(I2)
    yield "two-planes dim 2", p2.dim == 2
    yield "two-planes depth 1", p2.depth == 1
    yield "two-planes mdepth 2", p2.mdepth == 2
    yield "two-planes has no maximal depth", not p2.maximal_depth
    yield "two-planes generalized CM", p2.generalized_cm
    yield "two-planes H^0 vanishes", not p2.hochster.degrees[0].nonzero
    h1 = p2.hochster.degrees[1]
    yield "two-planes H^1 finite length of K-dimension 1", (
        h1.nonzero and h1.finite_length and h1.k_dim == 1
    )

    Sm = parse_generators("x1,x2,x3", nvars=3)
    yield "depth-0 quotient has maximal depth", profile(Sm).maximal_depth

    # tensor join: associated primes are pairwise unions, depth is additive
    A = parse_generators("x1*x2", nvars=2)
    B = two_planes_ideal()
    join = tensor_join(A, B)
    expected = frozenset(
        PrimeSupport.of(tuple(p.vars) + tuple(v + 2 for v in q.vars))
        for p in associated_primes(A)
        for q in associated_primes(B)
    )
    yield "tensor join associated primes are pairwise unions", (
        associated_primes(join) == expected
    )
    yield "tensor join depth is additive", (
        profile(join).depth == profile(A).depth + profile(B).depth
    )
    yield "tensor join maximal depth iff both factors", (
        profile(join).maximal_depth == (profile(A).maximal_depth and profile(B).maximal_depth)
    )

    # cone-vertex quotient preserves maximal depth (fixed cone over C5)
    cone = tensor_join(cycle_edge_ideal(5), parse_generators("", nvars=1))
    yield "cone quotient preserves maximal depth", (
        profile(cone).maximal_depth
        and profile(quotient_by_variable(cone, 5)).maximal_depth
    )
    wide = tensor_join(cycle_edge_ideal(5), parse_generators("", nvars=15))  # 20 vertices
    yield "C5 with 15 free variables: depth 17 = 2 + 15, maximal depth, kept by a quotient", (
        profile(wide).depth == 17 and profile(wide).maximal_depth
        and profile(quotient_by_variable(wide, 19)).maximal_depth
    )

    square = parse_generators("x1^2", nvars=1)
    pol = polarize(square)
    yield "polarization of (x1^2) adds one squarefree variable", (
        pol.ring.n - square.ring.n == 1
        and pol.gens[0].exponents == (1, 1)
    )
    mixed = parse_generators("x1^2,x1*x2", nvars=2)
    polm = polarize(mixed)
    yield "polarization depth shift on (x1^2, x1*x2)", (
        profile(polm).depth - (polm.ring.n - mixed.ring.n) == profile(mixed).depth == 0
    )
    I3 = parse_generators("x1^2,x1*x2", nvars=3)
    m3 = profile(I3)
    loc = localization_profile(I3, (2,))
    yield "(x1^2, x1*x2) localized at (x1, x2): depth 1 = 0 + |F|, maximal depth kept", (
        m3.depth == loc.depth + 1 == 1 and m3.maximal_depth and loc.maximal_depth
    )

    yield "Stanley-Reisner roundtrip on C8", (
        to_ideal(from_squarefree_ideal(I8)) == I8
    )


def run_regression() -> tuple[bool, list[str]]:
    lines = []
    ok = True
    for name, passed in _checks():
        ok = ok and passed
        lines.append(f"{'ok  ' if passed else 'FAIL'} {name}")
    lines.append("regression: " + ("all checks passed" if ok else "MISMATCH"))
    return ok, lines
