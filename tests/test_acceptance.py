"""Acceptance gate: six criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every criterion is also a hard assertion.
"""
import itertools
import json
import random
import time

import sympy

from maxdepth.cli import main
from maxdepth.ideals import (
    F2,
    PrimeSupport,
    QQ,
    associated_primes,
    quotient_by_variable,
    ring,
    tensor_join,
    zero_ideal,
)
from maxdepth.complexes import (
    cone_vertices,
    cycle_edge_ideal,
    from_squarefree_ideal,
    to_ideal,
)
from maxdepth.linalg import boundary_matrix, reduced_homology
from maxdepth.invariants import (
    direct_sum_profile,
    localization_profile,
    profile,
)
from maxdepth.filtration import (
    ass_of_submodule,
    dimension_filtration,
    is_sequentially_cm,
    mdepth_chain,
    quotient_depth_intervals,
)
from maxdepth.random_instances import random_complex
from maxdepth.regress import C8_PRIMES, c8_ideal, two_planes_ideal

import betti_oracle
from conftest import RP2
from faces_oracle import all_faces
from intersect_oracle import intersect_all, prime_ideal
from rank_oracle import dense


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_c8_regression():
    start = time.monotonic()
    I = c8_ideal()
    prof = profile(I)
    f = dimension_filtration(I)
    top2 = [prime_ideal(I.ring, PrimeSupport(p)) for p in C8_PRIMES[:2]]
    iv3 = quotient_depth_intervals(f)[3].module
    ok = (
        associated_primes(I) == frozenset(PrimeSupport(p) for p in C8_PRIMES)
        and prof.dim == 4
        and prof.depth == 3
        and prof.mdepth == 3
        and prof.maximal_depth
        and not f.levels[1].nonzero
        and not f.levels[2].nonzero
        and f.levels[3].ideal == intersect_all(I.ring, top2)
        and (iv3.lo, iv3.hi) == (2, 2)
        and is_sequentially_cm(I).status == "false"
        and time.monotonic() - start < 10.0
    )
    report("1 eight-cycle regression", ok)


def test_criterion_2_two_planes_regression():
    prof = profile(two_planes_ideal())
    h1 = prof.hochster.degrees[1]
    ok = (
        prof.depth == 1
        and prof.mdepth == 2
        and not prof.maximal_depth
        and prof.generalized_cm
        and not prof.hochster.degrees[0].nonzero
        and h1.nonzero
        and h1.finite_length
        and h1.k_dim == 1
    )
    report("2 two-planes regression", ok)


def test_criterion_3_cycle_family():
    expect = {3: "true", 4: "false", 5: "true", 6: "false", 7: "false", 8: "false"}
    got = {k: is_sequentially_cm(cycle_edge_ideal(k)).status for k in expect}
    report("3 cycle family sequential-CM verdicts", got == expect)


def test_criterion_4_property_suites(pool_main, pool_small, pool_pairs, pool_mixed):
    violations = []

    # a. the face scan's depth and the Betti numbers' projdim agree
    for I in pool_main:
        if profile(I).depth != I.ring.n - betti_oracle.projdim(I):
            violations.append(("a", I))

    # b. join depth additive, maximal depth iff both factors
    for A, B in pool_pairs:
        J = tensor_join(A, B)
        pa, pb, pj = profile(A), profile(B), profile(J)
        if pj.depth != pa.depth + pb.depth:
            violations.append(("b-depth", (A, B)))
        if pj.maximal_depth != (pa.maximal_depth and pb.maximal_depth):
            violations.append(("b-maxdepth", (A, B)))

    # c. removing a cone vertex preserves maximal depth
    checked_c = 0
    for I in pool_small:
        if I.is_zero:
            continue
        cx = from_squarefree_ideal(I)
        apexes = cone_vertices(cx)
        if not apexes or not profile(I).maximal_depth:
            continue
        checked_c += 1
        if not profile(quotient_by_variable(I, apexes[0])).maximal_depth:
            violations.append(("c", I))
    # cones are rare in the pool; guarantee coverage with explicit cones
    for k in (3, 4, 5, 6):
        cone = tensor_join(cycle_edge_ideal(k), zero_ideal(ring(1)))
        checked_c += 1
        if profile(cone).maximal_depth != profile(
            quotient_by_variable(cone, k)
        ).maximal_depth:
            violations.append(("c-cone", k))
    assert checked_c >= 4

    # d. filtration facts: constant mdepth chain, Ass partition,
    #    set difference identity for Ass(M/M_i)
    for I in pool_small:
        f = dimension_filtration(I)
        chain = mdepth_chain(f)
        if set(chain) != {f.t}:
            violations.append(("d-chain", I))
        collected = [p for lv in f.levels for p in lv.ass_level]
        if len(collected) != len(set(collected)) or set(collected) != set(
            associated_primes(I)
        ):
            violations.append(("d-partition", I))
        for i, lv in enumerate(f.levels):
            if lv.ideal.is_unit or not lv.nonzero:
                continue
            # Ass(M/M_i) = Ass(S/I^(i)) and Ass(M_i) partition Ass(M)
            upper = associated_primes(lv.ideal)
            lower = set(ass_of_submodule(f, i))
            if set(associated_primes(I)) - upper != lower:
                violations.append(("d-difference", (I, i)))

    # e. localization inequality on all faces, equality under the Assd
    #    containment hypothesis (both enforced inside localization_profile)
    for I in pool_small[:120]:
        cx = from_squarefree_ideal(I)
        glob = profile(I)
        for face in all_faces(cx):
            loc = localization_profile(I, face)
            if glob.depth > loc.depth + len(face):
                violations.append(("e", (I, face)))
    # ... and at every monomial prime P_F in Supp of the mostly non-squarefree
    # pool, where I_F, setting x_F = 1, is proper; some cases must reach the
    # equality hypothesis with depth > 0 and F nonempty
    under_hypothesis = 0
    for I in pool_mixed[:100]:
        n = I.ring.n
        glob = profile(I)
        for k in range(n + 1):
            for face in itertools.combinations(range(n), k):
                if any(set(g.support) <= set(face) for g in I.gens):
                    continue
                loc = localization_profile(I, face)
                if glob.depth > loc.depth + k:
                    violations.append(("e-mixed", (I, face)))
                p_face = PrimeSupport.of(set(range(n)) - set(face))
                if any(set(q.vars) <= set(p_face.vars) for q in glob.assd):
                    if glob.depth != loc.depth + k or not loc.maximal_depth:
                        violations.append(("e-mixed-equality", (I, face)))
                    under_hypothesis += glob.depth > 0 and k > 0
    assert under_hypothesis > 0

    # f. maximal depth with depth > 0 forces infinite length at the depth
    #    degree; on generalized CM instances with depth > 0 maximal depth
    #    is therefore equivalent to Cohen-Macaulayness
    for I in pool_main:
        prof = profile(I)
        if prof.maximal_depth and prof.depth > 0:
            if prof.hochster.degrees[prof.depth].finite_length:
                violations.append(("f-finite", I))
        if prof.generalized_cm and prof.depth > 0:
            if prof.maximal_depth != prof.cohen_macaulay:
                violations.append(("f-gcm", I))

    # g. direct sums against independently computed summand profiles
    rng = random.Random(20260824)
    for _ in range(200):
        n = rng.randint(3, 5)
        a = profile(to_ideal(random_complex(rng, n)))
        b = profile(to_ideal(random_complex(rng, n)))
        s = direct_sum_profile([a, b])
        ok = (
            s.depth == min(a.depth, b.depth)
            and s.dim == max(a.dim, b.dim)
            and set(s.ass) == set(a.ass) | set(b.ass)
            and s.maximal_depth == (s.depth == s.mdepth)
        )
        if not ok:
            violations.append(("g", (a.ideal, b.ideal)))

    report("4 property suites (a-g, zero violations)", not violations)


def test_criterion_5_field_dependence():
    over_q = to_ideal(RP2, ring(6, QQ))
    over_f2 = to_ideal(RP2, ring(6, F2))
    pq, p2 = profile(over_q), profile(over_f2)
    ok = (
        pq.cohen_macaulay
        and not p2.cohen_macaulay
        and pq.depth - p2.depth == 1
        and pq.depth == 6 - betti_oracle.projdim(over_q)
        and p2.depth == 6 - betti_oracle.projdim(over_f2)
    )
    report("5 projective-plane field dependence", ok)


def test_criterion_6_exactness_and_determinism(capsys):
    rng = random.Random(7)
    ok = True
    for _ in range(60):
        cx = random_complex(rng, rng.randint(2, 6))
        faces = all_faces(cx)
        chi_faces = sum((-1) ** (len(f) - 1) for f in faces)
        for field in (QQ, F2):
            ok = ok and chi_faces == sum((-1) ** i * h for i, h in reduced_homology(cx, field))
        for i in range(cx.dim):
            a = dense(boundary_matrix(cx, i))
            b = dense(boundary_matrix(cx, i + 1))
            ok = ok and sympy.Matrix(a) * sympy.Matrix(b) == sympy.zeros(
                len(a), len(b[0])
            )

    def capture(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    argv = ["--format=json", "--samples=20", "--seed=3", "probe"]
    ok = ok and capture(argv) == capture(argv)
    argv = ["--format=json", "analyze", "--edges=n=8; edges=1-2,2-3,3-4,4-5,5-6,6-7,7-8,1-8"]
    first, second = capture(argv), capture(argv)
    ok = ok and first == second and json.loads(first[1])["depth"] == 3
    report("6 exactness and deterministic reruns", ok)
