import itertools
import random
import tracemalloc
from functools import reduce
from operator import and_, or_

import pytest
from hypothesis import given, settings

from maxdepth.errors import (
    CapExceededError,
    NotInSupportError,
    PreconditionError,
    UndefinedModuleError,
)
from maxdepth.ideals import (
    F2,
    FieldSpec,
    PrimeSupport,
    QQ,
    parse_generators,
    polarize,
    ring,
    tensor_join,
    unit_ideal,
    zero_ideal,
)
from maxdepth import invariants
from maxdepth.complexes import (
    SimplicialComplex,
    cycle_edge_ideal,
    face_meets,
    from_squarefree_ideal,
    link,
    pure_skeleton,
    to_ideal,
)
from maxdepth.invariants import (
    HochsterDegree,
    ModuleProfile,
    complex_table,
    direct_sum_profile,
    localization_profile,
    profile,
    projdim,
)
from maxdepth.random_instances import random_complex
from maxdepth.regress import c8_ideal, two_planes_ideal

import betti_oracle
from conftest import POOL_SEED, RP2, random_monomial_ideal, small_ideals
from faces_oracle import all_faces
from intersect_oracle import prime_ideal
from reisner_oracle import table_by_all_faces, twin_classes

def depth_and_dim(t):
    """A table's least and greatest nonzero degrees: depth and dim of its module."""
    nonzero = [i for i, d in enumerate(t.degrees) if d.nonzero]
    return min(nonzero), max(nonzero)


class TestScalars:
    def test_c8(self):
        I = c8_ideal()
        prof = profile(I)
        assert (prof.dim, prof.depth, prof.mdepth) == (4, 3, 3)
        assert projdim(I) == 5

    def test_two_planes(self):
        prof = profile(two_planes_ideal())
        assert (prof.dim, prof.depth, prof.mdepth) == (2, 1, 2)

    def test_zero_ideal(self):
        I = zero_ideal(ring(4))
        prof = profile(I)
        assert (prof.dim, prof.depth) == (4, 4)
        assert projdim(I) == 0

    def test_maximal_ideal_is_koszul(self):
        I = parse_generators("x1,x2,x3,x4")
        assert projdim(I) == 4
        assert profile(I).depth == 0

    def test_principal(self):
        I = parse_generators("x1*x2", nvars=3)
        assert projdim(I) == 1
        assert profile(I).depth == 2

    def test_prime_quotient_is_polynomial_ring(self):
        p = prime_ideal(ring(5), PrimeSupport((0, 3)))
        prof = profile(p)
        assert prof.cohen_macaulay and prof.depth == 3

    def test_unit_rejected(self):
        for fn in (projdim, profile):
            with pytest.raises(UndefinedModuleError):
                fn(unit_ideal(ring(2)))


class TestProfile:
    def test_c8_flags(self):
        prof = profile(c8_ideal())
        assert prof.maximal_depth
        assert not prof.cohen_macaulay
        assert not prof.unmixed
        assert len(prof.ass) == 10
        # depth 3 witnesses are the eight five-variable primes
        assert len(prof.assd) == 8
        assert all(p.dim_in(prof.ring) == 3 for p in prof.assd)

    def test_two_planes_flags(self):
        prof = profile(two_planes_ideal())
        assert not prof.maximal_depth
        assert prof.unmixed
        assert prof.generalized_cm

    def test_depth_zero_is_maximal_depth(self):
        prof = profile(parse_generators("x1,x2"))
        assert prof.depth == 0 and prof.maximal_depth

    def test_cm_implies_maximal_depth_and_unmixed(self):
        prof = profile(to_ideal(RP2))
        assert prof.cohen_macaulay
        assert prof.maximal_depth and prof.unmixed

    def test_generalized_cm_with_maximal_depth_is_cm_or_depth_zero(self):
        # a maximal-depth module of depth t > 0 has Assd attached to H^t, so
        # H^t is not of finite length; squarefree only, since the flags of a
        # polarized table are not yet those of S/I
        rng = random.Random(POOL_SEED + 6)
        not_cm = 0
        for _ in range(2000):
            n = rng.randint(2, 8)
            cx = random_complex(rng, n)
            for field in (QQ, F2):
                prof = profile(to_ideal(cx, ring(n, field)))
                if prof.generalized_cm:
                    not_cm += not prof.cohen_macaulay
                    if prof.maximal_depth:
                        assert prof.cohen_macaulay or prof.depth == 0, (cx, field)
        assert not_cm >= 10

    @given(small_ideals)
    @settings(max_examples=60, deadline=None)
    def test_invariant_chain(self, I):
        if I.is_unit:
            return
        prof = profile(I)
        assert 0 <= prof.depth <= prof.mdepth <= prof.dim <= I.ring.n
        assert prof.maximal_depth == (prof.depth == prof.mdepth)
        assert prof.cohen_macaulay == (prof.depth == prof.dim)
        if prof.cohen_macaulay:
            assert prof.maximal_depth and prof.unmixed

    @given(small_ideals)
    @settings(max_examples=60, deadline=None)
    def test_auslander_buchsbaum(self, I):
        if I.is_unit:
            return
        assert profile(I).depth == I.ring.n - betti_oracle.projdim(I)

    def test_auslander_buchsbaum_on_the_mixed_pool(self, pool_mixed):
        # the oracle walks the lcm lattice of I itself, but profile scans
        # every face of the polarized complex, whose vertex count reaches 15
        # here: (x2^3*x5^3, x1*x4^3*x5^2, x1^2*x2^3*x3^2, x1^3*x2^2*x3^3*x5^2)
        # over GF(2) is the slowest, at about 2 s
        for I in pool_mixed:
            assert profile(I).depth == I.ring.n - betti_oracle.projdim(I), I.format()

    def test_projdim_matches_the_betti_oracle(self, pool_mixed):
        # depth 1 and mdepth 2 on the two planes: projdim 3, not 2
        assert projdim(two_planes_ideal()) == betti_oracle.projdim(two_planes_ideal()) == 3
        for I in pool_mixed:
            assert projdim(I) == betti_oracle.projdim(I), I.format()

    def test_vertex_cap_checked_before_polarizing(self):
        # the polarized ring of x1^200000 would hold 200001 variables
        I = parse_generators("x1^200000,x1*x2")
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="200001 vertices exceeds cap 24"):
                profile(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestHochsterTable:
    def test_degrees_are_indexed(self):
        # degree i is t.degrees[i]; no record stores it a second time
        assert HochsterDegree._fields == ("contributions",)
        t = profile(c8_ideal()).hochster
        assert len(t.degrees) == 5
        assert depth_and_dim(t) == (3, 4)

    def test_two_planes_middle_degree(self):
        t = profile(two_planes_ideal()).hochster
        assert not t.degrees[0].nonzero
        mid = t.degrees[1]
        assert mid.nonzero and mid.finite_length and mid.k_dim == 1
        assert mid.contributions == ((0, 1),)
        assert not t.degrees[2].finite_length

    def test_top_degree_never_finite_length_when_dim_positive(self):
        for I in (c8_ideal(), two_planes_ideal(), to_ideal(RP2)):
            prof = profile(I)
            top = prof.hochster.degrees[prof.dim]
            assert top.nonzero and not top.finite_length

    def test_generalized_cm_matches_table(self):
        for I in (c8_ideal(), two_planes_ideal(), cycle_edge_ideal(5)):
            prof = profile(I)
            assert prof.generalized_cm == all(
                prof.hochster.degrees[i].finite_length for i in range(prof.dim)
            )

    def test_polarized_flag(self):
        I = parse_generators("x1^2,x1*x2", nvars=2)
        assert profile(I).depth == 0

    @given(small_ideals)
    @settings(max_examples=40, deadline=None)
    def test_polarization_depth_shift(self, I):
        if I.is_unit or I.is_zero:
            return
        pol = polarize(I)
        polarized, original = profile(pol), profile(I)
        added = pol.ring.n - I.ring.n
        assert polarized.depth - added == original.depth
        assert polarized.dim - added == original.dim


class TestFieldDependence:
    def test_projective_plane(self):
        over_q = to_ideal(RP2, ring(6, QQ))
        over_f2 = to_ideal(RP2, ring(6, F2))
        pq, p2 = profile(over_q), profile(over_f2)
        assert (pq.dim, pq.depth) == (3, 3)
        assert (p2.dim, p2.depth) == (3, 2)
        # the Betti numbers give the same projdim for each field separately
        assert projdim(over_q) == betti_oracle.projdim(over_q) == 6 - 3
        assert projdim(over_f2) == betti_oracle.projdim(over_f2) == 6 - 2

    def test_complex_depth_helper(self):
        # the complex's own table: CM over QQ, not over GF(2)
        tq, t2 = complex_table(RP2, QQ), complex_table(RP2, F2)
        assert depth_and_dim(tq) == (3, 3)
        assert depth_and_dim(t2) == (2, 3)


class TestLocalization:
    def test_empty_face_is_global(self):
        for I in (c8_ideal(), two_planes_ideal()):
            # the local profile itself, not a record around it
            loc = localization_profile(I, ())
            assert type(loc) is ModuleProfile
            assert loc.depth == profile(I).depth
            assert loc.dim == profile(I).dim

    def test_depth_inequality_over_all_faces(self):
        I = c8_ideal()
        glob = profile(I)
        cx = from_squarefree_ideal(I)
        for face in all_faces(cx):
            loc = localization_profile(I, face)
            assert glob.depth <= loc.depth + len(face)

    def test_equality_under_assd_containment(self):
        # localize C8 at the prime complementary to the facet (x2,x4,x6,x8)
        I = c8_ideal()
        face = (1, 3, 5, 7)
        loc = localization_profile(I, face)
        assert loc.depth + len(face) >= profile(I).depth
        assert loc.maximal_depth

    def test_non_face_rejected(self):
        with pytest.raises(NotInSupportError):
            localization_profile(c8_ideal(), (0, 1))

    def test_matches_the_link_on_every_face(self, pool_small, pool_low_dim):
        # oracle: the ideal of link F, built through the Alexander dual
        for I in pool_small + pool_low_dim:
            cx = from_squarefree_ideal(I)
            for face in all_faces(cx):
                expect = profile(to_ideal(link(cx, face), I.ring))
                assert localization_profile(I, face) == expect, (I.format(), face)

    def test_non_squarefree_matches_the_polarized_link(self, pool_mixed):
        # F lifts to the polarization vertices F' of its variables; the link
        # of F' keeps the rho_j - 1 added vertices of each x_j outside F, and
        # they shift depth and dim up by their count
        checked = 0
        for I in pool_mixed[:100]:
            n = I.ring.n
            pol = polarize(I)
            cx = from_squarefree_ideal(pol)
            # polarization vertex -> its variable of S
            owner = [i for i, e in enumerate(I.lcm_of_gens().exponents) for _ in range(max(1, e))]
            for k in range(n + 1):
                for face in itertools.combinations(range(n), k):
                    if any(set(g.support) <= set(face) for g in I.gens):
                        continue  # I_F is the unit ideal
                    lifted = tuple(v for v, j in enumerate(owner) if j in face)
                    shift = sum(j not in face for j in owner) - (n - k)
                    expect = profile(to_ideal(link(cx, lifted), pol.ring))
                    loc = localization_profile(I, face)
                    assert (loc.depth, loc.dim) == (expect.depth - shift, expect.dim - shift), (
                        I.format(), face,
                    )
                    checked += not I.is_squarefree
        assert checked > 500

    def test_non_squarefree_worked_case(self):
        # (x1^2, x1*x2) at P_F = (x1, x2), F = {x3}: the local module is
        # S/(x1^2, x1*x2, x3), of depth 0 and dimension 1
        I = parse_generators("x1^2,x1*x2", nvars=3)
        loc = localization_profile(I, (2,))
        assert (loc.depth, loc.dim, loc.maximal_depth) == (0, 1, True)
        assert profile(I).depth == 1 == loc.depth + 1

    def test_generator_inside_the_face_is_outside_supp(self):
        # x1 = 1 turns x1^2 into 1: the localization at (x2) is zero
        with pytest.raises(NotInSupportError):
            localization_profile(parse_generators("x1^2", nvars=2), (0,))


class TestDirectSum:
    def test_rules(self):
        rng8 = ring(8)
        a = profile(c8_ideal())
        b = profile(prime_ideal(rng8, PrimeSupport((0, 1))))
        s = direct_sum_profile([a, b])
        assert s.depth == min(a.depth, b.depth)
        assert s.dim == max(a.dim, b.dim)
        assert set(s.ass) == set(a.ass) | set(b.ass)
        assert s.mdepth == min(p.dim_in(rng8) for p in s.ass)
        assert s.maximal_depth == (s.depth == s.mdepth)
        assert s.ring == rng8

    def test_singleton_is_identity(self):
        a = profile(c8_ideal())
        assert direct_sum_profile([a]) is a

    def test_ring_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            direct_sum_profile([profile(c8_ideal()), profile(two_planes_ideal())])
        with pytest.raises(PreconditionError):
            direct_sum_profile([])

    def test_sum_with_self_preserves_everything(self):
        a = profile(c8_ideal())
        s = direct_sum_profile([a, a])
        assert (s.depth, s.dim, s.mdepth) == (a.depth, a.dim, a.mdepth)
        assert s.maximal_depth == a.maximal_depth


class TestTensorJoin:
    def test_depth_and_dim_additive(self):
        A = cycle_edge_ideal(5)
        B = two_planes_ideal()
        J = tensor_join(A, B)
        pj, pa, pb = profile(J), profile(A), profile(B)
        assert pj.depth == pa.depth + pb.depth
        assert pj.dim == pa.dim + pb.dim

    def test_maximal_depth_iff_both(self):
        A = cycle_edge_ideal(5)  # maximal depth
        B = two_planes_ideal()  # not
        assert not profile(tensor_join(A, B)).maximal_depth
        assert profile(tensor_join(A, A)).maximal_depth

    def test_cone_preserves_profile_shape(self):
        # joining with the zero ideal in one variable is coning
        I = c8_ideal()
        cone = tensor_join(I, zero_ideal(ring(1)))
        pc, pi = profile(cone), profile(I)
        assert (pc.depth, pc.dim) == (pi.depth + 1, pi.dim + 1)
        assert pc.maximal_depth == pi.maximal_depth


class TestComplexTable:
    def test_minimal_complex(self):
        t = complex_table(SimplicialComplex(2, ((),)), QQ)
        assert depth_and_dim(t) == (0, 0)
        assert t.degrees[0].k_dim == 1

    def test_c8_independence_complex(self):
        cx = from_squarefree_ideal(c8_ideal())
        t = complex_table(cx, QQ)
        assert depth_and_dim(t) == (3, 4)

    def test_walk_leaves_out_the_cone(self, monkeypatch):
        # free variables are cone vertices; the walk runs on the facets less
        # the vertices they all hold
        walked = []

        def spy(masks):
            walked.append(reduce(and_, masks))
            return face_meets(masks)

        monkeypatch.setattr(invariants, "face_meets", spy)
        for I in (zero_ideal(ring(8)), tensor_join(cycle_edge_ideal(5), zero_ideal(ring(6)))):
            complex_table(from_squarefree_ideal(I), QQ)
        assert walked == [0, 0]

    def test_cone_skip_matches_all_faces_scan(self, pool_low_dim, pool_mixed_dim):
        # every complex of both pools and each of its pure skeleta, then
        # cones: C4-C8 joined with 1-4 free variables, and the full simplex
        cxs = {from_squarefree_ideal(I) for I in pool_low_dim + pool_mixed_dim}
        cxs |= {pure_skeleton(cx, i) for cx in cxs for i in range(-1, cx.dim + 1)}
        cxs |= {from_squarefree_ideal(tensor_join(cycle_edge_ideal(n), zero_ideal(ring(k))))
                for n in range(4, 9) for k in range(1, 5)}
        cxs.add(from_squarefree_ideal(zero_ideal(ring(5))))
        for cx in sorted(cxs, key=lambda c: (c.n, c.facets)):
            for field in (QQ, F2, FieldSpec(3)):
                got = tuple(d.contributions for d in complex_table(cx, field).degrees)
                assert got == table_by_all_faces(cx, field), (cx, field)

    def test_cone_skip_matches_all_faces_scan_polarized(self, pool_mixed):
        # the polarized complexes of the size the `polarized` benchmark feeds
        pairs = {(from_squarefree_ideal(J), J.ring.field_spec)
                 for J in map(polarize, pool_mixed) if J.ring.n <= 10}
        assert len(pairs) > 100
        for cx, field in sorted(pairs, key=lambda p: (p[0].n, p[0].facets, p[1])):
            got = tuple(d.contributions for d in complex_table(cx, field).degrees)
            assert got == table_by_all_faces(cx, field), (cx, field)

    @pytest.mark.parametrize("n", range(8, 15))
    def test_cone_skip_matches_all_faces_scan_cycles(self, n):
        cx = from_squarefree_ideal(cycle_edge_ideal(n))
        for field in (QQ, F2):
            got = tuple(d.contributions for d in complex_table(cx, field).degrees)
            assert got == table_by_all_faces(cx, field), (n, field)

    @pytest.fixture(scope="class")
    def polarized_twins(self, pool_mixed):
        """(complex, twin classes, field) for the polarizations on at most 10
        vertices of `pool_mixed` and of a seeded non-squarefree pool on 2-5
        variables with exponents up to 3, each over QQ and GF(2)."""
        rng = random.Random(POOL_SEED + 7)
        seeded = [I for I in (random_monomial_ideal(rng, rng.randint(2, 5), max_gens=5, max_exp=3)
                              for _ in range(300)) if not I.is_squarefree]
        pols = {J.gens: J for J in map(polarize, pool_mixed + seeded) if J.ring.n <= 10}
        return [(from_squarefree_ideal(J), twin_classes(J), field)
                for _, J in sorted(pols.items()) for field in (QQ, F2)]

    def test_twin_orbits_match_the_plain_scan(self, polarized_twins):
        with_twins = 0
        for cx, twins, field in polarized_twins:
            assert complex_table(cx, field, twins) == complex_table(cx, field), (cx, twins, field)
            with_twins += bool(twins)
        assert with_twins > 400

    def test_twin_orbits_match_all_faces_scan(self, polarized_twins):
        checked = [(cx, twins, field) for cx, twins, field in polarized_twins
                   if any(len(c) > 2 for c in twins)][:40]
        assert len(checked) == 40
        for cx, twins, field in checked:
            got = tuple(d.contributions for d in complex_table(cx, field, twins).degrees)
            assert got == table_by_all_faces(cx, field), (cx, twins, field)

    def test_non_twins_as_a_class_change_a_table(self, polarized_twins):
        # negative control: a swap of two vertices in different generators
        # is no automorphism, so its orbits do not share link homology
        changed = 0
        for cx, twins, field in polarized_twins[:200]:
            cone, union = reduce(and_, cx.masks), reduce(or_, cx.masks)
            free = [v for v in range(cx.n) if (union & ~cone) >> v & 1]
            pairs = [(v, w) for v, w in itertools.combinations(free, 2)
                     if not any(v in c and w in c for c in twins)]
            if not pairs:
                continue
            try:
                orbit_table = complex_table(cx, field, pairs[:1])
            except ValueError:  # a representative that is no face has no star
                continue
            changed += orbit_table != complex_table(cx, field)
        assert changed > 20

    def test_polarized_table_gets_the_generator_column_classes(self, pool_mixed, monkeypatch):
        # `_shifted_table` groups the vertices of pol I that lie in the same
        # generators, and its table is the plain scan's, shifted
        seen = []

        def spy(cx, field, twins=()):
            seen.append(twins)
            return complex_table(cx, field, twins)

        monkeypatch.setattr(invariants, "complex_table", spy)
        grouped = 0
        for I in pool_mixed:
            if I.is_squarefree:
                continue
            J = polarize(I)
            if J.ring.n > 10:
                continue
            got = invariants._shifted_table(I)
            assert seen.pop() == twin_classes(J), I.format()
            grouped += bool(twin_classes(J))
            plain = complex_table(from_squarefree_ideal(J), I.ring.field_spec).degrees
            a = J.ring.n - I.ring.n
            assert [d.contributions for d in got.degrees] == [d.contributions for d in plain[a:]]
        assert grouped > 100
