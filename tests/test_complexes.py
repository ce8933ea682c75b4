import pytest
from hypothesis import given, settings, strategies as st

from maxdepth.errors import (
    CapExceededError,
    MalformedInputError,
    NotInSupportError,
    PreconditionError,
    SquarefreeRequiredError,
)
from maxdepth.ideals import (
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    associated_primes,
    parse_generators,
    limited,
    ring,
    zero_ideal,
)
from maxdepth.complexes import (
    SimplicialComplex,
    complex_from_json,
    cone_vertices,
    cycle_edge_ideal,
    face_meets,
    from_squarefree_ideal,
    link,
    parse_edge_list,
    pure_skeleton,
    to_ideal,
)
from maxdepth.filtration import dimension_filtration
from maxdepth.invariants import profile
from maxdepth.regress import C8_PRIMES

from colon_oracle import colon_search_ass
from conftest import HOLLOW_TRIANGLE, complexes
from faces_oracle import all_faces

class TestFromSquarefreeIdeal:
    def test_c8_independence_complex(self):
        cx = from_squarefree_ideal(cycle_edge_ideal(8))
        full = set(range(8))
        expected = {tuple(sorted(full - set(p))) for p in C8_PRIMES}
        assert set(cx.facets) == expected
        assert (1, 3, 5, 7) in cx.facets

    def test_zero_ideal_full_simplex(self):
        cx = from_squarefree_ideal(zero_ideal(ring(4)))
        assert cx.facets == ((0, 1, 2, 3),)

    def test_maximal_ideal_gives_empty_complex(self):
        cx = from_squarefree_ideal(parse_generators("x1,x2,x3"))
        assert cx.facets == ((),)

    def test_non_squarefree_rejected(self):
        with pytest.raises(SquarefreeRequiredError):
            from_squarefree_ideal(parse_generators("x1^2"))

    def test_search_cap_holds_after_warm_profile(self):
        # the facets come from the cover search cached per (ideal, cap), so
        # a lowered cap is not bypassed by the warm entry
        I = cycle_edge_ideal(10)
        profile(I)
        with limited(search_cap=5), pytest.raises(CapExceededError):
            from_squarefree_ideal(I)


class TestToIdeal:
    def test_full_simplex(self):
        assert to_ideal(SimplicialComplex(3, ((0, 1, 2),))).is_zero

    def test_hollow_triangle(self):
        assert to_ideal(HOLLOW_TRIANGLE) == MonomialIdeal(
            ring(3), (Monomial((1, 1, 1)),)
        )

    def test_c8_roundtrip(self):
        I = cycle_edge_ideal(8)
        assert to_ideal(from_squarefree_ideal(I), I.ring) == I

    def test_vertex_cap_checked_before_the_search(self):
        # the cover search of the Alexander dual grows with the vertex count
        cx = SimplicialComplex(4, ((0, 1), (2, 3)))
        with limited(max_vertices=3), pytest.raises(CapExceededError, match="4 vertices exceeds cap 3"):
            to_ideal(cx)

    @given(complexes)
    @settings(max_examples=80)
    def test_roundtrips_both_ways(self, cx):
        assert from_squarefree_ideal(to_ideal(cx)) == cx
        I = to_ideal(cx)
        assert to_ideal(from_squarefree_ideal(I), I.ring) == I


def facet_complements(cx):
    full = set(range(cx.n))
    return frozenset(PrimeSupport.of(full - set(f)) for f in cx.facets)


class TestMinimalPrimes:
    """A squarefree ideal is radical, so its associated primes are the
    minimal primes: the facet complements of its Stanley-Reisner complex."""

    def test_c8(self):
        cx = from_squarefree_ideal(cycle_edge_ideal(8))
        assert facet_complements(cx) == frozenset(PrimeSupport(p) for p in C8_PRIMES)
        assert associated_primes(to_ideal(cx)) == facet_complements(cx)

    def test_full_simplex_gives_zero_prime(self):
        assert associated_primes(to_ideal(SimplicialComplex(2, ((0, 1),)))) == frozenset(
            {PrimeSupport(())}
        )

    def test_empty_complex_gives_maximal(self):
        assert associated_primes(to_ideal(SimplicialComplex(2, ((),)))) == frozenset(
            {PrimeSupport((0, 1))}
        )

    @given(complexes)
    @settings(max_examples=60)
    def test_matches_associated_primes(self, cx):
        I = to_ideal(cx)
        assert facet_complements(cx) == associated_primes(I) == colon_search_ass(I)


class TestLink:
    def test_link_of_empty_face(self):
        assert link(HOLLOW_TRIANGLE, ()) == HOLLOW_TRIANGLE

    def test_link_of_facet(self):
        assert link(HOLLOW_TRIANGLE, (0, 1)).facets == ((),)

    def test_link_of_vertex_of_hollow_triangle(self):
        assert link(HOLLOW_TRIANGLE, (1,)).facets == ((0,), (2,))

    def test_non_face_rejected(self):
        with pytest.raises(NotInSupportError):
            link(HOLLOW_TRIANGLE, (0, 1, 2))

    @given(complexes, st.integers(0, 30))
    @settings(max_examples=60)
    def test_dimension_drop(self, cx, pick):
        faces = all_faces(cx)
        s = faces[pick % len(faces)]
        assert link(cx, s).dim <= cx.dim - len(s)


class TestSkeletonsAndSubcomplexes:
    def test_top_pure_skeleton(self):
        cx = SimplicialComplex(4, ((0, 1, 2), (2, 3)))
        assert pure_skeleton(cx, 2).facets == ((0, 1, 2),)

    def test_zero_skeleton_is_vertices(self):
        cx = SimplicialComplex(3, ((0, 1), (2,)))
        assert pure_skeleton(cx, 0).facets == ((0,), (1,), (2,))

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            pure_skeleton(HOLLOW_TRIANGLE, 5)

    def test_c8_pure_2_skeleton(self):
        cx = from_squarefree_ideal(cycle_edge_ideal(8))
        sk = pure_skeleton(cx, 2)
        assert all(len(f) == 3 for f in sk.facets)
        triples = {f for facet in cx.facets for f in all_faces(SimplicialComplex(8, (facet,))) if len(f) == 3}
        assert set(sk.facets) == triples

    def test_c8_level_three_subcomplex(self):
        level = dimension_filtration(cycle_edge_ideal(8)).levels[3]
        assert from_squarefree_ideal(level.ideal).facets == ((0, 2, 4, 6), (1, 3, 5, 7))

    def test_level_complexes_are_facet_subcomplexes(self, pool_low_dim, pool_mixed_dim):
        # the seqCM verdict reads the table of S/I^(i) for that of
        # Delta_{>=i}, the facets with more than i vertices
        cycles = [cycle_edge_ideal(n) for n in range(3, 13)]
        for I in pool_low_dim + pool_mixed_dim + cycles:
            cx = from_squarefree_ideal(I)
            for i, lv in enumerate(dimension_filtration(I).levels[:-1]):
                want = SimplicialComplex(cx.n, tuple(f for f in cx.facets if len(f) > i))
                assert from_squarefree_ideal(lv.ideal).facets == want.facets, (I.format(), i)


class TestFaceMeets:
    @given(complexes)
    @settings(max_examples=60)
    def test_every_face_to_the_meet_of_its_facets(self, cx):
        want = {}
        for s in all_faces(cx):
            meet = set.intersection(*(set(f) for f in cx.facets if set(s) <= set(f)))
            want[sum(1 << v for v in s)] = sum(1 << v for v in meet)
        assert face_meets(cx.masks) == want

    def test_minimal_complex(self):
        assert face_meets(SimplicialComplex(2, ((),)).masks) == {0: 0}

    def test_no_facets_no_faces(self):
        assert face_meets([]) == {}


class TestConeVertices:
    def test_cone(self):
        cone = SimplicialComplex(4, ((0, 1, 3), (1, 2, 3), (0, 2, 3)))
        assert cone_vertices(cone) == (3,)

    def test_hollow_triangle_has_none(self):
        assert cone_vertices(HOLLOW_TRIANGLE) == ()

    def test_full_simplex(self):
        assert cone_vertices(SimplicialComplex(3, ((0, 1, 2),))) == (0, 1, 2)


class TestIngestion:
    def test_edge_list(self):
        I = parse_edge_list("n=4; edges=1-2,3-4")
        assert I == parse_generators("x1*x2,x3*x4")

    def test_edgeless_graph(self):
        assert parse_edge_list("n=3; edges=").is_zero

    def test_bad_edge(self):
        with pytest.raises(MalformedInputError):
            parse_edge_list("n=3; edges=1-1")
        with pytest.raises(MalformedInputError):
            parse_edge_list("edges=1-2")

    def test_facet_vertices_in_range_and_facets_maximal(self):
        for facet in ((0, 3), (-1, 0)):
            with pytest.raises(MalformedInputError):
                SimplicialComplex(3, ((0, 1), facet))
        assert SimplicialComplex(3, ((2, 0), (0,), (0, 2), (1,))).facets == ((1,), (0, 2))

    def test_facet_json_literal(self):
        cx = SimplicialComplex(4, ((0, 1, 2), (2, 3)))
        assert complex_from_json({"vertices": 4, "facets": [[1, 2, 3], [3, 4]]}) == cx
