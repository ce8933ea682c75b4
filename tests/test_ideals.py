import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from maxdepth.errors import (
    CapExceededError,
    MalformedInputError,
    RegularityViolationError,
    RingMismatchError,
    UndefinedModuleError,
)
from maxdepth.ideals import (
    FieldSpec,
    Limits,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    RingDescriptor,
    associated_primes,
    colon,
    intersect,
    intersect_all,
    irreducible_covers,
    irreducible_decomposition,
    limited,
    limits,
    minimal_primes_of,
    minimalize,
    parse_generators,
    polarize,
    primary_decomposition,
    prime_ideal,
    quotient_by_variable,
    ring,
    tensor_join,
    unit_ideal,
    zero_ideal,
)
from maxdepth import complexes, filtration, ideals, invariants, linalg
from maxdepth.complexes import SimplicialComplex, cycle_edge_ideal
from maxdepth.filtration import (
    ProbeConfig,
    ProbeHit,
    att_report,
    dimension_filtration,
    is_sequentially_cm,
    probe_open_question,
    psupp_monomial,
    quotient_depth_intervals,
)
from maxdepth.invariants import HochsterDegree, localization_profile, profile
from maxdepth.linalg import SparseMatrix, boundary_matrix, reduced_homology
from maxdepth.random_instances import random_monomial_ideal
from maxdepth.regress import C8_PRIMES, c8_ideal

from colon_oracle import colon_search_ass
from cover_oracle import tight_minimal_covers


def mk(n, *exps):
    return MonomialIdeal(ring(n), tuple(Monomial(e) for e in exps))


small_ideals = st.builds(
    mk,
    st.just(3),
    *[
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
        for _ in range(3)
    ],
)


def cycle_covers(n):
    """Minimal vertex covers of the n-cycle by brute force: covers in which
    no chosen vertex has both neighbours chosen."""
    return {
        PrimeSupport(tuple(v for v in range(n) if m >> v & 1))
        for m in range(1 << n)
        if all(m >> v & 1 or m >> (v + 1) % n & 1 for v in range(n))
        and not any(m >> v & 1 and m >> (v - 1) % n & 1 and m >> (v + 1) % n & 1
                    for v in range(n))
    }


small_monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).map(
    Monomial
)


class TestMinimalize:
    def test_divisible_generator_dropped(self):
        assert mk(3, (1, 1, 0), (1, 1, 1)) == mk(3, (1, 1, 0))

    def test_pairwise_incomparable_kept(self):
        I = mk(2, (2, 0), (1, 1), (0, 2))
        assert len(I.gens) == 3

    def test_c8_generators_already_minimal(self):
        I = c8_ideal()
        assert minimalize(I.ring, I.gens) == I
        assert len(I.gens) == 8

    def test_unit_collapses(self):
        assert mk(2, (0, 0), (1, 0)).is_unit

    def test_bad_length_rejected(self):
        with pytest.raises(MalformedInputError):
            mk(3, (1, 1))


class TestIntersect:
    def test_two_planes(self):
        left = mk(4, (1, 0, 0, 0), (0, 1, 0, 0))
        right = mk(4, (0, 0, 1, 0), (0, 0, 0, 1))
        assert intersect(left, right) == mk(
            4, (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)
        )

    def test_unit_is_identity(self):
        I = mk(2, (2, 0), (1, 1))
        assert intersect(I, unit_ideal(I.ring)) == I

    def test_c8_primes_intersect_to_edge_ideal(self):
        I = c8_ideal()
        primes = [prime_ideal(I.ring, PrimeSupport(p)) for p in C8_PRIMES]
        assert intersect_all(I.ring, primes) == I

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            intersect(mk(2, (1, 0)), mk(3, (1, 0, 0)))

    @given(small_ideals, small_ideals)
    def test_commutative(self, I, J):
        assert intersect(I, J) == intersect(J, I)

    @given(small_ideals, small_ideals, small_ideals)
    @settings(max_examples=50)
    def test_associative(self, I, J, K):
        assert intersect(intersect(I, J), K) == intersect(I, intersect(J, K))

    @given(small_ideals)
    def test_idempotent(self, I):
        assert intersect(I, I) == I

    @given(small_ideals, small_ideals, small_monomials)
    def test_membership_oracle(self, I, J, m):
        # u lies in the intersection exactly when it lies in both
        assert intersect(I, J).contains(m) == (I.contains(m) and J.contains(m))


class TestColon:
    def test_basic(self):
        assert colon(mk(2, (2, 0), (1, 1)), Monomial((1, 0))) == mk(2, (1, 0), (0, 1))

    def test_by_one_is_identity(self):
        I = mk(2, (2, 0), (1, 1))
        assert colon(I, Monomial((0, 0))) == I

    def test_c8_colon_by_x1(self):
        I = c8_ideal()
        got = colon(I, Monomial((1,) + (0,) * 7))
        # x2 and x8 divide out; the edges not meeting x1 survive minimalization
        expect = parse_generators("x2,x8,x3*x4,x4*x5,x5*x6,x6*x7", nvars=8)
        assert got == expect

    @given(small_ideals, small_monomials, small_monomials)
    def test_membership_oracle(self, I, u, m):
        assert colon(I, u).contains(m) == I.contains(u.times(m))

    @given(small_ideals, small_monomials)
    def test_contains_ideal_and_unit_iff_member(self, I, u):
        J = colon(I, u)
        assert all(J.contains(g) for g in I.gens)
        if I.is_proper:
            assert J.is_unit == I.contains(u)


class TestAssociatedPrimes:
    def test_c8(self):
        assert associated_primes(c8_ideal()) == frozenset(
            PrimeSupport(p) for p in C8_PRIMES
        )

    def test_embedded_prime(self):
        I = mk(2, (2, 0), (1, 1))
        assert associated_primes(I) == frozenset(
            {PrimeSupport((0,)), PrimeSupport((0, 1))}
        )

    def test_zero_ideal_gives_zero_prime(self):
        assert associated_primes(zero_ideal(ring(3))) == frozenset({PrimeSupport(())})

    def test_unit_rejected(self):
        with pytest.raises(UndefinedModuleError):
            associated_primes(unit_ideal(ring(2)))

    def test_search_cap(self):
        # the cover search on C16 visits 267 nodes
        with limited(search_cap=100), pytest.raises(CapExceededError):
            associated_primes(cycle_edge_ideal(16))
        # pairs without a tight generator are cut: 3 nodes, not 1641
        with limited(search_cap=100):
            assert associated_primes(mk(2, (40, 0), (0, 40))) == {PrimeSupport((0, 1))}

    def test_search_cap_holds_on_repeat_call(self):
        I = parse_generators("x1^3*x2,x2^2*x3,x1*x3^2")
        associated_primes(I)
        with limited(search_cap=2), pytest.raises(CapExceededError):
            associated_primes(I)

    def test_power_of_maximal_ideal_under_default_cap(self):
        # polarized edges nest, so a search that retries siblings branches
        # on every decreasing chain of x2-powers here
        I = parse_generators(",".join(f"x1^{a}*x2^{24 - a}" for a in range(25)))
        assert associated_primes(I) == {PrimeSupport((0, 1))}

    def test_pool_matches_colon_oracle(self, pool_mixed):
        for I in pool_mixed:
            assert associated_primes(I) == colon_search_ass(I), I.format()

    @given(small_ideals)
    @settings(max_examples=60)
    def test_contains_minimal_primes(self, I):
        if I.is_unit:
            return
        ass = associated_primes(I)
        assert minimal_primes_of(I) <= ass
        # every associated prime contains the annihilator support
        for p in ass:
            for g in I.gens:
                assert set(g.support) & set(p.vars) or not g.support


class TestLimits:
    def test_nested_block_replaces_only_the_named_cap(self):
        with limited(search_cap=100, max_vertices=5):
            with limited(max_vertices=3):
                assert limits() == Limits(search_cap=100, max_vertices=3)
            assert limits() == Limits(search_cap=100, max_vertices=5)
        assert limits() == Limits()

    def test_outer_limits_return_after_cap_exceeded(self):
        I = cycle_edge_ideal(16)
        with limited(max_vertices=7):
            with pytest.raises(CapExceededError), limited(search_cap=100):
                associated_primes(I)
            assert limits() == Limits(max_vertices=7)
        assert limits() == Limits()
        assert associated_primes(I) == cycle_covers(16)

    def test_unknown_cap_is_type_error(self):
        with pytest.raises(TypeError), limited(bogus=1):
            pass
        assert limits() == Limits()


def public_records():
    """One value of every public record type of the engine."""
    I = parse_generators("x1^2,x1*x2,x2*x3")
    J = parse_generators("x1*x2,x2*x3")
    prof = profile(I)
    f = dimension_filtration(I)
    levels = quotient_depth_intervals(f)
    att = att_report(I)
    triangle = SimplicialComplex(3, ((0, 1), (1, 2), (0, 2)))
    return [
        Limits(), I.ring.field_spec, I.ring, I.gens[0], prof.ass[0], I, polarize(I),
        triangle, boundary_matrix(triangle, 1), reduced_homology(triangle, FieldSpec(2)),
        prof.hochster.degrees[0], prof.hochster, prof, localization_profile(J, (0,)),
        f.levels[0], f, levels[-1], levels[-1].module, is_sequentially_cm(J), att.claims[0],
        att, psupp_monomial(J, 1), ProbeConfig(), ProbeHit(I, 1, 1, 2),
        probe_open_question(ProbeConfig(samples=5)),
    ]


class TestRecords:
    """The engine's records are immutable named tuples; their repr, hash,
    sort order and validation errors are part of the output contract."""

    @pytest.mark.parametrize("rec", public_records(), ids=lambda r: type(r).__name__)
    def test_read_only(self, rec):
        for name in type(rec).__match_args__:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        with pytest.raises(AttributeError):
            rec.extra = None

    @pytest.mark.parametrize("rec", public_records(), ids=lambda r: type(r).__name__)
    def test_hash_is_the_hash_of_the_fields(self, rec):
        fields = tuple(getattr(rec, name) for name in type(rec).__match_args__)
        assert hash(rec) == hash(fields)

    def test_every_record_type_is_covered(self):
        defined = {
            v for m in (ideals, complexes, linalg, invariants, filtration)
            for v in vars(m).values()
            if isinstance(v, type) and issubclass(v, tuple) and v.__module__ == m.__name__
        }
        assert {type(r) for r in public_records()} == defined

    def test_repr(self):
        assert repr(Monomial((2, 0, 1))) == "Monomial(exponents=(2, 0, 1))"
        assert repr(PrimeSupport((0, 2))) == "PrimeSupport(vars=(0, 2))"
        assert repr(FieldSpec(2)) == "FieldSpec(characteristic=2)"
        assert repr(SimplicialComplex(3, ((0, 1), (1, 2), (0, 2), (1,)))) == (
            "SimplicialComplex(n=3, facets=((0, 1), (0, 2), (1, 2)))"
        )
        assert repr(HochsterDegree(1, (((), 1),))) == (
            "HochsterDegree(degree=1, contributions=(((), 1),))"
        )

    def test_sort_order(self):
        monomials = [Monomial((0, 2)), Monomial((1, 0)), Monomial((0, 1)), Monomial((1, 1))]
        assert sorted(monomials) == [
            Monomial((0, 1)), Monomial((0, 2)), Monomial((1, 0)), Monomial((1, 1))
        ]
        primes = [PrimeSupport((1,)), PrimeSupport(()), PrimeSupport((0, 2)), PrimeSupport((0,))]
        assert sorted(primes) == [
            PrimeSupport(()), PrimeSupport((0,)), PrimeSupport((0, 2)), PrimeSupport((1,))
        ]

    def test_equality_is_tuple_equality(self):
        assert Monomial((1, 2)) == ((1, 2),)
        assert PrimeSupport((1, 2)) == Monomial((1, 2))
        assert Limits(5, 6)._replace(max_vertices=7) == Limits(search_cap=5, max_vertices=7)

    @pytest.mark.parametrize("build, message", [
        (lambda: FieldSpec(4), "field characteristic must be 0 or prime, got 4"),
        (lambda: RingDescriptor(()), "ring needs at least one variable"),
        (lambda: RingDescriptor(("x", "x")), "variable names must be distinct"),
        (lambda: Monomial((1, -1)), "exponents must be non-negative"),
        (lambda: MonomialIdeal(ring(2), (Monomial((1, 0, 0)),)),
         "generator has 3 exponents, ring has 2 variables"),
        (lambda: SimplicialComplex(-1, ()), "vertex count must be non-negative"),
        (lambda: SimplicialComplex(3, ((0, 3),)), "facet vertex out of range"),
        (lambda: SparseMatrix(2, 2, ((0, 2, 1),)), "matrix entry out of range"),
        (lambda: SparseMatrix(2, 2, ((0, 1, 1), (0, 1, 2))), "duplicate matrix entry"),
        (lambda: ProbeConfig(samples=-1),
         "probe needs samples >= 0 and 1 <= min_vertices <= max_vertices, got "
         "ProbeConfig(samples=-1, max_vertices=7, min_vertices=3, seed=0)"),
        (lambda: ProbeConfig(max_vertices=2),
         "probe needs samples >= 0 and 1 <= min_vertices <= max_vertices, got "
         "ProbeConfig(samples=200, max_vertices=2, min_vertices=3, seed=0)"),
    ])
    def test_validation_errors(self, build, message):
        with pytest.raises(MalformedInputError) as err:
            build()
        assert str(err.value) == message

    def test_normalised_fields(self):
        assert MonomialIdeal(ring(2), (Monomial((1, 1)), Monomial((1, 0)))).gens == (
            Monomial((1, 0)),
        )
        assert SimplicialComplex(2, ()).facets == ((),)
        assert RingDescriptor(("x",)).field_spec == FieldSpec() == FieldSpec(0)


class TestMinimalTransversals:
    @given(st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=4), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, edges):
        covers = [
            frozenset(t)
            for k in range(7)
            for t in itertools.combinations(range(6), k)
            if all(e & set(t) for e in edges)
        ]
        minimal = {t for t in covers if not any(s < t for s in covers)}
        # each edge as a squarefree generator; a cover holds the pairs (v, 1)
        I = mk(6, *(tuple(int(v in e) for v in range(6)) for e in edges))
        got = [frozenset(v for v, _ in c) for c in irreducible_covers(I)]
        assert len(got) == len(set(got))
        assert set(got) == minimal


class TestIrreducibleCovers:
    def test_matches_tight_minimal_covers(self, pool_mixed):
        # the search against every minimal cover of pol I, found by brute
        # force and kept when each pair has a tight generator
        rng = random.Random(7)
        deep = [random_monomial_ideal(rng, rng.randint(2, 3), max_gens=5, max_exp=5)
                for _ in range(200)]
        for I in pool_mixed + deep:
            assert irreducible_covers(I) == tight_minimal_covers(I), I.format()

    def test_exponents_do_not_multiply_the_search(self):
        # pol I has 976695 minimal vertex covers, 4 of them tight
        I = parse_generators("x2^15*x3^8,x1^7*x2^16,x1^255,x1*x3^256")
        with limited(search_cap=100):
            comps = irreducible_decomposition(I)
        assert len(comps) == 4
        assert all(len(g.support) == 1 for c in comps for g in c.gens)
        assert intersect_all(I.ring, comps) == I


class TestIrreducibleDecomposition:
    def test_embedded_example(self):
        comps = irreducible_decomposition(mk(2, (2, 0), (1, 1)))
        assert set(comps) == {mk(2, (1, 0)), mk(2, (2, 0), (0, 1))}

    def test_prime_is_its_own_decomposition(self):
        p = prime_ideal(ring(3), PrimeSupport((0, 2)))
        assert irreducible_decomposition(p) == (p,)

    def test_squarefree_components_are_minimal_primes(self):
        I = c8_ideal()
        comps = irreducible_decomposition(I)
        got = {PrimeSupport.of(i for g in c.gens for i in g.support) for c in comps}
        assert got == set(minimal_primes_of(I))

    def test_power_of_maximal_ideal_under_default_cap(self):
        I = parse_generators(",".join(f"x1^{a}*x2^{24 - a}" for a in range(25)))
        expected = {mk(2, (a, 0), (0, 25 - a)) for a in range(1, 25)}
        assert set(irreducible_decomposition(I)) == expected

    @given(small_ideals)
    @settings(max_examples=60, deadline=None)
    def test_intersects_back_and_pure_powers(self, I):
        if I.is_unit:
            return
        comps = irreducible_decomposition(I)
        assert intersect_all(I.ring, comps) == I
        for c in comps:
            assert all(len(g.support) == 1 for g in c.gens)

    def test_pool_components_pure_irredundant_and_exact(self, pool_mixed):
        for I in pool_mixed:
            comps = irreducible_decomposition(I)
            assert all(len(g.support) == 1 for c in comps for g in c.gens), I.format()
            assert intersect_all(I.ring, comps) == I, I.format()
            for k in range(len(comps)):
                assert intersect_all(I.ring, comps[:k] + comps[k + 1:]) != I, I.format()

    @given(small_ideals)
    @settings(max_examples=40, deadline=None)
    def test_primary_components_intersect_back(self, I):
        if I.is_unit:
            return
        comps = primary_decomposition(I)
        assert intersect_all(I.ring, [c for _, c in comps]) == I


class TestPolarize:
    def test_squarefree_fixed_point(self):
        I = c8_ideal()
        pol = polarize(I)
        assert pol.added_vars == 0
        assert pol.ideal == I

    def test_square_splits(self):
        pol = polarize(mk(1, (2,)))
        assert pol.added_vars == 1
        assert pol.ideal.gens == (Monomial((1, 1)),)
        assert pol.ideal.ring.names == ("x1_1", "x1_2")

    @given(small_ideals)
    @settings(max_examples=60)
    def test_specialization_roundtrip(self, I):
        if I.is_unit:
            return
        pol = polarize(I)
        assert pol.ideal.is_squarefree
        # depolarize: x_{i,j} -> x_i
        gens = []
        for g in pol.ideal.gens:
            exps = [0] * I.ring.n
            for j, e in enumerate(g.exponents):
                exps[pol.slot_owner[j]] += e
            gens.append(Monomial(tuple(exps)))
        assert MonomialIdeal(I.ring, tuple(gens)) == I


class TestTensorJoin:
    def test_small_join(self):
        left = mk(1, (1,))
        right = mk(1, (1,))
        J = tensor_join(left, right)
        assert J.ring.n == 2
        assert J == mk(2, (1, 0), (0, 1))

    def test_ass_is_pairwise_union(self):
        A = mk(2, (1, 1))
        B = mk(2, (1, 0), (0, 1))
        J = tensor_join(A, B)
        expect = frozenset(
            PrimeSupport.of(tuple(p.vars) + tuple(v + 2 for v in q.vars))
            for p in associated_primes(A)
            for q in associated_primes(B)
        )
        assert associated_primes(J) == expect


class TestQuotientByVariable:
    def test_cone_section(self):
        # cone with apex x3 over the two-point complex on x1, x2
        I = mk(3, (1, 1, 0))
        got = quotient_by_variable(I, 2)
        assert got == mk(2, (1, 1))

    def test_zerodivisor_rejected_with_witness(self):
        I = mk(2, (1, 1))
        with pytest.raises(RegularityViolationError) as err:
            quotient_by_variable(I, 0)
        assert 0 in err.value.witness.vars


class TestParsing:
    def test_strict_and_convenience_agree(self):
        assert parse_generators("x1*x2,x2*x3") == parse_generators("x1x2,x2x3")

    def test_exponents(self):
        I = parse_generators("x1^2*x2")
        assert I.gens == (Monomial((2, 1)),)

    def test_nvars_padding(self):
        assert parse_generators("x1", nvars=4).ring.n == 4

    def test_zero_ideal_needs_count(self):
        with pytest.raises(MalformedInputError):
            parse_generators("")
        assert parse_generators("", nvars=2).is_zero

    def test_garbage_rejected(self):
        with pytest.raises(MalformedInputError):
            parse_generators("y1*y2")
