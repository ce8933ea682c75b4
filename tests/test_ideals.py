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
    Limits,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
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
from maxdepth.complexes import cycle_edge_ideal
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
