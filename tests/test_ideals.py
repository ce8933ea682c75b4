import itertools
import random
import tracemalloc

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
    F2,
    QQ,
    FieldSpec,
    Limits,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    RingDescriptor,
    associated_primes,
    irreducible_covers,
    irreducible_decomposition,
    limited,
    limits,
    meet_covers,
    parse_generators,
    polarize,
    primary_decomposition,
    quotient_by_variable,
    ring,
    tensor_join,
    unit_ideal,
    variable,
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
    quotient_depth_intervals,
)
from maxdepth.invariants import HochsterDegree, profile
from maxdepth.linalg import SparseMatrix, boundary_matrix
from maxdepth.regress import C8_PRIMES, c8_ideal

from colon_oracle import colon, colon_search_ass
from conftest import HOLLOW_TRIANGLE, minimal_primes_of, mk, random_monomial_ideal, small_ideals
from cover_oracle import tight_minimal_covers
from intersect_oracle import intersect, intersect_all, minimal_gens, prime_ideal


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
    """The MonomialIdeal constructor keeps the minimal generators."""

    def test_divisible_generator_dropped(self):
        assert mk(3, (1, 1, 0), (1, 1, 1)) == mk(3, (1, 1, 0))

    def test_pairwise_incomparable_kept(self):
        I = mk(2, (2, 0), (1, 1), (0, 2))
        assert len(I.gens) == 3

    def test_c8_generators_already_minimal(self):
        I = c8_ideal()
        assert MonomialIdeal(I.ring, I.gens) == I
        assert len(I.gens) == 8

    def test_unit_collapses(self):
        assert mk(2, (0, 0), (1, 0)).is_unit

    def test_bad_length_rejected(self):
        with pytest.raises(MalformedInputError):
            mk(3, (1, 1))


class TestIntersect:
    """The pairwise-lcm oracle of `intersect_oracle.py`."""

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


def cover_ideal(rng, c):
    """q_C = (x_k^j : (k, j) in C)."""
    return MonomialIdeal(rng, tuple(variable(rng, k, j) for k, j in c))


class TestMeetCovers:
    """The engine's one intersection route against the pairwise-lcm oracle."""

    def assert_meets(self, J, covers):
        expected = intersect_all(J.ring, [J, *(cover_ideal(J.ring, c) for c in covers)])
        assert meet_covers(J, covers) == expected, (J.format(), covers)

    def test_start_wider_than_the_covers(self):
        # the packing width has to hold J's exponents, not only the covers'
        J = mk(2, (7, 0))
        for covers in ([{(0, 1)}], [{(1, 1)}], [{(0, 1)}, {(1, 2)}], [{(0, 3), (1, 1)}]):
            self.assert_meets(J, covers)
        assert meet_covers(J, [{(1, 1)}]) == mk(2, (7, 1))

    def test_no_covers_give_the_start(self):
        for J in (mk(2), unit_ideal(ring(2)), mk(2, (3, 0), (1, 2)), c8_ideal()):
            assert meet_covers(J, []) == J

    def test_random_families(self):
        # exponents up to 8 cross the field widths 2^k - 1 and 2^k; a cover
        # may be empty, giving the zero ideal
        rng = random.Random(21)
        for _ in range(400):
            n = rng.randint(1, 5)
            J = random_monomial_ideal(rng, n, max_gens=5, max_exp=8)
            if rng.random() < 0.2:
                J = unit_ideal(J.ring)
            covers = [
                {(k, rng.randint(1, 8)) for k in rng.sample(range(n), rng.randint(0, n))}
                for _ in range(rng.randint(0, 4))
            ]
            self.assert_meets(J, covers)


class TestMinimalGens:
    """The constructor's packed divisibility test against the pairwise
    `divides` scan of `intersect_oracle.minimal_gens`."""

    # the largest exponent sets the field width: 2^k - 1 and 2^k for
    # k = 1..4 sit on either side of a width step
    TOPS = (0, 1, 2, 3, 4, 7, 8, 15, 16, 200000)

    def assert_minimal(self, rng, gens):
        assert MonomialIdeal(rng, tuple(gens)).gens == minimal_gens(gens), gens

    def test_random_lists(self):
        rng = random.Random(26)
        for _ in range(1500):
            n = rng.randint(1, 5)
            top = rng.choice(self.TOPS)
            near = (0, 0, 1, max(top - 1, 0), top, top)
            gens = [
                Monomial(tuple(rng.choice(near + (rng.randint(0, top),)) for _ in range(n)))
                for _ in range(rng.randint(0, 8))
            ]
            gens += rng.sample(gens, rng.randint(0, len(gens)))  # duplicates
            if rng.random() < 0.1:
                gens.append(Monomial((0,) * n))
            rng.shuffle(gens)
            self.assert_minimal(ring(n), gens)

    def test_pool_mixed_shuffled(self, pool_mixed):
        rng = random.Random(27)
        for I in pool_mixed:
            gens = list(I.gens) + [g.lcm(h) for g in I.gens for h in I.gens]
            rng.shuffle(gens)
            self.assert_minimal(I.ring, gens)
            assert MonomialIdeal(I.ring, tuple(gens)) == I


class TestColon:
    """The colon oracle of `colon_oracle.py`."""

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
        um = Monomial(tuple(a + b for a, b in zip(u.exponents, m.exponents)))
        assert colon(I, u).contains(m) == I.contains(um)

    @given(small_ideals, small_monomials)
    def test_contains_ideal_and_unit_iff_member(self, I, u):
        J = colon(I, u)
        assert all(J.contains(g) for g in I.gens)
        if not I.is_unit:
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

    def test_negative_cap_is_malformed(self):
        for caps in ({"search_cap": -1}, {"max_vertices": -1}, {"search_cap": 5, "max_vertices": -3}):
            with pytest.raises(MalformedInputError), limited(**caps):
                pass
            assert limits() == Limits()
        with pytest.raises(TypeError), limited(bogus=-1):
            pass
        with limited(search_cap=0, max_vertices=0):
            assert limits() == Limits(0, 0)


def public_records():
    """One value of every public record type of the engine."""
    I = parse_generators("x1^2,x1*x2,x2*x3")
    J = parse_generators("x1*x2,x2*x3")
    prof = profile(I)
    f = dimension_filtration(I)
    levels = quotient_depth_intervals(f)
    return [
        Limits(), I.ring.field_spec, I.ring, I.gens[0], prof.ass[0], I,
        HOLLOW_TRIANGLE, boundary_matrix(HOLLOW_TRIANGLE, 1), prof.hochster.degrees[0],
        prof.hochster, prof,
        f.levels[0], f, levels[-1], levels[-1].module, is_sequentially_cm(J), att_report(I)[0],
        ProbeConfig(), ProbeHit(I, 1, 1, 2),
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
        assert repr(HochsterDegree((((), 1),))) == "HochsterDegree(contributions=(((), 1),))"

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

    def test_search_memory_does_not_grow_with_the_exponents(self):
        # the search holds the vertices x_{1,1}, x_{1,200000} and x_{2,1},
        # not the 200001 of pol I, and visits 4 nodes either way
        I = parse_generators("x1^200000,x1*x2")
        irreducible_covers.cache_clear()
        tracemalloc.start()
        try:
            covers = irreducible_covers(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert covers == (frozenset({(0, 1)}), frozenset({(0, 200000), (1, 1)}))
        assert peak < 2 ** 20
        assert smallest_search_cap(I) == 4


# per-variable exponent maps, strictly increasing and fixing 0: (i, e) -> e'
STRETCHES = {
    "3e+2+i": lambda i, e: e and 3 * e + 2 + i,
    "3e": lambda i, e: 3 * e,
}


def stretch_monomial(m, f):
    return Monomial(tuple(f(i, e) for i, e in enumerate(m.exponents)))


def passes_search_cap(I, cap):
    try:
        with limited(search_cap=cap):
            irreducible_covers(I)
    except CapExceededError:
        return False
    return True


def smallest_search_cap(I):
    """The least search cap under which the cover search of I finishes."""
    lo, hi = 0, 1  # every search visits its root, so cap 0 fails
    while not passes_search_cap(I, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes_search_cap(I, mid) else (mid, hi)
    return hi


@pytest.fixture(scope="module")
def stretch_pool(pool_mixed):
    """pool_mixed and a seeded non-squarefree pool with exponents up to 5,
    over QQ and GF(2)."""
    rng = random.Random(18)
    deep = [random_monomial_ideal(rng, rng.randint(2, 4), max_gens=5, max_exp=5, field=field)
            for field in (QQ, F2) for _ in range(100)]
    pool = pool_mixed + [I for I in deep if not I.is_squarefree]
    assert {I.ring.field_spec for I in pool} == {QQ, F2} and len(pool) > 350
    return pool


@pytest.mark.parametrize("name", sorted(STRETCHES))
class TestExponentInvariance:
    """A per-variable, strictly increasing exponent map that fixes 0 keeps
    the lcm lattice of I (Gasharov-Peeva-Welker), and the cover search
    follows it pair by pair."""

    def test_covers_ass_and_levels_map_across(self, name, stretch_pool):
        f = STRETCHES[name]

        def image(I):
            return MonomialIdeal(I.ring, tuple(stretch_monomial(g, f) for g in I.gens))

        for I in stretch_pool:
            J = image(I)
            lifted = tuple(frozenset((i, f(i, e)) for i, e in c) for c in irreducible_covers(I))
            assert irreducible_covers(J) == lifted, I.format()
            assert associated_primes(J) == associated_primes(I), I.format()
            fI, fJ = dimension_filtration(I), dimension_filtration(J)
            assert fJ.t == fI.t, I.format()
            assert [(lv.ideal, lv.nonzero, lv.ass_level) for lv in fJ.levels] == [
                (image(lv.ideal), lv.nonzero, lv.ass_level) for lv in fI.levels
            ], I.format()

    def test_smallest_search_cap_is_the_same(self, name, stretch_pool):
        # the search takes the edges in the graded-lex order of the
        # generators, which a map can change by changing degrees: under
        # 3e+2+i, (x2^3, x1^3, x1^2*x3^2) needs 5 nodes and its image 6.
        # Where the map keeps that order the searches match node for node
        f = STRETCHES[name]
        checked = 0
        for I in stretch_pool:
            gens = tuple(stretch_monomial(g, f) for g in I.gens)
            J = MonomialIdeal(I.ring, gens)
            if J.gens == gens:
                assert smallest_search_cap(J) == smallest_search_cap(I), I.format()
                checked += 1
        assert checked > 300


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

    def test_pool_primary_components_match_the_oracle(self, pool_mixed):
        # each component is the pairwise-lcm intersection of the irreducible
        # components with its radical
        for I in pool_mixed:
            groups = {}
            for c in irreducible_decomposition(I):
                groups.setdefault(PrimeSupport.of(g.support[0] for g in c.gens), []).append(c)
            expected = tuple((rad, intersect_all(I.ring, groups[rad])) for rad in sorted(groups))
            assert primary_decomposition(I) == expected, I.format()


class TestPolarize:
    def test_squarefree_fixed_point(self):
        I = c8_ideal()
        assert polarize(I) == I

    def test_square_splits(self):
        pol = polarize(mk(1, (2,)))
        assert pol.gens == (Monomial((1, 1)),)
        assert pol.ring.names == ("x1_1", "x1_2")

    @given(small_ideals)
    @settings(max_examples=60)
    def test_specialization_roundtrip(self, I):
        if I.is_unit:
            return
        pol = polarize(I)
        assert pol.is_squarefree
        # depolarize: x_{i,j} -> x_i
        owner = [i for i, e in enumerate(I.lcm_of_gens().exponents) for _ in range(max(1, e))]
        gens = []
        for g in pol.gens:
            exps = [0] * I.ring.n
            for j, e in enumerate(g.exponents):
                exps[owner[j]] += e
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

    def test_bare_two_digit_index(self):
        # a lone factor is one variable; only x1x2 reads single-digit indices
        I = parse_generators("x10,x11")
        assert I.ring.n == 11 and I == parse_generators("x10^1,x11^1")
        assert parse_generators("x1x2") == parse_generators("x1*x2")

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
