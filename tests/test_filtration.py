import random

import pytest
from hypothesis import given, settings

from maxdepth.errors import CapExceededError, UndefinedModuleError
from maxdepth.ideals import (
    F2,
    QQ,
    MonomialIdeal,
    PrimeSupport,
    associated_primes,
    irreducible_decomposition,
    parse_generators,
    polarize,
    primary_decomposition,
    ring,
    unit_ideal,
)
from maxdepth import filtration, ideals
from maxdepth.complexes import cycle_edge_ideal, to_ideal
from maxdepth.invariants import localization_profile, profile
from maxdepth.filtration import (
    AttClaim,
    DimensionFiltration,
    FiltrationLevel,
    ProbeConfig,
    ProbeHit,
    ass_of_submodule,
    att_report,
    dimension_filtration,
    is_sequentially_cm,
    mdepth_chain,
    probe_open_question,
    psupp_monomial,
    quotient_depth_intervals,
)
from maxdepth.random_instances import random_complex
from maxdepth.regress import C8_PRIMES, c8_ideal, two_planes_ideal

from colon_oracle import colon_search_ass
from conftest import MOBIUS, POOL_SEED, minimal_primes_of, mk, small_ideals
from faces_oracle import all_faces
from intersect_oracle import intersect_all, prime_ideal
from reisner_oracle import psupp_by_link_tables, seqcm_by_rescan


class TestDimensionFiltration:
    def test_c8_levels(self):
        I = c8_ideal()
        f = dimension_filtration(I)
        assert f.t == 3
        assert not f.levels[0].nonzero
        assert not f.levels[1].nonzero and not f.levels[2].nonzero
        top2 = [prime_ideal(I.ring, PrimeSupport(p)) for p in C8_PRIMES[:2]]
        assert f.levels[3].ideal == intersect_all(I.ring, top2)
        assert f.levels[4].ideal.is_unit

    def test_c8_ass_partition(self):
        f = dimension_filtration(c8_ideal())
        by_level = {i: set(lv.ass_level) for i, lv in enumerate(f.levels)}
        assert {len(by_level[i]) for i in (0, 1, 2)} == {0}
        assert len(by_level[3]) == 8 and len(by_level[4]) == 2

    def test_embedded_example(self):
        # (x^2, x*y): the zero-dimensional piece is (x)/(x^2, x*y)
        I = mk(2, (2, 0), (1, 1))
        f = dimension_filtration(I)
        assert f.t == 0
        assert f.levels[0].ideal == mk(2, (1, 0))
        assert f.levels[1].ideal.is_unit

    def test_unmixed_has_one_jump(self):
        f = dimension_filtration(two_planes_ideal())
        assert f.t == 2
        assert [lv.nonzero for lv in f.levels] == [False, False, True]
        assert f.levels[2].ideal.is_unit

    def test_unit_rejected(self):
        with pytest.raises(UndefinedModuleError, match="the unit ideal defines the zero module"):
            dimension_filtration(unit_ideal(ring(2)))

    def test_levels_are_indexed(self):
        # level i is f.levels[i], and t is read off the levels; no field
        # stores either a second time
        assert FiltrationLevel._fields == ("ideal", "nonzero", "ass_level")
        assert DimensionFiltration._fields == ("base", "levels")
        assert isinstance(DimensionFiltration.t, property)

    @given(small_ideals)
    @settings(max_examples=50, deadline=None)
    def test_level_ideals_nested_and_consistent(self, I):
        if I.is_unit:
            return
        f = dimension_filtration(I)
        d = len(f.levels) - 1
        for i in range(d):
            a, b = f.levels[i].ideal, f.levels[i + 1].ideal
            # I^(i) subseteq I^(i+1)
            assert all(b.contains(g) for g in a.gens) or b.is_unit
        assert f.levels[d].ideal.is_unit
        assert f.t == min(i for i, lv in enumerate(f.levels) if lv.nonzero)

    @given(small_ideals)
    @settings(max_examples=50, deadline=None)
    def test_ass_levels_partition_ass(self, I):
        if I.is_unit:
            return
        f = dimension_filtration(I)
        collected = [p for lv in f.levels for p in lv.ass_level]
        assert len(collected) == len(set(collected))
        assert set(collected) == set(associated_primes(I))

    def test_pool_ass_levels_partition_ass(self, pool_small, pool_mixed):
        for I in pool_small + pool_mixed:
            f = dimension_filtration(I)
            collected = [p for lv in f.levels for p in lv.ass_level]
            assert len(collected) == len(set(collected)), I.format()
            assert set(collected) == colon_search_ass(I), I.format()
            # the nested levels equal the intersection taken level by level
            comps = primary_decomposition(I)
            for i, lv in enumerate(f.levels):
                above = (c for rad, c in comps if rad.dim_in(I.ring) > i)
                assert lv.ideal == intersect_all(I.ring, above), I.format()
                # Ass(M/M_i) = Ass(S/I^(i)) is Ass M less Ass M_i
                if lv.nonzero and not lv.ideal.is_unit:
                    assert associated_primes(lv.ideal) == (
                        associated_primes(I) - set(ass_of_submodule(f, i))), (I.format(), i)


def intersection_levels(I):
    """Level ideals by the pairwise-lcm intersection of the irreducible
    components, top-down: I^(i) = I^(i+1) cap (the components of dimension
    i + 1)."""
    rng = I.ring
    comps = irreducible_decomposition(I)
    li = unit_ideal(rng)
    out = []
    for i in reversed(range(max(rng.n - len(c.gens) for c in comps) + 1)):
        li = intersect_all(rng, [li, *(c for c in comps if rng.n - len(c.gens) == i + 1)])
        out.append(li)
    return out[::-1]


def powers(n, *gens):
    """Ideal from generators given as {1-based variable: exponent}."""
    return mk(n, *(tuple(g.get(k + 1, 0) for k in range(n)) for g in gens))


# exponents on the edges of the packing width: 2^k - 1 fills a field below
# its guard bit, 2^k widens the field by one bit
WIDTH_EDGE_IDEALS = [
    powers(1, {1: 1}),
    powers(1, {1: 256}),
    powers(2, {1: 2}, {1: 1, 2: 1}),
    powers(2, {1: 4}, {1: 3, 2: 3}),
    powers(2, {1: 8}, {1: 7, 2: 1}, {2: 2}),
    powers(2, {1: 256}, {1: 255, 2: 1}),
    powers(3, {1: 16}, {1: 15, 2: 2}, {2: 3, 3: 1}, {3: 4}),
    powers(3, {1: 255}, {1: 7, 2: 16}, {2: 15, 3: 1}, {1: 1, 3: 2}),
    powers(3, {1: 256, 2: 1}, {1: 255, 2: 2, 3: 3}, {2: 4, 3: 7}, {3: 8}),
    powers(4, {1: 3, 2: 1}, {2: 4, 3: 2}, {3: 16, 4: 1}, {1: 15, 4: 2}, {2: 7, 4: 255}),
]


class TestLevelsMatchIntersection:
    """dimension_filtration against the pairwise-lcm intersection oracle."""

    def assert_levels_match(self, I):
        f = dimension_filtration(I)
        assert [lv.ideal for lv in f.levels] == intersection_levels(I), I.format()

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 13, 14, 15, 16])
    def test_cycles(self, n):
        self.assert_levels_match(cycle_edge_ideal(n))

    def test_one_variable_ring(self):
        for e in range(1, 5):
            self.assert_levels_match(mk(1, (e,)))

    def test_zero_ideal(self):
        for n in (1, 3):
            I = mk(n)
            self.assert_levels_match(I)
            f = dimension_filtration(I)
            assert f.t == n and f.levels[-1].ideal.is_unit
            assert all(lv.ideal.is_zero for lv in f.levels[:-1])

    @pytest.mark.parametrize("I", WIDTH_EDGE_IDEALS, ids=lambda I: I.format())
    def test_packing_width_edges(self, I):
        self.assert_levels_match(I)

    def test_width_edge_ideals_have_embedded_components(self):
        embedded = [I for I in WIDTH_EDGE_IDEALS if associated_primes(I) != minimal_primes_of(I)]
        assert len(embedded) >= 6

    def test_levels_without_pairwise_intersection(self):
        # the levels come from one pass over the irreducible components;
        # the pairwise-lcm intersection is only the oracle
        assert not hasattr(ideals, "intersect") and not hasattr(ideals, "intersect_all")
        cases = [cycle_edge_ideal(10), powers(3, {1: 3}, {1: 2, 2: 2}, {2: 3, 3: 1}, {1: 1, 3: 2})]
        for I in cases:
            levels = [lv.ideal for lv in dimension_filtration(I).levels]
            assert levels == intersection_levels(I), I.format()


class TestMdepthChain:
    def test_c8(self):
        assert mdepth_chain(dimension_filtration(c8_ideal())) == (3, 3)

    def test_embedded_example(self):
        f = dimension_filtration(mk(2, (2, 0), (1, 1)))
        assert mdepth_chain(f) == (0, 0)

    @given(small_ideals)
    @settings(max_examples=50, deadline=None)
    def test_constant_equal_to_t(self, I):
        if I.is_unit:
            return
        f = dimension_filtration(I)
        chain = mdepth_chain(f)
        assert chain and set(chain) == {f.t}

    def test_ass_of_submodule_accumulates(self):
        f = dimension_filtration(c8_ideal())
        assert ass_of_submodule(f, 2) == ()
        assert len(ass_of_submodule(f, 3)) == 8
        assert len(ass_of_submodule(f, 4)) == 10


class TestDepthIntervals:
    def test_c8_pinned_level(self):
        iv = quotient_depth_intervals(dimension_filtration(c8_ideal()))
        assert iv[3].module.lo == iv[3].module.hi == 2

    def test_top_level_is_global_depth(self):
        for I in (c8_ideal(), two_planes_ideal()):
            f = dimension_filtration(I)
            iv = quotient_depth_intervals(f)
            d = profile(I).depth
            top = iv[len(f.levels) - 1].module
            assert (top.lo, top.hi) == (d, d)

    def test_quotient_reads_the_previous_level(self):
        # (x1) cap (x1^2, x3) in 4 variables: depth M = 2, M_2 = (x1)/I
        # has dim 2 and M/M_2 = S/(x1) depth 3 > depth M, so depth M_2 is
        # depth M; the top quotient M/M_2 is S/I^(2) = S/(x1) itself
        f = dimension_filtration(parse_generators("x1^2,x1*x3", nvars=4))
        top = profile(f.levels[2].ideal).depth
        assert top == 3
        assert [(iv.module, iv.quotient) for iv in quotient_depth_intervals(f)] == [
            (None, None),
            (None, None),
            ((2, 2), (2, 2)),
            ((2, 2), (top, top)),
        ]

    def test_level_without_primes_between_nonzero_levels(self):
        # (x3) cap (x2, x3^2, x5) in 5 variables: level 3 holds no prime, so
        # M_3 = M_2, its quotient is zero, and the top quotient M/M_3 is
        # S/I^(3) = S/(x3), read off the level below the top
        f = dimension_filtration(parse_generators("x2*x3,x3^2,x3*x5", nvars=5))
        top = profile(f.levels[3].ideal).depth
        assert top == 4
        assert [(iv.module, iv.quotient) for iv in quotient_depth_intervals(f)] == [
            (None, None),
            (None, None),
            ((2, 2), (2, 2)),
            ((2, 2), None),
            ((2, 2), (top, top)),
        ]

    def test_cokernel_deeper_than_the_module(self):
        # depth S/I^(i) > depth M forces depth M_i = depth M, and each
        # quotient I^(i)/I^(i-1) is read between two cyclic modules
        f = dimension_filtration(parse_generators("x4^2,x2*x3*x4,x2^2*x4", nvars=4))
        assert [(iv.module, iv.quotient) for iv in quotient_depth_intervals(f)][1:] == [
            ((1, 1), (1, 1)),
            ((1, 1), (2, 2)),
            ((1, 1), (3, 3)),
        ]
        f = dimension_filtration(parse_generators("x1*x4,x3*x4*x5,x3^2*x4,x2*x4^2*x6^2", nvars=6))
        iv = quotient_depth_intervals(f)
        assert iv[3].module == iv[4].module == (2, 2)

    def test_point_quotients_decide_seqcm_as_duval(self, pool_low_dim, pool_mixed_dim):
        # M is seqCM iff every nonzero quotient M_i/M_{i-1} is CM of
        # dimension i (Stanley, Schenzel): wherever the rule pins every
        # quotient's depth, that verdict must be Duval's
        cycles = [cycle_edge_ideal(k, field) for k in range(3, 15) for field in (QQ, F2)]
        wide, not_seqcm = [], 0
        for I in pool_low_dim + pool_mixed_dim + cycles:
            f = dimension_filtration(I)
            quots = [(i, iv.quotient) for i, iv in enumerate(quotient_depth_intervals(f)) if iv.quotient]
            if any(q.lo != q.hi for _, q in quots):
                wide.append(I)
                continue
            levelled = all(q.lo == i for i, q in quots)
            assert levelled == (is_sequentially_cm(I).status == "true"), I.format()
            not_seqcm += not levelled
        assert not_seqcm == 260
        # two complexes of pool_mixed_dim, each over both fields, keep an
        # equal-depth level: 0 -> M_i/M_{i-1} -> S/I^(i-1) -> S/I^(i) -> 0
        # with depth S/I^(i-1) = depth S/I^(i)
        assert len(wide) == 4
        assert all(I in pool_mixed_dim for I in wide)
        assert parse_generators(
            "x4*x6*x7,x3*x6*x7,x1*x4*x6,x1*x3*x6,x1*x2*x4,x2*x4*x5*x7,x2*x3*x5*x7,x1*x2*x3*x5",
            nvars=7,
        ) in wide

    def test_point_levels_obey_the_depth_lemma(self, pool_mixed):
        # every interval of this non-squarefree pool is a point; the rule
        # never reads 0 -> M_{i-1} -> M_i -> M_i/M_{i-1} -> 0, so those
        # exact depths are checked against that sequence's Depth Lemma
        def lemma_holds(a, b, c):
            return a >= min(b, c + 1) and b >= min(a, c) and c >= min(a - 1, b)

        for I in pool_mixed:
            if I.is_unit:
                continue
            f = dimension_filtration(I)
            iv = quotient_depth_intervals(f)
            d = len(f.levels) - 1
            below = profile(f.levels[d - 1].ideal if d else I).depth
            assert iv[d].quotient == (below, below), I.format()
            assert all(x.lo == x.hi for lv in iv for x in lv if x is not None), I.format()
            for prev, cur in zip(iv, iv[1:]):
                trio = (prev.module, cur.module, cur.quotient)
                if None not in trio:
                    assert lemma_holds(*(x.lo for x in trio)), I.format()

    def test_zero_levels_have_no_interval(self):
        iv = quotient_depth_intervals(dimension_filtration(c8_ideal()))
        assert iv[0].module is None and iv[0].quotient is None

    @given(small_ideals)
    @settings(max_examples=40, deadline=None)
    def test_intervals_well_formed(self, I):
        if I.is_unit:
            return
        f = dimension_filtration(I)
        intervals = quotient_depth_intervals(f)
        assert len(intervals) == len(f.levels)
        for i, (lv, entry) in enumerate(zip(f.levels, intervals)):
            if not lv.nonzero:
                assert entry.module is None
                continue
            assert 0 <= entry.module.lo <= entry.module.hi
            if entry.quotient is not None:
                assert entry.quotient.lo <= entry.quotient.hi <= i


class TestSequentiallyCM:
    def test_cycle_family(self):
        verdicts = {
            k: is_sequentially_cm(cycle_edge_ideal(k)).status for k in range(3, 9)
        }
        assert verdicts == {
            3: "true",
            4: "false",
            5: "true",
            6: "false",
            7: "false",
            8: "false",
        }

    def test_cm_is_seqcm(self):
        assert is_sequentially_cm(two_planes_ideal()).status == "false"
        assert is_sequentially_cm(mk(2, (1, 1))).status == "true"

    def test_witness_shape(self):
        res = is_sequentially_cm(c8_ideal())
        assert res.status == "false"
        assert res.witness_skeleton is not None
        assert res.witness_face is not None and res.witness_degree is not None

    def test_non_squarefree_pool_matches_duval_on_the_polarization(self, pool_raised):
        # S/I is seqCM iff S/pol I is (Faridi), so Duval's criterion on the
        # polarization decides; a non-squarefree witness is the level alone
        assert is_sequentially_cm(mk(2, (2, 0), (1, 1))) == ("true", None, None, None)
        not_seqcm = 0
        for I in pool_raised:
            res = is_sequentially_cm(I)
            assert res.status == seqcm_by_rescan(polarize(I))[0], I.format()
            assert res.witness_face is None and res.witness_degree is None, I.format()
            not_seqcm += res.status == "false"
        assert not_seqcm == 120

    def test_unit_rejected(self):
        with pytest.raises(UndefinedModuleError):
            is_sequentially_cm(unit_ideal(ring(2)))

    def test_pool_matches_reisner_rescan(self, pool_low_dim):
        for I in pool_low_dim:
            res = is_sequentially_cm(I)
            got = (res.status, res.witness_skeleton, res.witness_face, res.witness_degree)
            assert got == seqcm_by_rescan(I), I.format()

    def test_mixed_dim_pool_matches_reisner_rescan(self, pool_mixed_dim):
        # non-pure complexes up to dimension 4: the verdict read off the
        # facet subcomplexes against the link-by-link pure-skeleton scan
        for I in pool_mixed_dim:
            res = is_sequentially_cm(I)
            got = (res.status, res.witness_skeleton, res.witness_face, res.witness_degree)
            assert got == seqcm_by_rescan(I), I.format()


class TestSharedCoverSearch:
    def test_one_search_for_every_answer(self):
        # Stanley-Reisner facets, Ass and the decompositions share one
        # cached cover search; no other test uses this ideal over GF(11),
        # so the cache starts cold and each cache miss is one search
        I = parse_generators(
            "x1*x2*x5,x2*x3*x7,x3*x4,x4*x5*x6,x1*x6*x7", nvars=7, field=ideals.FieldSpec(11)
        )
        searches = ideals.irreducible_covers.cache_info().misses
        profile(I)
        dimension_filtration(I)
        is_sequentially_cm(I)
        att_report(I)
        assert ideals.irreducible_covers.cache_info().misses - searches == 1


# the four per-(ideal, Limits) memos, each with caps below what C5 needs:
# its search visits more than two nodes, and its complex has five vertices
MEMOIZED = {
    "irreducible_covers": (ideals.irreducible_covers, {"search_cap": 2}),
    "profile": (profile, {"max_vertices": 4}),
    "dimension_filtration": (dimension_filtration, {"search_cap": 2}),
    "is_sequentially_cm": (is_sequentially_cm, {"max_vertices": 4}),
}


@pytest.mark.parametrize("name", MEMOIZED)
class TestPerLimitsMemo:
    def test_lowered_cap_holds_on_repeat_call(self, name):
        fn, caps = MEMOIZED[name]
        I = cycle_edge_ideal(5)
        fn(I)
        with ideals.limited(**caps), pytest.raises(CapExceededError):
            fn(I)

    def test_memo_answers_as_the_function(self, name, pool_mixed):
        fn, _ = MEMOIZED[name]
        for I in pool_mixed:
            assert fn(I) == fn.__wrapped__(I), I.format()

    def test_repeat_call_is_one_hit(self, name):
        fn, _ = MEMOIZED[name]
        I = cycle_edge_ideal(7)
        fn(I)
        hits = fn.cache_info().hits
        fn(I)
        assert fn.cache_info().hits == hits + 1


class TestAttReport:
    def test_c8_top_claim(self):
        # the claims themselves, one per degree, not a record around them
        claims = att_report(c8_ideal())
        assert type(claims) is tuple and all(type(c) is AttClaim for c in claims)
        top = claims[4]
        assert top.kind == "full" and top.tag == "top-assh"
        assert {p.vars for p in top.primes} == {(0, 2, 4, 6), (1, 3, 5, 7)}

    def test_claims_are_indexed(self):
        # claim i is att_report(I)[i], and its kind is read off its tag
        assert AttClaim._fields == ("tag", "primes")
        assert isinstance(AttClaim.kind, property)
        assert [AttClaim(tag, ()).kind for tag in ("seqcm-level", "top-assh", "lower-bound-only")] == [
            "full", "full", "lower-bound",
        ]

    def test_c8_lower_bounds(self):
        claims = att_report(c8_ideal())
        ass = set(associated_primes(c8_ideal()))
        for claim in claims[:4]:
            assert claim.kind == "lower-bound"
            assert set(claim.primes) <= ass

    def test_seqcm_case_is_fully_determined(self):
        I = cycle_edge_ideal(5)
        claims = att_report(I)
        f = dimension_filtration(I)
        assert all(c.kind == "full" and c.tag == "seqcm-level" for c in claims)
        assert [c.primes for c in claims] == [lv.ass_level for lv in f.levels]

    def test_depth_min_att_on_embedded_example(self):
        # Ass = {(x), (x,y)} and Assd = {(x,y)}; S/(x^2, xy) is seqCM (its
        # level-0 ideal (x) has depth 1), so the embedded prime is all of
        # Att H^0, below the top degree
        claims = att_report(mk(2, (2, 0), (1, 1)))
        assert claims[0] == ("seqcm-level", (PrimeSupport((0, 1)),))
        assert claims[0].kind == "full"

    @given(small_ideals)
    @settings(max_examples=30, deadline=None)
    def test_claim_per_degree(self, I):
        if I.is_unit:
            return
        claims = att_report(I)
        prof = profile(I)
        assert len(claims) == prof.dim + 1
        # a full top claim always names the top-dimensional primes
        top = claims[-1]
        assert top.kind == "full"
        assert set(top.primes) == {
            p for p in prof.ass if p.dim_in(I.ring) == prof.dim
        }

    def test_claims_are_ass_levels(self, pool_mixed):
        cases = list(pool_mixed)
        for field in (QQ, F2):
            cases += [cycle_edge_ideal(n, field) for n in range(3, 17)]
            cases += [MonomialIdeal(ring(n, field), ()) for n in (1, 2, 3)]
        for I in cases:
            rng = I.ring
            ass = associated_primes(I)
            dim = max(p.dim_in(rng) for p in ass)
            seqcm = is_sequentially_cm(I).status == "true"
            claims = att_report(I)
            assert len(claims) == dim + 1, I.format()
            for i, c in enumerate(claims):
                assert set(c.primes) == {p for p in ass if p.dim_in(rng) == i}, I.format()
                assert (c.kind == "full") == (seqcm or i == dim), (I.format(), c)

    @given(small_ideals)
    @settings(max_examples=60, deadline=None)
    def test_minimal_primes_in_assd_force_cohen_macaulay(self, I):
        # dim is the largest dim R/p over the minimal primes, so with all of
        # them in Assd it equals depth: a min-Att claim at the depth under
        # that hypothesis would only ever sit at the top degree
        if I.is_unit:
            return
        prof = profile(I)
        if minimal_primes_of(I) <= set(prof.assd):
            assert prof.depth == prof.dim


class TestPsupp:
    def test_c8_degree_three(self):
        # the faces themselves, not a record around them
        faces = psupp_monomial(c8_ideal(), 3)
        assert type(faces) is tuple and all(type(f) is tuple for f in faces)
        assert () in faces

    def test_below_depth_is_empty(self):
        I = c8_ideal()
        for i in range(3):
            assert psupp_monomial(I, i) == ()

    def test_top_degree_nonempty(self):
        assert psupp_monomial(c8_ideal(), 4) != ()

    def test_non_squarefree_worked_case(self):
        # S/(x1^2, x1*x2) has depth 0 and dim 1; setting x2 = 1 leaves
        # K[x1]/(x1), of depth 0, so (x1) is in Psupp^{0+1}; a third,
        # free variable lifts every answer one degree and adds its face
        I = parse_generators("x1^2,x1*x2", nvars=2)
        assert [psupp_monomial(I, i) for i in range(3)] == [((),), ((), (1,)), ()]
        assert psupp_monomial(parse_generators("x1^2,x1*x2", nvars=3), 2) == (
            (), (1,), (2,), (1, 2))

    def test_pool_matches_link_tables(self, pool_low_dim):
        for I in pool_low_dim:
            for i in range(-1, I.ring.n + 2):
                assert psupp_monomial(I, i) == psupp_by_link_tables(I, i), (I.format(), i)

    def test_matches_localization(self):
        # P_F is in Psupp^i exactly when the localization at P_F has
        # H^{i-|F|} nonzero
        rng = random.Random(POOL_SEED + 6)
        for k in range(200):
            n = rng.randint(3, 6)
            cx = random_complex(rng, n)
            I = to_ideal(cx, ring(n, (QQ, F2)[k % 2]))
            local = {F: localization_profile(I, F).hochster for F in all_faces(cx)}
            for i in range(-1, n + 2):
                expect = tuple(
                    face for face, t in local.items()
                    if 0 <= i - len(face) < len(t.degrees) and t.degrees[i - len(face)].nonzero
                )
                assert psupp_monomial(I, i) == expect, (I.format(), i)


class TestProbe:
    def test_fixed_seed_report(self):
        cfg = ProbeConfig(samples=60, max_vertices=6, min_vertices=3, seed=11)
        eligible, hits = probe_open_question(cfg)
        assert 0 < eligible <= cfg.samples
        assert hits == ()

    def test_deterministic(self):
        cfg = ProbeConfig(samples=30, seed=5)
        assert probe_open_question(cfg) == probe_open_question(cfg)

    def test_hits_would_carry_instance_data(self):
        # structural check on the report shape only
        eligible, hits = probe_open_question(ProbeConfig(samples=10, seed=0))
        assert 0 <= eligible <= 10
        assert isinstance(hits, tuple)

    @pytest.mark.parametrize("field", [QQ, F2])
    def test_moebius_band_is_a_hit(self, monkeypatch, field):
        # the 5-vertex Moebius band 123, 124, 135, 245, 345 and the isolated
        # vertex 6: disconnected, so depth 1, and the facet {6} makes
        # mdepth 1; H^2 gets only H~_1 of the band (a circle) from the empty
        # face, since every vertex link of the band is a path, so it is
        # nonzero of finite length
        monkeypatch.setattr(filtration, "random_complex", lambda rng, n: MOBIUS)
        eligible, hits = probe_open_question(ProbeConfig(samples=3, field=field))
        I = to_ideal(MOBIUS, ring(6, field))
        assert eligible == 3
        assert hits == (ProbeHit(I, 2, 1, 3),) * 3
        assert [(h.degree, h.depth, h.dim) for h in hits] == [(2, 1, 3)] * 3
        assert all(h.ideal == I and h.ideal.ring.field_spec == field for h in hits)
        assert I.format() == ("(x5*x6, x4*x6, x3*x6, x2*x6, x1*x6, "
                              "x2*x3*x5, x2*x3*x4, x1*x4*x5, x1*x3*x4, x1*x2*x5)")
