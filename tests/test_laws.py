"""The paper's laws for maximal depth (depth M = dim R/p for some p in
Ass M), each checked once, on a squarefree and a non-squarefree pool over
QQ and GF(2): it survives localization at a face prime, tensor joins,
direct sums, a free variable and polarization; CM, depth-0 and seqCM
modules have it; and a generalized CM module has it iff it is CM or has
depth 0.  On non-squarefree input the finite-length flags come from the
polarized table and err only towards "infinite" (ROADMAP item 1), so the
classification reads only the modules flagged generalized CM there."""
from itertools import combinations

import pytest

from maxdepth.complexes import to_ideal
from maxdepth.filtration import is_sequentially_cm
from maxdepth.ideals import (F2, QQ, MonomialIdeal, PrimeSupport, parse_generators, polarize,
                             quotient_by_variable, ring, tensor_join, zero_ideal)
from maxdepth.invariants import direct_sum_profile, localization_profile, profile
from maxdepth.regress import two_planes_ideal

from conftest import RP2

pytestmark = pytest.mark.parametrize("kind", ["squarefree", "non-squarefree"])


def over_both_fields(ideals):
    return [MonomialIdeal(ring(I.ring.n, field), I.gens) for I in ideals for field in (QQ, F2)]


@pytest.fixture
def pool(kind, request):
    """Squarefree: the two planes and RP2 (generalized CM, not CM; RP2 over
    GF(2)), (x1, x2) (depth 0) and `pool_small`, each over QQ and GF(2),
    then `pool_low_dim`.  Non-squarefree: `pool_mixed` and `pool_raised`."""
    if kind == "squarefree":
        named = [two_planes_ideal(), to_ideal(RP2), parse_generators("x1,x2")]
        return over_both_fields(named + request.getfixturevalue("pool_small")) + (
            request.getfixturevalue("pool_low_dim"))
    return request.getfixturevalue("pool_mixed") + request.getfixturevalue("pool_raised")


@pytest.fixture
def wide_pool(kind, pool, pool_main):
    """The pool, and on the squarefree side `pool_main` (3-9 vertices) over QQ and GF(2)."""
    return pool + (over_both_fields(pool_main) if kind == "squarefree" else [])


@pytest.fixture
def join_pairs(pool):
    """Each ideal of the pool and the next over its field, where their
    polarizations hold at most 12 vertices together: the face scan of the
    join grows fast with them (about 40 ms a pair at 14 vertices, and
    1.3 s for one pair at 17, on a 2-vCPU host)."""
    return [(A, B) for A, B in zip(pool, pool[2:]) if A.ring.field_spec == B.ring.field_spec
            and polarize(A).ring.n + polarize(B).ring.n <= 12]


def proper_faces(I):
    """The F whose localization is nonzero: I_F, setting x_j = 1 for j in
    F, is proper exactly when no generator lives on F."""
    n = I.ring.n
    return [F for k in range(n + 1) for F in combinations(range(n), k)
            if not any(set(g.support) <= set(F) for g in I.gens)]


def test_localization(kind, pool):
    # depth M <= depth M_P + dim R/P at P = P_F, dim R/P_F = |F|; equality,
    # with M_P of maximal depth, when P contains a prime of Assd
    under_hypothesis = 0
    for I in pool:
        glob = profile(I)
        for F in proper_faces(I):
            loc = localization_profile(I, F)
            assert glob.depth <= loc.depth + len(F), (I.format(), F)
            if any(set(q.vars).isdisjoint(F) for q in glob.assd):
                assert glob.depth == loc.depth + len(F) and loc.maximal_depth, (I.format(), F)
                under_hypothesis += glob.depth > 0 and len(F) > 0
    assert under_hypothesis > 100


def test_tensor_join(kind, join_pairs):
    # Ass of the join is the pairwise unions; depth, dim and mdepth add up
    seen = set()
    for A, B in join_pairs:
        J = tensor_join(A, B)
        pa, pb, pj = profile(A), profile(B), profile(J)
        n = A.ring.n
        assert set(pj.ass) == {PrimeSupport.of(p.vars + tuple(v + n for v in q.vars))
                               for p in pa.ass for q in pb.ass}, (A.format(), B.format())
        assert (pj.depth, pj.dim, pj.mdepth) == (
            pa.depth + pb.depth, pa.dim + pb.dim, pa.mdepth + pb.mdepth), (A.format(), B.format())
        assert pj.maximal_depth == (pa.maximal_depth and pb.maximal_depth), (A.format(), B.format())
        seen.add(pj.maximal_depth)
    assert seen == {True, False}


def test_direct_sum(kind, pool):
    # each ideal with itself, and with the next over its field if on its ring
    pairs = [(A, A) for A in pool] + [(A, B) for A, B in zip(pool, pool[2:]) if A.ring == B.ring]
    assert len(pairs) > 1.2 * len(pool)
    for A, B in pairs:
        a, b = profile(A), profile(B)
        s = direct_sum_profile([a, b])
        assert s.ring == A.ring
        assert (s.depth, s.mdepth, s.dim) == (
            min(a.depth, b.depth), min(a.mdepth, b.mdepth), max(a.dim, b.dim)), (A.format(), B.format())
        assert set(s.ass) == set(a.ass) | set(b.ass), (A.format(), B.format())
        assert s.maximal_depth == (s.depth == s.mdepth), (A.format(), B.format())


def test_free_variable(kind, pool):
    # S/I joined with k[y] = S[y]/(0), and S/I with each variable in no
    # generator, against their quotients by that variable
    removed = 0
    for I in pool:
        n = I.ring.n
        J = tensor_join(I, zero_ideal(ring(1, I.ring.field_spec)))
        assert quotient_by_variable(J, n) == I
        cases = [(J, n)] + [(I, v) for v in range(n) if n > 1 and not any(g.exponents[v] for g in I.gens)]
        for K, v in cases:
            big, small = profile(K), profile(quotient_by_variable(K, v))
            assert (big.depth, big.dim, big.mdepth) == (
                small.depth + 1, small.dim + 1, small.mdepth + 1), (K.format(), v)
            assert big.maximal_depth == small.maximal_depth, (K.format(), v)
        removed += len(cases) - 1
    assert removed > 0


def test_polarization(kind, pool):
    # pol I has a more variables: depth and dim shift by a; the face scan
    # of pol I without its twin classes grows fast with its vertices, so
    # the one polarization of the pools on more than 12 (15) is left out
    added = 0
    for I in pool:
        P = polarize(I)
        if P.ring.n > 12:
            continue
        a = P.ring.n - I.ring.n
        pp, pi = profile(P), profile(I)
        assert (pp.depth, pp.dim) == (pi.depth + a, pi.dim + a), I.format()
        assert pp.maximal_depth == pi.maximal_depth, I.format()
        added += a
    assert (added > 0) == (kind == "non-squarefree")


def test_cohen_macaulay_depth_zero_and_seqcm_give_maximal_depth(kind, wide_pool):
    counts = [0, 0, 0]
    for I in wide_pool:
        prof = profile(I)
        cases = (prof.cohen_macaulay, prof.depth == 0, is_sequentially_cm(I).status == "true")
        assert prof.maximal_depth or not any(cases), I.format()
        assert prof.unmixed or not prof.cohen_macaulay, I.format()
        counts = [c + k for c, k in zip(counts, cases)]
    assert min(counts) > 0


def test_generalized_cm_classification(kind, wide_pool):
    # with depth t > 0 and maximal depth, a prime of Assd is attached to
    # H^t, which therefore has infinite length; so a generalized CM module
    # of depth t > 0 has maximal depth iff it is CM
    gcm_not_cm = 0
    for I in wide_pool:
        prof = profile(I)
        if prof.maximal_depth and prof.depth > 0:
            assert not prof.hochster.degrees[prof.depth].finite_length, I.format()
        if prof.generalized_cm:
            assert prof.maximal_depth == (prof.cohen_macaulay or prof.depth == 0), I.format()
            gcm_not_cm += not prof.cohen_macaulay
    # no non-squarefree module of this pool is flagged generalized CM
    # without being CM, since the flags are read off the polarized table:
    # once they are exact this fails, and the converse there needs checking
    assert gcm_not_cm >= 10 if kind == "squarefree" else gcm_not_cm == 0
