import itertools
import random

import pytest
from hypothesis import strategies as st

from maxdepth.complexes import SimplicialComplex, to_ideal
from maxdepth.filtration import is_sequentially_cm
from maxdepth.ideals import F2, QQ, Monomial, MonomialIdeal, associated_primes, ring
from maxdepth.random_instances import random_complex

POOL_SEED = 20260824

# antipodal quotient of the icosahedron: 6 vertices, 10 triangles; its
# Stanley-Reisner ring has depth 3 over QQ and 2 over GF(2)
RP2 = SimplicialComplex(
    6,
    (
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 5), (0, 4, 5),
        (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
    ),
)

# the 5-vertex Moebius band 123, 124, 135, 245, 345 plus an isolated vertex
MOBIUS = SimplicialComplex(6, ((0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 3, 4), (2, 3, 4), (5,)))

HOLLOW_TRIANGLE = SimplicialComplex(3, ((0, 1), (1, 2), (0, 2)))

# the boundary of the octahedron, a 2-sphere on 6 vertices with 27 faces
OCTAHEDRON = SimplicialComplex(6, tuple(itertools.product((0, 1), (2, 3), (4, 5))))


def mod3_moore_space() -> SimplicialComplex:
    """A disk whose boundary 9-gon wraps three times around the hollow
    triangle abc: H_1 = Z/3 and H_2 = 0 over the integers.  Vertices: a, b, c
    (0-2), an inner ring q_0..q_8 (3-11) and the centre z (12)."""
    facets = []
    for i in range(9):
        p, p1, q, q1 = i % 3, (i + 1) % 3, 3 + i, 3 + (i + 1) % 9
        facets += [(p, p1, q), (p1, q, q1), (q, q1, 12)]
    return SimplicialComplex(13, tuple(facets))


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

complexes = st.integers(0, 10 ** 9).map(
    lambda s: random_complex(random.Random(s), random.Random(s ^ 1).randint(2, 6))
)


def random_monomial_ideal(rng, n, max_gens=4, max_exp=3, field=QQ):
    """Random proper (possibly non-squarefree) monomial ideal."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        exps = [0] * n
        for i in range(n):
            if rng.random() < 0.5:
                exps[i] = rng.randint(1, max_exp)
        if any(exps):
            gens.append(Monomial(tuple(exps)))
    if not gens:
        gens.append(Monomial(tuple([1] + [0] * (n - 1))))
    return MonomialIdeal(ring(n, field), tuple(gens))


def minimal_primes_of(I):
    """Inclusion-minimal members of Ass(S/I)."""
    ass = associated_primes(I)
    return frozenset(p for p in ass if not any(q != p and set(q.vars) <= set(p.vars) for q in ass))


@pytest.fixture(scope="session")
def pool_main():
    """200 random squarefree ideals, mostly 3-7 vertices, some 8-9."""
    rng = random.Random(POOL_SEED)
    ideals = []
    for k in range(200):
        n = rng.randint(8, 9) if k % 10 == 0 else rng.randint(3, 7)
        ideals.append(to_ideal(random_complex(rng, n)))
    return ideals


@pytest.fixture(scope="session")
def pool_small():
    """200 random squarefree ideals on 3-6 vertices (face-heavy suites)."""
    rng = random.Random(POOL_SEED + 1)
    return [to_ideal(random_complex(rng, rng.randint(3, 6))) for _ in range(200)]


@pytest.fixture(scope="session")
def pool_low_dim():
    """200 random complexes of dimension at most 2 on 4-7 vertices (about a
    third fail to be sequentially CM), each as its ideal over QQ and GF(2)."""
    rng = random.Random(POOL_SEED + 4)
    ideals = []
    for _ in range(200):
        n = rng.randint(4, 7)
        facets = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(rng.randint(2, 2 * n))]
        cx = SimplicialComplex(n, tuple(facets))
        ideals += [to_ideal(cx, ring(n, field)) for field in (QQ, F2)]
    return ideals


@pytest.fixture(scope="session")
def pool_mixed_dim():
    """200 random complexes on 5-8 vertices with 2..n facets of 1-5 vertices,
    mostly non-pure and of dimension up to 4 (over a quarter fail to be
    sequentially CM), each as its ideal over QQ and GF(2)."""
    rng = random.Random(POOL_SEED + 5)
    ideals = []
    for _ in range(200):
        n = rng.randint(5, 8)
        facets = [rng.sample(range(n), rng.randint(1, 5)) for _ in range(rng.randint(2, n))]
        cx = SimplicialComplex(n, tuple(facets))
        ideals += [to_ideal(cx, ring(n, field)) for field in (QQ, F2)]
    return ideals


@pytest.fixture(scope="session")
def pool_mixed():
    """200 random monomial ideals, mostly non-squarefree, on 1-5 variables
    with up to 5 generators and exponents up to 3, alternately over QQ and GF(2)."""
    rng = random.Random(POOL_SEED + 3)
    return [
        random_monomial_ideal(rng, rng.randint(1, 5), max_gens=5, max_exp=3, field=(QQ, F2)[k % 2])
        for k in range(200)
    ]


@pytest.fixture(scope="session")
def pool_raised():
    """180 non-squarefree ideals: the ideals of random complexes on 3-5
    vertices, each variable of each generator raised to the square with
    probability 0.4, alternately over QQ and GF(2).  Two complexes in
    three are redrawn until their ideal is not sequentially CM, so the pool
    holds many ideals that are not; polarizations have at most 10 vertices."""
    rng = random.Random(POOL_SEED + 6)
    ideals = []
    while len(ideals) < 180:
        n = rng.randint(3, 5)
        I = to_ideal(random_complex(rng, n), ring(n, (QQ, F2)[len(ideals) % 2]))
        if I.is_unit or (len(ideals) % 3 and is_sequentially_cm(I).status == "true"):
            continue
        J = MonomialIdeal(I.ring, tuple(
            Monomial(tuple(e + (e > 0 and rng.random() < 0.4) for e in g.exponents)) for g in I.gens))
        if not J.is_squarefree:
            ideals.append(J)
    return ideals
