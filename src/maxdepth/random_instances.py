"""Random desk-scale instances for property suites and the prober."""
from __future__ import annotations

from .complexes import SimplicialComplex
from .ideals import FieldSpec, Monomial, MonomialIdeal, QQ, ring


def random_complex(rng: random.Random, n: int, max_facets: int | None = None) -> SimplicialComplex:
    """Random complex on n ambient vertices; occasionally the full simplex."""
    if max_facets is None:
        max_facets = max(2, n)
    if rng.random() < 0.05:
        return SimplicialComplex(n, (tuple(range(n)),))
    count = rng.randint(1, max_facets)
    facets = []
    for _ in range(count):
        size = rng.randint(1, n)
        facets.append(tuple(sorted(rng.sample(range(n), size))))
    return SimplicialComplex(n, tuple(facets))


def random_monomial_ideal(
    rng: random.Random, n: int, max_gens: int = 4, max_exp: int = 3, field: FieldSpec = QQ
) -> MonomialIdeal:
    """Random proper (possibly non-squarefree) monomial ideal."""
    amb = ring(n, field)
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
    return MonomialIdeal(amb, tuple(gens))
