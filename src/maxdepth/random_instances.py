"""Random desk-scale complexes for the prober, the survey script and the tests."""
from __future__ import annotations

from .complexes import SimplicialComplex


def random_complex(rng: random.Random, n: int) -> SimplicialComplex:
    """Random complex on n ambient vertices; occasionally the full simplex."""
    if rng.random() < 0.05:
        return SimplicialComplex(n, (tuple(range(n)),))
    count = rng.randint(1, max(2, n))
    facets = []
    for _ in range(count):
        size = rng.randint(1, n)
        facets.append(tuple(sorted(rng.sample(range(n), size))))
    return SimplicialComplex(n, tuple(facets))
