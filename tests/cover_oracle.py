"""Irreducible components by brute force: the oracle for the cover search.

Every inclusion-minimal vertex cover of pol I is found among all subsets of
its vertices, the pairs (i, j) with j at most the largest exponent of x_i,
and kept when every pair (i, j) has a tight generator g: g_i = j, and
g_k < l for the other pairs (k, l) of the cover.
"""
import itertools


def tight_minimal_covers(I):
    top = I.lcm_of_gens().exponents
    vertices = [(i, j) for i, e in enumerate(top) for j in range(1, e + 1)]
    edges = [
        frozenset((i, j) for i, e in enumerate(g.exponents) for j in range(1, e + 1))
        for g in I.gens
    ]

    def covers(s):
        return all(e & s for e in edges)

    def tight(c):
        return all(
            any(
                g.exponents[i] == j
                and all(g.exponents[k] < l for k, l in c if k != i)
                for g in I.gens
            )
            for i, j in c
        )

    minimal = [
        c
        for k in range(len(vertices) + 1)
        for c in map(frozenset, itertools.combinations(vertices, k))
        if covers(c) and not any(covers(c - {u}) for u in c)
    ]
    return tuple(sorted(
        (c for c in minimal if tight(c)), key=lambda c: (len(c), tuple(sorted(c)))
    ))
