"""Monomial-ideal intersection by pairwise lcms, minimalized by a pairwise
`Monomial.divides` scan: the independent oracles for `ideals.meet_covers`,
the engine's one intersection route, and for the packed divisibility test
of the `MonomialIdeal` constructor."""
from functools import reduce

from maxdepth.errors import RingMismatchError
from maxdepth.ideals import MonomialIdeal, unit_ideal, variable


def minimal_gens(gens):
    """The minimal monomials among `gens`, sorted graded-lex: each one is
    kept unless a monomial kept before it divides it."""
    kept = []
    for g in sorted(set(gens), key=lambda m: (m.degree, m.exponents)):
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    return tuple(kept)


def intersect(I, J):
    """Pairwise-lcm intersection of monomial ideals."""
    if I.ring != J.ring:
        raise RingMismatchError("operands live in different rings")
    return MonomialIdeal(I.ring, minimal_gens(u.lcm(v) for u in I.gens for v in J.gens))


def intersect_all(rng, ideals):
    """Intersection of a family; the empty family gives the unit ideal."""
    ideals = list(ideals)
    if not ideals:
        return unit_ideal(rng)
    return reduce(intersect, ideals)


def prime_ideal(rng, p):
    return MonomialIdeal(rng, tuple(variable(rng, i) for i in p.vars))
