"""Monomial-ideal intersection by pairwise lcms: the independent oracle for
`ideals.meet_covers`, the engine's one intersection route."""
from functools import reduce

from maxdepth.errors import RingMismatchError
from maxdepth.ideals import MonomialIdeal, unit_ideal, variable


def intersect(I, J):
    """Pairwise-lcm intersection of monomial ideals."""
    if I.ring != J.ring:
        raise RingMismatchError("operands live in different rings")
    return MonomialIdeal(I.ring, tuple(u.lcm(v) for u in I.gens for v in J.gens))


def intersect_all(rng, ideals):
    """Intersection of a family; the empty family gives the unit ideal."""
    ideals = list(ideals)
    if not ideals:
        return unit_ideal(rng)
    return reduce(intersect, ideals)


def prime_ideal(rng, p):
    return MonomialIdeal(rng, tuple(variable(rng, i) for i in p.vars))
