"""Ass(S/I) by colon search: the independent oracle for the cover route.

A monomial prime p is associated to S/I exactly when p = (I : u) for some
monomial u, and u can be taken below the lcm of the generators, so the
search runs over that exponent box.
"""
import itertools

from maxdepth.errors import RingMismatchError
from maxdepth.ideals import Monomial, MonomialIdeal, PrimeSupport


def colon(I, u):
    """(I : u) for a monomial u: each generator g becomes g / gcd(g, u)."""
    if len(u.exponents) != I.ring.n:
        raise RingMismatchError("monomial has wrong ambient length")
    return MonomialIdeal(I.ring, tuple(
        Monomial(tuple(max(a - b, 0) for a, b in zip(g.exponents, u.exponents)))
        for g in I.gens
    ))


def _as_prime(J):
    """PrimeSupport when J is a monomial prime (incl. the zero ideal), else None."""
    if J.is_unit or any(g.degree != 1 for g in J.gens):
        return None
    return PrimeSupport.of(g.support[0] for g in J.gens)


def colon_search_ass(I):
    top = I.lcm_of_gens()
    found = set()
    for exps in itertools.product(*(range(e + 1) for e in top.exponents)):
        p = _as_prime(colon(I, Monomial(exps)))
        if p is not None:
            found.add(p)
    return frozenset(found)
