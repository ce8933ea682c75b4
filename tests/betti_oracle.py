"""Projective dimension of S/I from its multigraded Betti numbers over the
lcm lattice: the independent oracle for `maxdepth.invariants.projdim`,
which reads n - depth off the face scan (Auslander-Buchsbaum).

This was `invariants.projdim` before it became n - depth.
"""
from maxdepth.complexes import SimplicialComplex, face_meets, face_tuples
from maxdepth.errors import UndefinedModuleError
from maxdepth.ideals import Monomial
from maxdepth.linalg import reduced_homology


def _upper_koszul(I, b):
    """Faces s of the variable set with x^b / x_s still inside I."""
    n = I.ring.n
    sup = b.support
    faces = []
    for s in face_tuples(face_meets([sum(1 << v for v in sup)])):
        exps = list(b.exponents)
        for v in s:
            exps[v] -= 1
        if I.contains(Monomial(tuple(exps))):
            faces.append(s)
    return SimplicialComplex(n, tuple(faces))


def projdim(I):
    """Projective dimension of S/I via multigraded Betti numbers.

    beta_{i,b}(S/I) = dim H~_{i-2} of the upper-Koszul subcomplex at b, for
    b running over the lcm lattice of the generators.
    """
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal defines the zero module")
    field = I.ring.field_spec
    lattice = set()
    frontier = set(I.gens)
    while frontier:
        lattice |= frontier
        frontier = {
            a.lcm(g) for a in frontier for g in I.gens
        } - lattice
    top = 0
    for b in sorted(lattice, key=lambda m: (m.degree, m.exponents)):
        for j, _ in reduced_homology(_upper_koszul(I, b), field):
            top = max(top, j + 2)
    return top
