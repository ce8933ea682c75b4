"""Hochster tables, sequential CM witnesses and Psupp by scanning links one
face at a time: the independent oracle for the face scan in
`maxdepth.invariants` and the table readings in `maxdepth.filtration`.

These were the engine's own routes before cone links were skipped and both
answers were read off the cached Hochster tables.  `twin_classes` groups the
interchangeable vertices of a polarization for the orbit scan's tests.
"""
from maxdepth.complexes import from_squarefree_ideal, link, pure_skeleton
from maxdepth.invariants import complex_table
from maxdepth.linalg import reduced_homology

from faces_oracle import all_faces


def table_by_all_faces(cx, field):
    """Contributions (s, h) per degree 0..dim k[cx], from the homology of the
    link of every face, cones included; each face s is turned into its
    vertex mask only at the return, and each degree is sorted by mask."""
    contribs = [[] for _ in range(cx.dim + 2)]
    for s in all_faces(cx):
        for j, h in reduced_homology(link(cx, s), field):
            contribs[j + len(s) + 1].append((s, h))
    return tuple(tuple(sorted((sum(1 << v for v in s), h) for s, h in c)) for c in contribs)


def twin_classes(J):
    """Classes of two or more vertices of the squarefree ideal J that lie in
    exactly the same generators, found by comparing vertices pairwise."""
    classes = []
    for v in range(J.ring.n):
        for c in classes:
            if all(g.exponents[v] == g.exponents[c[0]] for g in J.gens):
                c.append(v)
                break
        else:
            classes.append([v])
    return tuple(tuple(c) for c in classes if len(c) > 1)


def seqcm_by_rescan(I):
    """(status, skeleton, face, degree) from Reisner's criterion on each pure
    skeleton, tested link by link; the first face with homology below its
    link's dimension is the witness."""
    field = I.ring.field_spec
    cx = from_squarefree_ideal(I)
    for i in range(cx.dim + 1):
        sk = pure_skeleton(cx, i)
        for s in all_faces(sk):
            lk = link(sk, s)
            for j, h in reduced_homology(lk, field):
                if h and j < lk.dim:
                    return ("false", i, s, j)
    return ("true", None, None, None)


def psupp_by_link_tables(I, i):
    """Faces F whose link's own table is nonzero in degree i - |F|."""
    field = I.ring.field_spec
    cx = from_squarefree_ideal(I)
    hits = []
    for face in all_faces(cx):
        j = i - len(face)
        if j < 0:
            continue
        t = complex_table(link(cx, face), field)
        if j < len(t.degrees) and t.degrees[j].nonzero:
            hits.append(face)
    return tuple(hits)
