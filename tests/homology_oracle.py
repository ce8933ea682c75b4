"""Reduced homology by full elimination: the independent oracle for the
facet-mask route of `maxdepth.linalg.reduced_homology`.

This was the engine's own route before the strong collapse and the GF(2)
ranks: every face listed by dimension, one validated boundary matrix per
degree, each ranked by `rank` over the given field.

Run as a script, it compares both routes on the named complexes of
tests/conftest.py (RP2, the mod-3 Moore space, the Moebius band plus a
vertex and the octahedron) over QQ, GF(2), GF(3), GF(5) and GF(7), and on
a seeded pool of random complexes over the first four.  On the
polarizations of a seeded pool of non-squarefree ideals on 2-6 variables
with exponents up to 3 (at most 12 polarized vertices), over those four
fields, it compares both routes again on each complex and on the link of
each face the scan visits (dense complexes, most of them ranked through
their Alexander duals), and the face scan that computes one link per orbit
of interchangeable vertices with the plain scan.  It prints the time of
each part and exits 1 on any mismatch:

    PYTHONPATH=src python tests/homology_oracle.py --samples 2000 --ideals 400 --seed 1
"""
import argparse
import random
import sys
from time import perf_counter

from maxdepth.complexes import (
    SimplicialComplex, face_meets, face_tuples, from_squarefree_ideal, link,
)
from maxdepth.ideals import F2, FieldSpec, QQ, polarize
from maxdepth.invariants import complex_table
from maxdepth.linalg import SparseMatrix, rank, reduced_homology
from maxdepth.random_instances import random_complex

from conftest import MOBIUS, OCTAHEDRON, RP2, mod3_moore_space, random_monomial_ideal
from faces_oracle import all_faces
from reisner_oracle import twin_classes

FIELDS = (QQ, F2, FieldSpec(3), FieldSpec(5))


def faces_by_dim(cx):
    by_dim = {}
    for f in all_faces(cx):
        by_dim.setdefault(len(f) - 1, []).append(f)
    return by_dim


def boundary(by_dim, i):
    """The reduced boundary map from i-faces to (i-1)-faces."""
    top = by_dim.get(i, [])
    bottom = by_dim.get(i - 1, [])
    index = {f: r for r, f in enumerate(bottom)}
    entries = []
    for c, f in enumerate(top):
        for k in range(len(f)):
            entries.append((index[f[:k] + f[k + 1:]], c, (-1) ** k))
    return SparseMatrix(len(bottom), len(top), tuple(entries))


def full_homology(cx, field):
    """(degree, dim) of each nonzero reduced homology group, degrees -1..dim."""
    by_dim = faces_by_dim(cx)
    d = cx.dim
    ranks = {i: rank(boundary(by_dim, i), field) for i in range(0, d + 1)}
    ranks[-1] = ranks[d + 1] = 0
    dims = []
    for i in range(-1, d + 1):
        h = len(by_dim.get(i, [])) - ranks[i] - ranks[i + 1]
        if h:
            dims.append((i, h))
    return tuple(dims)


def compare(cxs, fields):
    """The number of (complex, field) pairs on which the two routes differ,
    each printed."""
    mismatches = 0
    for cx in cxs:
        for field in fields:
            got = reduced_homology(cx, field)
            want = full_homology(cx, field)
            if got != want:
                mismatches += 1
                print(f"mismatch over {field}: {cx.facets} gave {got}, expected {want}")
    return mismatches


def pool(seed, samples):
    """Seeded random complexes on 3-9 vertices."""
    rng = random.Random(seed)
    return [random_complex(rng, rng.randint(3, 9)) for _ in range(samples)]


def polarized_pool(seed, samples):
    """Polarizations of seeded non-squarefree ideals on 2-6 variables, with
    up to 5 generators and exponents up to 3, on at most 12 vertices."""
    rng = random.Random(seed)
    pols = []
    while len(pols) < samples:
        I = random_monomial_ideal(rng, rng.randint(2, 6), max_gens=5, max_exp=3)
        if not I.is_squarefree and (J := polarize(I)).ring.n <= 12:
            pols.append(J)
    return pols


def scanned_links(cx):
    """The complex and the link of every nonempty face equal to its meet,
    the faces the scan of `complex_table` visits, each on its own vertices
    relabelled in order."""
    faces = face_tuples(f for f, meet in face_meets(cx.masks).items() if f == meet)
    links = []
    for lk in [cx] + [link(cx, s) for s in faces if s]:
        used = sorted({v for f in lk.facets for v in f})
        label = {v: k for k, v in enumerate(used)}
        links.append(SimplicialComplex(len(used), tuple(tuple(map(label.get, f))
                                                        for f in lk.facets)))
    return links


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--ideals", type=int, default=400)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    start = t0 = perf_counter()
    named, fields = (RP2, mod3_moore_space(), MOBIUS, OCTAHEDRON), (*FIELDS, FieldSpec(7))
    named_mismatches = compare(named, fields)
    print(f"{len(named)} named complexes x {len(fields)} fields, {named_mismatches} mismatches, "
          f"{perf_counter() - t0:.1f} s")
    t0 = perf_counter()
    mismatches = compare(pool(args.seed, args.samples), FIELDS)
    print(f"{args.samples} complexes x {len(FIELDS)} fields, {mismatches} mismatches, "
          f"{perf_counter() - t0:.1f} s")
    t0 = perf_counter()
    pols = polarized_pool(args.seed, args.ideals)
    dense = {cx for J in pols for cx in scanned_links(from_squarefree_ideal(J))}
    dense_mismatches = compare(dense, FIELDS)
    print(f"{args.ideals} polarizations and their scanned links, {len(dense)} distinct "
          f"complexes x "
          f"{len(FIELDS)} fields, {dense_mismatches} mismatches, {perf_counter() - t0:.1f} s")
    t0 = perf_counter()
    orbit_mismatches = 0
    for J in pols:
        cx, twins = from_squarefree_ideal(J), twin_classes(J)
        for field in FIELDS:
            if complex_table(cx, field, twins) != complex_table(cx, field):
                orbit_mismatches += 1
                print(f"orbit scan mismatch over {field}: {J.format()} with twins {twins}")
    print(f"{args.ideals} polarizations x {len(FIELDS)} fields, orbit scan against plain "
          f"scan, {orbit_mismatches} mismatches, {perf_counter() - t0:.1f} s")
    print(f"total {perf_counter() - start:.1f} s")
    return 1 if named_mismatches or mismatches or dense_mismatches or orbit_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
