"""Acceptance gate: five criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every criterion is also a hard assertion.
"""
import json
import random
import time

import sympy

from maxdepth.cli import main
from maxdepth.ideals import F2, PrimeSupport, QQ, associated_primes, ring
from maxdepth.complexes import cycle_edge_ideal, to_ideal
from maxdepth.linalg import boundary_matrix, reduced_homology
from maxdepth.invariants import profile
from maxdepth.filtration import dimension_filtration, is_sequentially_cm, quotient_depth_intervals
from maxdepth.random_instances import random_complex
from maxdepth.regress import C8_PRIMES, c8_ideal, two_planes_ideal

import betti_oracle
from conftest import RP2
from faces_oracle import all_faces
from intersect_oracle import intersect_all, prime_ideal
from rank_oracle import dense


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_c8_regression():
    start = time.monotonic()
    I = c8_ideal()
    prof = profile(I)
    f = dimension_filtration(I)
    top2 = [prime_ideal(I.ring, PrimeSupport(p)) for p in C8_PRIMES[:2]]
    iv3 = quotient_depth_intervals(f)[3].module
    ok = (
        associated_primes(I) == frozenset(PrimeSupport(p) for p in C8_PRIMES)
        and prof.dim == 4
        and prof.depth == 3
        and prof.mdepth == 3
        and prof.maximal_depth
        and not f.levels[1].nonzero
        and not f.levels[2].nonzero
        and f.levels[3].ideal == intersect_all(I.ring, top2)
        and (iv3.lo, iv3.hi) == (2, 2)
        and is_sequentially_cm(I).status == "false"
        and time.monotonic() - start < 10.0
    )
    report("1 eight-cycle regression", ok)


def test_criterion_2_two_planes_regression():
    prof = profile(two_planes_ideal())
    h1 = prof.hochster.degrees[1]
    ok = (
        prof.depth == 1
        and prof.mdepth == 2
        and not prof.maximal_depth
        and prof.generalized_cm
        and not prof.hochster.degrees[0].nonzero
        and h1.nonzero
        and h1.finite_length
        and h1.k_dim == 1
    )
    report("2 two-planes regression", ok)


def test_criterion_3_cycle_family():
    expect = {3: "true", 4: "false", 5: "true", 6: "false", 7: "false", 8: "false"}
    got = {k: is_sequentially_cm(cycle_edge_ideal(k)).status for k in expect}
    report("3 cycle family sequential-CM verdicts", got == expect)


def test_criterion_5_field_dependence():
    over_q = to_ideal(RP2, ring(6, QQ))
    over_f2 = to_ideal(RP2, ring(6, F2))
    pq, p2 = profile(over_q), profile(over_f2)
    ok = (
        pq.cohen_macaulay
        and not p2.cohen_macaulay
        and pq.depth - p2.depth == 1
        and pq.depth == 6 - betti_oracle.projdim(over_q)
        and p2.depth == 6 - betti_oracle.projdim(over_f2)
    )
    report("5 projective-plane field dependence", ok)


def test_criterion_6_exactness_and_determinism(capsys):
    rng = random.Random(7)
    ok = True
    for _ in range(60):
        cx = random_complex(rng, rng.randint(2, 6))
        faces = all_faces(cx)
        chi_faces = sum((-1) ** (len(f) - 1) for f in faces)
        for field in (QQ, F2):
            ok = ok and chi_faces == sum((-1) ** i * h for i, h in reduced_homology(cx, field))
        for i in range(cx.dim):
            a = dense(boundary_matrix(cx, i))
            b = dense(boundary_matrix(cx, i + 1))
            ok = ok and sympy.Matrix(a) * sympy.Matrix(b) == sympy.zeros(
                len(a), len(b[0])
            )

    def capture(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    argv = ["--format=json", "--samples=20", "--seed=3", "probe"]
    ok = ok and capture(argv) == capture(argv)
    argv = ["--format=json", "analyze", "--edges=n=8; edges=1-2,2-3,3-4,4-5,5-6,6-7,7-8,1-8"]
    first, second = capture(argv), capture(argv)
    ok = ok and first == second and json.loads(first[1])["depth"] == 3
    report("6 exactness and deterministic reruns", ok)
