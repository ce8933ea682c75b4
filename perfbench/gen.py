"""Seeded inputs and stdlib oracles for the maxdepth benchmark.

Nothing here imports the engine: the benchmark owns its generators, so a
change to the engine (or to `maxdepth.random_instances`) cannot change the
inputs, and the oracles stay independent of the code they check.

Vertices and variables are 0-based here; the CLI's edge and facet syntax is
1-based.
"""
from __future__ import annotations

import hashlib
import json
import random

CYCLE_LADDER = (8, 10, 12)  # the timed ladder, run several passes per run
BASELINE_CYCLES = (8, 10, 12, 14)  # the ROADMAP baseline table's rows
CYCLE_COMMANDS = ("analyze", "filtration", "seqcm")

# the 6-vertex real projective plane (1-based facets, CLI facet JSON)
RP2_FACETS = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 6), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
)
RP2_DEPTH = {"q": 3, "f2": 2}

FIELDS = (0, 2)  # characteristics, alternated instance by instance


def digest(obj) -> str:
    """sha256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# cycle ladder (CLI workload)

def cycle_edges_arg(n: int) -> str:
    edges = ",".join(f"{i + 1}-{(i + 1) % n + 1}" for i in range(n))
    return f"n={n}; edges={edges}"


def cycle_ops(seed: int, ladder=CYCLE_LADDER) -> list[dict]:
    """The fixed ladder of CLI ops, in an order drawn from the seed.

    The instances are fixed (every rotation of Cn is Cn itself); the seed
    only shuffles the order, which cannot matter because every op runs in a
    fresh process.
    """
    ops = []
    for n in ladder:
        for cmd in CYCLE_COMMANDS:
            ops.append({"key": f"C{n}-{cmd}", "n": n, "command": cmd, "field": "q",
                        "input": ["--edges", cycle_edges_arg(n)]})
    for fld in ("q", "f2"):
        ops.append({"key": f"RP2-{fld}-analyze", "n": 6, "command": "analyze",
                    "field": fld, "input": ["--facets-json", "perfbench/rp2.json"]})
    random.Random(f"cycles:{seed}").shuffle(ops)
    return ops


def cycle_expected(n: int) -> dict:
    """Closed forms for the n-cycle edge ideal (checked at C8-C13)."""
    return {"depth": -(-(n - 1) // 3), "mdepth": -(-n // 3), "dim": n // 2,
            "t": -(-n // 3), "sequentially_cm": "false"}


def cycle_min_primes(n: int) -> list[list[int]]:
    """Minimal vertex covers of Cn, i.e. Ass of its edge ideal."""
    edges = [(1 << i) | (1 << ((i + 1) % n)) for i in range(n)]
    return [_bits(c) for c in minimal_transversals(n, edges)]


# ---------------------------------------------------------------------------
# combinatorics on bitmasks

def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def minimal_transversals(n: int, edges: list[int]) -> list[int]:
    """Inclusion-minimal vertex sets meeting every edge, sorted by mask."""
    hitting = [m for m in range(1 << n) if all(m & e for e in edges)]
    hit = set(hitting)
    return [m for m in hitting
            if not any(m & ~(1 << v) in hit for v in _bits(m))]


def maximal_facets(facets) -> list[tuple[int, ...]]:
    masks = {_mask(f) for f in facets}
    keep = [m for m in masks if not any(m != o and m & o == m for o in masks)]
    return sorted((tuple(_bits(m)) for m in keep), key=lambda f: (len(f), f))


def minimal_nonfaces(n: int, facets) -> list[tuple[int, ...]]:
    """Generators of the Stanley-Reisner ideal of the complex."""
    fmasks = [_mask(f) for f in facets]
    is_face = [any(m & f == m for f in fmasks) for m in range(1 << n)]
    out = [m for m in range(1 << n) if not is_face[m]
           and all(is_face[m & ~(1 << v)] for v in _bits(m))]
    return sorted((tuple(_bits(m)) for m in out), key=lambda f: (len(f), f))


# ---------------------------------------------------------------------------
# random instances
#
# Each random workload takes the first instances of a fixed population, and
# the seed only orders them.  Fresh draws per seed were tried first: a few
# instances per run take most of the time (up to seconds), so the work in a
# run differed by 20-30% between seeds.  Renaming the variables of each
# ideal by the seed was tried next: it moved an instance's time by up to 30%
# either way, and a run's percentiles by as much.

def _random_facets(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    if rng.random() < 0.05:
        return [tuple(range(n))]
    return [tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            for _ in range(rng.randint(1, max(2, n)))]


def _pool_population():
    """Random complexes: mostly 3-7 vertices, every tenth on 8-9."""
    rng = random.Random("pool-population")
    k = 0
    while True:
        n = rng.randint(8, 9) if k % 10 == 0 else rng.randint(3, 7)
        yield n, _random_facets(rng, n)
        k += 1


def pool_instances(seed: int, count: int) -> list[dict]:
    """The first `count` squarefree instances S/I_Delta of the population, in
    an order drawn from the seed.  The field alternates, and so do the large
    instances' fields."""
    insts = []
    for k, (n, facets) in zip(range(count), _pool_population()):
        facets = maximal_facets(facets)
        gens = [[1 if i in g else 0 for i in range(n)] for g in minimal_nonfaces(n, facets)]
        insts.append({"id": k, "kind": "pool", "n": n, "field": FIELDS[(k + k // 10) % 2],
                      "gens": gens, "facets": [list(f) for f in facets]})
    random.Random(f"pool:{seed}").shuffle(insts)
    return insts


POLARIZED_VERTICES = (8, 10)


def _minimalize(gens: list[list[int]]) -> list[list[int]]:
    uniq = sorted({tuple(g) for g in gens}, key=lambda g: (sum(g), g))
    kept: list[tuple[int, ...]] = []
    for g in uniq:
        if not any(all(a <= b for a, b in zip(h, g)) for h in kept):
            kept.append(g)
    return [list(g) for g in kept]


def polarized_vertex_count(gens: list[list[int]]) -> int:
    return sum(max(1, max(g[i] for g in gens)) for i in range(len(gens[0])))


def _polarized_population():
    """Generator lists: 3-6 variables, 2-5 drawn generators (minimalized),
    exponents at most 3, 8-10 vertices after polarization."""
    rng = random.Random("polarized-population")
    lo, hi = POLARIZED_VERTICES
    while True:
        n = rng.randint(3, 6)
        drawn = []
        for _ in range(rng.randint(2, 5)):
            exps = [rng.randint(1, 3) if rng.random() < 0.5 else 0 for _ in range(n)]
            if any(exps):
                drawn.append(exps)
        if drawn and lo <= polarized_vertex_count(gens := _minimalize(drawn)) <= hi:
            yield gens


def polarized_instances(seed: int, count: int) -> list[dict]:
    """The first `count` non-squarefree instances of the population, in an
    order drawn from the seed; the field alternates."""
    insts = [{"id": k, "kind": "polarized", "n": len(gens[0]), "field": FIELDS[k % 2],
              "gens": gens}
             for k, gens in zip(range(count), _polarized_population())]
    random.Random(f"polarized:{seed}").shuffle(insts)
    return insts


def polarized_ass(gens: list[list[int]]) -> list[list[int]]:
    """Ass(S/I): depolarized facet complements of Delta(pol I).

    The facet complements of Delta(pol I) are the minimal primes of pol I,
    its minimal vertex covers; x_{i,j} -> x_i maps them onto Ass(S/I).
    """
    n = len(gens[0])
    owner = []
    start = []
    for i in range(n):
        start.append(len(owner))
        owner.extend([i] * max(1, max(g[i] for g in gens)))
    edges = [_mask(start[i] + j for i, e in enumerate(g) for j in range(e)) for g in gens]
    primes = {tuple(sorted({owner[v] for v in _bits(c)}))
              for c in minimal_transversals(len(owner), edges)}
    return sorted(list(p) for p in primes)


def ass_of_facets(n: int, facets) -> list[list[int]]:
    """Ass of a Stanley-Reisner ring: the complements of the facets."""
    return sorted(sorted(set(range(n)) - set(f)) for f in facets)


def instances(kind: str, seed: int, count: int) -> list[dict]:
    return (pool_instances if kind == "pool" else polarized_instances)(seed, count)

