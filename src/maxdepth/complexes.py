"""Stanley-Reisner correspondence and simplicial-complex combinatorics.

Complexes are facet lists over ambient vertices 0..n-1.  The complex {()} is
the minimal one (the void complex is excluded), so the homology scan yields
depth 0 for S/m without special cases.
"""
from __future__ import annotations

import itertools
import json
import re
from typing import NamedTuple

from .errors import (
    CapExceededError,
    MalformedInputError,
    NotInSupportError,
    PreconditionError,
    SquarefreeRequiredError,
    UndefinedModuleError,
)
from .ideals import (
    FieldSpec,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    QQ,
    RingDescriptor,
    irreducible_covers,
    limits,
    ring,
)


def _facet_key(f: tuple[int, ...]):
    return (len(f), f)


class SimplicialComplex(NamedTuple(
    "SimplicialComplex", [("n", int), ("facets", tuple[tuple[int, ...], ...])]
)):
    __slots__ = ()

    def __new__(cls, n: int, facets: tuple[tuple[int, ...], ...]):
        if n < 0:
            raise MalformedInputError("vertex count must be non-negative")
        cleaned = sorted({tuple(sorted(set(f))) for f in facets}, key=_facet_key)
        if any(f and (f[0] < 0 or f[-1] >= n) for f in cleaned):
            raise MalformedInputError("facet vertex out of range")
        # largest first: a facet can only lie strictly inside a larger one, and
        # `<` on frozensets compares sizes before it tests members
        maximal: dict[frozenset[int], tuple[int, ...]] = {}
        for f in reversed(cleaned):
            s = frozenset(f)
            if not any(map(s.__lt__, maximal)):
                maximal[s] = f
        return super().__new__(cls, n, tuple(reversed(maximal.values())) or ((),))

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_face(self, face) -> bool:
        s = set(face)
        return any(s <= set(f) for f in self.facets)

    def vertices_used(self) -> tuple[int, ...]:
        return tuple(sorted({v for f in self.facets for v in f}))


def all_faces(cx: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """Every face (including the empty one), canonically sorted."""
    seen: set[tuple[int, ...]] = set()
    for f in cx.facets:
        for k in range(len(f) + 1):
            seen.update(itertools.combinations(f, k))
    return tuple(sorted(seen, key=_facet_key))


def from_squarefree_ideal(I: MonomialIdeal) -> SimplicialComplex:
    """The complex whose faces carry no generator support (Stanley-Reisner).

    Its facets are the complements of the minimal vertex covers of I, read
    off the cover search that also gives Ass; for squarefree I every cover
    is a set of pairs (i, 1).  The vertex cap is checked before the search.
    """
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal has no Stanley-Reisner complex")
    if not I.is_squarefree:
        raise SquarefreeRequiredError(
            "ideal is not squarefree; polarize before building the complex"
        )
    n = I.ring.n
    if n > limits().max_vertices:
        raise CapExceededError(f"{n} vertices exceeds cap {limits().max_vertices}")
    facets = tuple(tuple(v for v in range(n) if (v, 1) not in c) for c in irreducible_covers(I))
    return SimplicialComplex(n, facets)


def to_ideal(
    cx: SimplicialComplex,
    rng: RingDescriptor | None = None,
    field: FieldSpec = QQ,
) -> MonomialIdeal:
    """Squarefree ideal generated by the minimal non-faces of the complex:
    the minimal vertex covers of the Alexander dual, the ideal generated by
    the facet complements."""
    if rng is None:
        rng = ring(cx.n, field)
    if rng.n != cx.n:
        raise MalformedInputError("ring size does not match vertex count")
    dual = MonomialIdeal(rng, tuple(
        Monomial(tuple(0 if v in f else 1 for v in range(cx.n))) for f in cx.facets
    ))
    return MonomialIdeal(rng, tuple(
        Monomial(tuple(1 if (v, 1) in c else 0 for v in range(cx.n)))
        for c in irreducible_covers(dual)
    ))


def minimal_primes(cx: SimplicialComplex) -> frozenset[PrimeSupport]:
    """Facet complements, as monomial primes."""
    full = set(range(cx.n))
    return frozenset(PrimeSupport.of(full - set(f)) for f in cx.facets)


def link(cx: SimplicialComplex, face) -> SimplicialComplex:
    """Faces disjoint from `face` whose union with it is still a face."""
    s = set(face)
    if not cx.is_face(s):
        raise NotInSupportError(f"{tuple(sorted(s))} is not a face")
    new_facets = [
        tuple(sorted(set(f) - s)) for f in cx.facets if s <= set(f)
    ]
    return SimplicialComplex(cx.n, tuple(new_facets))


def pure_skeleton(cx: SimplicialComplex, i: int) -> SimplicialComplex:
    """Subcomplex generated by all i-dimensional faces."""
    if not -1 <= i <= cx.dim:
        raise PreconditionError(f"skeleton dimension {i} out of range")
    if i == -1:
        return SimplicialComplex(cx.n, ((),))
    faces = {
        c for f in cx.facets if len(f) >= i + 1
        for c in itertools.combinations(f, i + 1)
    }
    return SimplicialComplex(cx.n, tuple(faces))


def facet_subcomplex_min_dim(cx: SimplicialComplex, i: int) -> SimplicialComplex:
    """Subcomplex generated by facets with more than i vertices."""
    kept = tuple(f for f in cx.facets if len(f) > i)
    return SimplicialComplex(cx.n, kept if kept else ((),))


def cone_vertices(cx: SimplicialComplex) -> tuple[int, ...]:
    """Vertices lying in every facet."""
    common = set(cx.facets[0])
    for f in cx.facets[1:]:
        common &= set(f)
    return tuple(sorted(common))


# ---------------------------------------------------------------------------
# ingestion

_EDGE_LIST = re.compile(r"^\s*n\s*=\s*(\d+)\s*;\s*edges\s*=\s*(.*)$")


def parse_edge_list(text: str, field: FieldSpec = QQ) -> MonomialIdeal:
    """Edge-list text `n=8; edges=1-2,2-3,...` -> edge ideal of the graph."""
    m = _EDGE_LIST.match(text.strip())
    if not m:
        raise MalformedInputError("expected `n=<count>; edges=i-j,...`")
    n = int(m.group(1))
    if n < 1:
        raise MalformedInputError("need at least one vertex")
    rng = ring(n, field)
    body = m.group(2).strip()
    gens = []
    if body:
        for part in body.split(","):
            pieces = part.strip().split("-")
            if len(pieces) != 2:
                raise MalformedInputError(f"bad edge {part!r}")
            try:
                a, b = int(pieces[0]), int(pieces[1])
            except ValueError as exc:
                raise MalformedInputError(f"bad edge {part!r}") from exc
            if not (1 <= a <= n and 1 <= b <= n) or a == b:
                raise MalformedInputError(f"bad edge {part!r}")
            exps = [0] * n
            exps[a - 1] = 1
            exps[b - 1] = 1
            gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(rng, tuple(gens))


def cycle_edge_ideal(length: int, field: FieldSpec = QQ) -> MonomialIdeal:
    """Edge ideal of the cycle graph C_length."""
    if length < 3:
        raise MalformedInputError("cycles need length at least 3")
    edges = ",".join(f"{i + 1}-{(i + 1) % length + 1}" for i in range(length))
    return parse_edge_list(f"n={length}; edges={edges}", field)


def complex_from_json(data) -> SimplicialComplex:
    """Facet-list JSON {"vertices": n, "facets": [[..], ..]} (1-based)."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"bad JSON: {exc}") from exc
    try:
        n = int(data["vertices"])
        facets = [tuple(int(v) - 1 for v in f) for f in data["facets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad facet JSON: {exc}") from exc
    return SimplicialComplex(n, tuple(facets))

