"""Stanley-Reisner correspondence and simplicial-complex combinatorics.

Complexes are facet lists over ambient vertices 0..n-1.  The complex {()} is
the minimal one (the void complex is excluded), so the homology scan yields
depth 0 for S/m without special cases.
"""
from __future__ import annotations

import json
import re
from functools import reduce
from operator import and_
from typing import NamedTuple

from .errors import (
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
    QQ,
    RingDescriptor,
    check_vertex_cap,
    irreducible_covers,
    json_int,
    ring,
)


class SimplicialComplex(NamedTuple(
    "SimplicialComplex", [("n", int), ("facets", tuple[tuple[int, ...], ...])]
)):
    __slots__ = ()

    def __new__(cls, n: int, facets: tuple[tuple[int, ...], ...]):
        if n < 0:
            raise MalformedInputError("vertex count must be non-negative")
        masks = set()
        for f in map(frozenset, facets):
            if not all(0 <= v < n for v in f):
                raise MalformedInputError("facet vertex out of range")
            masks.add(sum(1 << v for v in f))
        # largest first: a facet can only lie strictly inside a larger one
        maximal: list[int] = []
        for m in sorted(masks, key=int.bit_count, reverse=True):
            if not any(m & k == m for k in maximal):
                maximal.append(m)
        return super().__new__(cls, n, tuple(face_tuples(maximal)) or ((),))

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    @property
    def masks(self) -> list[int]:
        """The facets as bitmasks, vertex v at bit v."""
        return [sum(1 << v for v in f) for f in self.facets]


def face_meets(masks: list[int]) -> dict[int, int]:
    """Every face of the complex with these facet masks, as a mask, mapped
    to the intersection of the facets that hold it; the empty face is 0.
    The submasks of each facet are walked once."""
    meets: dict[int, int] = {}
    get = meets.get
    for m in masks:
        sub = m
        while sub:
            meets[sub] = get(sub, m) & m
            sub = (sub - 1) & m
        meets[0] = get(0, m) & m
    return meets


def face_key(f: int) -> tuple[int, tuple[int, ...]]:
    """(size, vertex tuple) of a face mask: its place by size, then lexicographic."""
    s = []
    while f:
        s.append((f & -f).bit_length() - 1)
        f &= f - 1
    return (len(s), tuple(s))


def face_tuples(faces) -> list[tuple[int, ...]]:
    """Face masks as vertex tuples, by size, then lexicographic."""
    return [s for _, s in sorted(map(face_key, faces))]


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
    check_vertex_cap(n)
    # `_make` skips the maximality filter: the complements of the minimal
    # covers form an antichain
    facets = face_tuples(((1 << n) - 1) ^ sum(1 << v for v, _ in c) for c in irreducible_covers(I))
    return SimplicialComplex._make((n, tuple(facets)))


def to_ideal(cx: SimplicialComplex, rng: RingDescriptor | None = None) -> MonomialIdeal:
    """Squarefree ideal generated by the minimal non-faces of the complex:
    the minimal vertex covers of the Alexander dual, the ideal generated by
    the facet complements.  The ring defaults to QQ[x_1..x_n].  The vertex
    cap is checked before the search."""
    rng = ring(cx.n) if rng is None else rng
    if rng.n != cx.n:
        raise MalformedInputError("ring size does not match vertex count")
    check_vertex_cap(cx.n)
    dual = MonomialIdeal(rng, tuple(
        Monomial(tuple(0 if v in f else 1 for v in range(cx.n))) for f in cx.facets
    ))
    return MonomialIdeal(rng, tuple(
        Monomial(tuple(1 if (v, 1) in c else 0 for v in range(cx.n)))
        for c in irreducible_covers(dual)
    ))


def link(cx: SimplicialComplex, face) -> SimplicialComplex:
    """Faces disjoint from `face` whose union with it is still a face."""
    s = set(face)
    new_facets = [tuple(sorted(set(f) - s)) for f in cx.facets if s <= set(f)]
    if not new_facets:
        raise NotInSupportError(f"{tuple(sorted(s))} is not a face")
    return SimplicialComplex(cx.n, tuple(new_facets))


def pure_skeleton(cx: SimplicialComplex, i: int) -> SimplicialComplex:
    """Subcomplex generated by all i-dimensional faces."""
    if not -1 <= i <= cx.dim:
        raise PreconditionError(f"skeleton dimension {i} out of range")
    faces = [f for f in face_meets(cx.masks) if f.bit_count() == i + 1]
    return SimplicialComplex(cx.n, tuple(face_tuples(faces)))


def cone_vertices(cx: SimplicialComplex) -> tuple[int, ...]:
    """Vertices lying in every facet."""
    common = reduce(and_, cx.masks)
    return tuple(v for v in range(common.bit_length()) if common >> v & 1)


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
        n = json_int(data["vertices"])
        facets = [tuple(json_int(v) - 1 for v in f) for f in data["facets"]]
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"bad facet JSON: {exc}") from exc
    return SimplicialComplex(n, tuple(facets))

