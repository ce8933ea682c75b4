"""Exact ranks and reduced simplicial homology over the configured field.

No floating point anywhere.  `rank` is one sparse column elimination for
every field.  Among a column's eligible entries the pivot is the row held by
the fewest live columns, ties broken by the lower row index, which keeps
fill-in down.  Over GF(p) every nonzero entry is eligible.  Over the
rationals the entries equal to +-1 are, so the update needs no division;
a column with no such entry takes any nonzero pivot c and scales the
columns it updates by c, dividing each by the gcd of its entries after.
Boundary matrices have entries 0/+-1, so that case is rare.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import MalformedInputError, PreconditionError
from .ideals import FieldSpec
from .complexes import SimplicialComplex, all_faces, cone_vertices


class SparseMatrix(NamedTuple(
    "SparseMatrix", [("rows", int), ("cols", int), ("entries", tuple[tuple[int, int, int], ...])]
)):
    """entries are (row, col, value) triples."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[tuple[int, int, int], ...]):
        if entries:
            rs, cs, _ = zip(*entries)
            if min(rs) < 0 or max(rs) >= rows or min(cs) < 0 or max(cs) >= cols:
                raise MalformedInputError("matrix entry out of range")
            if len(set(zip(rs, cs))) != len(entries):
                raise MalformedInputError("duplicate matrix entry")
        return super().__new__(cls, rows, cols, entries)


class HomologyVector(NamedTuple):
    """dim_K of reduced homology per degree; degrees with zero dim are omitted."""

    dims: tuple[tuple[int, int], ...]


def _faces_by_dim(cx: SimplicialComplex) -> dict[int, list[tuple[int, ...]]]:
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in all_faces(cx):
        by_dim.setdefault(len(f) - 1, []).append(f)
    return by_dim


def boundary_matrix(cx: SimplicialComplex, i: int) -> SparseMatrix:
    """The reduced boundary map from i-faces to (i-1)-faces.

    The empty face is the sole (-1)-face, so the degree-0 map is the
    augmentation row of ones.
    """
    if not -1 <= i <= cx.dim:
        raise PreconditionError(f"boundary degree {i} out of range")
    return _boundary(_faces_by_dim(cx), i)


def _boundary(by_dim: dict[int, list[tuple[int, ...]]], i: int) -> SparseMatrix:
    top = by_dim.get(i, [])
    bottom = by_dim.get(i - 1, [])
    index = {f: r for r, f in enumerate(bottom)}
    entries = []
    for c, f in enumerate(top):
        for k in range(len(f)):
            sub = f[:k] + f[k + 1:]
            entries.append((index[sub], c, (-1) ** k))
    return SparseMatrix(len(bottom), len(top), tuple(entries))


def rank(m: SparseMatrix, field: FieldSpec) -> int:
    """Exact rank over the given field, by sparse column elimination.

    Columns are taken in index order, and each nonzero one gives a pivot
    (r, j) that is eliminated from every live column holding row r; the
    pivot column then leaves.  The pivot rows are distinct and every later
    column is zero on the earlier ones, so the pivot columns are
    independent and each column left zero lies in their span: the rank is
    the pivot count.  A live column t with entry a at the pivot c becomes
    t - (a / c) col, or over the rationals, when c is not a unit,
    (c t - a col) divided by the gcd of its entries, which stays integral.
    """
    p = field.characteristic
    cols: list[dict[int, int]] = [{} for _ in range(m.cols)]
    holders: dict[int, set[int]] = {}  # row -> live columns with an entry there
    for r, c, v in m.entries:
        if p:
            v %= p
        if v:
            cols[c][r] = v
            holders.setdefault(r, set()).add(c)
    pivots = 0
    for j, col in enumerate(cols):
        if not col:
            continue
        units = list(col) if p else [s for s, v in col.items() if v == 1 or v == -1]
        eligible = units or list(col)
        r = eligible[0] if len(eligible) == 1 else min(
            eligible, key=lambda s: (len(holders[s]), s))
        pivots += 1
        c = col[r]
        inv = pow(c, -1, p) if p else c  # a unit is its own inverse
        for s in col:
            holders[s].discard(j)
        for k in holders.pop(r):
            target = cols[k]
            a = target.pop(r)
            if units:
                a *= inv
            else:
                for s in target:
                    target[s] *= c
            for s, b in col.items():
                if s == r:
                    continue
                x = target.get(s, 0) - a * b
                if p:
                    x %= p
                if x:
                    if s not in target:
                        holders[s].add(k)
                    target[s] = x
                else:
                    del target[s]
                    holders[s].discard(k)
            if not units and target:
                g = gcd(*target.values())
                if g > 1:
                    for s in target:
                        target[s] //= g
    return pivots


# cache keyed by label-compressed facets: homology ignores the ambient
# vertex numbering
_homology_cache: dict[tuple, HomologyVector] = {}
_ZERO = HomologyVector(())


def _compressed_key(cx: SimplicialComplex, char: int) -> tuple:
    used = cx.vertices_used()
    relabel = {v: i for i, v in enumerate(used)}
    facets = tuple(sorted(tuple(relabel[v] for v in f) for f in cx.facets))
    return (facets, char)


def reduced_homology(cx: SimplicialComplex, field: FieldSpec) -> HomologyVector:
    """dim_K of reduced homology in every degree -1..dim."""
    if cx.facets == ((),):
        return HomologyVector(((-1, 1),))
    if cone_vertices(cx):
        return _ZERO
    key = _compressed_key(cx, field.characteristic)
    cached = _homology_cache.get(key)
    if cached is not None:
        return cached
    by_dim = _faces_by_dim(cx)
    d = cx.dim
    ranks = {i: rank(_boundary(by_dim, i), field) for i in range(0, d + 1)}
    ranks[-1] = 0
    ranks[d + 1] = 0
    dims = []
    for i in range(-1, d + 1):
        h = len(by_dim.get(i, [])) - ranks[i] - ranks[i + 1]
        if h:
            dims.append((i, h))
    out = HomologyVector(tuple(dims))
    _homology_cache[key] = out
    return out
