"""Exact ranks and reduced simplicial homology over the configured field.

No floating point anywhere.  Homology is computed on facet bitmasks: the
complex is strongly collapsed, and its core, or the core's Alexander dual
when that has fewer faces ({()} for the boundary of a simplex), is ranked
by XOR elimination over GF(2), which settles QQ too unless the GF(2)
homology spans two or more degrees; those complexes, and every complex
over an odd prime field, are ranked by `rank`.  Faces are the submasks of
the facets, as `complexes.face_meets` walks them.

`rank` is one sparse column elimination for every field.  Among a column's
eligible entries the pivot is the row held by the fewest live columns, ties
broken by the lower row index, which keeps fill-in down.  Over GF(p) every
nonzero entry is eligible.  Over the rationals the entries equal to +-1 are,
so the update needs no division; a column with no such entry takes any
nonzero pivot c and scales the columns it updates by c, dividing each by the
gcd of its entries after.  Boundary matrices have entries 0/+-1, so that
case is rare.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .errors import MalformedInputError, PreconditionError
from .ideals import FieldSpec
from .complexes import SimplicialComplex, face_key, face_meets


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


def _faces_by_size(faces) -> list[list[int]]:
    """The faces (masks) of a complex listed by vertex count, then by
    value; entry 0 is [0], the empty face."""
    by_size: list[list[int]] = [[] for _ in range(max(map(int.bit_count, faces)) + 1)]
    for f in sorted(faces):
        by_size[f.bit_count()].append(f)
    return by_size


def _boundary(by_size: list[list[int]], size: int) -> SparseMatrix:
    """The reduced boundary map from the faces with `size` vertices: a
    face's k-th vertex in ascending order is dropped with sign (-1)^k."""
    bottom = by_size[size - 1] if size else []
    index = {f: r for r, f in enumerate(bottom)}
    entries = []
    for c, f in enumerate(by_size[size]):
        sign, rest = 1, f
        while rest:
            low = rest & -rest
            rest ^= low
            entries.append((index[f ^ low], c, sign))
            sign = -sign
    # `_make` skips the validating constructor: distinct faces give in-range,
    # distinct entries
    return SparseMatrix._make((len(bottom), len(by_size[size]), tuple(entries)))


def boundary_matrix(cx: SimplicialComplex, i: int) -> SparseMatrix:
    """The reduced boundary map from i-faces to (i-1)-faces.

    The empty face is the sole (-1)-face, so the degree-0 map is the
    augmentation row of ones.  Rows and columns list the faces by size,
    then lexicographic.
    """
    if not -1 <= i <= cx.dim:
        raise PreconditionError(f"boundary degree {i} out of range")
    by_size = _faces_by_size(face_meets(cx.masks))
    for faces in by_size:
        faces.sort(key=face_key)
    return _boundary(by_size, i + 1)


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


def _gf2_rank(by_size: list[list[int]], size: int) -> int:
    """Rank over GF(2) of the boundary map from the faces with `size`
    vertices: each column is an int over the row indices, reduced by XOR
    against the pivot column that owns its highest bit."""
    index = {f: r for r, f in enumerate(by_size[size - 1])}
    pivots: dict[int, int] = {}
    for f in by_size[size]:
        col, rest = 0, f
        while rest:
            low = rest & -rest
            rest ^= low
            col |= 1 << index[f ^ low]
        while col:
            top = col.bit_length()
            if top not in pivots:
                pivots[top] = col
                break
            col ^= pivots[top]
    return len(pivots)


def _betti(by_size: list[list[int]], rank_of) -> tuple[tuple[int, int], ...]:
    """(degree, dim) of each nonzero reduced homology group, given the rank
    of the boundary map from each face size >= 2 as rank_of(size); the
    augmentation has rank 1."""
    ranks = [0, 1] + [rank_of(s) for s in range(2, len(by_size))] + [0]
    return tuple((s - 1, h) for s in range(len(by_size))
                 if (h := len(by_size[s]) - ranks[s] - ranks[s + 1]))


def _strong_core(masks: list[int]) -> list[int]:
    """Facet masks (an antichain) after every strong collapse: a vertex v
    is deleted when another vertex lies in every facet through v, and the
    facets that stay maximal are kept.  The core has the homotopy type of
    the complex (Barmak-Minian), so the same homology over every field; a
    single vertex left means none."""
    union = 0
    for m in masks:
        union |= m
    deleted = True
    while deleted:
        deleted = False
        rest = union
        while rest:
            v = rest & -rest
            rest ^= v
            common = union
            for m in masks:
                if m & v:
                    common &= m
            if common == v:
                continue
            # facets through v differ off v, so a cut facet f - v can only
            # lie inside a facet missing v
            keep = [m for m in masks if not m & v]
            masks = keep + [c for c in (m ^ v for m in masks if m & v)
                            if not any(c & g == c for g in keep)]
            union ^= v
            deleted = True
    return masks


def _mask_homology(masks: list[int], field: FieldSpec) -> tuple[tuple[int, int], ...]:
    """Reduced homology of the complex whose facets are these masks, read
    off its strong core with the vertices relabelled in order."""
    if masks == [0]:
        return ((-1, 1),)
    core = _strong_core(masks)
    if len(core) == 1:
        return ()
    union = 0
    for m in core:
        union |= m
    for v in reversed(range(union.bit_length())):  # squeeze out the unused bits
        if not union >> v & 1:
            low = (1 << v) - 1
            core = [m & low | m >> 1 & ~low for m in core]
    return _core_homology(tuple(sorted(core)), field)


@lru_cache(maxsize=None)
def _core_homology(core: tuple[int, ...], field: FieldSpec) -> tuple[tuple[int, int], ...]:
    """Reduced homology of a relabelled strong core on n vertices.

    A core holding more than half the subsets of its vertices is ranked
    through its Alexander dual, the complements of its non-faces, which has
    fewer faces: H~_i(core) = H~^(n-i-3)(dual) over every field.  The dual
    is {()} exactly when the core is the boundary of the (n-1)-simplex, a
    sphere of dimension n - 2.  Over GF(2) the XOR ranks are the answer.
    Over QQ they are the answer too when the GF(2) homology sits in at most
    one degree: each rational Betti number is at most the GF(2) one
    (universal coefficients) and the alternating sums agree.  Other
    complexes, and every complex over an odd prime field, are ranked by
    `rank`.
    """
    p = field.characteristic
    faces = face_meets(list(core))
    n = max(core).bit_length()
    if dual := len(faces) > 1 << n - 1:
        full = (1 << n) - 1
        faces = [full ^ g for g in range(full + 1) if g not in faces]
        if faces == [0]:
            return ((n - 2, 1),)
    by_size = _faces_by_size(faces)
    dims = None if p % 2 else _betti(by_size, lambda s: _gf2_rank(by_size, s))
    if dims is None or (p == 0 and len(dims) > 1):
        dims = _betti(by_size, lambda s: rank(_boundary(by_size, s), field))
    return tuple((n - 3 - j, h) for j, h in reversed(dims)) if dual else dims


def reduced_homology(cx: SimplicialComplex, field: FieldSpec) -> tuple[tuple[int, int], ...]:
    """(degree, dim_K) of each nonzero reduced homology group, by degree."""
    return _mask_homology(cx.masks, field)
