"""Exact ranks and reduced simplicial homology over the configured field.

No floating point anywhere.  `rank` is one sparse column elimination.  Over
GF(p) any nonzero entry may be a pivot.  Over the rationals only entries
equal to +-1 are pivots, so the integer arithmetic stays exact without a
division; the columns left with no unit entry form a residual block, which
fraction-free (Bareiss) elimination finishes.  Boundary matrices have
entries 0/+-1, so the residual block is rare and small.  Among a column's
eligible entries the pivot is the row held by the fewest live columns, ties
broken by the lower row index, which keeps fill-in down.
"""
from __future__ import annotations

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

    def dense(self) -> list[list[int]]:
        m = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.entries:
            m[r][c] = v
        return m


class HomologyVector(NamedTuple):
    """dim_K of reduced homology per degree; degrees with zero dim are omitted."""

    dims: tuple[tuple[int, int], ...]

    def get(self, i: int) -> int:
        for d, v in self.dims:
            if d == i:
                return v
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.dims


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


def _rank_bareiss(mat: list[list[int]]) -> int:
    rows, cols = len(mat), len(mat[0]) if mat else 0
    r = 0
    prev = 1
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, rows):
            head = mat[i][c]
            row_i, row_r = mat[i], mat[r]
            for k in range(c, cols):
                row_i[k] = (row_i[k] * piv - head * row_r[k]) // prev
        prev = piv
        r += 1
    return r


def rank(m: SparseMatrix, field: FieldSpec) -> int:
    """Exact rank over the given field, by sparse column elimination.

    Columns are taken in index order.  A pivot (r, j) is eliminated from
    every live column holding row r, which keeps each such column in the
    span of the original ones; the pivot column then leaves.  The pivot
    rows and columns found this way form a triangular block with an
    invertible diagonal, and every other column is zero on the pivot rows,
    so the rank is the pivot count plus the rank of the residual block.
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
    residual: list[dict[int, int]] = []
    for j, col in enumerate(cols):
        if not col:
            continue
        eligible = list(col) if p else [s for s, v in col.items() if v == 1 or v == -1]
        if not eligible:
            residual.append(col)  # later pivots still update it in place
            continue
        r = eligible[0] if len(eligible) == 1 else min(
            eligible, key=lambda s: (len(holders[s]), s))
        pivots += 1
        inv = pow(col[r], -1, p) if p else col[r]  # a unit is its own inverse
        for s in col:
            holders[s].discard(j)
        for k in holders.pop(r):
            target = cols[k]
            a = target.pop(r) * inv
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
    residual = [col for col in residual if col]
    if not residual:
        return pivots
    rows = sorted({r for col in residual for r in col})
    index = {r: i for i, r in enumerate(rows)}
    dense = [[0] * len(residual) for _ in rows]
    for j, col in enumerate(residual):
        for r, v in col.items():
            dense[index[r]][j] = v
    return pivots + _rank_bareiss(dense)


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
