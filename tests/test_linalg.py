import itertools
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from maxdepth.errors import MalformedInputError, PreconditionError
from maxdepth.ideals import F2, FieldSpec, QQ, polarize
from maxdepth import linalg
from maxdepth.complexes import (
    SimplicialComplex,
    cycle_edge_ideal,
    face_meets,
    from_squarefree_ideal,
    link,
)
from maxdepth.linalg import SparseMatrix, _strong_core, boundary_matrix, rank, reduced_homology
from conftest import HOLLOW_TRIANGLE, MOBIUS, OCTAHEDRON, RP2, complexes, mod3_moore_space
from faces_oracle import all_faces
from homology_oracle import FIELDS, full_homology, polarized_pool, pool, scanned_links
from rank_oracle import dense, rank_modp


def simplex_boundary(k):
    """The boundary of the k-simplex, a (k-1)-sphere on k + 1 vertices."""
    return SimplicialComplex(k + 1, tuple(itertools.combinations(range(k + 1), k)))


def side_spy(monkeypatch):
    """Clear the core memo and record, for each core `_core_homology`
    walks, its face count in `walked`, and in `duals` whether the faces it
    then lists for ranking are fewer (its Alexander dual is ranked).  A
    walk with nothing listed after it is a dual equal to {()}."""
    walked, duals = [], []
    walk, listing = linalg.face_meets, linalg._faces_by_size

    def counted_walk(masks):
        faces = walk(masks)
        walked.append(len(faces))
        return faces

    def counted_listing(faces):
        duals.append(len(faces) < walked[-1])
        return listing(faces)

    monkeypatch.setattr(linalg, "face_meets", counted_walk)
    monkeypatch.setattr(linalg, "_faces_by_size", counted_listing)
    linalg._core_homology.cache_clear()
    return walked, duals


def masks(*faces):
    return sorted(sum(1 << v for v in f) for f in faces)


def matrices(entries, max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


int_matrices = matrices(st.integers(-4, 4))
# no entry is a unit, so over QQ the first pivot, and often later ones, are not units
non_unit_matrices = matrices(st.sampled_from([0, 2, -2, 3, -3, 6, -6]), 6, 6)


NON_UNITS = [v for v in range(-9, 10) if v not in (-1, 1)]


def seeded_matrix(rows, cols, kind, seed):
    """Integer matrix with entries in -9..9 ("small") or in -9..9 without +-1
    ("no_unit"); the low-rank kinds are a rows x cols//2 times cols//2 x cols
    product of such matrices."""
    rng = random.Random(seed)
    values = NON_UNITS if kind.endswith("no_unit") else range(-9, 10)

    def block(r, c):
        return [[rng.choice(values) for _ in range(c)] for _ in range(r)]

    if not kind.startswith("low_rank"):
        return block(rows, cols)
    a, b = block(rows, cols // 2), block(cols // 2, cols)
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def sparse_from_dense(rows):
    entries = tuple(
        (i, j, v) for i, r in enumerate(rows) for j, v in enumerate(r) if v
    )
    return SparseMatrix(len(rows), len(rows[0]), entries)


class TestSparseMatrix:
    @pytest.mark.parametrize("entry", [(2, 0, 1), (0, 3, 1), (-1, 0, 1), (0, -1, 1)])
    def test_out_of_range_entry(self, entry):
        with pytest.raises(MalformedInputError, match="matrix entry out of range"):
            SparseMatrix(2, 3, ((0, 0, 1), entry))

    def test_duplicate_entry(self):
        with pytest.raises(MalformedInputError, match="duplicate matrix entry"):
            SparseMatrix(2, 3, ((0, 0, 1), (1, 2, 1), (0, 0, -1)))

    def test_entry_in_an_empty_matrix(self):
        with pytest.raises(MalformedInputError, match="matrix entry out of range"):
            SparseMatrix(0, 0, ((0, 0, 1),))
        assert SparseMatrix(0, 0, ()).entries == ()

    def test_valid_entries_kept(self):
        entries = ((1, 2, 5), (0, 0, 1), (1, 0, -1))
        assert SparseMatrix(2, 3, entries).entries == entries


class TestBoundaryMatrix:
    def test_augmentation_is_all_ones(self):
        cx = SimplicialComplex(4, ((0,), (1,), (2,), (3,)))
        m = boundary_matrix(cx, 0)
        assert (m.rows, m.cols) == (1, 4)
        assert all(v == 1 for _, _, v in m.entries)

    def test_hollow_triangle_incidence_rank(self):
        m = boundary_matrix(HOLLOW_TRIANGLE, 1)
        assert (m.rows, m.cols) == (3, 3)
        assert rank(m, QQ) == 2

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            boundary_matrix(HOLLOW_TRIANGLE, 3)

    def test_faces_in_all_faces_order(self):
        # rows and columns list the faces by size, then lexicographic
        cx = SimplicialComplex(5, ((0, 1, 2, 3), (0, 4), (1, 4)))
        for i in (1, 2):
            tops = [f for f in all_faces(cx) if len(f) == i + 1]
            bottoms = [f for f in all_faces(cx) if len(f) == i]
            want = {(bottoms.index(f[:k] + f[k + 1:]), c, (-1) ** k)
                    for c, f in enumerate(tops) for k in range(len(f))}
            assert set(boundary_matrix(cx, i).entries) == want

    @given(complexes)
    @settings(max_examples=60)
    def test_boundary_squares_to_zero(self, cx):
        for i in range(0, cx.dim + 1):
            a = dense(boundary_matrix(cx, i))
            b = dense(boundary_matrix(cx, i + 1)) if i + 1 <= cx.dim else None
            if b is None:
                continue
            prod = sympy.Matrix(a) * sympy.Matrix(b)
            assert prod == sympy.zeros(len(a), len(b[0]) if b else 0)


class TestRank:
    def test_identity(self):
        rows = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        assert rank(sparse_from_dense(rows), QQ) == 5

    def test_zero(self):
        assert rank(SparseMatrix(3, 4, ()), QQ) == 0

    @given(int_matrices)
    @settings(max_examples=100)
    def test_rational_rank_matches_sympy(self, rows):
        assert rank(sparse_from_dense(rows), QQ) == sympy.Matrix(rows).rank()

    @given(int_matrices, st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=100)
    def test_prime_field_rank_bounded_by_rational(self, rows, p):
        m = sparse_from_dense(rows)
        assert rank(m, FieldSpec(p)) <= rank(m, QQ)

    @given(non_unit_matrices)
    @settings(max_examples=100)
    def test_residual_block_matches_sympy(self, rows):
        assert rank(sparse_from_dense(rows), QQ) == sympy.Matrix(rows).rank()

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # the unit pivot (0, 0) turns column 1's 3 into 1
            ([[1, 2], [1, 3]], 2),
            # column 0 has no unit; pivoting on column 1 gives it one
            ([[2, 1], [3, 1]], 2),
            # column 0 first lacks a unit, then is left dependent on column 1
            ([[2, 1], [2, 1], [0, 0]], 1),
            ([[2, 1, 0], [3, 1, 1], [5, 2, 1]], 2),
            ([[2, 1, 0], [3, 1, 1], [4, 2, 3]], 3),
        ],
    )
    def test_units_that_appear_during_elimination(self, rows, expected):
        assert sympy.Matrix(rows).rank() == expected
        assert rank(sparse_from_dense(rows), QQ) == expected

    @pytest.mark.parametrize("kind", ["small", "no_unit", "low_rank", "low_rank_no_unit"])
    @pytest.mark.parametrize("shape", [(20, 20), (40, 37), (60, 57), (80, 77)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_seeded_large_matrices_match_sympy(self, shape, kind):
        # sizes the hypothesis strategies (at most 6 x 6) never reach: over
        # QQ, long runs of non-unit pivots whose scaled columns are divided
        # by their gcd
        rows = seeded_matrix(*shape, kind, seed=shape[0] * 1000 + shape[1])
        expected = DomainMatrix.from_list(rows, sympy.ZZ).rank()
        if kind.startswith("low_rank"):
            assert expected == shape[1] // 2
        assert rank(sparse_from_dense(rows), QQ) == expected
        assert rank(sparse_from_dense(rows), FieldSpec(3)) == rank_modp(rows, 3)

    @given(int_matrices, st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=150)
    def test_prime_field_rank_matches_dense_oracle(self, rows, p):
        assert rank(sparse_from_dense(rows), FieldSpec(p)) == rank_modp(rows, p)

    @given(complexes)
    @settings(max_examples=60)
    def test_boundary_matrices_match_oracles(self, cx):
        for i in range(0, cx.dim + 1):
            m = boundary_matrix(cx, i)
            rows = dense(m)
            assert rank(m, QQ) == sympy.Matrix(rows).rank()
            assert rank(m, F2) == rank_modp(rows, 2)

    @given(int_matrices, st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_permutation_invariance(self, rows, seed):
        rng = random.Random(seed)
        perm_rows = rows[:]
        rng.shuffle(perm_rows)
        cols = list(range(len(rows[0])))
        rng.shuffle(cols)
        shuffled = [[r[c] for c in cols] for r in perm_rows]
        assert rank(sparse_from_dense(rows), QQ) == rank(sparse_from_dense(shuffled), QQ)


class TestReducedHomology:
    def test_full_simplex_vanishes(self):
        assert not reduced_homology(SimplicialComplex(4, ((0, 1, 2, 3),)), QQ)

    def test_hollow_triangle_is_circle(self):
        # the (degree, dim) pairs themselves, not a record around them
        hv = reduced_homology(HOLLOW_TRIANGLE, QQ)
        assert hv == ((1, 1),) and type(hv) is tuple

    def test_empty_complex(self):
        assert reduced_homology(SimplicialComplex(2, ((),)), QQ) == ((-1, 1),)

    def test_projective_plane_depends_on_field(self):
        # H_1(RP2; Z) = Z/2 and H_2 = 0: only characteristic 2 sees homology
        for field in (QQ, FieldSpec(3)):
            assert reduced_homology(RP2, field) == ()
        assert reduced_homology(RP2, F2) == ((1, 1), (2, 1))

    @given(complexes, st.sampled_from([QQ, F2, FieldSpec(3)]))
    @settings(max_examples=80)
    def test_euler_characteristic(self, cx, field):
        hv = reduced_homology(cx, field)
        faces = all_faces(cx)
        chi_faces = sum((-1) ** (len(f) - 1) for f in faces)
        chi_hom = sum((-1) ** i * h for i, h in hv)
        assert chi_faces == chi_hom

    @given(complexes, st.sampled_from([QQ, F2]))
    @settings(max_examples=40)
    def test_cone_has_no_homology(self, cx, field):
        apex = cx.n
        cone = SimplicialComplex(
            cx.n + 1, tuple(f + (apex,) for f in cx.facets)
        )
        assert not reduced_homology(cone, field)


class TestFacesBySize:
    def test_every_face_once(self):
        # a second empty face would shift every homology rank
        for cx in (SimplicialComplex(2, ((),)), HOLLOW_TRIANGLE, RP2, MOBIUS, *pool(0, 200)):
            by_size = linalg._faces_by_size(face_meets(cx.masks))
            assert all(f.bit_count() == k for k, faces in enumerate(by_size) for f in faces)
            listed = [tuple(v for v in range(f.bit_length()) if f >> v & 1)
                      for faces in by_size for f in faces]
            assert sorted(listed, key=lambda f: (len(f), f)) == list(all_faces(cx)), cx


class TestGF2Rank:
    def test_xor_rank_matches_rank_at_every_size(self, pool_mixed):
        cxs = [RP2, MOBIUS, OCTAHEDRON, mod3_moore_space(), *pool(0, 200)]
        cxs += [from_squarefree_ideal(J) for J in map(polarize, pool_mixed) if J.ring.n <= 10]
        for cx in cxs:
            by_size = linalg._faces_by_size(face_meets(cx.masks))
            for s in range(2, len(by_size)):
                assert linalg._gf2_rank(by_size, s) == rank(linalg._boundary(by_size, s), F2), cx


class TestAlexanderDual:
    """Cores holding more than half the subsets of their vertices are ranked
    through their Alexander duals."""

    @pytest.mark.parametrize("k", range(2, 10))
    def test_simplex_boundary_is_read_off_the_empty_dual(self, monkeypatch, k):
        cx = simplex_boundary(k)
        walked, duals = side_spy(monkeypatch)
        for field in FIELDS:
            assert reduced_homology(cx, field) == full_homology(cx, field) == ((k - 1, 1),)
        # the dual is {()}: every walk ends with nothing listed or ranked
        assert walked and not duals

    def test_dense_complexes_match_full_elimination(self, monkeypatch):
        # polarized complexes and the links their scan visits are dense
        cxs = {lk for J in polarized_pool(2, 12) for lk in scanned_links(from_squarefree_ideal(J))}
        walked, duals = side_spy(monkeypatch)
        for cx in cxs:
            for field in FIELDS:
                assert reduced_homology(cx, field) == full_homology(cx, field), (cx, field)
        assert sum(duals) > len(duals) // 2 and len(walked) > len(duals)


class TestStrongCore:
    def test_cone_goes_to_one_vertex(self):
        cone = masks((0, 1, 3), (1, 2, 3), (0, 2, 3))
        core = _strong_core(cone)
        assert len(core) == 1 and core[0].bit_count() == 1

    def test_dominated_vertex_removed(self):
        # the pendant edge 23 hangs off the hollow triangle; 2 dominates 3
        core = _strong_core(masks((0, 1), (1, 2), (0, 2), (2, 3)))
        assert sorted(core) == masks((0, 1), (1, 2), (0, 2))

    def test_hollow_triangle_stays(self):
        triangle = masks((0, 1), (1, 2), (0, 2))
        assert sorted(_strong_core(triangle)) == triangle

    def test_two_points_stay(self):
        assert sorted(_strong_core(masks((0,), (1,)))) == masks((0,), (1,))


class TestHomologyOracle:
    """The facet-mask route against full elimination in every degree."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pool(self, seed):
        for cx in pool(seed, 100):
            for field in FIELDS:
                assert reduced_homology(cx, field) == full_homology(cx, field), (cx, field)

    # even lengths cover every residue mod 3, hence every homotopy type of
    # the cycles' independence complexes (Kozlov)
    @pytest.mark.parametrize("n", [8, 10, 12, 14, 16])
    def test_every_link_of_a_cycle(self, n):
        cx = from_squarefree_ideal(cycle_edge_ideal(n))
        for s in all_faces(cx):
            lk = link(cx, s)
            for field in FIELDS:
                assert reduced_homology(lk, field) == full_homology(lk, field), (s, field)

    def test_every_link_of_the_moebius_example(self):
        for s in all_faces(MOBIUS):
            lk = link(MOBIUS, s)
            for field in FIELDS:
                assert reduced_homology(lk, field) == full_homology(lk, field), (s, field)
        assert reduced_homology(MOBIUS, QQ) == ((0, 1), (1, 1))

    def test_three_torsion(self):
        cx = mod3_moore_space()
        got = {field: reduced_homology(cx, field) for field in FIELDS}
        assert got == {field: full_homology(cx, field) for field in FIELDS}
        assert got[QQ] == got[F2] == ()
        assert got[FieldSpec(3)] == ((1, 1), (2, 1))

    @pytest.mark.parametrize("field, falls_back", [(QQ, True), (F2, False)])
    def test_projective_plane_route(self, monkeypatch, field, falls_back):
        # GF(2) homology in degrees 1 and 2 leaves QQ undecided by the Euler
        # characteristic, so RP2 (its own core) is ranked exactly
        calls = []

        def counted(m, f):
            calls.append(f)
            return rank(m, f)

        linalg._core_homology.cache_clear()
        monkeypatch.setattr(linalg, "rank", counted)
        assert reduced_homology(RP2, field) == full_homology(RP2, field)
        assert bool(calls) == falls_back
        # the memo is keyed on the core relabelled in order, so a copy with
        # its vertices spread out is a hit and ranks nothing
        spread = SimplicialComplex(11, tuple(tuple(2 * v for v in f) for f in RP2.facets))
        calls.clear()
        hits = linalg._core_homology.cache_info().hits
        assert reduced_homology(spread, field) == full_homology(RP2, field)
        assert linalg._core_homology.cache_info().hits == hits + 1 and not calls
