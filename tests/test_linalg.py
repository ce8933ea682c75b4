import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from maxdepth.errors import MalformedInputError, PreconditionError
from maxdepth.ideals import F2, FieldSpec, QQ
from maxdepth.complexes import SimplicialComplex, all_faces
from maxdepth.linalg import (
    HomologyVector,
    SparseMatrix,
    boundary_matrix,
    rank,
    reduced_homology,
)
from maxdepth.random_instances import random_complex
from rank_oracle import rank_modp

HOLLOW_TRIANGLE = SimplicialComplex(3, ((0, 1), (1, 2), (0, 2)))

# antipodal quotient of the icosahedron: 6 vertices, 10 triangles
RP2 = SimplicialComplex(
    6,
    (
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 5), (0, 4, 5),
        (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
    ),
)

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
# no entry is a unit, so over QQ every nonzero column goes to the residual block
non_unit_matrices = matrices(st.sampled_from([0, 2, -2, 3, -3, 6, -6]), 6, 6)


def sparse_from_dense(rows):
    entries = tuple(
        (i, j, v) for i, r in enumerate(rows) for j, v in enumerate(r) if v
    )
    return SparseMatrix(len(rows), len(rows[0]), entries)


complexes = st.integers(0, 10 ** 9).map(
    lambda s: random_complex(random.Random(s), random.Random(s ^ 1).randint(2, 6))
)


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

    @given(complexes)
    @settings(max_examples=60)
    def test_boundary_squares_to_zero(self, cx):
        for i in range(0, cx.dim + 1):
            a = boundary_matrix(cx, i).dense()
            b = boundary_matrix(cx, i + 1).dense() if i + 1 <= cx.dim else None
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

    @given(int_matrices, st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=150)
    def test_prime_field_rank_matches_dense_oracle(self, rows, p):
        assert rank(sparse_from_dense(rows), FieldSpec(p)) == rank_modp(rows, p)

    @given(complexes)
    @settings(max_examples=60)
    def test_boundary_matrices_match_oracles(self, cx):
        for i in range(0, cx.dim + 1):
            m = boundary_matrix(cx, i)
            dense = m.dense()
            assert rank(m, QQ) == sympy.Matrix(dense).rank()
            assert rank(m, F2) == rank_modp(dense, 2)

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
        assert reduced_homology(SimplicialComplex(4, ((0, 1, 2, 3),)), QQ).is_zero

    def test_hollow_triangle_is_circle(self):
        hv = reduced_homology(HOLLOW_TRIANGLE, QQ)
        assert hv.dims == ((1, 1),)

    def test_empty_complex(self):
        hv = reduced_homology(SimplicialComplex(2, ((),)), QQ)
        assert hv.dims == ((-1, 1),)

    def test_projective_plane_depends_on_field(self):
        over_q = reduced_homology(RP2, QQ)
        over_f2 = reduced_homology(RP2, F2)
        assert over_q.get(1) == 0 and over_q.get(2) == 0
        assert over_f2.get(1) == 1 and over_f2.get(2) == 1

    @given(complexes, st.sampled_from([QQ, F2, FieldSpec(3)]))
    @settings(max_examples=80)
    def test_euler_characteristic(self, cx, field):
        hv = reduced_homology(cx, field)
        faces = all_faces(cx)
        chi_faces = sum((-1) ** (len(f) - 1) for f in faces)
        chi_hom = sum((-1) ** i * h for i, h in hv.dims)
        assert chi_faces == chi_hom

    @given(complexes, st.sampled_from([QQ, F2]))
    @settings(max_examples=40)
    def test_cone_has_no_homology(self, cx, field):
        apex = cx.n
        cone = SimplicialComplex(
            cx.n + 1, tuple(f + (apex,) for f in cx.facets)
        )
        assert reduced_homology(cone, field).is_zero
