"""Ranks over GF(p) by dense Gauss-Jordan elimination: the independent
oracle for the sparse rank kernel in `maxdepth.linalg`.

This was the engine's own prime-field route before the sparse kernel.
"""


def dense(m) -> list[list[int]]:
    """A SparseMatrix as a list of rows."""
    rows = [[0] * m.cols for _ in range(m.rows)]
    for r, c, v in m.entries:
        rows[r][c] = v
    return rows


def rank_modp(mat: list[list[int]], p: int) -> int:
    rows, cols = len(mat), len(mat[0]) if mat else 0
    mat = [[v % p for v in row] for row in mat]
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
    return r
