"""The symplectic star solved from its defining identity: the test oracle.

The pairing on covectors is the matrix inverse of w0 on the interleaved
basis, extended to k-forms as the determinant of pairwise pairings, and
the star solves

    alpha ^ star(beta) = G(alpha, beta) * vol

degree by degree as an exact linear system.  Only the pairing and the
wedge go in, no sign table, so this construction is independent of the
index rule in ``symplab.exterior.star_blocks``.
"""

from fractions import Fraction

from symplab.exterior import ext_basis, wedge_monomials
from symplab.linalg import Matrix, Q


def covector_pairing(n: int) -> Matrix:
    """Pairing of covectors: the matrix inverse of w0 on the interleaved basis."""
    g = Matrix.zeros(2 * n, 2 * n)
    for i in range(n):
        g[2 * i, 2 * i + 1] = -1
        g[2 * i + 1, 2 * i] = 1
    return g


def pairing_k(g1: Matrix, a: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
    """Determinant extension of the covector pairing to k-forms."""
    k = len(a)
    if k != len(b):
        raise ValueError("degree mismatch")
    if k == 0:
        return Q(1)
    return g1.submatrix(a, b).det()


def solved_star_blocks(n: int) -> dict[int, Matrix]:
    """Star matrices per degree k, mapping degree k to 2n - k, solved from
    the defining identity against the Liouville volume."""
    m = 2 * n
    g1 = covector_pairing(n)
    vol = tuple(range(m))
    blocks: dict[int, Matrix] = {}
    for k in range(m + 1):
        src = ext_basis(m, k)
        dst = ext_basis(m, m - k)
        # wedge pairing matrix: alpha ^ gamma = W[alpha][gamma] * vol
        wedge = Matrix.zeros(len(src), len(dst))
        for i, a in enumerate(src):
            for j, c in enumerate(dst):
                w = wedge_monomials(a, c)
                if w is not None and w[1] == vol:
                    wedge[i, j] = w[0]
        rhs = Matrix.zeros(len(src), len(src))
        for i, a in enumerate(src):
            for j, b in enumerate(src):
                rhs[i, j] = pairing_k(g1, a, b)
        blocks[k] = wedge.solve_matrix(rhs)
    return blocks
