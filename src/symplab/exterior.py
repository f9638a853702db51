"""Exterior algebra over the standard symplectic covector basis.

Covectors are interleaved, (dx1, dy1, ..., dxn, dyn), and the standard
2-form is w0 = sum_i dxi ^ dyi, so w0^n = n! * dx1^dy1^...^dxn^dyn with a
plus sign.  The pairing on covectors is the matrix inverse of w0 (hence
G(dxi, dyi) = -1) and extends to k-forms as the determinant of pairwise
pairings.  The symplectic star solves

    alpha ^ star(beta) = G(alpha, beta) * vol,   vol = w0^n / n!

degree by degree as an exact linear system; with the Liouville volume on
the right the resulting star is an involution in every degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .linalg import Matrix, Q

Mono = tuple[int, ...]  # strictly increasing covector indices


def ext_basis(m: int, k: int) -> list[Mono]:
    """Degree-k exterior monomials over m covectors, lexicographic."""
    if k < 0 or k > m:
        return []
    return list(combinations(range(m), k))


def wedge_monomials(a: Mono, b: Mono) -> tuple[int, Mono] | None:
    """Sign and sorted merge of a ^ b, or None when an index repeats."""
    if set(a) & set(b):
        return None
    inversions = 0
    for x in b:
        inversions += sum(1 for y in a if y > x)
    merged = tuple(sorted(a + b))
    return ((-1) ** inversions, merged)


def covector_pairing(n: int) -> Matrix:
    """Pairing of covectors: the matrix inverse of w0 on the interleaved basis."""
    g = Matrix.zeros(2 * n, 2 * n)
    for i in range(n):
        g[2 * i, 2 * i + 1] = -1
        g[2 * i + 1, 2 * i] = 1
    return g


def pairing_k(g1: Matrix, a: Mono, b: Mono) -> Fraction:
    """Determinant extension of the covector pairing to k-forms."""
    k = len(a)
    if k != len(b):
        raise ValueError("degree mismatch")
    if k == 0:
        return Q(1)
    return g1.submatrix(a, b).det()


def w0_coords(n: int) -> list[Fraction]:
    """Coordinates of w0 in the degree-2 exterior basis."""
    basis = ext_basis(2 * n, 2)
    index = {m: i for i, m in enumerate(basis)}
    out = [Q(0)] * len(basis)
    for i in range(n):
        out[index[(2 * i, 2 * i + 1)]] = Q(1)
    return out


def wedge_vectors(m: int, ka: int, kb: int,
                  va: list[Fraction], vb: list[Fraction]) -> list[Fraction]:
    """Wedge product of coordinate vectors in degrees ka, kb."""
    ba, bb = ext_basis(m, ka), ext_basis(m, kb)
    bout = ext_basis(m, ka + kb)
    index = {mono: i for i, mono in enumerate(bout)}
    out = [Q(0)] * len(bout)
    for i, xa in enumerate(va):
        if xa == 0:
            continue
        for j, xb in enumerate(vb):
            if xb == 0:
                continue
            w = wedge_monomials(ba[i], bb[j])
            if w is None:
                continue
            sign, mono = w
            out[index[mono]] += sign * xa * xb
    return out


def w0_power_coords(n: int, j: int) -> list[Fraction]:
    """Coordinates of w0^j in the degree-2j exterior basis."""
    m = 2 * n
    acc = [Q(1)]
    deg = 0
    w0 = w0_coords(n)
    for _ in range(j):
        acc = wedge_vectors(m, deg, 2, acc, w0)
        deg += 2
    return acc


def star_blocks(n: int) -> dict[int, Matrix]:
    """Exact star matrices per degree k, mapping degree k to 2n - k.

    Built by solving the defining identity against the Liouville volume;
    the construction is convention-proof in the sense that only the
    covector pairing and the wedge are used, no sign table.
    """
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
