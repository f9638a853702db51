"""Exterior algebra over the standard symplectic covector basis.

Covectors are interleaved, (dx1, dy1, ..., dxn, dyn), and the standard
2-form is w0 = sum_i dxi ^ dyi, so w0^j is j! times the sum of the
monomials made of j whole pairs dxi^dyi, each with a plus sign.  The
pairing on covectors is the matrix inverse of w0 (hence G(dxi, dyi) = -1)
and extends to k-forms as the determinant of pairwise pairings.  The
symplectic star is defined by

    alpha ^ star(beta) = G(alpha, beta) * vol,   vol = w0^n / n!

and, since G couples dxi only with dyi, it sends each monomial to plus or
minus one monomial: ``star_blocks`` reads the sign off the indices, and
every block is a signed permutation.  With the Liouville volume on the
right the star is an involution in every degree."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

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
    inversions = sum(1 for x in b for y in a if y > x)
    return (-1) ** inversions, tuple(sorted(a + b))


def w0_power_coords(n: int, j: int) -> list[Fraction]:
    """Coordinates of w0^j in the degree-2j exterior basis: j! on each
    monomial made of j whole pairs dxi^dyi (each of the j! orders of the
    commuting pairs adds it with a plus sign), 0 elsewhere."""
    return [Q(factorial(j)) if all(a % 2 == 0 and b == a + 1 for a, b in zip(e[::2], e[1::2]))
            else Q(0) for e in ext_basis(2 * n, 2 * j)]


def star_blocks(n: int) -> dict[int, Matrix]:
    """Exact star matrices per degree k, mapping degree k to 2n - k.

    Each block is a signed permutation.  G(alpha, beta) is nonzero only
    for alpha = sigma(beta), sigma swapping each dxi with dyi, so
    star(beta) = G(sigma beta, beta) * s * comp(sigma beta), where
    sigma beta ^ comp(sigma beta) = s * vol.  The index x in place i of
    sigma beta passes the x - i smaller indices of the complement, so s is
    the parity (-1)^(sum(sigma beta) - k(k-1)/2).  G(sigma beta, beta) is
    the determinant of a matching: one transposition per pair dxi, dyi
    that beta holds whole, and a factor G(dxi, dyi) = -1 per dyi in beta.
    """
    m = 2 * n
    blocks: dict[int, Matrix] = {}
    for k in range(m + 1):
        src = ext_basis(m, k)
        index = {mono: i for i, mono in enumerate(ext_basis(m, m - k))}
        block = Matrix.zeros(len(index), len(src))
        for j, beta in enumerate(src):
            alpha = tuple(sorted(v ^ 1 for v in beta))
            comp = tuple(v for v in range(m) if v not in alpha)
            passes = sum(alpha) - k * (k - 1) // 2
            pairs = sum(1 for v in beta if v % 2 == 0 and v + 1 in beta)
            dys = sum(v % 2 for v in beta)
            block[index[comp], j] = (-1) ** (passes + pairs + dys)
        blocks[k] = block
    return blocks
