"""Univariate rational polynomials for spectral bookkeeping.

Polynomials are coefficient lists, lowest degree first, with no trailing
zeros (the zero polynomial is ``[]``).  Provides characteristic
polynomials (Berkowitz's division-free algorithm over ``int``), squarefree
tests via gcd, and exact real root counting by Sturm chains.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import Matrix, Q

Poly = list[Fraction]


def poly_trim(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_deg(p: Poly) -> int:
    return len(p) - 1  # zero polynomial gets degree -1


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p: Poly) -> Poly:
    return poly_trim([c * k for k, c in enumerate(p)][1:])


def poly_monic(p: Poly) -> Poly:
    p = poly_trim(p)
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    a, b = poly_trim(a), poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Q(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    while len(r) >= len(b) and r:
        factor = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r = poly_trim(r)
    return poly_trim(q), r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def is_squarefree(p: Poly) -> bool:
    p = poly_trim(p)
    if poly_deg(p) <= 1:
        return bool(p)
    return poly_deg(poly_gcd(p, poly_derivative(p))) == 0


def squarefree_part(p: Poly) -> Poly:
    p = poly_trim(p)
    if poly_deg(p) <= 0:
        return poly_monic(p)
    g = poly_gcd(p, poly_derivative(p))
    return poly_monic(poly_divmod(p, g)[0])


def charpoly(m: Matrix) -> Poly:
    """det(tI - m), coefficients low to high.

    Berkowitz's division-free algorithm over ``int``: m is scaled by the
    lcm d of its denominators, and the coefficient of t^(n-k) of the
    integer matrix's polynomial is divided by d^k.  Bordering the leading
    r x r block by row and column r multiplies its coefficient vector by
    the Toeplitz matrix of 1, -a_rr, -R C, -R A C, ..., -R A^(r-1) C, where
    A is the block, R the row and C the column.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    d, rows = m.integer_rows()
    coeffs = [1]  # t^r coefficient first, for the leading r x r block
    for r, row in enumerate(rows):
        inner = [{j: v for j, v in rows[i].items() if j < r} for i in range(r)]
        border = {j: v for j, v in row.items() if j < r}
        toeplitz = [1, -row.get(r, 0)]
        col = [rows[i].get(r, 0) for i in range(r)]
        for _ in range(r):
            toeplitz.append(-sum(v * col[j] for j, v in border.items()))
            col = [sum(v * col[j] for j, v in a.items()) for a in inner]
        coeffs = [sum(toeplitz[k - i] * c for i, c in enumerate(coeffs[:k + 1]))
                  for k in range(r + 2)]
    return [Q(c, d ** k) for k, c in reversed(list(enumerate(coeffs)))]


def even_part(p: Poly) -> Poly:
    """P with p(t) = P(t^2); raises when p has an odd-degree term."""
    p = poly_trim(p)
    if any(c != 0 for c in p[1::2]):
        raise ValueError("polynomial is not even")
    return poly_trim(p[0::2])


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: Sequence[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [poly_trim(p), poly_derivative(p)]
    while chain[-1]:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return [q for q in chain if q]


def count_real_roots(p: Poly, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Distinct real roots of squarefree ``p`` in the open interval (lo, hi).

    ``None`` endpoints mean -infinity / +infinity.  Finite endpoints must
    not themselves be roots.
    """
    p = poly_trim(p)
    if poly_deg(p) <= 0:
        return 0
    if not is_squarefree(p):
        raise ValueError("Sturm count requires a squarefree polynomial")
    for endpoint in (lo, hi):
        if endpoint is not None and poly_eval(p, endpoint) == 0:
            raise ValueError("interval endpoint is a root")
    chain = sturm_chain(p)

    def signs_at(x: Fraction | None, at_infinity: int = 0) -> list[int]:
        if x is not None:
            return [_sign(poly_eval(q, x)) for q in chain]
        if at_infinity > 0:
            return [_sign(q[-1]) for q in chain]
        return [_sign(q[-1]) * (-1) ** poly_deg(q) for q in chain]

    v_lo = _variations(signs_at(lo, at_infinity=-1))
    v_hi = _variations(signs_at(hi, at_infinity=+1))
    return v_lo - v_hi
