"""Univariate rational polynomials for spectral bookkeeping.

Polynomials are coefficient lists, lowest degree first, with no trailing
zeros (the zero polynomial is ``[]``).  Provides characteristic
polynomials (Berkowitz's division-free algorithm over ``int``), squarefree
tests via gcd, and exact real root counting by Sturm chains.

Division, gcd and Sturm chains run over ``int``: a rational polynomial is
cleared of denominators once, and a pseudo-division scales the running
remainder only by positive integers, so each remainder, made primitive
(coefficients coprime), is a positive multiple of the rational one and
every Sturm sign is unchanged.  Only monic results and quotients are
written back as ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
    """p(u/v) as v * sum(c_k u^k v^(deg - k)) / v^(deg + 1), summed over ``int``
    when p is."""
    u, v = x.numerator, x.denominator
    acc, power = 0, 1
    for c in reversed(p):
        acc, power = acc * u + c * power, power * v
    return Q(acc * v, power)


def poly_derivative(p: Poly) -> Poly:
    return poly_trim([c * k for k, c in enumerate(p)][1:])


def _integral(p: Poly) -> tuple[int, list[int]]:
    """The lcm d of the denominators of p, trimmed, and d * p over ``int``."""
    p = poly_trim(p)
    d = lcm(1, *(c.denominator for c in p))
    return d, [c.numerator * (d // c.denominator) for c in p]


def _primitive(p: Sequence[int]) -> list[int]:
    """p divided by the gcd of its coefficients, a positive number."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else list(p)


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """(m, q, r) with m * a = q * b + r over ``int``, m > 0 and deg r < deg b.

    Each step scales the running remainder by |lead(b)| / g, g the gcd of
    the two leading coefficients: never by a negative number.
    """
    lead, m, q, r = b[-1], 1, [0] * max(0, len(a) - len(b) + 1), a[:]
    while len(r) >= len(b):
        g = gcd(r[-1], lead)
        s, f = abs(lead) // g, (r[-1] if lead > 0 else -r[-1]) // g
        if s != 1:
            m, q, r = m * s, [s * c for c in q], [s * c for c in r]
        shift = len(r) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r = poly_trim(r)
    return m, q, r


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    (da, a), (db, b) = _integral(a), _integral(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    m, q, r = _pseudo_divmod(a, b)  # the rational quotient is q db / (m da)
    return [Q(c * db, m * da) for c in q], [Q(c, m * da) for c in r]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd of a and b by the primitive pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[2])
    return a


def poly_gcd(a: Poly, b: Poly) -> Poly:
    g = _gcd(_integral(a)[1], _integral(b)[1])
    return [Q(c, g[-1]) for c in g]


def is_squarefree(p: Poly) -> bool:
    p = _integral(p)[1]
    if len(p) <= 2:
        return bool(p)
    return len(_gcd(p, poly_derivative(p))) == 1


def squarefree_part(p: Poly) -> Poly:
    p = _integral(p)[1]
    q = _pseudo_divmod(p, _gcd(p, poly_derivative(p)))[1] if len(p) > 1 else p
    return [Q(c, q[-1]) for c in q]


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


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Positive multiples of the Sturm chain p, p', -rem(p, p'), ..., each
    remainder made primitive; the last is a gcd of p and p'."""
    chain = [p, _primitive(poly_derivative(p))]
    while rem := _pseudo_divmod(chain[-2], chain[-1])[2]:
        chain.append(_primitive([-c for c in rem]))
    return chain


def real_root_counts(p: Poly, points: Sequence[Fraction | None]) -> list[int]:
    """Distinct real roots of squarefree ``p`` in the open interval between
    each two consecutive ``points``, all from one Sturm chain.

    ``None`` means -infinity as the first point and +infinity as any other.
    Finite points must not themselves be roots.
    """
    p = _integral(p)[1]
    if poly_deg(p) <= 0:
        return [0] * (len(points) - 1)
    chain = _sturm_chain(p)
    if poly_deg(chain[-1]) > 0:
        raise ValueError("Sturm count requires a squarefree polynomial")
    if any(x is not None and poly_eval(p, x) == 0 for x in points):
        raise ValueError("interval endpoint is a root")

    def variations(x: Fraction | None, at_infinity: int) -> int:
        if x is not None:
            return _variations([_sign(poly_eval(q, x)) for q in chain])
        return _variations([_sign(q[-1]) * at_infinity ** poly_deg(q) for q in chain])

    v = [variations(x, -1 if i == 0 else 1) for i, x in enumerate(points)]
    return [a - b for a, b in zip(v, v[1:])]


def count_real_roots(p: Poly, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Distinct real roots of squarefree ``p`` in the open interval (lo, hi).

    ``None`` endpoints mean -infinity / +infinity.  Finite endpoints must
    not themselves be roots.
    """
    return real_root_counts(p, [lo, hi])[0]
