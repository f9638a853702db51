"""Chevalley-Eilenberg 2- and 3-forms on sp(2n, R).

A 2-form is its antisymmetric Gram matrix on the fixed basis.  The
invariant 2-form attached to an algebra element a is
omega_a(x, y) = B(a, [x, y]); its kernel is the centralizer of a.  With
the differential on 1-forms d(theta)(x, y) = -theta([x, y]), omega_a is
minus the differential of the Killing dual B(a, .); that sign is checked
by a test oracle (``tests/oracles.py``), which holds the 1-forms.

omega_a is built over ``int``: the Killing row K (d a) of the element
scaled to integers, paired with the integer structure constants, with d
divided out as each entry is written.  The potential of a form is read off
ad(a) = (Omega G^-1)^t, G^-1 being free because the Killing Gram has one
nonzero per row, so it takes no elimination, and the read-off also decides
closedness: omega is closed exactly when omega_a = omega for the a read off
it.  Each omega_a is exact, omega_a = d(-B(a, .)), so closed.  A closed
omega is d(theta) by Whitehead's second lemma (H^2 = 0 for semisimple g),
theta = B(b, .) as the Killing form is nondegenerate, so omega = omega_(-b),
on which the read-off is exact.

Neither the rank/kernel record nor the quotient form eliminates a dim x
dim matrix: for regular a, one certificate shows ker Omega = span{a, a^3,
..., a^(2n-1)}.  Each odd power lies in the algebra and, by integer
products with the Gram rows, in ker Omega; the n x dim matrix of powers
has n pivots; and the fraction-free Pfaffian of the Gram on the other 2n^2
columns (the complement: the kernel's echelon pivots are those of any
echelon basis of it) is nonzero, so rank Omega >= 2n^2.  The record also
checks Omega = -G ad(a) row by row, so the kernel is the centralizer.  A
kernel basis takes one full elimination (``Matrix.kernel_rows``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .lie_core import (AlgebraContext, AlgebraElement, RegularElement, is_abelian,
                       odd_powers, random_element)
from .linalg import Matrix, Q, integer_coords, qstr


@dataclass(frozen=True)
class AlgebraTwoForm:
    context: AlgebraContext
    gram: Matrix

    def __post_init__(self):
        if (self.gram.rows, self.gram.cols) != (self.context.dim, self.context.dim):
            raise ValueError("gram shape mismatch")
        if not self.gram.is_antisymmetric():
            raise ValueError("gram matrix is not antisymmetric")


def omega_from_element(a: AlgebraElement) -> AlgebraTwoForm:
    """omega_a with gram[i][j] = B(a, [e_i, e_j]) = sum_k [e_i, e_j]_k (K a)_k.

    Computed over int from d * a, where d clears a's denominators, and
    divided by d as the Gram is written.
    """
    ctx = a.context
    d, coords = integer_coords(a.coords)
    ka = [0] * ctx.dim  # the Killing row K (d a); K is symmetric
    for j, x in enumerate(coords):
        if x:
            for k, g in ctx.killing_gram.row_items(j):
                ka[k] += g * x
    gram = [[0] * ctx.dim for _ in range(ctx.dim)]
    for (i, j), entry in ctx._table.items():
        val = 0
        for k, c in entry.items():
            val += c * ka[k]
        gram[i][j] = val
        gram[j][i] = -val
    if d != 1:
        gram = [[Q(v, d) if v else 0 for v in row] for row in gram]
    return AlgebraTwoForm(ctx, Matrix(gram))


def _potential(omega: AlgebraTwoForm) -> AlgebraElement | None:
    """The a read off omega if omega_from_element(a) == omega, else None.

    Invariance gives omega_a(e_i, e_j) = B([a, e_i], e_j), so the Gram is
    Omega = ad(a)^t G.  The Killing Gram G has one nonzero g_m per row, at
    column pi(m), so ad(a) is read off Omega with no solve, and

        g_k a_pi(k) = B(a, e_k) = tr(ad(a) ad(e_k))
                    = sum_m sum_l c_km^l Omega_(l, pi(m)) / g_m.

    The sums run over int, on the integer rows d Omega with each term
    scaled by L / g_m for L the lcm of the g values, so each coordinate
    costs one Fraction.
    """
    ctx = omega.context
    d, rows = omega.gram.integer_rows()
    partners = ctx.killing_partners
    big = lcm(*(g for _, g in partners))
    weights = [big // g for _, g in partners]
    coords = [Q(0)] * ctx.dim
    for k, (pk, gk) in enumerate(partners):
        total = 0  # L d B(a, e_k); Omega_(l, pi(m)) = -rows[pi(m)][l] / d
        for m, entry in ctx._ad[k].items():  # [e_k, e_m] = sum_l c_km^l e_l
            row = rows[partners[m][0]]
            total -= weights[m] * sum(c * row.get(l, 0) for l, c in entry.items())
        coords[pk] = Q(total, big * d * gk)
    a = AlgebraElement(ctx, tuple(coords))
    return a if omega_from_element(a).gram == omega.gram else None


def is_closed_2form(omega: AlgebraTwoForm) -> bool:
    """d(omega) = 0: omega is omega_a for the a read off it (module docstring)."""
    return _potential(omega) is not None


def potential_element(omega: AlgebraTwoForm) -> AlgebraElement:
    """The unique a with omega = omega_from_element(a); ValueError unless
    omega is closed."""
    if (a := _potential(omega)) is None:
        raise ValueError("potential_element requires a closed 2-form")
    return a


def form_kernel(omega: AlgebraTwoForm) -> tuple[tuple[Fraction, ...], ...]:
    """The reduced echelon rows of the exact nullspace of the gram matrix."""
    return omega.gram.kernel_rows()


def form_rank(omega: AlgebraTwoForm) -> int:
    return omega.gram.rank()


def _kernel_certificate(a: AlgebraElement) -> tuple[AlgebraTwoForm, list[list[int]], dict]:
    """omega_a, the odd powers and the quotient form, once ker Omega is certified
    as their span (module docstring); ValueError unless a is regular."""
    if not isinstance(a, RegularElement):
        a = RegularElement(a.context, a.coords)
    ctx, omega, powers = a.context, omega_from_element(a), odd_powers(a)
    if any(sum([v * p[j] for j, v in row.items()]) for row in omega.gram.integer_rows()[1]
           for p in powers):
        raise AssertionError("an odd power of a is not in ker omega_a")
    pivots = Matrix(powers).pivot_columns()
    if len(pivots) != ctx.n:
        raise AssertionError("the odd powers of a are not independent")
    complement = tuple(j for j in range(ctx.dim) if j not in pivots)
    reduced = omega.gram.submatrix(complement, complement)
    if (pf := reduced.pfaffian()) == 0:
        raise AssertionError("omega_a is degenerate on the complement of the odd powers")
    return omega, powers, {"complement": complement, "reduced_gram": reduced,
                           "reduced_det": pf * pf}


def rank_kernel_record(a: AlgebraElement) -> dict:
    """Rank dim - n, kernel dimension n, and whether the kernel is abelian (the
    powers commute) and the centralizer, for omega_a of a regular a
    (ValueError otherwise).  Invariance and antisymmetry give Omega =
    -G ad(a), G invertible with one nonzero g_k per row at column pi(k), so
    ker Omega = ker ad(a); row k of Omega is checked against -g_k times row
    pi(k) of ad(a) in O(nnz), or AssertionError is raised."""
    omega, powers, _ = _kernel_certificate(a)
    ctx, ad = a.context, a.context.ad_matrix(a.coords)
    for k, (pk, gk) in enumerate(ctx.killing_partners):
        if dict(omega.gram.row_items(k)) != {j: -gk * v for j, v in ad.row_items(pk)}:
            raise AssertionError(f"omega_a != -G ad(a) in row {k}")
    return {"rank": ctx.dim - len(powers), "kernel_dim": len(powers),
            "kernel_abelian": is_abelian(ctx, powers),
            "kernel_equals_centralizer": True}  # ker Omega = ker ad(a), by the identity


def potential_roundtrips(ctx: AlgebraContext, rng: random.Random, k: int) -> bool:
    """True iff each of k random elements is recovered exactly as the
    potential of its own 2-form; stops at the first that is not."""
    return all(potential_element(omega_from_element(a)).coords == a.coords
               for a in (random_element(ctx, rng) for _ in range(k)))


def quotient_form(a: AlgebraElement) -> dict:
    """Nondegenerate restriction of omega_a to the standard basis vectors at the
    non-pivot columns of ker Omega: {"complement": their indices, "reduced_gram",
    "reduced_det": its det as Pf^2}; see ``_kernel_certificate``."""
    return _kernel_certificate(a)[2]


def ce_d2_matrix(ctx: AlgebraContext) -> Matrix:
    """Matrix of the differential from 2-forms to 3-forms on basis coordinates.

    Rows are indexed by triples i<j<k, columns by pairs p<q of the
    wedge-basis of 2-forms.
    """
    pairs = list(combinations(range(ctx.dim), 2))
    pair_index = {pq: col for col, pq in enumerate(pairs)}
    triples = list(combinations(range(ctx.dim), 3))
    m = Matrix.zeros(len(triples), len(pairs))

    def add_eval(r: int, entry: dict[int, Fraction], t: int, sign: int) -> None:
        # omega([.,.], e_t) expanded over coordinates w_{pq}
        for mm, c in entry.items():
            if mm == t:
                continue
            if mm < t:
                m[r, pair_index[(mm, t)]] += sign * c
            else:
                m[r, pair_index[(t, mm)]] -= sign * c

    for r, (i, j, k) in enumerate(triples):
        add_eval(r, ctx.pair_bracket(i, j), k, -1)
        add_eval(r, ctx.pair_bracket(i, k), j, +1)
        add_eval(r, ctx.pair_bracket(j, k), i, -1)
    return m


def closed_two_form_dimension(ctx: AlgebraContext) -> int:
    """Dimension of the space of closed 2-forms (nullspace of the d2 matrix)."""
    pairs = ctx.dim * (ctx.dim - 1) // 2
    return pairs - ce_d2_matrix(ctx).rank()


def omega_report(a: AlgebraElement) -> dict:
    """JSON-ready report {rank, kernel_dim, kernel_basis, closed, potential, ...}."""
    omega = omega_from_element(a)
    kernel = form_kernel(omega)
    potential = potential_element(omega)  # tests closedness, and raises unless closed
    return {
        "rank": a.context.dim - len(kernel),  # rank-nullity: no second elimination
        "kernel_dim": len(kernel),
        "kernel_basis": [[qstr(x) for x in row] for row in kernel],
        "closed": True,
        "potential": [qstr(x) for x in potential.coords],
        "potential_roundtrip": potential.coords == a.coords,
    }
