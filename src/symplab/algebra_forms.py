"""Chevalley-Eilenberg 1-, 2- and 3-forms on sp(2n, R).

A 1-form is a covector, a 2-form is its antisymmetric Gram matrix on the
fixed basis.  The invariant 2-form attached to an algebra element a is
omega_a(x, y) = B(a, [x, y]); its kernel is the centralizer of a.  The
differential on 1-forms follows d(theta)(x, y) = -theta([x, y]), so
ce_d1 of the Killing dual of a is -omega_a: the sign between the two
constructions is fixed here once and tested, not hidden.

omega_a is built over ``int``: the Killing row K (d a) of the element
scaled to integers, paired with the integer structure constants, with d
divided out as each entry is written.  Closedness is one integer pass, and
the kernel of a form is reduced once (``Subspace.kernel_of``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .lie_core import (AlgebraContext, AlgebraElement, Subspace, centralizer,
                       integer_coords, is_abelian, is_regular, random_element)
from .linalg import Matrix, Q, qf, qstr


@dataclass(frozen=True)
class AlgebraOneForm:
    context: AlgebraContext
    covector: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.covector) != self.context.dim:
            raise ValueError("covector length mismatch")

    def __call__(self, coords: Sequence[Fraction]) -> Fraction:
        return sum((c * x for c, x in zip(self.covector, coords) if c != 0 and x != 0), Q(0))


@dataclass(frozen=True)
class AlgebraTwoForm:
    context: AlgebraContext
    gram: Matrix

    def __post_init__(self):
        if (self.gram.rows, self.gram.cols) != (self.context.dim, self.context.dim):
            raise ValueError("gram shape mismatch")
        if not self.gram.is_antisymmetric():
            raise ValueError("gram matrix is not antisymmetric")


@dataclass(frozen=True)
class QuotientForm:
    """Restriction of omega_A to a complement of its kernel."""

    context: AlgebraContext
    complement: tuple[AlgebraElement, ...]
    reduced_gram: Matrix
    reduced_det: Fraction


def one_form(ctx: AlgebraContext, covector: Sequence[int | str | Fraction]) -> AlgebraOneForm:
    return AlgebraOneForm(ctx, tuple(qf(c) for c in covector))


def killing_dual(a: AlgebraElement) -> AlgebraOneForm:
    """The 1-form B(a, .) as a covector."""
    return AlgebraOneForm(a.context, tuple(a.context.killing_gram.apply(list(a.coords))))


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


def ce_d1(theta: AlgebraOneForm) -> AlgebraTwoForm:
    """Differential of a 1-form: gram[i][j] = -theta([e_i, e_j])."""
    ctx = theta.context
    gram = Matrix.zeros(ctx.dim, ctx.dim)
    for (i, j), entry in ctx._table.items():
        val = -sum((c * theta.covector[k] for k, c in entry.items()
                    if theta.covector[k] != 0), Q(0))
        gram[i, j] = val
        gram[j, i] = -val
    return AlgebraTwoForm(ctx, gram)


def is_closed_2form(omega: AlgebraTwoForm) -> bool:
    """d(omega) = 0 where d(omega)(x,y,z) = -omega([x,y],z) + omega([x,z],y) - omega([y,z],x).

    One pass over integers: the Gram is scaled by the lcm of its
    denominators (closedness is invariant under a nonzero scale), the
    vectors omega([e_i, e_j], .) are summed from the sparse structure
    constants, and each basis triple is three dict lookups.
    """
    ctx = omega.context
    _, rows = omega.gram.integer_rows()
    empty: dict[int, int] = {}
    against = [[empty] * ctx.dim for _ in range(ctx.dim)]  # [i][j] = omega([e_i, e_j], .), i < j
    for (i, j), entry in ctx._table.items():
        acc: dict[int, int] = {}
        for m, c in entry.items():
            for t, g in rows[m].items():
                acc[t] = acc.get(t, 0) + c * g
        against[i][j] = acc
    for i, j, k in combinations(range(ctx.dim), 3):
        if against[i][k].get(j, 0) != against[i][j].get(k, 0) + against[j][k].get(i, 0):
            return False
    return True


def _potential_system(ctx: AlgebraContext) -> tuple[Matrix, list[tuple[int, int]]]:
    """Rows of the linear map a -> (B(a,[e_i,e_j]))_{i<j} on coordinates."""
    pairs = list(combinations(range(ctx.dim), 2))
    m = Matrix.zeros(len(pairs), ctx.dim)
    gram = ctx.killing_gram
    for r, (i, j) in enumerate(pairs):
        for mm, c in ctx.pair_bracket(i, j).items():
            for k, g in gram.row_items(mm):
                m[r, k] += c * g
    return m, pairs


def potential_element(omega: AlgebraTwoForm) -> AlgebraElement:
    """The unique a with omega = omega_from_element(a); requires closedness.

    The solve is exact against the Killing form, and the round trip
    omega_from_element(potential_element(omega)) == omega is re-checked
    before returning.
    """
    if not is_closed_2form(omega):
        raise ValueError("potential_element requires a closed 2-form")
    ctx = omega.context
    system, pairs = _potential_system(ctx)
    rhs = [omega.gram[i, j] for (i, j) in pairs]
    coords = system.solve(rhs)
    a = AlgebraElement(ctx, tuple(coords))
    if omega_from_element(a).gram != omega.gram:
        raise AssertionError("potential round trip failed on a closed form")
    return a


def form_kernel(omega: AlgebraTwoForm) -> Subspace:
    """Exact nullspace of the gram matrix."""
    return Subspace.kernel_of(omega.context, omega.gram)


def form_rank(omega: AlgebraTwoForm) -> int:
    return omega.gram.rank()


def rank_kernel_record(a: AlgebraElement) -> dict:
    """The rank/kernel facts of omega_a for one element: rank, kernel
    dimension, and whether the kernel is abelian and equals the centralizer."""
    kernel = form_kernel(omega_from_element(a))
    return {"rank": a.context.dim - kernel.dim,  # rank-nullity: no second elimination
            "kernel_dim": kernel.dim,
            "kernel_abelian": is_abelian(kernel),
            "kernel_equals_centralizer": kernel == centralizer(a)}


def potential_roundtrips(ctx: AlgebraContext, rng: random.Random, k: int) -> bool:
    """True iff each of k random elements is recovered exactly as the
    potential of its own 2-form; stops at the first that is not."""
    return all(potential_element(omega_from_element(a)).coords == a.coords
               for a in (random_element(ctx, rng) for _ in range(k)))


def quotient_form(a: AlgebraElement) -> QuotientForm:
    """Nondegenerate restriction of omega_a to a complement of its kernel.

    The complement is deterministic: standard basis vectors at the
    non-pivot columns of the echelonized kernel.  Requires a regular.
    """
    if not is_regular(a):
        raise ValueError("quotient_form requires a regular element")
    ctx = a.context
    omega = omega_from_element(a)
    pivots = set(form_kernel(omega).pivots)
    complement_idx = [j for j in range(ctx.dim) if j not in pivots]
    reduced = omega.gram.submatrix(complement_idx, complement_idx)
    det = reduced.det()
    return QuotientForm(ctx,
                        tuple(ctx.basis_element(j) for j in complement_idx),
                        reduced, det)


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
        "rank": a.context.dim - kernel.dim,  # rank-nullity: no second elimination
        "kernel_dim": kernel.dim,
        "kernel_basis": [[qstr(x) for x in row] for row in kernel.rows],
        "closed": True,
        "potential": [qstr(x) for x in potential.coords],
        "potential_roundtrip": potential.coords == a.coords,
    }
