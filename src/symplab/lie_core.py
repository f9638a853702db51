"""Exact-arithmetic model of the real symplectic Lie algebra sp(2n, R).

Elements are matrices X with J X = -X^t J where J = [[0, -I], [I, 0]];
equivalently block matrices [[A, B], [C, -A^t]] with B, C symmetric, which
is how membership is tested: entry by entry, with no matrix products.  The
fixed basis enumerates the A block row-major (n^2 generators), then the
upper triangle of B, then the upper triangle of C, so coordinates and all
reports are reproducible; each coordinate sits in one entry, its slot, and
fixes one mirror entry (``_mirror``), and a basis matrix is the member with
one unit coordinate, so it has at most two entries.  The context is in
closed form, over ``int``, with no matrix product: by [E_ij, E_kl] =
delta_jk E_il - delta_li E_kj the structure constants are summed from the
pairs of basis entries whose inner indices meet, read at the slots; the
Killing form of sp(2n) is (2n + 2) tr(xy), so its Gram has one nonzero per
row, the partner table (pi(k), g_k) read off the slot index.  Tests compare
all of it with the commutators and ad-traces of the basis matrices.

An element's ``Fraction`` coordinates are cleared of denominators once
(``linalg.integer_coords``); brackets and ad(x) are built over ``int`` and
divided by the common denominator only as the result is written.  A
subspace is its reduced echelon rows, a tuple of ``Fraction`` tuples, and a
centralizer is read off ad(x) by ``Matrix.kernel_rows`` in one elimination.
A ``RegularElement`` is made only by
running ``is_regular``; a regular element is cyclic, so its odd powers
(``odd_powers``, each checked to lie in the algebra) span its centralizer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .linalg import Matrix, Q, integer_coords, qf
from .polynomials import (charpoly, even_part, is_squarefree, poly_deg,
                          real_root_counts, squarefree_part)


def _mirror(r: int, c: int, n: int) -> tuple[int, int, int]:
    """The entry membership ties to entry (r, c) of a 2n x 2n matrix, and the
    sign between them: -1 in the A and D blocks (D = -A^t), +1 in B and C."""
    size = 2 * n
    return (c + n) % size, (r + n) % size, -1 if (r < n) == (c < n) else 1


def is_in_algebra(x: Matrix, n: int) -> bool:
    """Exact membership test J x = -x^t J.

    For x = [[A, B], [C, D]] the condition reads D = -A^t with B and C
    symmetric, so each nonzero entry is checked against its mirror entry:
    no matrix products.  An entry whose mirror is nonzero is reached from
    the mirror, so walking the nonzeros covers every condition; the mirror
    entries are read from the row dicts, which the shape check bounds.
    """
    if (x.rows, x.cols) != (2 * n, 2 * n):
        raise ValueError(f"expected a {2*n}x{2*n} matrix, got {x.rows}x{x.cols}")
    rows = x._nz
    for r, row in enumerate(rows):
        for c, v in row.items():
            mr, mc, sign = _mirror(r, c, n)
            if rows[mr].get(mc, 0) != sign * v:
                return False
    return True


def _slots(n: int) -> list[tuple[int, int]]:
    """The entry (row, col) that holds each basis coordinate of a member:
    the A block row-major, then the upper triangles of B and of C."""
    return ([(i, j) for i in range(n) for j in range(n)]
            + [(i, n + j) for i in range(n) for j in range(i, n)]
            + [(n + i, j) for i in range(n) for j in range(i, n)])


class AlgebraContext:
    """Basis of sp(2n, R) with its structure constants and Killing form.

    The structure constants, adjoint matrices and Killing Gram are integers
    in closed form: each basis matrix has at most two entries, its slot and
    its mirror, so a product of two is read off the entries whose inner
    indices meet, and the Killing form is (2n + 2) tr(xy).
    Immutable after construction; safe to share between threads.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        self.n = n
        self.dim = 2 * n * n + n
        self._slots = _slots(n)
        self._places = [(r, c, *_mirror(r, c, n)) for r, c in self._slots]
        slot_of = {rc: k for k, rc in enumerate(self._slots)}
        # the entries (r, m) of each basis matrix e_i by column m, and (m, c) by row m
        starts: dict[int, list[tuple[int, int, int]]] = {}
        ends: dict[int, list[tuple[int, int, int]]] = {}
        for i, (r, c, mr, mc, sign) in enumerate(self._places):
            for (a, b), v in {(r, c): 1, (mr, mc): sign}.items():
                starts.setdefault(b, []).append((i, a, v))
                ends.setdefault(a, []).append((i, b, v))
        # [e_i, e_j] at the slots, from the products e_i e_j whose inner indices meet
        comm: dict[tuple[int, int], dict[int, int]] = {}
        for m, left in starts.items():
            for j, c, w in ends[m]:
                for i, r, v in left:
                    k = slot_of.get((r, c))
                    if k is None or i == j:
                        continue
                    key, vw = ((i, j), v * w) if i < j else ((j, i), -v * w)
                    entry = comm.setdefault(key, {})
                    entry[k] = entry.get(k, 0) + vw
        # structure constants, sparse: _table[(i, j)] = {k: c} for i < j, in order
        self._table: dict[tuple[int, int], dict[int, int]] = {}
        for key in sorted(comm):
            if entry := {k: c for k, c in sorted(comm[key].items()) if c}:
                self._table[key] = entry
        # adjoint of each basis element, sparse by column: _ad[i][a] = {b: c};
        # the table is in lexicographic order, so each _ad[i] is in order of a
        self._ad: list[dict[int, dict[int, int]]] = [{} for _ in range(self.dim)]
        for (i, j), entry in self._table.items():
            self._ad[i][j] = entry
            self._ad[j][i] = {k: -c for k, c in entry.items()}
        # B(e_k, e_pi(k)) = g_k = (2n + 2) tr(e_k e_pi(k)), the one nonzero of Gram
        # row k: pi transposes an A slot and swaps the B and C slots (i, j); the
        # trace is 2, or 1 at a diagonal B or C slot, which is its own mirror
        a_end, half = n * n, n * (n + 1) // 2
        self.killing_partners: list[tuple[int, int]] = [
            (c * n + r if k < a_end else k + half if k < a_end + half else k - half,
             (2 * n + 2) * (1 if (r, c) == (mr, mc) else 2))
            for k, (r, c, mr, mc, _) in enumerate(self._places)]
        self.killing_gram = Matrix._of(self.dim, self.dim,
                                       [{p: g} for p, g in self.killing_partners])

    # -- coordinates ---------------------------------------------------
    def coords_of_matrix(self, x: Matrix) -> list[Fraction]:
        """Coordinates in the fixed basis; requires algebra membership."""
        if not is_in_algebra(x, self.n):
            raise ValueError("matrix is not in sp(2n, R)")
        return [Q(x._nz[r].get(c, 0)) for r, c in self._slots]

    def matrix_of_coords(self, coords: Sequence[Fraction]) -> Matrix:
        """The member with these coordinates: each is written at its slot and,
        as membership requires, at its mirror entry, straight into the rows."""
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        nz: list[dict] = [{} for _ in range(2 * self.n)]
        for (r, c, mr, mc, sign), x in zip(self._places, coords):
            if x:
                v = x.numerator if x.denominator == 1 else x  # stored as linalg stores it
                nz[r][c] = v
                nz[mr][mc] = sign * v
        return Matrix._of(2 * self.n, 2 * self.n, nz)

    def element(self, coords: Sequence[int | str | Fraction]) -> "AlgebraElement":
        return AlgebraElement(self, tuple(qf(c) for c in coords))

    def element_from_matrix(self, x: Matrix) -> "AlgebraElement":
        return AlgebraElement(self, tuple(self.coords_of_matrix(x)))

    # -- structure constants --------------------------------------------
    def pair_bracket(self, i: int, j: int) -> dict[int, int]:
        """Sparse integer coordinates of [e_i, e_j]."""
        if i == j:
            return {}
        if i < j:
            return self._table.get((i, j), {})
        return {k: -c for k, c in self._table.get((j, i), {}).items()}

    def _bracket(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """Integer coordinates of [x, y] for integer coordinates x, y."""
        out = [0] * self.dim
        for (i, j), entry in self._table.items():
            w = x[i] * y[j] - x[j] * y[i]
            if w:
                for k, c in entry.items():
                    out[k] += w * c
        return out

    def ad_matrix(self, x: Sequence[Fraction]) -> Matrix:
        """Matrix of ad(x) acting on algebra coordinates."""
        d, xs = integer_coords(x)
        out = [[0] * self.dim for _ in range(self.dim)]
        for i, xi in enumerate(xs):
            if not xi:
                continue
            for a, entry in self._ad[i].items():
                for b, c in entry.items():
                    out[b][a] += xi * c
        if d != 1:
            out = [[Q(v, d) if v else 0 for v in row] for row in out]
        return Matrix(out)


@dataclass(frozen=True)
class AlgebraElement:
    context: AlgebraContext
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.context.dim:
            raise ValueError("coordinate length mismatch")

    def to_matrix(self) -> Matrix:
        return self.context.matrix_of_coords(self.coords)


class RegularElement(AlgebraElement):
    """An element made only through ``is_regular``, ``dataclasses.replace`` too;
    frozen, and a dataclass, as ``AlgebraElement`` is."""

    def __post_init__(self):
        super().__post_init__()
        if not is_regular(self):
            raise ValueError("element is not regular")


def standard_basis(n: int) -> AlgebraContext:
    """Context for sp(2n, R) in the fixed block-ordered basis."""
    return AlgebraContext(n)


def is_regular(a: AlgebraElement) -> bool:
    """True iff the characteristic polynomial of a's matrix is squarefree,
    i.e. a has 2n distinct complex eigenvalues."""
    return is_squarefree(charpoly(a.to_matrix()))


def odd_powers(a: AlgebraElement) -> list[list[int]]:
    """Integer coordinates of x, x^3, ..., x^(2n-1) for x = d a, d clearing
    a's denominators; AssertionError unless each passes ``is_in_algebra``."""
    ctx = a.context
    powers = [ctx.matrix_of_coords(integer_coords(a.coords)[1])]
    square = powers[0] @ powers[0]
    while len(powers) < ctx.n:
        powers.append(powers[-1] @ square)
    if not all(is_in_algebra(x, ctx.n) for x in powers):
        raise AssertionError("an odd power of a is not in sp(2n)")
    return [[x._nz[r].get(c, 0) for r, c in ctx._slots] for x in powers]


def centralizer(a: AlgebraElement) -> tuple[tuple[Fraction, ...], ...]:
    """The reduced echelon rows of {x : [a, x] = 0}, the exact kernel of ad(a)."""
    return a.context.ad_matrix(a.coords).kernel_rows()


def is_abelian(ctx: AlgebraContext, rows: Sequence[Sequence[int | Fraction]]) -> bool:
    """True iff the rows, coordinates in ctx, commute pairwise; each row is
    scaled to integers once, which does not change whether a bracket vanishes."""
    rows = [integer_coords(r)[1] for r in rows]
    return not any(any(ctx._bracket(x, y)) for x, y in combinations(rows, 2))


def spectral_type(a: AlgebraElement) -> dict:
    """Classify the eigenvalue families of a's matrix, exactly."""
    return spectral_type_of(charpoly(a.to_matrix()), a.context.n)


def spectral_type_of(p: list[Fraction], n: int) -> dict:
    """Classify the eigenvalue families of an element of sp(2n, R) from its
    characteristic polynomial p.

    real_pairs counts {a, -a} families, imaginary_pairs counts {bi, -bi},
    complex_quadruples counts {a+bi, -a-bi, a-bi, -a+bi}; defective is the
    number of eigenvalues (with multiplicity) left over, which is 0 exactly
    for regular elements.

    The characteristic polynomial of a symplectic algebra element is even,
    p(t) = P(t^2); positive real roots of P give real pairs, negative real
    roots give imaginary pairs, and conjugate pairs of complex roots give
    quadruples.  Sturm counts on P make the whole classification exact.
    """
    big = even_part(p)  # degree n in mu = t^2
    sf = squarefree_part(big)
    if sf[0] == 0:
        sf = sf[1:]  # drop the mu = 0 root
    neg, pos = real_root_counts(sf, [None, Q(0), None])  # one Sturm chain
    quads = (poly_deg(sf) - pos - neg) // 2
    defective = 2 * n - 2 * pos - 2 * neg - 4 * quads
    if defective > 0:
        label = "parabolic/defective"
    elif neg == n:
        label = "elliptic"
    elif pos == n:
        label = "hyperbolic"
    else:
        label = "mixed"
    return {"real_pairs": pos, "imaginary_pairs": neg, "complex_quadruples": quads,
            "defective": defective, "label": label}


def random_element(ctx: AlgebraContext, rng: random.Random) -> AlgebraElement:
    """Integer coordinates uniform in [-9, 9] in the block parametrization."""
    return ctx.element([rng.randint(-9, 9) for _ in range(ctx.dim)])


def random_regular_element(ctx: AlgebraContext, rng: random.Random) -> RegularElement:
    """Redraw until regular (each draw tested once); regularity is generic."""
    while True:
        try:
            return RegularElement(ctx, random_element(ctx, rng).coords)
        except ValueError:  # not regular: draw again
            pass
