"""Exact-arithmetic model of the real symplectic Lie algebra sp(2n, R).

Elements are matrices X with J X = -X^t J where J = [[0, -I], [I, 0]];
equivalently block matrices [[A, B], [C, -A^t]] with B, C symmetric, which
is how membership is tested: entry by entry, with no matrix products.  The
fixed basis enumerates the A block row-major (n^2 generators), then the
upper triangle of B, then the upper triangle of C, so coordinates and all
reports are reproducible; each coordinate sits in one entry, its slot, and
fixes one mirror entry (``_mirror``), and a basis matrix is the member with
one unit coordinate.  Structure constants are integers read at these
slots from the commutators of basis matrices, each summed from the two
matrices' own nonzero entries (at most two each, grouped by row) with no
matrix product.  The Killing Gram tr(ad_i ad_j) is summed over one index of
the adjoint entries keyed by (column, row), so only nonzero products are
visited.  All are computed over ``int`` once per context.

An element's ``Fraction`` coordinates are cleared of denominators once
(``integer_coords``); brackets and ad(x) are built over ``int`` and divided
by the common denominator only as the result is written.  A ``Subspace``
is a reduced-echelon row basis, made from a kernel in one elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .linalg import Matrix, Q, qf, reduced_basis, vec_is_zero
from .polynomials import (charpoly, count_real_roots, even_part,
                          is_squarefree, poly_deg, squarefree_part)


def j_matrix(n: int) -> Matrix:
    m = Matrix.zeros(2 * n, 2 * n)
    for i in range(n):
        m[i, n + i] = -1
        m[n + i, i] = 1
    return m


def integer_coords(coords: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm d of the coordinates' denominators, and d * coords as ints."""
    d = lcm(1, *(c.denominator for c in coords))
    return d, [c.numerator * (d // c.denominator) for c in coords]


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
    the mirror, so walking the nonzeros covers every condition.
    """
    if (x.rows, x.cols) != (2 * n, 2 * n):
        raise ValueError(f"expected a {2*n}x{2*n} matrix, got {x.rows}x{x.cols}")
    for r in range(2 * n):
        for c, v in x.row_items(r):
            mr, mc, sign = _mirror(r, c, n)
            if x[mr, mc] != sign * v:
                return False
    return True


def is_in_group(x: Matrix, n: int) -> bool:
    """Exact membership test x^t J x = J."""
    if (x.rows, x.cols) != (2 * n, 2 * n):
        raise ValueError(f"expected a {2*n}x{2*n} matrix, got {x.rows}x{x.cols}")
    j = j_matrix(n)
    return (x.transpose() @ j @ x) == j


def _slots(n: int) -> list[tuple[int, int]]:
    """The entry (row, col) that holds each basis coordinate of a member:
    the A block row-major, then the upper triangles of B and of C."""
    return ([(i, j) for i in range(n) for j in range(n)]
            + [(i, n + j) for i in range(n) for j in range(i, n)]
            + [(n + i, j) for i in range(n) for j in range(i, n)])


class AlgebraContext:
    """Basis of sp(2n, R) with precomputed structure constants and Killing form.

    The structure constants, adjoint matrices and Killing Gram are integers:
    each commutator of two basis matrices, checked entrywise against its
    mirror entries, has its coordinates read off at the slots.
    Immutable after construction; safe to share between threads.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        self.n = n
        self.dim = 2 * n * n + n
        self._slots = _slots(n)
        if len(self._slots) != self.dim:
            raise AssertionError("basis enumeration does not match dimension")
        self.basis = [self.matrix_of_coords([int(k == t) for t in range(self.dim)])
                      for k in range(self.dim)]
        # the block (A, B or C) of each slot, and its 1-based place in the block
        self.basis_labels = [f"{'ABC'[2 * (r >= n) + (c >= n)]}[{r % n + 1},{c % n + 1}]"
                             for r, c in self._slots]
        for m in self.basis:
            if not is_in_algebra(m, n):
                raise AssertionError("basis matrix fails algebra membership")
        # each basis matrix's nonzeros by row, and as (r, c, v) triples
        by_row = [{r: list(m.row_items(r)) for r in range(2 * n) if m.row_items(r)}
                  for m in self.basis]
        entries = [[(r, c, v) for r, row in rows.items() for c, v in row] for rows in by_row]
        # structure constants, sparse: _table[(i, j)] = {k: c} for i < j
        slot_of = {rc: k for k, rc in enumerate(self._slots)}
        self._table: dict[tuple[int, int], dict[int, int]] = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                comm: dict[tuple[int, int], int] = {}
                for left, right, sign in ((i, j, 1), (j, i, -1)):
                    for r, k, v in entries[left]:
                        for c, w in by_row[right].get(k, ()):
                            comm[r, c] = comm.get((r, c), 0) + sign * v * w
                comm = {rc: v for rc, v in comm.items() if v}
                for (r, c), v in comm.items():
                    mr, mc, sign = _mirror(r, c, n)
                    if comm.get((mr, mc), 0) != sign * v:
                        raise AssertionError("commutator of basis matrices fails algebra membership")
                entry = sorted((slot_of[rc], v) for rc, v in comm.items() if rc in slot_of)
                if entry:
                    self._table[(i, j)] = dict(entry)
        # adjoint of each basis element, sparse by column: _ad[i][a] = {b: c};
        # the table is in lexicographic order, so each _ad[i] is in order of a
        self._ad: list[dict[int, dict[int, int]]] = [{} for _ in range(self.dim)]
        for (i, j), entry in self._table.items():
            self._ad[i][j] = entry
            self._ad[j][i] = {k: -c for k, c in entry.items()}
        # tr(ad_i ad_j) sums ad_i[b][a] * ad_j[a][b]: adjoint entries keyed by
        # (column a, row b), each key paired with key (b, a)
        index: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, adi in enumerate(self._ad):
            for a, column in adi.items():
                for b, c in column.items():
                    index.setdefault((a, b), []).append((i, c))
        gram = [[0] * self.dim for _ in range(self.dim)]
        for (a, b), here in index.items():
            for i, c in here:
                row = gram[i]
                for j, d in index.get((b, a), ()):
                    row[j] += c * d
        self.killing_gram = Matrix(gram)

    # -- coordinates ---------------------------------------------------
    def coords_of_matrix(self, x: Matrix) -> list[Fraction]:
        """Coordinates in the fixed basis; requires algebra membership."""
        if not is_in_algebra(x, self.n):
            raise ValueError("matrix is not in sp(2n, R)")
        return [Q(x[r, c]) for r, c in self._slots]

    def matrix_of_coords(self, coords: Sequence[Fraction]) -> Matrix:
        """The member with these coordinates: each is written at its slot and,
        as membership requires, at its mirror entry."""
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        out = Matrix.zeros(2 * self.n, 2 * self.n)
        for (r, c), x in zip(self._slots, coords):
            if x:
                out[r, c] = x
                mr, mc, sign = _mirror(r, c, self.n)
                out[mr, mc] = sign * x
        return out

    def element(self, coords: Sequence[int | str | Fraction]) -> "AlgebraElement":
        return AlgebraElement(self, tuple(qf(c) for c in coords))

    def element_from_matrix(self, x: Matrix) -> "AlgebraElement":
        return AlgebraElement(self, tuple(self.coords_of_matrix(x)))

    def basis_element(self, k: int) -> "AlgebraElement":
        coords = [Q(0)] * self.dim
        coords[k] = Q(1)
        return AlgebraElement(self, tuple(coords))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple([Q(0)] * self.dim))

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

    def bracket_coords(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
        dx, xs = integer_coords(x)
        dy, ys = integer_coords(y)
        d = dx * dy
        return [Q(v, d) for v in self._bracket(xs, ys)]

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

    def is_zero(self) -> bool:
        return vec_is_zero(self.coords)

    def scale(self, c) -> "AlgebraElement":
        c = qf(c)
        return AlgebraElement(self.context, tuple(c * x for x in self.coords))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_context(self, other)
        return AlgebraElement(self.context,
                              tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)


class Subspace:
    """Subspace of the algebra, stored as a reduced-echelon row basis and the
    leading (pivot) index of each row."""

    def __init__(self, context: AlgebraContext, rows: Sequence[Sequence[Fraction]] | Matrix):
        """The span of rows: coordinate vectors, or the rows of a matrix."""
        if not isinstance(rows, Matrix):
            rows = Matrix([list(r) for r in rows])
        dense, pivots = reduced_basis(rows)
        self.context = context
        self.rows = tuple(map(tuple, dense))
        self.pivots = tuple(pivots)

    @classmethod
    def kernel_of(cls, context: AlgebraContext, m: Matrix) -> "Subspace":
        """The kernel of m acting on coordinates: the sparse kernel basis,
        transposed, is reduced once."""
        return cls(context, m.kernel_matrix().transpose())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, coords: Sequence[Fraction]) -> bool:
        v = list(coords)
        for row, pivot in zip(self.rows, self.pivots):
            if v[pivot] != 0:
                f = v[pivot]
                v = [a - f * b for a, b in zip(v, row)]
        return vec_is_zero(v)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace) and self.context is other.context
                and self.rows == other.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim})"


def _require_same_context(a, b) -> None:
    if a.context is not b.context:
        raise ValueError("elements belong to different algebra contexts")


def standard_basis(n: int) -> AlgebraContext:
    """Context for sp(2n, R) in the fixed block-ordered basis."""
    return AlgebraContext(n)


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    _require_same_context(x, y)
    return AlgebraElement(x.context, tuple(x.context.bracket_coords(x.coords, y.coords)))


def killing_form(x: AlgebraElement, y: AlgebraElement) -> Fraction:
    """trace(ad x . ad y), computed from the structure constants."""
    _require_same_context(x, y)
    ctx = x.context
    ax = ctx.ad_matrix(x.coords)
    ay = ctx.ad_matrix(y.coords)
    return sum((a * ay[k, i] for i in range(ctx.dim) for k, a in ax.row_items(i)), Q(0))


def killing_trace_constant(ctx: AlgebraContext) -> Fraction:
    """The constant c with B(x, y) = c * trace(xy) on this algebra.

    Derived report: the Killing form is defined as the ad-trace, and the
    proportionality is verified entrywise before c is returned.
    """
    c = None
    for i in range(ctx.dim):
        for j in range(i, ctx.dim):
            prod = ctx.basis[i] @ ctx.basis[j]
            tr = sum((prod[a, a] for a in range(prod.rows)), Q(0))
            kij = ctx.killing_gram[i, j]
            if tr == 0:
                if kij != 0:
                    raise AssertionError("Killing form is not proportional to the trace form")
                continue
            ratio = kij / tr
            if c is None:
                c = ratio
            elif c != ratio:
                raise AssertionError("Killing form is not proportional to the trace form")
    if c is None:
        raise AssertionError("trace form vanished identically")
    return c


def is_regular(a: AlgebraElement) -> bool:
    """True iff the characteristic polynomial of a's matrix is squarefree,
    i.e. a has 2n distinct complex eigenvalues."""
    return is_squarefree(charpoly(a.to_matrix()))


def centralizer(a: AlgebraElement) -> Subspace:
    """Echelonized basis of {x : [a, x] = 0}, the exact kernel of ad(a)."""
    ctx = a.context
    return Subspace.kernel_of(ctx, ctx.ad_matrix(a.coords))


def is_abelian(s: Subspace) -> bool:
    """True iff all rows commute; each row is scaled to integers once, which
    does not change whether a bracket vanishes."""
    ctx = s.context
    rows = [integer_coords(r)[1] for r in s.rows]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if any(ctx._bracket(rows[i], rows[j])):
                return False
    return True


def is_maximal_abelian(s: Subspace) -> bool:
    """True iff the joint centralizer of s equals s.

    Raises ValueError on non-abelian input.
    """
    if not is_abelian(s):
        raise ValueError("is_maximal_abelian requires an abelian subspace")
    ctx = s.context
    if not s.rows:
        return False  # the whole algebra centralizes the zero subspace
    stacked = Matrix.vstack([ctx.ad_matrix(r) for r in s.rows])
    return Subspace.kernel_of(ctx, stacked) == s


@dataclass(frozen=True)
class SpectralType:
    """Eigenvalue families of an algebra element.

    real_pairs counts {a, -a} families, imaginary_pairs counts {bi, -bi},
    complex_quadruples counts {a+bi, -a-bi, a-bi, -a+bi}; defective is the
    number of eigenvalues (with multiplicity) left over, which is 0 exactly
    for regular elements.
    """

    real_pairs: int
    imaginary_pairs: int
    complex_quadruples: int
    defective: int
    label: str


def spectral_type(a: AlgebraElement) -> SpectralType:
    """Classify the eigenvalue families of a's matrix, exactly."""
    return spectral_type_of(charpoly(a.to_matrix()), a.context.n)


def spectral_type_of(p: list[Fraction], n: int) -> SpectralType:
    """Classify the eigenvalue families of an element of sp(2n, R) from its
    characteristic polynomial p.

    The characteristic polynomial of a symplectic algebra element is even,
    p(t) = P(t^2); positive real roots of P give real pairs, negative real
    roots give imaginary pairs, and conjugate pairs of complex roots give
    quadruples.  Sturm counts on P make the whole classification exact.
    """
    big = even_part(p)  # degree n in mu = t^2
    sf = squarefree_part(big)
    if sf[0] == 0:
        sf = sf[1:]  # drop the mu = 0 root
    pos = count_real_roots(sf, Q(0), None) if poly_deg(sf) > 0 else 0
    neg = count_real_roots(sf, None, Q(0)) if poly_deg(sf) > 0 else 0
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
    return SpectralType(pos, neg, quads, defective, label)


def random_element(ctx: AlgebraContext, rng: random.Random) -> AlgebraElement:
    """Integer coordinates uniform in [-9, 9] in the block parametrization."""
    return ctx.element([rng.randint(-9, 9) for _ in range(ctx.dim)])


def random_regular_element(ctx: AlgebraContext, rng: random.Random) -> AlgebraElement:
    """Redraw until regular; regularity is Zariski-generic so this is fast."""
    while True:
        a = random_element(ctx, rng)
        if is_regular(a):
            return a
