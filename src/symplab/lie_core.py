"""Exact-arithmetic model of the real symplectic Lie algebra sp(2n, R).

Elements are matrices X with J X = -X^t J where J = [[0, -I], [I, 0]];
equivalently block matrices [[A, B], [C, -A^t]] with B, C symmetric, which
is how membership is tested: entry by entry, with no matrix products.  The
fixed basis enumerates the A block row-major (n^2 generators), then the
upper triangle of B, then the upper triangle of C, so coordinates and all
reports are reproducible; each coordinate sits in one entry of the matrix,
its slot, and fixes one mirror entry.  Structure constants are integers
read from the sparse commutators of basis matrices at these slots; they,
the adjoint matrices and the Killing form are computed over ``int`` once
per context and shared.

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

from .linalg import Matrix, Q, qf, vec_is_zero
from .polynomials import (charpoly, count_real_roots, even_part,
                          is_squarefree, poly_deg, poly_divmod, poly_eval,
                          squarefree_part)


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


def is_in_algebra(x: Matrix, n: int) -> bool:
    """Exact membership test J x = -x^t J.

    For x = [[A, B], [C, D]] the condition reads D = -A^t with B and C
    symmetric, so each nonzero entry is checked against its mirror entry:
    no matrix products.  An entry whose mirror is nonzero is reached from
    the mirror, so walking the nonzeros covers every condition.
    """
    if (x.rows, x.cols) != (2 * n, 2 * n):
        raise ValueError(f"expected a {2*n}x{2*n} matrix, got {x.rows}x{x.cols}")
    size = 2 * n
    for r in range(size):
        for c, v in x.row_items(r):
            mirror = x[(c + n) % size, (r + n) % size]
            if mirror != (-v if (r < n) == (c < n) else v):  # A, D blocks; else B, C
                return False
    return True


def is_in_group(x: Matrix, n: int) -> bool:
    """Exact membership test x^t J x = J."""
    if (x.rows, x.cols) != (2 * n, 2 * n):
        raise ValueError(f"expected a {2*n}x{2*n} matrix, got {x.rows}x{x.cols}")
    j = j_matrix(n)
    return (x.transpose() @ j @ x) == j


def _basis_matrices(n: int) -> tuple[list[Matrix], list[str], list[tuple[int, int]]]:
    """Basis matrices, their labels, and the entry (row, col) that holds
    each basis element's coordinate in a member of the algebra."""
    basis: list[Matrix] = []
    labels: list[str] = []
    slots: list[tuple[int, int]] = []
    # A block: E_ij in A, -E_ji in the lower right block
    for i in range(n):
        for j in range(n):
            m = Matrix.zeros(2 * n, 2 * n)
            m[i, j] = 1
            m[n + j, n + i] = -1
            basis.append(m)
            labels.append(f"A[{i + 1},{j + 1}]")
            slots.append((i, j))
    # symmetric B block (upper right)
    for i in range(n):
        for j in range(i, n):
            m = Matrix.zeros(2 * n, 2 * n)
            m[i, n + j] = 1
            m[j, n + i] = 1
            basis.append(m)
            labels.append(f"B[{i + 1},{j + 1}]")
            slots.append((i, n + j))
    # symmetric C block (lower left)
    for i in range(n):
        for j in range(i, n):
            m = Matrix.zeros(2 * n, 2 * n)
            m[n + i, j] = 1
            m[n + j, i] = 1
            basis.append(m)
            labels.append(f"C[{i + 1},{j + 1}]")
            slots.append((n + i, j))
    return basis, labels, slots


class AlgebraContext:
    """Basis of sp(2n, R) with precomputed structure constants and Killing form.

    The structure constants, adjoint matrices and Killing Gram are integers:
    each commutator of two basis matrices is an integer matrix whose
    coordinates are read off at the basis elements' coordinate slots.
    Immutable after construction; safe to share between threads.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        self.n = n
        self.dim = 2 * n * n + n
        self.basis, self.basis_labels, self._slots = _basis_matrices(n)
        if len(self.basis) != self.dim:
            raise AssertionError("basis enumeration does not match dimension")
        for m in self.basis:
            if not is_in_algebra(m, n):
                raise AssertionError("basis matrix fails algebra membership")
        # structure constants, sparse: _table[(i, j)] = {k: c} for i < j
        slot_of = {rc: k for k, rc in enumerate(self._slots)}
        self._table: dict[tuple[int, int], dict[int, int]] = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                comm = (self.basis[i] @ self.basis[j]) - (self.basis[j] @ self.basis[i])
                if not is_in_algebra(comm, n):
                    raise AssertionError("commutator of basis matrices fails algebra membership")
                entry = sorted((slot_of[r, c], v) for r in range(comm.rows)
                               for c, v in comm.row_items(r) if (r, c) in slot_of)
                if entry:
                    self._table[(i, j)] = dict(entry)
        # adjoint of each basis element, sparse by column: _ad[i][a] = {b: c};
        # the table is in lexicographic order, so each _ad[i] is in order of a
        self._ad: list[dict[int, dict[int, int]]] = [{} for _ in range(self.dim)]
        for (i, j), entry in self._table.items():
            self._ad[i][j] = entry
            self._ad[j][i] = {k: -c for k, c in entry.items()}
        gram = Matrix.zeros(self.dim, self.dim)
        for i in range(self.dim):
            adi = self._ad[i]
            for j in range(i, self.dim):
                adj = self._ad[j]
                acc = 0
                for a, bi in adi.items():
                    for b, cval in bi.items():
                        if b in adj:
                            back = adj[b].get(a)
                            if back is not None:
                                acc += cval * back
                gram[i, j] = acc
                gram[j, i] = acc
        self.killing_gram = gram

    # -- coordinates ---------------------------------------------------
    def coords_of_matrix(self, x: Matrix) -> list[Fraction]:
        """Coordinates in the fixed basis; requires algebra membership."""
        if not is_in_algebra(x, self.n):
            raise ValueError("matrix is not in sp(2n, R)")
        return [Q(x[r, c]) for r, c in self._slots]

    def matrix_of_coords(self, coords: Sequence[Fraction]) -> Matrix:
        """The member with these coordinates: each is written at its slot and,
        as membership requires, at its mirror entry (negated in the A block)."""
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        n, size = self.n, 2 * self.n
        out = Matrix.zeros(size, size)
        for (r, c), x in zip(self._slots, coords):
            if x:
                out[r, c] = x
                out[(c + n) % size, (r + n) % size] = -x if (r < n) == (c < n) else x
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
        red, pivots = rows.rref()
        dense = [[Q(0)] * red.cols for _ in pivots]
        for r, row in enumerate(dense):
            for j, v in red.row_items(r):
                row[j] = qf(v)
        self.context = context
        self.rows = tuple(map(tuple, dense))
        self.pivots = tuple(pivots)

    @classmethod
    def kernel_of(cls, context: AlgebraContext, m: Matrix) -> "Subspace":
        """The kernel of m acting on coordinates: the sparse kernel basis,
        transposed, is reduced once."""
        return cls(context, m.kernel_matrix().transpose())

    @classmethod
    def from_elements(cls, elements: Sequence[AlgebraElement]) -> "Subspace":
        if not elements:
            raise ValueError("need at least one element to infer the context")
        ctx = elements[0].context
        for e in elements:
            _require_same_context(elements[0], e)
        return cls(ctx, [list(e.coords) for e in elements])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def elements(self) -> list[AlgebraElement]:
        return [AlgebraElement(self.context, r) for r in self.rows]

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

    def to_dict(self) -> dict:
        return {"real_pairs": self.real_pairs,
                "imaginary_pairs": self.imaginary_pairs,
                "complex_quadruples": self.complex_quadruples,
                "defective": self.defective,
                "label": self.label}


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
    if poly_eval(sf, Q(0)) == 0:
        sf = poly_divmod(sf, [Q(0), Q(1)])[0]  # drop the mu = 0 root
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


def random_element(ctx: AlgebraContext, rng: random.Random,
                   low: int = -9, high: int = 9) -> AlgebraElement:
    """Integer coordinates uniform in [low, high] in the block parametrization."""
    return ctx.element([rng.randint(low, high) for _ in range(ctx.dim)])


def random_regular_element(ctx: AlgebraContext, rng: random.Random,
                           low: int = -9, high: int = 9) -> AlgebraElement:
    """Redraw until regular; regularity is Zariski-generic so this is fast."""
    while True:
        a = random_element(ctx, rng, low, high)
        if is_regular(a):
            return a
