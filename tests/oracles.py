"""Reference constructions that only tests call: the J matrix, element
arithmetic, brackets, the Killing form as an ad-trace, the span of vectors
as a subspace, maximal abelian subspaces, the linear system whose solution
is the potential of a 2-form, Chevalley-Eilenberg 1-forms, the star of a
form, the primitives alpha_k of w0^k, the full Fourier box on T^2 with its
partial pullback, the cohomology quotients with their representatives, and
rational polynomial division and gcd.  Each is built
on the package's own basis, structure constants and helpers, so the tests
that check it check those too."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from symplab import exterior, models
from symplab.algebra_forms import AlgebraTwoForm
from symplab.lie_core import (AlgebraContext, AlgebraElement, Subspace,
                              integer_coords, is_abelian)
from symplab.linalg import Matrix, Q, qf, reduced_basis
from symplab.polynomials import Poly, _gcd, _integral, _pseudo_divmod


def _require_same_context(a, b) -> None:
    if a.context is not b.context:
        raise ValueError("elements belong to different algebra contexts")


def scale(x: AlgebraElement, c) -> AlgebraElement:
    c = qf(c)
    return AlgebraElement(x.context, tuple(c * v for v in x.coords))


def add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    _require_same_context(x, y)
    return AlgebraElement(x.context, tuple(a + b for a, b in zip(x.coords, y.coords)))


def sub(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return add(x, scale(y, -1))


def j_matrix(n: int) -> Matrix:
    """J = [[0, -I], [I, 0]]."""
    m = Matrix.zeros(2 * n, 2 * n)
    for i in range(n):
        m[i, n + i] = -1
        m[n + i, i] = 1
    return m


def bracket_coords(ctx: AlgebraContext, x: Sequence[Fraction],
                   y: Sequence[Fraction]) -> list[Fraction]:
    """Coordinates of [x, y]: the integer bracket of the scaled coordinates,
    divided by the product of the two scales."""
    dx, xs = integer_coords(x)
    dy, ys = integer_coords(y)
    return [Q(v, dx * dy) for v in ctx._bracket(xs, ys)]


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    _require_same_context(x, y)
    return AlgebraElement(x.context, tuple(bracket_coords(x.context, x.coords, y.coords)))


def killing_form(x: AlgebraElement, y: AlgebraElement) -> Fraction:
    """trace(ad x . ad y), computed from the structure constants."""
    _require_same_context(x, y)
    ctx = x.context
    ax = ctx.ad_matrix(x.coords)
    ay = ctx.ad_matrix(y.coords)
    return sum((a * ay[k, i] for i in range(ctx.dim) for k, a in ax.row_items(i)), Q(0))


def killing_trace_constant(ctx: AlgebraContext) -> Fraction:
    """The constant c with B(x, y) = c * trace(xy), checked on every pair of
    basis elements before it is returned."""
    ratios = set()
    for i in range(ctx.dim):
        for j in range(i, ctx.dim):
            prod = ctx.basis[i] @ ctx.basis[j]
            tr, kij = sum(prod[a, a] for a in range(prod.rows)), ctx.killing_gram[i, j]
            if tr == 0 and kij != 0:
                raise AssertionError("Killing form is not proportional to the trace form")
            ratios |= {Q(kij, tr)} if tr else set()
    if len(ratios) != 1:
        raise AssertionError("Killing form is not proportional to the trace form")
    return ratios.pop()


def span(ctx: AlgebraContext, vectors: Sequence[Sequence[Fraction]]) -> Subspace:
    """The subspace spanned by coordinate vectors: the nonzero rows of their
    reduced row echelon form, and its pivots."""
    rows, pivots = reduced_basis(Matrix([list(v) for v in vectors]))
    return Subspace(ctx, tuple(map(tuple, rows)), tuple(pivots))


def is_maximal_abelian(s: Subspace) -> bool:
    """True iff the joint centralizer of s equals s; s must be abelian."""
    if not is_abelian(s):
        raise ValueError("is_maximal_abelian requires an abelian subspace")
    ctx = s.context
    if not s.rows:
        return False  # the whole algebra centralizes the zero subspace
    stacked = Matrix.vstack([ctx.ad_matrix(r) for r in s.rows])
    return Subspace.kernel_of(ctx, stacked) == s


def potential_system(ctx: AlgebraContext) -> tuple[Matrix, list[tuple[int, int]]]:
    """Rows of the linear map a -> (B(a,[e_i,e_j]))_{i<j} on coordinates: the
    potential of a closed 2-form solves it against the form's upper triangle."""
    pairs = list(combinations(range(ctx.dim), 2))
    m = Matrix.zeros(len(pairs), ctx.dim)
    gram = ctx.killing_gram
    for r, (i, j) in enumerate(pairs):
        for mm, c in ctx.pair_bracket(i, j).items():
            for k, g in gram.row_items(mm):
                m[r, k] += c * g
    return m, pairs


@dataclass(frozen=True)
class AlgebraOneForm:
    context: AlgebraContext
    covector: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.covector) != self.context.dim:
            raise ValueError("covector length mismatch")


def one_form(ctx: AlgebraContext, covector: Sequence[int | str | Fraction]) -> AlgebraOneForm:
    return AlgebraOneForm(ctx, tuple(qf(c) for c in covector))


def killing_dual(a: AlgebraElement) -> AlgebraOneForm:
    """The 1-form B(a, .) as a covector."""
    return AlgebraOneForm(a.context, tuple(a.context.killing_gram.apply(list(a.coords))))


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


def star_s_apply(v: models.FormVector) -> models.FormVector:
    return models._apply(v, v.model.star_s.__getitem__, v.model.top_degree - v.degree)


def alpha_form(model: models.ComplexModel, k: int) -> models.FormVector:
    """Normalized primitive of w0^k: d(alpha) = w0^k exactly.

    The normalization is computed by the homotopy itself rather than
    taken from a printed coefficient.
    """
    if model.kind != "polynomial":
        raise ValueError("alpha_form lives in the polynomial model")
    if not 1 <= k <= model.meta["n"]:
        raise ValueError("k out of range")
    return models.poincare_antiderivative(models.w0_power_form(model, k))


def suspension_full_complex(cutoff: int):
    """Full truncated complex on T^2 with the partial pullback operator.

    Every mode (m1, m2) of the box |m1|, |m2| <= cutoff is kept; the
    pullback m -> (m1, m1 + m2) is defined on a column only when the image
    mode stays in the box.  Returns (functions, dims, d_blocks, p_blocks,
    stable_columns), with d blocks in degrees 0 and 1.
    """
    modes = []
    for m1 in range(-cutoff, cutoff + 1):
        for m2 in range(-cutoff, cutoff + 1):
            if (m1, m2) != (0, 0) and models._canonical_mode((m1, m2)) == (1, (m1, m2)):
                modes.append((m1, m2))
    functions = models._fourier_functions(modes)
    findex = {f: i for i, f in enumerate(functions)}
    d_blocks = models._exterior_derivative(functions, 2, models._derivative_entries)
    p_blocks: dict[int, Matrix] = {}
    stable: dict[int, list[int]] = {}
    for k in range(3):
        ext = exterior.ext_basis(2, k)
        ext_index = {mono: i for i, mono in enumerate(ext)}
        blk = Matrix.zeros(len(functions) * len(ext), len(functions) * len(ext))
        stable[k] = []
        for fi, f in enumerate(functions):
            _, (m1, m2) = f
            if abs(m1 + m2) > cutoff:
                continue  # the image mode leaves the box: the column stays undefined
            for ei, emono in enumerate(ext):
                col = fi * len(ext) + ei
                for coeff, g in models._pullback_function(f):
                    for esign, target in models._PULLBACK_EXT[emono]:
                        blk[findex[g] * len(ext) + ext_index[target], col] += esign * coeff
                stable[k].append(col)
        p_blocks[k] = blk
    return functions, {k: p_blocks[k].rows for k in range(3)}, d_blocks, p_blocks, stable


def windowed_kernel(constraint: Matrix, window: list[int] | None) -> Matrix:
    """Basis of ker(constraint) as columns, within the window's columns
    unless it is None."""
    if window is None:
        return constraint.kernel_matrix()
    embed = Matrix.identity(constraint.cols).select_columns(window)
    return embed @ constraint.select_columns(window).kernel_matrix()


def quotient(num: Matrix, den: Matrix) -> Matrix:
    """The columns of num that are independent modulo the column span of den.

    Each is the first numerator column, in order, outside the span of the
    denominator and the numerator columns before it; they form a basis of
    the quotient, so their count is its dimension.
    """
    if not num.cols:
        return num
    _, pivots = Matrix.hstack([den, num]).rref()
    return num.select_columns([p - den.cols for p in pivots if p >= den.cols])


def quotient_blocks(model: models.ComplexModel, theory: str, k: int) -> tuple[Matrix, Matrix]:
    """The constraint whose kernel is a theory's numerator in degree k, and
    its denominator, with d.dl formed here rather than read off the model."""
    d, dl = model.d_block, model.dl_block
    if theory == "deRham":
        return d(k), d(k - 1)
    if theory == "dPlusDLambda":
        return Matrix.vstack([d(k), dl(k)]), d(k - 1) @ dl(k)
    return d(k - 1) @ dl(k), Matrix.hstack([d(k - 1), dl(k + 1)])


def representatives(model: models.ComplexModel, theory: str) -> dict[int, Matrix]:
    """Degree k -> one column per class: a windowed kernel basis of the
    numerator, and a second elimination beside the denominator."""
    out = {}
    for k in range(model.top_degree + 1):
        constraint, den = quotient_blocks(model, theory, k)
        window = None if model.window is None else model.window[k]
        out[k] = quotient(windowed_kernel(constraint, window), den)
    return out


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Rational quotient and remainder, from one integer pseudo-division."""
    (da, a), (db, b) = _integral(a), _integral(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    m, q, r = _pseudo_divmod(a, b)  # the rational quotient is q db / (m da)
    return [Q(c * db, m * da) for c in q], [Q(c, m * da) for c in r]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd, from the primitive pseudo-remainder sequence."""
    g = _gcd(_integral(a)[1], _integral(b)[1])
    return [Q(c, g[-1]) for c in g]
