"""Reference constructions that only tests call: the J matrix, unit elements
and element arithmetic, brackets, the Killing form as an ad-trace, the basis
matrices written out block by block and the context built from their
products (commutators checked by J products, the Gram as ad-traces), the span
of vectors as a subspace, maximal abelian subspaces, the linear system
whose solution is the potential of a 2-form, a nilpotent element, the
complement of a form's kernel read off its reduced echelon kernel basis,
the rank/kernel record from the centralizer's own elimination, the
Pfaffian by expansion along the first row,
Chevalley-Eilenberg 1-forms, the star of a form, the primitives alpha_k of
w0^k, the wedge of coordinate vectors and the powers of w0 taken by it, the
radial homotopy as an index loop and seeded random closed forms to feed it,
the Cartan identity of the Euler contraction, d and the Fourier pullback
assembled entry by entry and the models built from them, the codifferential
by index rule on the stars' signed permutations, the names of the
models' basis vectors, the full Fourier box on T^2 with its partial
pullback, the cohomology quotients with their representatives and counts,
the finite Hodge check from a Laplacian kernel basis, and rational
polynomial division and gcd.  Each is built on the package's own basis,
structure constants and helpers, so the tests that check it check those
too."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from symplab import exterior, models
from symplab.algebra_forms import AlgebraTwoForm, omega_from_element
from symplab.lie_core import AlgebraContext, AlgebraElement, centralizer, is_abelian
from symplab.linalg import Matrix, Q, echelon_rows, integer_coords, qf
from symplab.polynomials import Poly, _gcd, _pseudo_divmod, poly_trim


def _require_same_context(a, b) -> None:
    if a.context is not b.context:
        raise ValueError("elements belong to different algebra contexts")


def unit_element(ctx: AlgebraContext, k: int) -> AlgebraElement:
    """The k-th basis element: coordinate 1 at k and 0 elsewhere."""
    return AlgebraElement(ctx, tuple(Q(int(t == k)) for t in range(ctx.dim)))


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
    basis, ratios = basis_matrices(ctx.n), set()
    for i in range(ctx.dim):
        for j in range(i, ctx.dim):
            prod = basis[i] @ basis[j]
            tr, kij = sum(prod[a, a] for a in range(prod.rows)), ctx.killing_gram[i, j]
            if tr == 0 and kij != 0:
                raise AssertionError("Killing form is not proportional to the trace form")
            ratios |= {Q(kij, tr)} if tr else set()
    if len(ratios) != 1:
        raise AssertionError("Killing form is not proportional to the trace form")
    return ratios.pop()


# -- the context from the basis matrices ---------------------------------------------

def basis_matrices(n: int) -> list[Matrix]:
    """The basis of sp(2n) written out block by block: E_ij - E_(n+j)(n+i)
    for the A block row-major, then E_ij + E_ji on the upper triangles of
    the symmetric B and C blocks."""
    basis = []
    for i in range(n):
        for j in range(n):
            m = Matrix.zeros(2 * n, 2 * n)
            m[i, j] = 1
            m[n + j, n + i] = -1
            basis.append(m)
    for row0, col0 in ((0, n), (n, 0)):
        for i in range(n):
            for j in range(i, n):
                m = Matrix.zeros(2 * n, 2 * n)
                m[row0 + i, col0 + j] = 1
                m[row0 + j, col0 + i] = 1
                basis.append(m)
    return basis


def j_product_is_zero(x: Matrix, n: int) -> bool:
    """Membership as the definition states it: J x + x^t J = 0."""
    j = j_matrix(n)
    return ((j @ x) + (x.transpose() @ j)).is_zero()


def coords_by_j_products(x: Matrix, n: int) -> list[Fraction]:
    """Coordinates of a member, checked by J products and read block by block:
    A row-major, then the upper triangles of B and of C."""
    assert j_product_is_zero(x, n)
    coords = [Q(x[i, j]) for i in range(n) for j in range(n)]
    coords += [Q(x[i, n + j]) for i in range(n) for j in range(i, n)]
    coords += [Q(x[n + i, j]) for i in range(n) for j in range(i, n)]
    return coords


def context_by_products(n: int) -> tuple[dict, list[dict], Matrix, list[tuple[int, int]]]:
    """The structure constants, adjoint columns, Killing Gram and partner
    table of sp(2n), from the basis matrices and their products: each
    commutator b_i @ b_j - b_j @ b_i, checked by J products to lie in the
    algebra, read block by block; the Gram summed pair by pair as the sum
    over a, b of ad_i[b][a] * ad_j[a][b]; the partners as the one nonzero
    of each Gram row, AssertionError if a row has another count."""
    basis = basis_matrices(n)
    table = {}
    for i, j in combinations(range(len(basis)), 2):
        coords = coords_by_j_products((basis[i] @ basis[j]) - (basis[j] @ basis[i]), n)
        if any(coords):
            table[i, j] = {k: c for k, c in enumerate(coords) if c}
    ad = [{} for _ in basis]
    for (i, j), entry in table.items():
        ad[i][j] = entry
        ad[j][i] = {k: -c for k, c in entry.items()}
    gram = Matrix.zeros(len(basis), len(basis))
    for i in range(len(basis)):
        for j in range(len(basis)):
            gram[i, j] = sum(c * ad[j].get(b, {}).get(a, 0)
                             for a, column in ad[i].items() for b, c in column.items())
    partners = []
    for k in range(gram.rows):
        entries = list(gram.row_items(k))
        if len(entries) != 1:
            raise AssertionError(f"Killing Gram row {k} without exactly one nonzero")
        partners.append(entries[0])
    return table, ad, gram, partners


def _items(x):
    """Nested dicts as nested lists of (key, value) pairs, so that a comparison
    also compares their order."""
    return [(k, _items(v)) for k, v in x.items()] if isinstance(x, dict) else x


def context_mismatches(ctx: AlgebraContext) -> list[str]:
    """The parts of ctx that differ from ``context_by_products``: "_table"
    (its constants, key order or entry order), "_ad" (its columns or their
    order), "killing_gram" and "killing_partners"."""
    table, ad, gram, partners = context_by_products(ctx.n)
    bad = []
    if _items(ctx._table) != _items(table):
        bad.append("_table")
    if list(map(_items, ctx._ad)) != list(map(_items, ad)):
        bad.append("_ad")
    if ctx.killing_gram != gram:
        bad.append("killing_gram")
    if ctx.killing_partners != partners:
        bad.append("killing_partners")
    return bad


def span(vectors: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """The subspace spanned by coordinate vectors: the nonzero rows of their
    reduced row echelon form."""
    return tuple(map(tuple, echelon_rows(vectors)))


def is_maximal_abelian(ctx: AlgebraContext, rows: Sequence[Sequence[Fraction]]) -> bool:
    """True iff the joint centralizer of the span of rows, reduced echelon rows
    of coordinates in ctx, equals it; the rows must commute."""
    if not is_abelian(ctx, rows):
        raise ValueError("is_maximal_abelian requires an abelian subspace")
    if not rows:
        return False  # the whole algebra centralizes the zero subspace
    return Matrix.vstack([ctx.ad_matrix(r) for r in rows]).kernel_rows() == tuple(rows)


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


def nilpotent_unit(ctx: AlgebraContext) -> AlgebraElement:
    """E: the unit at the first B-block slot, which is nilpotent."""
    return unit_element(ctx, ctx.n * ctx.n)


def kernel_pivot_complement(omega: AlgebraTwoForm) -> list[int]:
    """The columns that are not pivots of the reduced echelon kernel basis
    of the Gram, from the kernel vectors themselves (a full elimination)."""
    pivots = {next(j for j, x in enumerate(row) if x) for row in omega.gram.kernel_rows()}
    return [j for j in range(omega.context.dim) if j not in pivots]


def rank_kernel_by_elimination(a: AlgebraElement) -> dict:
    """The rank/kernel record of omega_a with the centralizer eliminated: ad(a)
    reduced once, Omega = -G ad(a) checked row by row (so ker Omega is the
    centralizer), and the kernel's echelon rows bracketed pairwise.  Unlike
    the package's record it answers for any element, regular or not."""
    ctx = a.context
    kernel = centralizer(a)
    gram, ad = omega_from_element(a).gram, ctx.ad_matrix(a.coords)
    for k, (pk, gk) in enumerate(ctx.killing_partners):
        if dict(gram.row_items(k)) != {j: -gk * v for j, v in ad.row_items(pk)}:
            raise AssertionError(f"omega_a != -G ad(a) in row {k}")
    return {"rank": ctx.dim - len(kernel), "kernel_dim": len(kernel),
            "kernel_abelian": is_abelian(ctx, kernel), "kernel_equals_centralizer": True}


def pfaffian_by_expansion(m: Matrix) -> Fraction:
    """Pf(A) = sum_j (-1)^(j+1) a_0j Pf(A without rows and columns 0 and j),
    0-based, with Pf of the empty matrix 1; odd orders end at a single index
    and give 0.  Exponential, for small orders only."""
    def pf(idx: tuple[int, ...]) -> Fraction:
        if not idx:
            return Q(1)
        i, rest = idx[0], idx[1:]
        return sum(((-1) ** t * m[i, j] * pf(rest[:t] + rest[t + 1:])
                    for t, j in enumerate(rest) if m[i, j]), Q(0))
    return pf(tuple(range(m.rows)))


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


def wedge_vectors(m: int, ka: int, kb: int,
                  va: list[Fraction], vb: list[Fraction]) -> list[Fraction]:
    """Wedge product of coordinate vectors in degrees ka, kb over m covectors."""
    ba, bb = exterior.ext_basis(m, ka), exterior.ext_basis(m, kb)
    index = {mono: i for i, mono in enumerate(exterior.ext_basis(m, ka + kb))}
    out = [Q(0)] * len(index)
    for i, xa in enumerate(va):
        for j, xb in enumerate(vb):
            w = exterior.wedge_monomials(ba[i], bb[j]) if xa and xb else None
            if w is not None:
                out[index[w[1]]] += w[0] * xa * xb
    return out


def w0_power_by_wedges(n: int, j: int) -> list[Fraction]:
    """w0^j in the degree-2j exterior basis, as j wedges with w0 = sum dxi^dyi."""
    m = 2 * n
    w0 = [Q(1) if b == a + 1 and a % 2 == 0 else Q(0) for a, b in exterior.ext_basis(m, 2)]
    acc = [Q(1)]
    for deg in range(0, 2 * j, 2):
        acc = wedge_vectors(m, deg, 2, acc, w0)
    return acc


def radial_antiderivative(v: models.FormVector) -> models.FormVector:
    """The radial homotopy, monomial by monomial: p * dI goes to
    sum_j (-1)^(j-1)/(deg p + k) * p*x_{i_j} * d(I without i_j), each
    coordinate found by function-major index arithmetic.  Raises
    ValueError as ``models.poincare_antiderivative`` does."""
    model = v.model
    if model.kind != "polynomial":
        raise ValueError("poincare_antiderivative is supported on polynomial models only")
    k = v.degree
    if k < 1:
        raise ValueError("d antiderivative needs degree >= 1")
    if not models.d_apply(v).is_zero():
        raise ValueError("input is not closed")
    m, cutoff, monos = 2 * model.meta["n"], model.meta["D"], model.meta["monos"]
    mono_index = {mono: i for i, mono in enumerate(monos)}
    ext_src, ext_dst = exterior.ext_basis(m, k), exterior.ext_basis(m, k - 1)
    ext_dst_index = {mono: i for i, mono in enumerate(ext_dst)}
    out = [Q(0)] * model.dim(k - 1)
    for idx, c in enumerate(v.coords):
        if c == 0:
            continue
        mi, ei = divmod(idx, len(ext_src))
        mono, emono = monos[mi], ext_src[ei]
        weight = Q(1, sum(mono) + k)
        for pos, var in enumerate(emono):
            if sum(mono) + 1 > cutoff:
                raise ValueError("antiderivative leaves the coefficient cutoff")
            raised = mono[:var] + (mono[var] + 1,) + mono[var + 1:]
            row = mono_index[raised] * len(ext_dst) + ext_dst_index[emono[:pos] + emono[pos + 1:]]
            out[row] += c * weight * ((-1) ** pos)
    return models.form_vector(model, k - 1, out)


def random_closed_forms(model: models.ComplexModel, k: int, rng, count: int):
    """Closed k-forms: d of sparse random (k-1)-forms, which stay below the
    cutoff, and sparse random combinations of a kernel basis of d_k, which
    mostly reach it."""
    kernel = model.d_block(k).kernel_matrix().transpose()
    for _ in range(count):
        f = [0] * model.dim(k - 1)
        for i in rng.sample(range(len(f)), min(4, len(f))):
            f[i] = rng.randint(-5, 5)
        yield models.d_apply(models.form_vector(model, k - 1, f))
        z = [Q(0)] * model.dim(k)
        for t in rng.sample(range(kernel.rows), min(3, kernel.rows)):
            c = rng.randint(-5, 5)
            for j, x in kernel.row_items(t):
                z[j] += c * x
        yield models.form_vector(model, k, z)


def cartan_mismatches(model: models.ComplexModel) -> list[tuple[int, int]]:
    """The columns (k, j) of d iota_E + iota_E d on k-forms, over every
    coordinate j of coefficient degree p <= D - 1, that are not p + k times
    the unit column j (zero for p = k = 0, the constants)."""
    m, cutoff, monos = 2 * model.meta["n"], model.meta["D"], model.meta["monos"]
    bad = []
    for k in range(m + 1):
        cartan = (model.d_block(k - 1) @ models.euler_contraction(model, k)
                  + models.euler_contraction(model, k + 1) @ model.d_block(k)).transpose()
        for j in range(cartan.rows):
            p = sum(monos[j // comb(m, k)])
            if p < cutoff and dict(cartan.row_items(j)) != ({j: p + k} if p + k else {}):
                bad.append((k, j))
    return bad


def exterior_derivative(functions: list, m: int, derivative) -> dict[int, Matrix]:
    """d(f dI) = sum_v (d f / d x_v) dx_v ^ dI in degrees 0..m-1.

    A form of degree k is indexed function-major: coefficient function
    ``functions[i]`` times the j-th degree-k exterior monomial over m
    covectors sits at i * C(m, k) + j.  ``derivative(f, v)`` lists the
    pairs (coefficient, g) whose sum is the partial derivative of f in the
    v-th variable; every g must be one of ``functions``.
    """
    findex = {f: i for i, f in enumerate(functions)}
    blocks: dict[int, Matrix] = {}
    for k in range(m):
        src, dst = exterior.ext_basis(m, k), exterior.ext_basis(m, k + 1)
        dst_index = {mono: i for i, mono in enumerate(dst)}
        blk = Matrix.zeros(len(functions) * len(dst), len(functions) * len(src))
        for fi, f in enumerate(functions):
            for ei, emono in enumerate(src):
                col = fi * len(src) + ei
                for v in range(m):
                    w = exterior.wedge_monomials((v,), emono)
                    if w is None:
                        continue
                    sign, target = w
                    for coeff, g in derivative(f, v):
                        blk[findex[g] * len(dst) + dst_index[target], col] += sign * coeff
        blocks[k] = blk
    return blocks


def fourier_pullback(functions: list) -> dict[int, Matrix]:
    """Pullback matrices per degree on the function-major basis of a span of
    Fourier modes on T^2; raises when a mode's image leaves the span."""
    findex = {f: i for i, f in enumerate(functions)}
    p_blocks: dict[int, Matrix] = {}
    for k in range(3):
        ext = exterior.ext_basis(2, k)
        ext_index = {mono: i for i, mono in enumerate(ext)}
        blk = Matrix.zeros(len(functions) * len(ext), len(functions) * len(ext))
        for fi, f in enumerate(functions):
            transported = models._pullback_function(f)
            if any(g not in findex for _, g in transported):
                raise AssertionError("stable sector is not closed under the pullback")
            for ei, emono in enumerate(ext):
                col = fi * len(ext) + ei
                for coeff, g in transported:
                    for esign, target in models._PULLBACK_EXT[emono]:
                        row = findex[g] * len(ext) + ext_index[target]
                        blk[row, col] += esign * coeff
        p_blocks[k] = blk
    return p_blocks


def monomial_derivative(mono: tuple[int, ...], v: int) -> list[tuple[int, tuple[int, ...]]]:
    e = mono[v]  # x^a -> a_v * x^(a - e_v)
    return [(e, mono[:v] + (e - 1,) + mono[v + 1:])] if e else []


def codifferential_by_index_rule(d: dict[int, Matrix], star: dict[int, Matrix], top: int,
                                 k: int) -> Matrix:
    """The codifferential (-1)^(k+1) star . d . star on k-forms, k >= 1, entry
    by entry, each star block read as ``models._signed_permutation`` reads it:
    d[i, c] goes to row p_out(i) and column p_in^-1(c), times both signs."""
    p_in, s_in = models._signed_permutation(star[k])
    p_out, s_out = models._signed_permutation(star[top - k + 1])
    col, col_sign = [0] * len(p_in), [0] * len(p_in)  # p_in^-1(c), and the sign there
    for j, (c, sj) in enumerate(zip(p_in, s_in)):
        col[c], col_sign[c] = j, sj
    dl = Matrix.zeros(len(p_out), len(p_in))
    for i, (r, si) in enumerate(zip(p_out, s_out if k % 2 == 1 else [-si for si in s_out])):
        for c, v in d[top - k].row_items(i):
            dl[r, col[c]] = si * col_sign[c] * v
    return dl


def loop_model(kind: str, *args: int) -> models.ComplexModel:
    """The model ``build_<kind>_model(*args)`` builds, assembled entry by
    entry: d from ``exterior_derivative``, the pullback from
    ``fourier_pullback``, the star as 1 (x) star_blocks, and the dimensions
    and window counted one basis element at a time.  ``ComplexModel`` adds dl
    and d.dl and checks the identities, as for the builders."""
    if kind == "torus":
        (n,) = args
        m = 2 * n
        dims = tuple(len(exterior.ext_basis(m, k)) for k in range(m + 1))
        d = {k: Matrix.zeros(dims[k + 1], dims[k]) for k in range(m)}
        return models.ComplexModel(f"torus-n{n}", "torus", dims, d, exterior.star_blocks(n),
                                   meta={"n": n})
    if kind == "polynomial":
        n, cutoff = args
        m = 2 * n
        monos = models._monomials(m, cutoff)
        ext = {k: exterior.ext_basis(m, k) for k in range(m + 1)}
        dims = tuple(len(monos) * len(ext[k]) for k in range(m + 1))
        d = exterior_derivative(monos, m, monomial_derivative)
        star_ext = exterior.star_blocks(n)
        star = {k: Matrix.kron(Matrix.identity(len(monos)), star_ext[k]) for k in range(m + 1)}
        window = {k: [mi * len(ext[k]) + ei
                      for mi, mono in enumerate(monos) if sum(mono) <= cutoff - 2
                      for ei in range(len(ext[k]))]
                  for k in range(m + 1)}
        meta = {"n": n, "D": cutoff, "monos": monos}
        return models.ComplexModel(f"polynomial-n{n}-D{cutoff}", "polynomial", dims, d, star,
                                   window=window, meta=meta)
    (cutoff,) = args
    functions = models._fourier_functions([(0, m2) for m2 in range(1, cutoff + 1)])
    d_blocks = exterior_derivative(functions, 2, models._derivative_entries)
    star_ext = exterior.star_blocks(1)
    star_sector = {k: Matrix.kron(Matrix.identity(len(functions)), star_ext[k])
                   for k in range(3)}
    embed = _suspension_embedding(functions)

    def restrict(block: Matrix, k_src: int, k_dst: int) -> Matrix:
        return embed[k_dst].solve_matrix(block @ embed[k_src])

    d_inv = {k: restrict(d_blocks[k], k, k + 1) for k in range(2)}
    star_inv = {k: restrict(star_sector[k], k, 2 - k) for k in range(3)}
    dims = tuple(embed[k].cols for k in range(3))
    return models.ComplexModel(f"suspension-N{cutoff}", "suspension", dims, d_inv, star_inv,
                               meta={"N": cutoff})


def _suspension_embedding(functions: list) -> dict[int, Matrix]:
    """The invariant forms of the sector as columns: ker(P - I) of the
    pullback on the whole sector, degree by degree."""
    return {k: (p - Matrix.identity(p.rows)).kernel_matrix()
            for k, p in fourier_pullback(functions).items()}


def _ext_name(mono: exterior.Mono, kind: str) -> str:
    """dx1, dy1, dx2, ... for the interleaved pairs of R^2n; dx1, dx2 on T^2."""
    if kind == "suspension":
        return "^".join(f"dx{v + 1}" for v in mono) or "1"
    return "^".join(f"d{'xy'[v % 2]}{v // 2 + 1}" for v in mono) or "1"


def _monomial_name(mono: tuple[int, ...]) -> str:
    """x1^2*y1 for the exponents (2, 1): the variables x1, y1, x2, y2, ..."""
    return "*".join(f"{'xy'[v % 2]}{v // 2 + 1}" + (f"^{e}" if e > 1 else "")
                    for v, e in enumerate(mono) if e) or "1"


def _mode_name(f: models.FourierMode) -> str:
    """cos(2*pi*(2*x2)) for ("cos", (0, 2)); the constant is 1."""
    kind, (m1, m2) = f
    if kind == "const":
        return "1"
    terms = []
    if m1:
        terms.append(f"{m1}*x1" if m1 != 1 else "x1")
    if m2:
        sign = "+" if (m2 > 0 and terms) else ""
        terms.append(f"{sign}{m2}*x2" if m2 != 1 else f"{sign}x2")
    return f"{kind}(2*pi*({''.join(terms)}))"


def basis_names(kind: str, *args: int) -> dict[int, list[str]]:
    """Degree k -> the name of each basis vector of the model
    ``build_<kind>_model(*args)`` builds, in the model's order, named one
    element at a time: a coefficient function times an exterior monomial,
    function-major, with a factor 1 left out (y1 dx1, cos(2*pi*(x2)) dx2).
    A suspension vector that combines sector vectors is named as their sum,
    each with its coefficient (2*dx1 + 1*dx2)."""
    if kind == "torus":
        (n,) = args
        functions = ["1"]
    elif kind == "polynomial":
        n, cutoff = args
        functions = [_monomial_name(mono) for mono in models._monomials(2 * n, cutoff)]
    else:
        (cutoff,) = args
        n, modes = 1, models._fourier_functions([(0, m2) for m2 in range(1, cutoff + 1)])
        functions = [_mode_name(f) for f in modes]
    names = {}
    for k in range(2 * n + 1):
        names[k] = []
        for f in functions:
            for mono in exterior.ext_basis(2 * n, k):
                e = _ext_name(mono, kind)
                names[k].append(e if f == "1" else (f if e == "1" else f"{f} {e}"))
    if kind != "suspension":
        return names
    for k, embed in _suspension_embedding(modes).items():
        columns = embed.transpose()
        supports = [sorted(columns.row_items(j)) for j in range(columns.rows)]
        names[k] = [names[k][s[0][0]] if len(s) == 1 and s[0][1] == 1 else
                    " + ".join(f"{qf(x)}*{names[k][i]}" for i, x in s) for s in supports]
    return names


def suspension_full_complex(cutoff: int):
    """Full truncated complex on T^2 with the partial pullback operator.

    Every mode (m1, m2) of the box |m1|, |m2| <= cutoff is kept; the
    pullback m -> (m1, m1 + m2) is defined on a column only when the image
    mode stays in the box.  Returns (functions, dims, d_blocks, p_blocks,
    stable_columns), with d blocks in degrees 0 and 1 from
    ``exterior_derivative``, not from the package's assembly.
    """
    modes = []
    for m1 in range(-cutoff, cutoff + 1):
        for m2 in range(-cutoff, cutoff + 1):
            if (m1, m2) != (0, 0) and models._canonical_mode((m1, m2)) == (1, (m1, m2)):
                modes.append((m1, m2))
    functions = models._fourier_functions(modes)
    findex = {f: i for i, f in enumerate(functions)}
    d_blocks = exterior_derivative(functions, 2, models._derivative_entries)
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


def hodge_by_laplacian(model: models.ComplexModel) -> list[dict]:
    """The finite Hodge check's degrees from a kernel basis of D = M^t M, M the
    six maps of D stacked (adjoints are transposes in an orthonormal basis), and
    a spanning rank for the three summands; dim H from the d+dl numerator's
    and denominator's ranks, each eliminated on its own."""
    degrees = []
    for k in range(model.top_degree + 1):
        nk = model.dim(k)
        s = model.d_block(k - 1) @ model.dl_block(k)
        d_k, dl_k = model.d_block(k), model.dl_block(k)
        m = Matrix.vstack([s.transpose(), s, d_k, dl_k,
                           model.dl_block(k + 2).transpose() @ d_k,
                           model.d_block(k - 2).transpose() @ dl_k])
        kernel_cols = (m.transpose() @ m).kernel_matrix()
        dim_ker, rank_ddl = kernel_cols.cols, s.rank()
        dim_h = nk - Matrix.vstack([d_k, dl_k]).rank() - rank_ddl
        adjoint_cols = Matrix.hstack([d_k.transpose(), dl_k.transpose()])
        rank_adj = adjoint_cols.rank()
        spanning = Matrix.hstack([kernel_cols, s, adjoint_cols])
        degrees.append({
            "dim_total": nk, "dim_ker_D": dim_ker, "dim_h_dpl": dim_h, "rank_ddl": rank_ddl,
            "rank_adjoint": rank_adj,
            "decomposition_ok": dim_ker + rank_ddl + rank_adj == nk and spanning.rank() == nk,
            "kernel_matches_cohomology": dim_ker == dim_h})
    return degrees


def theory_dims(model: models.ComplexModel, theory: str) -> tuple[int, ...]:
    """A theory's dimensions as the number of ``representatives`` in each degree."""
    return tuple(r.cols for r in representatives(model, theory).values())


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Rational quotient and remainder, from one integer pseudo-division."""
    (da, a), (db, b) = integer_coords(poly_trim(a)), integer_coords(poly_trim(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    m, q, r = _pseudo_divmod(a, b)  # the rational quotient is q db / (m da)
    return [Q(c * db, m * da) for c in q], [Q(c, m * da) for c in r]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd, from the primitive pseudo-remainder sequence."""
    g = _gcd(integer_coords(poly_trim(a))[1], integer_coords(poly_trim(b))[1])
    return [Q(c, g[-1]) for c in g]
