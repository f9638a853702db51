"""Finite cochain models carrying d, the symplectic star, and d^Lambda.

Three builders:

* ``build_torus_model(n)`` -- constant-coefficient exterior forms on a
  2n-torus; d = 0, the star comes from w0 = sum dxi^dyi.
* ``build_polynomial_model(n, D)`` -- forms on R^2n with polynomial
  coefficients truncated at total degree D.  d drops coefficient degree
  by one and the star acts on the exterior factor only, so the operator
  identities hold exactly on the truncated space.  The window
  marks coefficients of degree <= D-2, the sub-basis whose cohomology is
  unaffected by the truncation boundary.  The radial homotopy is the
  Euler contraction iota_E = sum_v (x_v .) (x) iota_v, built on first use.
* ``build_suspension_model(N)`` -- the holonomy-invariant subcomplex of
  Fourier-truncated forms on T^2 for the torus map x -> Lx with
  L = [[1, 1], [0, 1]], i.e. the basic complex of the suspension
  foliation, sector functions (x) ker(P_ext - I).  Derivatives absorb the
  2*pi into the basis scaling, so every entry is an integer.

A model carries the dimension of each degree, ``model.dims``, not names
for its basis vectors: every result is a dimension, rank or verdict, and
the top degree is ``len(dims) - 1``.  Operators are plain dicts
``{degree: Matrix}`` of the blocks in range: d in degrees 0..top-1,
d^Lambda in 1..top.  Outside it a block is the zero map, and
``model.d_block(k)`` and ``model.dl_block(k)`` are the one place that says
so.  The torus and suspension bases are orthonormal, so there the adjoint
of a block is its transpose.  Each model is coefficient functions (x)
exterior forms, assembled by one routine from a derivative rule for the
functions: d = sum_v (d/dx_v) (x) (dx_v ^ .), like iota_E
one ``Matrix.kron_sum`` of ``_rule_matrix`` factors, and star = 1 (x)
star_ext through ``Matrix.kron`` (the torus's one function is constant,
so its d is zero).  A ``ComplexModel`` exists only verified: its
constructor forms the codifferential dl_k = (-1)^(k+1) star . d . star as
that product, checks the three identities of the model's own data, d.d = 0,
star.star = id (each star block read once as a signed permutation) and
d.dl + dl.d = 0, raises AssertionError on the first that fails, and keeps
the composites d.dl the anticommutation check forms as ``model.d_dl``.
Every way of making a model runs it: the builders, a direct call and
``dataclasses.replace``.  Two more identities need no check: dl = signed
star.d.star holds by construction, and dl.dl = 0 follows from the three,
since dl_(k-1) . dl_k = +-star . d . (star . star) . d . star
= +-star . (d . d) . star = 0.  The degree sign is what makes d and the
codifferential anticommute (it drops out of every kernel, image and
cohomology dimension, and is +1 in the odd degrees the reduction procedure
walks through).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import exterior
from .linalg import Matrix, Q, qf

IDENTITIES = ("d.d=0", "star.star=id", "d.dl+dl.d=0")


@dataclass
class ComplexModel:
    """Finite graded cochain model with exact operator matrices, given d and the
    signed-permutation stars; the constructor forms dl and d.dl and verifies them."""

    name: str
    kind: str  # torus | polynomial | suspension
    dims: tuple[int, ...]  # the dimension of each degree 0..top
    d: dict[int, Matrix]  # degree k -> k + 1
    star_s: dict[int, Matrix]  # degree k -> top - k
    window: dict[int, list[int]] | None = None
    meta: dict = field(default_factory=dict)
    d_lambda: dict[int, Matrix] = field(init=False)  # degree k -> k - 1
    d_dl: dict[int, Matrix] = field(init=False)  # degree k -> k: d_(k-1) . dl_k
    # degree k -> k - 1: iota_E, built by euler_contraction on first use
    iota_e: dict[int, Matrix] = field(default_factory=dict, init=False, repr=False, compare=False)
    # degree k -> cohomology's rank table entries, each eliminated on first use
    ranks: dict[int, dict] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        top = self.top_degree
        self.d_lambda = {k: _signed_star_d_star(self.d, self.star_s, top, k)
                         for k in range(1, top + 1)}
        report, self.d_dl = operator_identity_report(self)
        for identity, per_degree in report.items():
            bad = [k for k, ok in per_degree.items() if not ok]
            if bad:
                raise AssertionError(f"identity {identity} fails in degrees {bad} of {self.name}")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def dim(self, k: int) -> int:
        """The dimension of degree k; 0 outside degrees 0..top."""
        return self.dims[k] if 0 <= k <= self.top_degree else 0

    def d_block(self, k: int) -> Matrix:
        """d from degree k to k + 1; the zero map outside degrees 0..top-1."""
        return self.d[k] if k in self.d else Matrix.zeros(self.dim(k + 1), self.dim(k))

    def dl_block(self, k: int) -> Matrix:
        """d_lambda from degree k to k - 1; the zero map outside degrees 1..top."""
        return (self.d_lambda[k] if k in self.d_lambda
                else Matrix.zeros(self.dim(k - 1), self.dim(k)))


@dataclass(frozen=True)
class FormVector:
    model: ComplexModel
    degree: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        expected = self.model.dim(self.degree)
        if len(self.coords) != expected:
            raise ValueError(f"expected {expected} coordinates in degree {self.degree}")

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)


def form_vector(model: ComplexModel, degree: int, coords) -> FormVector:
    return FormVector(model, degree, tuple(qf(c) for c in coords))


def _apply(v: FormVector, block, degree: int) -> FormVector:
    """block(v.degree) applied to v, landing in ``degree``; d at the top and
    dl in degree 0 are blocks with no rows, which give the empty vector."""
    if not 0 <= v.degree <= v.model.top_degree:
        raise ValueError("degree out of range")
    return FormVector(v.model, degree, tuple(block(v.degree).apply(v.coords)))


def d_apply(v: FormVector) -> FormVector:
    return _apply(v, v.model.d_block, v.degree + 1)


def d_lambda_apply(v: FormVector) -> FormVector:
    return _apply(v, v.model.dl_block, v.degree - 1)


def _signed_star_d_star(d: dict[int, Matrix], star: dict[int, Matrix], top: int,
                        k: int) -> Matrix:
    """The codifferential (-1)^(k+1) star . d . star on k-forms, k >= 1, as a product.

    The degree sign is forced: without it the anticommutation identity
    d.dl + dl.d = 0 fails already for 1-forms on R^2.  On the odd degrees
    that the reduction procedure walks through the sign is +1.
    """
    composed = star[top - k + 1] @ d[top - k] @ star[k]
    return composed if k % 2 == 1 else composed.scale(-1)


def _signed_permutation(block: Matrix) -> tuple[list[int], list[int]]:
    """The row and the sign of the one entry +-1 in each column of a signed permutation."""
    rows, signs = [None] * block.cols, [0] * block.cols
    for i in range(block.rows):
        for j, v in block.row_items(i):
            if rows[j] is not None or v not in (1, -1):
                raise AssertionError("star block is not a signed permutation")
            rows[j], signs[j] = i, v
    if None in rows or len(set(rows)) != block.rows:
        raise AssertionError("star block is not a signed permutation")
    return rows, signs


def operator_identity_report(model: ComplexModel) -> tuple[dict, dict[int, Matrix]]:
    """Exact per-degree checks of the three structural matrix identities, the
    star blocks read once each as ``_signed_permutation`` reads them, and the
    composites d_(k-1) . dl_k that the check of d.dl+dl.d=0 forms."""
    top = model.top_degree
    d, dl = model.d_block, model.dl_block
    perms = {k: _signed_permutation(block) for k, block in model.star_s.items()}
    report: dict[str, dict[int, bool]] = {name: {} for name in IDENTITIES}
    d_dl: dict[int, Matrix] = {}
    for k in range(top):
        report["d.d=0"][k] = (d(k + 1) @ d(k)).is_zero()
    for k in range(top + 1):
        (p, s), (q, t) = perms[k], perms[top - k]
        report["star.star=id"][k] = len(p) == model.dim(k) and all(
            q[pj] == j and sj * t[pj] == 1 for j, (pj, sj) in enumerate(zip(p, s)))
        d_dl[k] = d(k - 1) @ dl(k)
        report["d.dl+dl.d=0"][k] = dl(k + 1) @ d(k) == -d_dl[k]
    return report, d_dl


def _rule_matrix(rule, src: list, dst: list) -> Matrix:
    """The matrix sending the j-th element b of ``src`` to the sum of
    coeff * g over the pairs (coeff, g) that ``rule(b)`` lists, every g one
    of ``dst``."""
    index = {g: i for i, g in enumerate(dst)}
    m = Matrix.zeros(len(dst), len(src))
    for j, b in enumerate(src):
        for coeff, g in rule(b):
            m[index[g], j] += coeff
    return m


def _coefficient_forms(functions: list, derivative, n: int,
                       embed: dict[int, Matrix] | None = None
                       ) -> tuple[tuple[int, ...], dict[int, Matrix], dict[int, Matrix]]:
    """The dimension of each degree, d and star of coefficient functions (x)
    exterior forms over 2n covectors: all forms, or those spanned by the
    columns of each ``embed[k]`` as ``kernel_matrix`` gives them (a column
    ends in a 1 that no other column has, at its unit coordinate).

    A k-form is indexed function-major, as ``Matrix.kron`` orders it:
    ``functions[i]`` times the j-th degree-k exterior basis form sits at
    i * r_k + j.  ``derivative(f, v)`` lists the pairs (coefficient, g)
    summing to the partial derivative of f in the v-th variable, each g in
    ``functions``.  d_k = sum_v (d/dx_v) (x) (dx_v ^ .) and star_k = 1 (x)
    star_blocks(n)[k], exterior factors read at the unit coordinates and
    checked exactly (AssertionError if one leaves the subspace).
    """
    m = 2 * n
    ext = [exterior.ext_basis(m, k) for k in range(m + 1)]
    dims = tuple(len(functions) * (len(ext[k]) if embed is None else embed[k].cols)
                 for k in range(m + 1))
    if embed is not None:  # the unit coordinate of each column
        units = {k: [max(j for j, _ in c.row_items(t)) for t in range(c.rows)]
                 for k, c in ((k, e.transpose()) for k, e in embed.items())}

    def restrict(block: Matrix, k_src: int, k_dst: int) -> Matrix:
        if embed is None:
            return block
        image = block @ embed[k_src]
        x = image.submatrix(units[k_dst], range(image.cols))
        if embed[k_dst] @ x != image:
            raise AssertionError("an operator leaves the exterior subspace")
        return x

    partials = {v: p for v in range(m) if not (
        p := _rule_matrix(lambda f: derivative(f, v), functions, functions)).is_zero()}
    d = {k: Matrix.kron_sum((dims[k + 1], dims[k]), [
        (p, restrict(_rule_matrix(lambda e: [] if v in e else [exterior.wedge_monomials((v,), e)],
                                  ext[k], ext[k + 1]), k, k + 1))
        for v, p in partials.items()]) for k in range(m)}
    one = Matrix.identity(len(functions))
    star = {k: Matrix.kron(one, restrict(b, k, m - k)) for k, b in exterior.star_blocks(n).items()}
    return dims, d, star


# ---------------------------------------------------------------------------
# torus model
# ---------------------------------------------------------------------------

def build_torus_model(n: int) -> ComplexModel:
    """Constant-coefficient forms on a 2n-torus: the one coefficient
    function is the constant monomial, so d = 0; the star comes from w0."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    dims, d, star = _coefficient_forms(_monomials(2 * n, 0), _monomial_derivative, n)
    return ComplexModel(f"torus-n{n}", "torus", dims, d, star, meta={"n": n})


# ---------------------------------------------------------------------------
# polynomial model on R^2n
# ---------------------------------------------------------------------------

def _monomials(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, budget: int):
        if remaining == 0:
            out.append(prefix)
            return
        for e in range(budget + 1):
            rec(prefix + (e,), remaining - 1, budget - e)

    rec((), nvars, max_degree)
    out.sort(key=lambda t: (sum(t), t))
    return out


def _monomial_derivative(mono: tuple[int, ...], v: int) -> list[tuple[int, tuple[int, ...]]]:
    """d/dx_v of x^a: a_v * x^(a - e_v)."""
    e = mono[v]
    return [(e, mono[:v] + (e - 1,) + mono[v + 1:])] if e else []


def build_polynomial_model(n: int, cutoff: int) -> ComplexModel:
    """Polynomial-coefficient forms on R^2n, coefficient degree <= cutoff."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    monos = _monomials(2 * n, cutoff)
    dims, d, star = _coefficient_forms(monos, _monomial_derivative, n)
    # the monomials run by degree, so the window is the leading ones of
    # degree <= cutoff - 2, each with all its exterior monomials
    low = sum(1 for mono in monos if sum(mono) <= cutoff - 2)
    window = {k: list(range(low * comb(2 * n, k))) for k in range(len(dims))}
    return ComplexModel(f"polynomial-n{n}-D{cutoff}", "polynomial", dims, d, star,
                        window=window, meta={"n": n, "D": cutoff, "monos": monos})


def w0_power_form(model: ComplexModel, j: int) -> FormVector:
    """w0^j as a constant-coefficient form of degree 2j: the constant is
    function 0 of the torus and polynomial models, so its exterior
    coordinates lead the vector and zeros follow."""
    if model.kind not in ("torus", "polynomial"):
        raise ValueError("w0 powers are built on torus or polynomial models")
    ext_coords = exterior.w0_power_coords(model.meta["n"], j)
    return form_vector(model, 2 * j, ext_coords + [0] * (model.dim(2 * j) - len(ext_coords)))


def euler_contraction(model: ComplexModel, k: int) -> Matrix:
    """iota_E from k-forms to (k-1)-forms of a polynomial model, E = sum_v
    x_v d/dx_v the Euler field: sum_v (x_v .) (x) iota_v, iota_v taking
    dx_v out of its place i with the sign (-1)^i.  A column of coefficient
    degree D is zero, since x_v would raise it past the cutoff."""
    if k not in model.iota_e:
        m, cutoff, monos = 2 * model.meta["n"], model.meta["D"], model.meta["monos"]
        src, dst = exterior.ext_basis(m, k), exterior.ext_basis(m, k - 1)
        model.iota_e[k] = Matrix.kron_sum((model.dim(k - 1), model.dim(k)), [
            (_rule_matrix(lambda a: [(1, a[:v] + (a[v] + 1,) + a[v + 1:])] if sum(a) < cutoff
                          else [], monos, monos),
             _rule_matrix(lambda e: [((-1) ** e.index(v), tuple(u for u in e if u != v))]
                          if v in e else [], src, dst))
            for v in range(m)])
    return model.iota_e[k]


def poincare_antiderivative(v: FormVector) -> FormVector:
    """Primitive under d via the exact radial homotopy.

    On k-forms with coefficients homogeneous of degree p, d iota_E +
    iota_E d = p + k, so a closed form v has the primitive iota_E applied
    to v / (p + k), taken coordinate by coordinate.  Deterministic:
    integration constants are always zero.
    """
    model = v.model
    if model.kind != "polynomial":
        raise ValueError("poincare_antiderivative is supported on polynomial models only")
    k = v.degree
    if k < 1:
        raise ValueError("d antiderivative needs degree >= 1")
    if not d_apply(v).is_zero():
        raise ValueError("input is not closed")
    degrees = [sum(a) for a in model.meta["monos"] for _ in range(comb(2 * model.meta["n"], k))]
    if any(c and p == model.meta["D"] for c, p in zip(v.coords, degrees)):
        raise ValueError("antiderivative leaves the coefficient cutoff")
    scaled = [c / (p + k) for c, p in zip(v.coords, degrees)]
    return form_vector(model, k - 1, euler_contraction(model, k).apply(scaled))


# ---------------------------------------------------------------------------
# suspension model
# ---------------------------------------------------------------------------

FourierMode = tuple[str, tuple[int, int]]  # ("const"|"cos"|"sin", (m1, m2))


def _canonical_mode(m: tuple[int, int]) -> tuple[int, tuple[int, int]]:
    """Sign-canonical representative: cos(-m) = cos(m), sin(-m) = -sin(m)."""
    m1, m2 = m
    if m1 > 0 or (m1 == 0 and m2 > 0):
        return 1, m
    return -1, (-m1, -m2)


def _fourier_functions(modes: list[tuple[int, int]]) -> list[FourierMode]:
    out: list[FourierMode] = [("const", (0, 0))]
    for m in sorted(modes):
        out.append(("cos", m))
        out.append(("sin", m))
    return out


def _derivative_entries(f: FourierMode, axis: int) -> list[tuple[int, FourierMode]]:
    """d/dx_axis in 2*pi units: cos_m -> -m_a sin_m, sin_m -> m_a cos_m."""
    kind, m = f
    if kind == "const":
        return []
    coeff = m[axis]
    if coeff == 0:
        return []
    if kind == "cos":
        return [(-coeff, ("sin", m))]
    return [(coeff, ("cos", m))]


def _pullback_function(f: FourierMode) -> list[tuple[Fraction, FourierMode]]:
    """Composition with x -> Lx on modes: m -> L^t m = (m1, m1 + m2)."""
    kind, (m1, m2) = f
    if kind == "const":
        return [(Q(1), f)]
    sign, canon = _canonical_mode((m1, m1 + m2))
    if kind == "cos":
        return [(Q(1), ("cos", canon))]
    return [(Q(sign), ("sin", canon))]


_PULLBACK_EXT: dict[exterior.Mono, list[tuple[int, exterior.Mono]]] = {
    (): [(1, ())],
    (0,): [(1, (0,)), (1, (1,))],  # dx1 -> dx1 + dx2
    (1,): [(1, (1,))],
    (0, 1): [(1, (0, 1))],  # (dx1 + dx2) ^ dx2 = dx1 ^ dx2
}


def build_suspension_model(cutoff: int) -> ComplexModel:
    """Basic complex of the suspension foliation at Fourier cutoff N.

    Only modes whose orbit under m -> (m1, m1 + m2) stays inside the box
    can support invariant vectors (the orbit is finite exactly when
    m1 = 0).  The pullback fixes every function of that stable sector
    (AssertionError otherwise), so the invariant subcomplex is the sector
    (x) ker(P_ext - I), the nullspaces of 1x1, 2x2 and 1x1 exterior blocks.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    functions = _fourier_functions([(0, m2) for m2 in range(1, cutoff + 1)])
    if not {g for f in functions for _, g in _pullback_function(f)} <= set(functions):
        raise AssertionError("stable sector is not closed under the pullback")
    if any(_pullback_function(f) != [(1, f)] for f in functions):
        raise AssertionError("the pullback moves a function of the stable sector")
    fixed = {k: (_rule_matrix(_PULLBACK_EXT.__getitem__, e, e) - Matrix.identity(len(e)))
             .kernel_matrix() for k, e in enumerate(exterior.ext_basis(2, k) for k in range(3))}
    dims, d, star = _coefficient_forms(functions, _derivative_entries, 1, fixed)
    return ComplexModel(f"suspension-N{cutoff}", "suspension", dims, d, star,
                        meta={"N": cutoff})
