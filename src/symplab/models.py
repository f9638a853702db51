"""Finite cochain models carrying d, the symplectic star, and d^Lambda.

Three builders:

* ``build_torus_model(n)`` -- constant-coefficient exterior forms on a
  2n-torus; d = 0, the star comes from w0 = sum dxi^dyi.
* ``build_polynomial_model(n, D)`` -- forms on R^2n with polynomial
  coefficients truncated at total degree D.  d drops coefficient degree
  by one and the star acts on the exterior factor only, so all five
  operator identities hold exactly on the truncated space.  The window
  marks coefficients of degree <= D-2, the sub-basis whose cohomology is
  unaffected by the truncation boundary.
* ``build_suspension_model(N)`` -- the holonomy-invariant subcomplex of
  Fourier-truncated forms on T^2 for the torus map x -> Lx with
  L = [[1, 1], [0, 1]], i.e. the basic complex of the suspension
  foliation.  Derivatives absorb the factor 2*pi into the basis scaling,
  so every matrix stays rational with integer entries.

Operators are plain dicts ``{degree: Matrix}`` of the blocks in range: d
in degrees 0..top-1, d^Lambda in 1..top.  Outside it a block is the zero
map, and ``model.d_block(k)`` and ``model.dl_block(k)`` are the one place
that says so.  The torus and suspension bases are orthonormal, so there
the adjoint of a block is its transpose.  The polynomial and suspension
builders assemble d with one routine, d(f dI) = sum_v (d f / d x_v) dx_v ^
dI, given a derivative rule for their coefficient functions.  Every
builder ends in ``_complex_model``, which composes the codifferential
(-1)^(k+1) star . d . star, checks the five operator identities once and
stores their report as ``model.identities``.  The degree sign is what
makes d and the codifferential anticommute (it drops out of every kernel,
image and cohomology dimension, and is +1 in the odd degrees the
reduction procedure walks through).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import exterior
from .linalg import Matrix, Q, qf

EXT_NAMES_XY = ("dx", "dy")  # interleaved pairs dx_i, dy_i


def _ext_label_xy(mono: exterior.Mono) -> str:
    if not mono:
        return "1"
    return "^".join(f"{EXT_NAMES_XY[v % 2]}{v // 2 + 1}" for v in mono)


def _ext_label_torus2(mono: exterior.Mono) -> str:
    if not mono:
        return "1"
    return "^".join(f"dx{v + 1}" for v in mono)


def _product_labels(function_labels: list[str], ext_labels: list[str]) -> list[str]:
    """Labels of a function-major basis: each coefficient function times each
    exterior monomial, with a factor "1" left out."""
    return [el if fl == "1" else (fl if el == "1" else f"{fl} {el}")
            for fl in function_labels for el in ext_labels]


@dataclass
class ComplexModel:
    """Finite graded cochain model with exact operator matrices."""

    name: str
    kind: str  # torus | polynomial | suspension
    top_degree: int
    graded_basis: dict[int, list[str]]
    d: dict[int, Matrix]  # degree k -> k + 1
    star_s: dict[int, Matrix]  # degree k -> top - k
    d_lambda: dict[int, Matrix]  # degree k -> k - 1
    window: dict[int, list[int]] | None = None
    meta: dict = field(default_factory=dict)
    identities: dict[str, dict[int, bool]] = field(default_factory=dict)

    def dim(self, k: int) -> int:
        if 0 <= k <= self.top_degree:
            return len(self.graded_basis[k])
        return 0

    def dims(self) -> list[int]:
        return [self.dim(k) for k in range(self.top_degree + 1)]

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


def star_s_apply(v: FormVector) -> FormVector:
    return _apply(v, v.model.star_s.__getitem__, v.model.top_degree - v.degree)


def _signed_star_d_star(d: dict[int, Matrix], star: dict[int, Matrix], top: int,
                        k: int) -> Matrix:
    """The codifferential (-1)^(k+1) star . d . star on k-forms, k >= 1.

    The degree sign is forced: without it the anticommutation identity
    d.dl + dl.d = 0 fails already for 1-forms on R^2.  On the odd degrees
    that the reduction procedure walks through the sign is +1.
    """
    composed = star[top - k + 1] @ d[top - k] @ star[k]
    return composed if k % 2 == 1 else composed.scale(-1)


def operator_identity_report(model: ComplexModel) -> dict[str, dict[int, bool]]:
    """Exact per-degree checks of the five structural matrix identities."""
    top = model.top_degree
    d, star, dl = model.d_block, model.star_s, model.dl_block
    report: dict[str, dict[int, bool]] = {
        "d.d=0": {}, "star.star=id": {}, "dl=signed star.d.star": {},
        "dl.dl=0": {}, "d.dl+dl.d=0": {},
    }
    for k in range(top):
        report["d.d=0"][k] = (d(k + 1) @ d(k)).is_zero()
    for k in range(top + 1):
        comp = star[top - k] @ star[k]
        report["star.star=id"][k] = comp == Matrix.identity(model.dim(k))
    for k in range(top + 1):
        report["dl=signed star.d.star"][k] = (
            k == 0 or dl(k) == _signed_star_d_star(model.d, star, top, k))
    for k in range(top + 1):
        report["dl.dl=0"][k] = (dl(k - 1) @ dl(k)).is_zero()
    for k in range(top + 1):
        report["d.dl+dl.d=0"][k] = (d(k - 1) @ dl(k) + dl(k + 1) @ d(k)).is_zero()
    return report


def _complex_model(name: str, kind: str, basis: dict[int, list[str]],
                   d: dict[int, Matrix], star: dict[int, Matrix], **extra) -> ComplexModel:
    """The one way every builder finishes a model.

    ``d`` holds the blocks of degrees 0..top-1; the codifferential, in
    degrees 1..top, and the identity report are added here.  A failed
    identity raises; the report is kept as ``model.identities``.
    """
    top = len(basis) - 1
    dl = {k: _signed_star_d_star(d, star, top, k) for k in range(1, top + 1)}
    model = ComplexModel(name=name, kind=kind, top_degree=top, graded_basis=basis,
                         d=d, star_s=star, d_lambda=dl, **extra)
    model.identities = operator_identity_report(model)
    for identity, per_degree in model.identities.items():
        bad = [k for k, ok in per_degree.items() if not ok]
        if bad:
            raise AssertionError(f"identity {identity} fails in degrees {bad} of {name}")
    return model


def _exterior_derivative(functions: list, m: int, derivative) -> dict[int, Matrix]:
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


# ---------------------------------------------------------------------------
# torus model
# ---------------------------------------------------------------------------

def build_torus_model(n: int) -> ComplexModel:
    """Constant-coefficient forms on a 2n-torus: d = 0, star from w0."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    m = 2 * n
    basis = {k: [_ext_label_xy(mono) for mono in exterior.ext_basis(m, k)]
             for k in range(m + 1)}
    dims = {k: len(basis[k]) for k in basis}
    d = {k: Matrix.zeros(dims[k + 1], dims[k]) for k in range(m)}
    return _complex_model(f"torus-n{n}", "torus", basis, d, exterior.star_blocks(n),
                          meta={"n": n})


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


def _var_name(v: int) -> str:
    return f"{'xy'[v % 2]}{v // 2 + 1}"


def _mono_label(mono: tuple[int, ...]) -> str:
    parts = [f"{_var_name(v)}" + (f"^{e}" if e > 1 else "")
             for v, e in enumerate(mono) if e > 0]
    return "*".join(parts) if parts else "1"


def build_polynomial_model(n: int, cutoff: int) -> ComplexModel:
    """Polynomial-coefficient forms on R^2n, coefficient degree <= cutoff."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    m = 2 * n
    monos = _monomials(m, cutoff)
    ext = {k: exterior.ext_basis(m, k) for k in range(m + 1)}

    mono_labels = [_mono_label(mono) for mono in monos]
    basis = {k: _product_labels(mono_labels, [_ext_label_xy(e) for e in ext[k]])
             for k in range(m + 1)}

    def derivative(mono: tuple[int, ...], v: int) -> list[tuple[int, tuple[int, ...]]]:
        e = mono[v]  # x^a -> a_v * x^(a - e_v)
        return [(e, mono[:v] + (e - 1,) + mono[v + 1:])] if e else []

    d = _exterior_derivative(monos, m, derivative)
    star_ext = exterior.star_blocks(n)
    star = {k: Matrix.kron(Matrix.identity(len(monos)), star_ext[k]) for k in range(m + 1)}
    window = {k: [mi * len(ext[k]) + ei
                  for mi, mono in enumerate(monos) if sum(mono) <= cutoff - 2
                  for ei in range(len(ext[k]))]
              for k in range(m + 1)}
    return _complex_model(f"polynomial-n{n}-D{cutoff}", "polynomial", basis, d, star,
                          window=window,
                          meta={"n": n, "D": cutoff, "monos": monos,
                                "mono_index": {mono: i for i, mono in enumerate(monos)}})


def w0_power_form(model: ComplexModel, j: int) -> FormVector:
    """w0^j as a constant-coefficient form of degree 2j."""
    n = model.meta["n"]
    ext_coords = exterior.w0_power_coords(n, j)
    if model.kind == "torus":
        return form_vector(model, 2 * j, ext_coords)
    if model.kind != "polynomial":
        raise ValueError("w0 powers are built on torus or polynomial models")
    monos = model.meta["monos"]
    const_i = model.meta["mono_index"][(0,) * (2 * n)]
    ecount = len(ext_coords)
    coords = [Q(0)] * model.dim(2 * j)
    for ei, c in enumerate(ext_coords):
        coords[const_i * ecount + ei] = c
    return form_vector(model, 2 * j, coords)


def poincare_antiderivative(v: FormVector, operator: str = "d") -> FormVector:
    """Primitive under d (or d_lambda) via the exact radial homotopy.

    For a closed k-form with monomial coefficients the homotopy sends
    p * dI to sum_j (-1)^(j-1)/(deg p + k) * p*x_{i_j} * d(I without i_j);
    the d_lambda primitive conjugates this by the star.  Deterministic:
    integration constants are always zero.
    """
    model = v.model
    if model.kind != "polynomial":
        raise ValueError("poincare_antiderivative is supported on polynomial models only")
    if operator not in ("d", "d_lambda"):
        raise ValueError("operator must be 'd' or 'd_lambda'")
    if operator == "d_lambda":
        if v.degree > model.top_degree - 1:
            raise ValueError("d_lambda antiderivative needs degree <= top - 1")
        if not d_lambda_apply(v).is_zero():
            raise ValueError("input is not coclosed")
        w = star_s_apply(_radial_homotopy(star_s_apply(v)))
        # sign chosen so that d_lambda(w) = v under the signed codifferential
        if v.degree % 2 == 1:
            w = FormVector(model, w.degree, tuple(-c for c in w.coords))
        return w
    if v.degree < 1:
        raise ValueError("d antiderivative needs degree >= 1")
    if not d_apply(v).is_zero():
        raise ValueError("input is not closed")
    return _radial_homotopy(v)


def _radial_homotopy(v: FormVector) -> FormVector:
    model = v.model
    n = model.meta["n"]
    cutoff = model.meta["D"]
    m = 2 * n
    k = v.degree
    if k < 1:
        raise ValueError("homotopy needs degree >= 1")
    monos = model.meta["monos"]
    mono_index = model.meta["mono_index"]
    ext_src = exterior.ext_basis(m, k)
    ext_dst = exterior.ext_basis(m, k - 1)
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
            target_ext = emono[:pos] + emono[pos + 1:]
            row = mono_index[raised] * len(ext_dst) + ext_dst_index[target_ext]
            out[row] += c * weight * ((-1) ** pos)
    return form_vector(model, k - 1, out)


def alpha_form(model: ComplexModel, k: int) -> FormVector:
    """Normalized primitive of w0^k: d(alpha) = w0^k exactly.

    The normalization is computed by the homotopy itself rather than
    taken from a printed coefficient.
    """
    n = model.meta.get("n")
    if model.kind != "polynomial":
        raise ValueError("alpha_form lives in the polynomial model")
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    return poincare_antiderivative(w0_power_form(model, k), "d")


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


def _mode_label(f: FourierMode) -> str:
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


def _pullback_function(f: FourierMode, box: int | None = None) -> list[tuple[Fraction, FourierMode]] | None:
    """Composition with x -> Lx on modes: m -> L^t m = (m1, m1 + m2).

    Returns None when the image mode leaves the cutoff box.
    """
    kind, (m1, m2) = f
    if kind == "const":
        return [(Q(1), f)]
    image = (m1, m1 + m2)
    if box is not None and (abs(image[0]) > box or abs(image[1]) > box):
        return None
    sign, canon = _canonical_mode(image)
    if kind == "cos":
        return [(Q(1), ("cos", canon))]
    return [(Q(sign), ("sin", canon))]


_PULLBACK_EXT: dict[exterior.Mono, list[tuple[int, exterior.Mono]]] = {
    (): [(1, ())],
    (0,): [(1, (0,)), (1, (1,))],  # dx1 -> dx1 + dx2
    (1,): [(1, (1,))],
    (0, 1): [(1, (0, 1))],  # (dx1 + dx2) ^ dx2 = dx1 ^ dx2
}


def _fourier_pullback(functions: list[FourierMode], box: int | None):
    """Pullback matrices per degree on the function-major basis of a span of
    Fourier modes on T^2, and the columns where they are defined."""
    findex = {f: i for i, f in enumerate(functions)}
    p_blocks: dict[int, Matrix] = {}
    stable: dict[int, list[int]] = {}
    for k in range(3):
        ext = exterior.ext_basis(2, k)
        ext_index = {mono: i for i, mono in enumerate(ext)}
        blk = Matrix.zeros(len(functions) * len(ext), len(functions) * len(ext))
        cols: list[int] = []
        for fi, f in enumerate(functions):
            transported = _pullback_function(f, box)
            if transported is None or any(g not in findex for _, g in transported):
                continue  # image mode leaves the cutoff: column stays undefined
            for ei, emono in enumerate(ext):
                col = fi * len(ext) + ei
                for coeff, g in transported:
                    for esign, target in _PULLBACK_EXT[emono]:
                        row = findex[g] * len(ext) + ext_index[target]
                        blk[row, col] += esign * coeff
                cols.append(col)
        p_blocks[k] = blk
        stable[k] = cols
    return p_blocks, stable


def suspension_full_complex(cutoff: int):
    """Full truncated complex on T^2 with the partial pullback operator.

    Returns (functions, dims, d_blocks, p_blocks, stable_columns), with d
    blocks in degrees 0 and 1; used to check that the pullback commutes
    with d where both sides are defined and that w0 is pullback-invariant.
    """
    modes = []
    for m1 in range(-cutoff, cutoff + 1):
        for m2 in range(-cutoff, cutoff + 1):
            if (m1, m2) == (0, 0):
                continue
            if _canonical_mode((m1, m2))[0] == 1 and _canonical_mode((m1, m2))[1] == (m1, m2):
                modes.append((m1, m2))
    functions = _fourier_functions(modes)
    d_blocks = _exterior_derivative(functions, 2, _derivative_entries)
    p_blocks, stable = _fourier_pullback(functions, cutoff)
    return functions, {k: p_blocks[k].rows for k in range(3)}, d_blocks, p_blocks, stable


def build_suspension_model(cutoff: int) -> ComplexModel:
    """Basic complex of the suspension foliation at Fourier cutoff N.

    Only modes whose orbit under m -> (m1, m1 + m2) stays inside the box
    can support invariant vectors (the orbit is finite exactly when
    m1 = 0), so the invariance solve runs on that stable sector; the
    invariant subcomplex is the exact nullspace of P - I in each degree.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    sector_modes = [(0, m2) for m2 in range(1, cutoff + 1)]
    functions = _fourier_functions(sector_modes)
    d_blocks = _exterior_derivative(functions, 2, _derivative_entries)
    p_blocks, stable = _fourier_pullback(functions, None)
    for k in range(3):
        if len(stable[k]) != p_blocks[k].cols:
            raise AssertionError("stable sector is not closed under the pullback")

    star_ext = exterior.star_blocks(1)
    star_sector = {k: Matrix.kron(Matrix.identity(len(functions)), star_ext[k])
                   for k in range(3)}

    embed = {k: (p_blocks[k] - Matrix.identity(p_blocks[k].rows)).kernel_matrix()
             for k in range(3)}

    def restrict(block: Matrix, k_src: int, k_dst: int) -> Matrix:
        image = block @ embed[k_src]
        return embed[k_dst].solve_matrix(image)

    d_inv = {k: restrict(d_blocks[k], k, k + 1) for k in range(2)}
    star_inv = {k: restrict(star_sector[k], k, 2 - k) for k in range(3)}

    mode_labels = [_mode_label(f) for f in functions]
    labels: dict[int, list[str]] = {}
    for k in range(3):
        sector_labels = _product_labels(
            mode_labels, [_ext_label_torus2(mono) for mono in exterior.ext_basis(2, k)])
        labels[k] = []
        columns = embed[k].transpose()
        for j in range(columns.rows):
            support = sorted(columns.row_items(j))
            if len(support) == 1 and support[0][1] == 1:
                labels[k].append(sector_labels[support[0][0]])
            else:
                labels[k].append(" + ".join(
                    f"{qf(x)}*{sector_labels[i]}" for i, x in support))

    return _complex_model(f"suspension-N{cutoff}", "suspension", labels, d_inv, star_inv,
                          meta={"N": cutoff})

