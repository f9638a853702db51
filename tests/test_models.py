import random
from fractions import Fraction as Q

import pytest

import symplab.exterior as ext
from symplab.linalg import Matrix
from symplab.models import (alpha_form, build_polynomial_model,
                            build_suspension_model, build_torus_model,
                            d_apply, d_lambda_apply, form_vector,
                            operator_identity_report,
                            poincare_antiderivative, star_s_apply,
                            suspension_full_complex, w0_power_form)
from shared_models import POLY_N2 as POLY2  # built once, shared
from star_oracle import covector_pairing, pairing_k, solved_star_blocks

TORUS1 = build_torus_model(1)
TORUS2 = build_torus_model(2)
POLY1 = build_polynomial_model(1, 4)
SUSP2 = build_suspension_model(2)


def struct_identities_all_hold(model):
    report = operator_identity_report(model)
    assert report == model.identities  # the report the build stored
    return all(ok for per_degree in report.values() for ok in per_degree.values())


# -- exterior layer oracles ---------------------------------------------------

def test_wedge_sign_oracle():
    assert ext.wedge_monomials((0,), (1,)) == (1, (0, 1))
    assert ext.wedge_monomials((1,), (0,)) == (-1, (0, 1))
    assert ext.wedge_monomials((0,), (0,)) is None
    assert ext.wedge_monomials((0, 2), (1, 3)) == (-1, (0, 1, 2, 3))


def test_star_satisfies_defining_identity():
    # oracle: alpha ^ star(beta) = G(alpha, beta) * vol, checked by direct
    # wedge expansion, independent of the index rule that built the blocks
    for n in (1, 2):
        m = 2 * n
        g1 = covector_pairing(n)
        blocks = ext.star_blocks(n)
        for k in range(m + 1):
            basis_k = ext.ext_basis(m, k)
            for bi, beta in enumerate(basis_k):
                star_col = blocks[k].column(bi)
                for ai, alpha in enumerate(basis_k):
                    unit_a = [Q(1) if t == ai else Q(0) for t in range(len(basis_k))]
                    wedge = ext.wedge_vectors(m, k, m - k, unit_a, star_col)
                    assert wedge == [pairing_k(g1, alpha, beta)]


def test_star_involution_all_degrees():
    # the index rule equals the star solved from the defining identity, and
    # each block is a signed permutation
    for n in (1, 2, 3, 4):
        blocks = ext.star_blocks(n)
        assert blocks == solved_star_blocks(n)
        for k in range(2 * n + 1):
            columns = blocks[k].transpose()
            assert all([abs(v) for _, v in columns.row_items(j)] == [1]
                       for j in range(columns.rows))
            comp = blocks[2 * n - k] @ blocks[k]
            assert comp == Matrix.identity(comp.rows)


def test_pairing_examples():
    g1 = covector_pairing(1)
    # G is the matrix inverse of w0: G(dx, dy) = -1
    assert g1.data[0][1] == Q(-1)
    assert g1.data[1][0] == Q(1)
    w0 = ext.w0_coords(1)
    assert pairing_k(g1, (0, 1), (0, 1)) == Q(1)


# -- torus model ---------------------------------------------------------------

def test_torus_dims():
    assert TORUS1.dims() == [1, 2, 1]
    assert TORUS2.dims() == [1, 4, 6, 4, 1]


def test_torus_star_examples():
    # star(1) = w0 and star(w0) = 1 for n=1
    one = form_vector(TORUS1, 0, [1])
    w0 = form_vector(TORUS1, 2, [1])
    assert star_s_apply(one).coords == (Q(1),)
    assert star_s_apply(one).degree == 2
    assert star_s_apply(w0).coords == (Q(1),)
    # with the pairing taken from the inverse of w0, star negates 1-forms
    dx = form_vector(TORUS1, 1, [1, 0])
    assert star_s_apply(dx).coords == (Q(-1), Q(0))


def test_torus_d_and_dlambda_vanish():
    assert TORUS1.d[0].is_zero()
    assert TORUS2.d[1].is_zero()
    assert TORUS1.d_lambda[1].is_zero()
    assert TORUS2.d_lambda[2].is_zero()


def test_torus_identities():
    assert struct_identities_all_hold(TORUS1)
    assert struct_identities_all_hold(TORUS2)


# -- polynomial model -----------------------------------------------------------

def test_polynomial_dims_n1_D2():
    model = build_polynomial_model(1, 2)
    # 6 monomials of degree <= 2 in x1, y1 times 2 covectors
    assert model.dim(1) == 12
    assert model.dims() == [6, 12, 6]


def test_polynomial_d_leibniz_example():
    # d(x * dy) = dx ^ dy = w0
    mono_i = POLY1.meta["mono_index"][(1, 0)]
    e1 = ext.ext_basis(2, 1)
    coords = [Q(0)] * POLY1.dim(1)
    coords[mono_i * len(e1) + e1.index((1,))] = Q(1)
    dv = d_apply(form_vector(POLY1, 1, coords))
    assert dv.coords == w0_power_form(POLY1, 1).coords


def test_polynomial_star_acts_on_exterior_factor_only():
    # sparsity oracle: star never mixes coefficient monomials
    n = POLY1.meta["n"]
    for k in range(2 * n + 1):
        blk = POLY1.star_s[k]
        e_src = len(ext.ext_basis(2 * n, k))
        e_dst = len(ext.ext_basis(2 * n, 2 * n - k))
        for r in range(blk.rows):
            for c in range(blk.cols):
                if blk.data[r][c] != 0:
                    assert r // e_dst == c // e_src


def test_polynomial_d_lowers_coefficient_degree_by_one():
    monos = POLY1.meta["monos"]
    for k in range(2):
        blk = POLY1.d[k]
        e_src = len(ext.ext_basis(2, k))
        e_dst = len(ext.ext_basis(2, k + 1))
        for r in range(blk.rows):
            for c in range(blk.cols):
                if blk.data[r][c] != 0:
                    assert sum(monos[r // e_dst]) == sum(monos[c // e_src]) - 1


def test_polynomial_window_marks_low_degrees():
    monos = POLY1.meta["monos"]
    d_cut = POLY1.meta["D"]
    for k, idxs in POLY1.window.items():
        e_k = len(ext.ext_basis(2, k))
        marked = set(idxs)
        for i in range(POLY1.dim(k)):
            low_degree = sum(monos[i // e_k]) <= d_cut - 2
            assert (i in marked) == low_degree


def test_polynomial_identities():
    assert struct_identities_all_hold(POLY1)
    assert struct_identities_all_hold(POLY2)
    assert struct_identities_all_hold(build_polynomial_model(1, 8))


def test_polynomial_rejects_small_cutoff():
    with pytest.raises(ValueError):
        build_polynomial_model(1, 1)


# -- radial homotopy -------------------------------------------------------------

def test_poincare_antiderivative_w0():
    w = poincare_antiderivative(w0_power_form(POLY1, 1), "d")
    assert d_apply(w).coords == w0_power_form(POLY1, 1).coords
    # the radial primitive (x dy - y dx) / 2
    labels = {POLY1.graded_basis[1][i]: c for i, c in enumerate(w.coords) if c != 0}
    assert labels == {"x1 dy1": Q(1, 2), "y1 dx1": Q(-1, 2)}


def test_poincare_antiderivative_dx():
    e1 = ext.ext_basis(2, 1)
    const = POLY1.meta["mono_index"][(0, 0)]
    coords = [Q(0)] * POLY1.dim(1)
    coords[const * len(e1) + e1.index((0,))] = Q(1)  # dx1
    w = poincare_antiderivative(form_vector(POLY1, 1, coords), "d")
    labels = {POLY1.graded_basis[0][i]: c for i, c in enumerate(w.coords) if c != 0}
    assert labels == {"x1": Q(1)}  # x, zero integration constant


def test_poincare_antiderivative_random_closed_forms():
    rng = random.Random(41)
    model = build_polynomial_model(1, 6)
    for _ in range(10):
        f = form_vector(model, 0, [Q(rng.randint(-5, 5)) for _ in range(model.dim(0))])
        v = d_apply(f)  # exact hence closed 1-form
        w = poincare_antiderivative(v, "d")
        assert d_apply(w).coords == v.coords


def test_poincare_antiderivative_dlambda():
    one = w0_power_form(POLY1, 0)
    w = poincare_antiderivative(one, "d_lambda")
    assert d_lambda_apply(w).coords == one.coords
    assert w.degree == 1
    # degree-2 coclosed input
    rng = random.Random(42)
    model = build_polynomial_model(1, 6)
    z = form_vector(model, 2, [Q(rng.randint(-5, 5)) for _ in range(model.dim(2))])
    v = d_lambda_apply(z)
    w2 = poincare_antiderivative(v, "d_lambda")
    assert d_lambda_apply(w2).coords == v.coords


def test_poincare_antiderivative_preconditions():
    e1 = ext.ext_basis(2, 1)
    x_i = POLY1.meta["mono_index"][(1, 0)]
    coords = [Q(0)] * POLY1.dim(1)
    coords[x_i * len(e1) + e1.index((0,))] = Q(1)  # x dx is closed
    coords[x_i * len(e1) + e1.index((1,))] = Q(1)  # x dy is not
    with pytest.raises(ValueError):
        poincare_antiderivative(form_vector(POLY1, 1, coords), "d")
    with pytest.raises(ValueError):
        poincare_antiderivative(w0_power_form(POLY1, 1), "curl")
    with pytest.raises(ValueError):
        poincare_antiderivative(form_vector(TORUS1, 2, [1]), "d")
    with pytest.raises(ValueError):
        poincare_antiderivative(w0_power_form(POLY1, 0), "d")  # degree 0 under d


def test_antiderivative_cutoff_overflow():
    model = build_polynomial_model(1, 2)
    # y^2 dy has coefficient degree D = 2; its primitive would need degree 3
    e1 = ext.ext_basis(2, 1)
    yy = model.meta["mono_index"][(0, 2)]
    coords = [Q(0)] * model.dim(1)
    coords[yy * len(e1) + e1.index((1,))] = Q(1)
    with pytest.raises(ValueError):
        poincare_antiderivative(form_vector(model, 1, coords), "d")


# -- alpha forms ------------------------------------------------------------------

def test_alpha_form_defining_property():
    for model, k in ((POLY1, 1), (POLY2, 1), (POLY2, 2)):
        a = alpha_form(model, k)
        assert d_apply(a).coords == w0_power_form(model, k).coords


def test_alpha_form_dlambda_top_case():
    # d_lambda(alpha_1) = -1 for n = 1 (the k = n case is exact)
    a1 = alpha_form(POLY1, 1)
    dl = d_lambda_apply(a1)
    const = POLY1.meta["mono_index"][(0, 0)]
    expected = [Q(0)] * POLY1.dim(0)
    expected[const] = Q(-1)
    assert list(dl.coords) == expected
    # and d_lambda(alpha_3) = -w0 for n = 2
    a3 = alpha_form(POLY2, 2)
    assert d_lambda_apply(a3).coords == tuple(-c for c in w0_power_form(POLY2, 1).coords)


def test_alpha_form_star_identity_n2():
    # star(alpha_1) = -alpha_3 for n = 2, k = 1
    a1 = alpha_form(POLY2, 1)
    a3 = alpha_form(POLY2, 2)
    assert star_s_apply(a1).coords == tuple(-c for c in a3.coords)
    assert star_s_apply(a3).coords == tuple(-c for c in a1.coords)


def test_alpha_form_residual_constant_is_reported_not_hidden():
    # the k < n case carries the factorial factor: d_lambda(alpha_1) = -2
    # (not -1) on R^4; the exact operators surface it
    a1 = alpha_form(POLY2, 1)
    dl = d_lambda_apply(a1)
    const = POLY2.meta["mono_index"][(0, 0, 0, 0)]
    assert dl.coords[const] == Q(-2)


def test_alpha_form_range_check():
    with pytest.raises(ValueError):
        alpha_form(POLY1, 2)
    with pytest.raises(ValueError):
        alpha_form(TORUS1, 1)


# -- suspension model ----------------------------------------------------------------

def test_suspension_invariant_dimensions():
    for cutoff in (1, 2, 5):
        model = build_suspension_model(cutoff)
        assert model.dims() == [2 * cutoff + 1] * 3


def test_suspension_invariant_dims_against_nullspace_oracle():
    # oracle: solve ker(P - I) on the stable sector directly
    from symplab.models import _fourier_functions, _fourier_pullback
    cutoff = 3
    functions = _fourier_functions([(0, k) for k in range(1, cutoff + 1)])
    p_blocks, _ = _fourier_pullback(functions, None)
    for k, expected in ((0, 2 * cutoff + 1), (1, 2 * cutoff + 1), (2, 2 * cutoff + 1)):
        dim = len(functions) * len(ext.ext_basis(2, k))
        assert (p_blocks[k].rows, p_blocks[k].cols) == (dim, dim)
        delta = p_blocks[k] - Matrix.identity(dim)
        assert len(delta.nullspace()) == expected


def test_suspension_degree1_kills_dx1():
    # no dx1 component survives invariance
    for label in SUSP2.graded_basis[1]:
        assert "dx2" in label and "dx1" not in label


def test_suspension_identities():
    assert struct_identities_all_hold(SUSP2)
    assert struct_identities_all_hold(build_suspension_model(4))


def test_suspension_d_matches_mode_derivative():
    # d(cos(2 pi k x2)) = -k sin(2 pi k x2) dx2 in 2*pi-units
    model = SUSP2
    labels0 = model.graded_basis[0]
    labels1 = model.graded_basis[1]
    i_cos2 = labels0.index("cos(2*pi*(2*x2))")
    coords = [Q(0)] * model.dim(0)
    coords[i_cos2] = Q(1)
    dv = d_apply(form_vector(model, 0, coords))
    nz = {labels1[i]: c for i, c in enumerate(dv.coords) if c != 0}
    assert nz == {"sin(2*pi*(2*x2)) dx2": Q(-2)}


def test_suspension_dlambda_examples():
    model = SUSP2
    labels1 = model.graded_basis[1]
    labels2 = model.graded_basis[2]
    # d_lambda(b(x2) dx2) = 0
    coords = [Q(0)] * model.dim(1)
    coords[labels1.index("cos(2*pi*(x2)) dx2")] = Q(1)
    assert d_lambda_apply(form_vector(model, 1, coords)).is_zero()
    # d_lambda(g w0) = g' dx2 (in 2*pi-units): for g = cos_1, output -sin_1 dx2
    coords2 = [Q(0)] * model.dim(2)
    coords2[labels2.index("cos(2*pi*(x2)) dx1^dx2")] = Q(1)
    dl = d_lambda_apply(form_vector(model, 2, coords2))
    nz = {labels1[i]: c for i, c in enumerate(dl.coords) if c != 0}
    assert nz == {"sin(2*pi*(x2)) dx2": Q(-1)}
    # d_lambda of any 0-form is the zero map to the zero space
    f = form_vector(model, 0, [0] * model.dim(0))
    assert d_lambda_apply(f).is_zero()


def test_suspension_pullback_commutes_with_d_on_stable_modes():
    for cutoff in (2, 3):
        functions, dims, d_blocks, p_blocks, stable = suspension_full_complex(cutoff)
        for k in range(2):
            lhs = p_blocks[k + 1] @ d_blocks[k]
            rhs = d_blocks[k] @ p_blocks[k]
            for col in stable[k]:
                assert lhs.column(col) == rhs.column(col)


def test_suspension_w0_is_pullback_invariant():
    functions, dims, d_blocks, p_blocks, stable = suspension_full_complex(2)
    # w0 = dx1 ^ dx2 with constant coefficient: index of ("const", (0,1)-monomial)
    w0 = [Q(0)] * dims[2]
    w0[0] = Q(1)  # constant mode is first; single 2-form monomial per mode
    assert p_blocks[2].apply(w0) == w0


def test_suspension_full_box_mode_count():
    functions, dims, _, _, _ = suspension_full_complex(2)
    assert dims[0] == (2 * 2 + 1) ** 2  # 25 real Fourier basis functions
    assert dims[1] == 2 * dims[0]


def test_star_is_degree_complementing_block_shapes():
    for model in (TORUS2, POLY1, SUSP2):
        top = model.top_degree
        for k in range(top + 1):
            blk = model.star_s[k]
            assert (blk.rows, blk.cols) == (model.dim(top - k), model.dim(k))


@pytest.mark.parametrize("model", [TORUS2, POLY1, SUSP2], ids=lambda m: m.name)
def test_blocks_outside_the_degree_range_are_zero_maps(model):
    top = model.top_degree
    for k in range(-2, top + 3):
        d, dl = model.d_block(k), model.dl_block(k)
        assert (d.rows, d.cols) == (model.dim(k + 1), model.dim(k))
        assert (dl.rows, dl.cols) == (model.dim(k - 1), model.dim(k))
        assert d == model.d[k] if 0 <= k < top else d.is_zero()
        assert dl == model.d_lambda[k] if 1 <= k <= top else dl.is_zero()


def test_apply_degree_out_of_range():
    with pytest.raises(ValueError):
        d_apply(form_vector(TORUS1, 5, []))
    with pytest.raises(ValueError):
        star_s_apply(form_vector(TORUS1, -1, []))


def test_corrupted_d_matrix_detected():
    # negative path: breaking a d block must trip the identity report
    model = build_torus_model(1)
    bad = Matrix.zeros(model.dim(1), model.dim(0))
    bad[0, 0] = Q(1)
    model.d[0] = bad
    report = operator_identity_report(model)
    assert not all(ok for per in report.values() for ok in per.values())
