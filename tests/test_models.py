import dataclasses
import random
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

import symplab.exterior as ext
import symplab.models as models
from symplab.linalg import Matrix
from symplab.models import (ComplexModel, build_polynomial_model, build_suspension_model,
                            build_torus_model, d_apply, d_lambda_apply,
                            form_vector, operator_identity_report,
                            poincare_antiderivative, w0_power_form)
from oracles import (alpha_form, basis_names, cartan_mismatches, codifferential_by_index_rule,
                     fourier_pullback, loop_model, radial_antiderivative,
                     random_closed_forms, star_s_apply, suspension_full_complex,
                     w0_power_by_wedges, wedge_vectors)
from shared_models import POLY_N2 as POLY2  # built once, shared
from star_oracle import covector_pairing, pairing_k, solved_star_blocks
from strategies import PROPERTY, SIDE, matrices

TORUS1 = build_torus_model(1)
TORUS2 = build_torus_model(2)
POLY1 = build_polynomial_model(1, 4)
SUSP2 = build_suspension_model(2)


def plane_1form(model, *terms):
    """The 1-form on R^2 summing x^a dx_v over the terms (a, v)."""
    e1 = ext.ext_basis(2, 1)
    coords = [Q(0)] * model.dim(1)
    for a, v in terms:
        coords[model.meta["monos"].index(a) * len(e1) + e1.index((v,))] = Q(1)
    return form_vector(model, 1, coords)


def struct_identities_all_hold(model):
    # the constructor, called directly on the build's inputs, verifies the
    # identities again and gives the same model
    assert ComplexModel(model.name, model.kind, model.dims, model.d, model.star_s,
                        model.window, model.meta) == model
    report, d_dl = operator_identity_report(model)
    # the composites the constructor kept are d_(k-1) . dl_k
    assert model.d_dl == d_dl == {k: model.d_block(k - 1) @ model.dl_block(k)
                                  for k in range(model.top_degree + 1)}
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
                    wedge = wedge_vectors(m, k, m - k, unit_a, star_col)
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
    assert pairing_k(g1, (0, 1), (0, 1)) == Q(1)


# -- torus model ---------------------------------------------------------------

def test_torus_dims():
    assert TORUS1.dims == (1, 2, 1)
    assert TORUS2.dims == (1, 4, 6, 4, 1)
    assert (TORUS1.top_degree, TORUS2.top_degree) == (2, 4)


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
    assert model.dims == (6, 12, 6)


def test_polynomial_d_leibniz_example():
    # d(x * dy) = dx ^ dy = w0
    dv = d_apply(plane_1form(POLY1, ((1, 0), 1)))
    assert dv.coords == w0_power_form(POLY1, 1).coords


def test_polynomial_star_acts_on_exterior_factor_only():
    # sparsity oracle: star never mixes coefficient monomials
    n = POLY1.meta["n"]
    for k in range(2 * n + 1):
        blk = POLY1.star_s[k]
        e_src = len(ext.ext_basis(2 * n, k))
        e_dst = len(ext.ext_basis(2 * n, 2 * n - k))
        for r in range(blk.rows):
            assert all(r // e_dst == c // e_src for c, _ in blk.row_items(r))


def test_polynomial_d_lowers_coefficient_degree_by_one():
    monos = POLY1.meta["monos"]
    for k in range(2):
        blk = POLY1.d[k]
        e_src = len(ext.ext_basis(2, k))
        e_dst = len(ext.ext_basis(2, k + 1))
        for r in range(blk.rows):
            assert all(sum(monos[r // e_dst]) == sum(monos[c // e_src]) - 1
                       for c, _ in blk.row_items(r))


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
    w = poincare_antiderivative(w0_power_form(POLY1, 1))
    assert d_apply(w).coords == w0_power_form(POLY1, 1).coords
    # the radial primitive (x dy - y dx) / 2
    names = basis_names("polynomial", 1, 4)[1]
    assert len(names) == POLY1.dim(1)
    assert {names[i]: c for i, c in enumerate(w.coords) if c != 0} == {
        "x1 dy1": Q(1, 2), "y1 dx1": Q(-1, 2)}


def test_poincare_antiderivative_dx():
    w = poincare_antiderivative(plane_1form(POLY1, ((0, 0), 0)))  # dx1
    names = basis_names("polynomial", 1, 4)[0]
    assert len(names) == POLY1.dim(0)
    # x, with zero integration constant
    assert {names[i]: c for i, c in enumerate(w.coords) if c != 0} == {"x1": Q(1)}


def test_poincare_antiderivative_random_closed_forms():
    rng = random.Random(41)
    model = build_polynomial_model(1, 6)
    for _ in range(10):
        f = form_vector(model, 0, [Q(rng.randint(-5, 5)) for _ in range(model.dim(0))])
        v = d_apply(f)  # exact hence closed 1-form
        w = poincare_antiderivative(v)
        assert d_apply(w).coords == v.coords


def test_poincare_antiderivative_preconditions():
    with pytest.raises(ValueError):  # x dx is closed, x dy is not
        poincare_antiderivative(plane_1form(POLY1, ((1, 0), 0), ((1, 0), 1)))
    with pytest.raises(ValueError):
        poincare_antiderivative(form_vector(TORUS1, 2, [1]))
    with pytest.raises(ValueError):
        poincare_antiderivative(w0_power_form(POLY1, 0))  # degree 0 under d


def test_antiderivative_cutoff_overflow():
    model = build_polynomial_model(1, 2)
    # y^2 dy has coefficient degree D = 2; its primitive would need degree 3
    with pytest.raises(ValueError):
        poincare_antiderivative(plane_1form(model, ((0, 2), 1)))


@pytest.mark.parametrize("n, cutoff", [(1, 4), (1, 6), (2, 4), (2, 5), (3, 3)])
def test_poincare_antiderivative_matches_the_index_loop(n, cutoff):
    # iota_E / (p + k) against the hand-indexed radial homotopy, on closed
    # forms in every degree, the cutoff error included
    model = POLY2 if (n, cutoff) == (2, 4) else build_polynomial_model(n, cutoff)
    rng = random.Random(1000 * n + cutoff)
    outcomes = set()
    for k in range(1, 2 * n + 1):
        for v in random_closed_forms(model, k, rng, 3):
            try:
                expected = radial_antiderivative(v)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    poincare_antiderivative(v)
                outcomes.add("cutoff")
                continue
            w = poincare_antiderivative(v)
            assert w == expected
            assert d_apply(w).coords == v.coords
            outcomes.add("primitive")
    assert outcomes == {"cutoff", "primitive"}


@pytest.mark.parametrize("n, cutoff", [(1, 4), (1, 6), (2, 4), (3, 3)])
def test_euler_contraction_cartan_identity(n, cutoff):
    # d iota_E + iota_E d = p + k on every coordinate below the cutoff
    model = POLY2 if (n, cutoff) == (2, 4) else build_polynomial_model(n, cutoff)
    assert cartan_mismatches(model) == []


def test_euler_contraction_zero_at_the_cutoff():
    # x_v would raise a degree-D coefficient past the cutoff: those columns are zero
    monos, e1 = POLY1.meta["monos"], len(ext.ext_basis(2, 1))
    iota = models.euler_contraction(POLY1, 1).transpose()
    assert [j for j in range(iota.rows) if not iota.row_items(j)] == [
        j for j in range(iota.rows) if sum(monos[j // e1]) == POLY1.meta["D"]]


def test_euler_contraction_built_once_per_model_and_degree():
    # a fresh model holds no iota_E, so builds do not pay for it; the first
    # call fills the model's memo and later calls return that block
    model = build_polynomial_model(1, 6)
    assert model.iota_e == {}
    first = models.euler_contraction(model, 2)
    assert models.euler_contraction(model, 2) is first and list(model.iota_e) == [2]
    fresh = build_polynomial_model(1, 6)
    assert first == models.euler_contraction(fresh, 2)
    # the memo takes no part in equality and is not carried into a copy
    assert model == build_polynomial_model(1, 6)
    assert dataclasses.replace(model, window=None).iota_e == {}
    v = w0_power_form(model, 1)
    assert poincare_antiderivative(v) == poincare_antiderivative(v) == poincare_antiderivative(
        w0_power_form(build_polynomial_model(1, 6), 1))


def test_w0_power_coords_match_the_wedge_oracle():
    for n in range(1, 5):
        for j in range(n + 1):
            assert ext.w0_power_coords(n, j) == w0_power_by_wedges(n, j)


# -- alpha forms ------------------------------------------------------------------

def test_alpha_form_defining_property():
    for model, k in ((POLY1, 1), (POLY2, 1), (POLY2, 2)):
        a = alpha_form(model, k)
        assert d_apply(a).coords == w0_power_form(model, k).coords


def test_alpha_form_dlambda_top_case():
    # d_lambda(alpha_1) = -1 for n = 1 (the k = n case is exact)
    a1 = alpha_form(POLY1, 1)
    dl = d_lambda_apply(a1)
    const = POLY1.meta["monos"].index((0, 0))
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
    const = POLY2.meta["monos"].index((0, 0, 0, 0))
    assert dl.coords[const] == Q(-2)


def test_alpha_form_range_check():
    with pytest.raises(ValueError):
        alpha_form(POLY1, 2)
    with pytest.raises(ValueError):
        alpha_form(TORUS1, 1)
    with pytest.raises(ValueError, match="w0 powers are built on torus or polynomial models"):
        w0_power_form(SUSP2, 1)


# -- suspension model ----------------------------------------------------------------

def test_suspension_invariant_dimensions():
    for cutoff in (1, 2, 5):
        model = build_suspension_model(cutoff)
        assert model.dims == (2 * cutoff + 1,) * 3


def test_suspension_invariant_dims_against_nullspace_oracle():
    # oracle: solve ker(P - I) on the stable sector directly
    cutoff = 3
    functions = models._fourier_functions([(0, k) for k in range(1, cutoff + 1)])
    p_blocks = fourier_pullback(functions)
    for k, expected in ((0, 2 * cutoff + 1), (1, 2 * cutoff + 1), (2, 2 * cutoff + 1)):
        dim = len(functions) * len(ext.ext_basis(2, k))
        assert (p_blocks[k].rows, p_blocks[k].cols) == (dim, dim)
        delta = p_blocks[k] - Matrix.identity(dim)
        assert len(delta.nullspace()) == expected


def test_suspension_sector_must_be_closed_under_the_pullback(monkeypatch):
    # mode (1, 0) pulls back to (1, 1), which no sector holds
    sector = models._fourier_functions
    monkeypatch.setattr(models, "_fourier_functions", lambda modes: sector(modes + [(1, 0)]))
    with pytest.raises(AssertionError, match="stable sector is not closed under the pullback"):
        build_suspension_model(2)


def test_suspension_pullback_must_fix_the_sector(monkeypatch):
    # cos(2 pi x2) -> cos(4 pi x2) keeps the sector closed but moves a mode,
    # so the sector would not be fixed, and the build's premise fails
    pullback = models._pullback_function
    monkeypatch.setattr(models, "_pullback_function", lambda f: (
        [(Q(1), ("cos", (0, 2)))] if f == ("cos", (0, 1)) else pullback(f)))
    with pytest.raises(AssertionError, match="the pullback moves a function of the stable sector"):
        build_suspension_model(2)


def test_exterior_factor_leaving_the_subspace_refused():
    # d/dx1 of f is g, so d(f) = g dx1, which span(dx2) in degree 1 does not hold
    unit = Matrix.identity(1)
    dx2 = Matrix([[0], [1]])
    with pytest.raises(AssertionError, match="an operator leaves the exterior subspace"):
        models._coefficient_forms(["f", "g"],
                                  lambda h, v: [(1, "g")] if (h, v) == ("f", 0) else [], 1,
                                  {0: unit, 1: dx2, 2: unit})


def test_exterior_subspace_with_a_combined_basis_form():
    # span(2 dx1 + dx2) in degree 1: the star, -1 on 1-forms, is read at the
    # unit coordinate dx2, and the combination is one basis vector
    unit = Matrix.identity(1)
    dims, d, star = models._coefficient_forms(["c"], lambda h, v: [], 1,
                                              {0: unit, 1: Matrix([[2], [1]]), 2: unit})
    assert dims == (1, 1, 1)
    assert star[1] == Matrix([[-1]]) and all(block.is_zero() for block in d.values())


def test_suspension_degree1_kills_dx1():
    # no dx1 component survives invariance: one 1-form per sector function,
    # each named with dx2 alone
    names = basis_names("suspension", 2)[1]
    assert SUSP2.dim(1) == len(names) == SUSP2.dim(0)
    for name in names:
        assert "dx2" in name and "dx1" not in name


def test_suspension_identities():
    assert struct_identities_all_hold(SUSP2)
    assert struct_identities_all_hold(build_suspension_model(4))


def test_suspension_d_matches_mode_derivative():
    # d(cos(2 pi k x2)) = -k sin(2 pi k x2) dx2 in 2*pi-units
    model = SUSP2
    names = basis_names("suspension", 2)
    labels0, labels1 = names[0], names[1]
    assert (len(labels0), len(labels1)) == (model.dim(0), model.dim(1))
    i_cos2 = labels0.index("cos(2*pi*(2*x2))")
    coords = [Q(0)] * model.dim(0)
    coords[i_cos2] = Q(1)
    dv = d_apply(form_vector(model, 0, coords))
    nz = {labels1[i]: c for i, c in enumerate(dv.coords) if c != 0}
    assert nz == {"sin(2*pi*(2*x2)) dx2": Q(-2)}


def test_suspension_dlambda_examples():
    model = SUSP2
    names = basis_names("suspension", 2)
    labels1, labels2 = names[1], names[2]
    assert (len(labels1), len(labels2)) == (model.dim(1), model.dim(2))
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


def test_form_vector_of_the_wrong_length_refused():
    # degree 1 of the torus n = 1 has the two coordinates dx and dy
    for coords in ([1], [1, 0, 0]):
        with pytest.raises(ValueError, match=r"^expected 2 coordinates in degree 1$"):
            form_vector(TORUS1, 1, coords)


def test_apply_degree_out_of_range():
    with pytest.raises(ValueError):
        d_apply(form_vector(TORUS1, 5, []))
    with pytest.raises(ValueError):
        star_s_apply(form_vector(TORUS1, -1, []))


def test_corrupted_d_matrix_detected():
    # negative path: one entry of d added on polynomial n1-D2 and handed to
    # the constructor, which forms dl from it and raises on d.d != 0 in degree
    # 0: d(y^2) gains y dx, whose d is -dx^dy; dx gains dx^dy, so d(d(x)) = w0
    model = build_polynomial_model(1, 2)
    for k, row, col in ((0, 2, 3), (1, 0, 0)):
        d = {j: block.scale(1) for j, block in model.d.items()}  # copies
        d[k][row, col] += 1
        with pytest.raises(AssertionError,
                           match=r"^identity d\.d=0 fails in degrees \[0\] of polynomial-n1-D2$"):
            dataclasses.replace(model, d=d)


@pytest.mark.parametrize("degree, failed", [
    # star_0 and star_2 are each other's inverse
    (0, ("star.star=id", [0, 2])),
    # star_1 is -1 on R^2, so one flipped sign keeps star_1 an involution; dl,
    # formed from the flipped star, no longer anticommutes with d in degree 1
    (1, ("d.dl+dl.d=0", [1])),
    (2, ("star.star=id", [0, 2])),
])
def test_flipped_star_sign_detected(degree, failed):
    # negative path: one sign of a star block flipped and handed to the
    # constructor, which forms dl from the stars it is given and raises on the
    # first identity that fails
    model = build_polynomial_model(1, 2)
    star = {k: block.scale(1) for k, block in model.star_s.items()}  # copies
    block = star[degree]
    row = next(i for i in range(block.rows) if block[i, 0])
    block[row, 0] = -block[row, 0]
    identity, degrees = failed
    with pytest.raises(AssertionError, match=re.escape(
            f"identity {identity} fails in degrees {degrees} of polynomial-n1-D2")):
        dataclasses.replace(model, star_s=star)


@pytest.mark.parametrize("entry, value", [
    ("own", 0),     # an empty column
    ("other", 1),   # a second entry in the column
    ("own", 2),     # an entry that is not +-1
])
def test_star_that_is_no_signed_permutation_refused(entry, value):
    star = {k: block.scale(1) for k, block in TORUS1.star_s.items()}  # copies
    own = next(i for i in range(star[1].rows) if star[1][i, 0])
    star[1][own if entry == "own" else 1 - own, 0] = value
    with pytest.raises(AssertionError, match="star block is not a signed permutation"):
        ComplexModel("bad", "torus", TORUS1.dims, dict(TORUS1.d), star)


@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
def test_star_of_the_wrong_shape_refused(shape):
    # star_1 of the torus n = 1 is 2 x 2; dl is formed from the stars before
    # they are read as permutations, so the product refuses a block that does
    # not fit d
    star = dict(TORUS1.star_s)
    star[1] = Matrix.zeros(*shape)
    with pytest.raises(ValueError, match="^shape mismatch "):
        ComplexModel("bad", "torus", TORUS1.dims, dict(TORUS1.d), star)


def test_complex_model_raises_on_a_failed_identity():
    # cohomology's rank table rests on the identities the constructor checks:
    # d = 1 in degrees 0 and 1 gives d.d = 1
    one = Matrix.identity(1)
    with pytest.raises(AssertionError, match=r"identity d\.d=0 fails in degrees \[0\] of broken"):
        ComplexModel("broken", "torus", (1, 1, 1), {0: one, 1: one}, {0: one, 1: one, 2: one})


def test_replace_runs_the_identity_check():
    # dataclasses.replace calls the constructor too: on the torus n = 1, d_0
    # sending 1 to dx and d_1 sending dx to dx^dy give d.d = 1 in degree 0
    d0, d1 = Matrix.zeros(2, 1), Matrix.zeros(1, 2)
    d0[0, 0] = d1[0, 0] = Q(1)
    with pytest.raises(AssertionError, match=r"identity d\.d=0 fails in degrees \[0\] of torus-n1"):
        dataclasses.replace(TORUS1, d={0: d0, 1: d1})


@pytest.mark.parametrize("build, args", [(build_torus_model, (2,)),
                                         (build_polynomial_model, (1, 4)),
                                         (build_suspension_model, (2,))])
def test_each_star_block_is_read_once_per_build(monkeypatch, build, args):
    # the identity report reads each star block once as a signed permutation;
    # dl is the product of the blocks themselves
    calls = []
    original = models._signed_permutation
    monkeypatch.setattr(models, "_signed_permutation",
                        lambda block: calls.append(block) or original(block))
    model = build(*args)
    assert len(calls) == model.top_degree + 1


@pytest.mark.parametrize("build, args, name", [
    (build_torus_model, (0,), "n"), (build_torus_model, (-1,), "n"),
    (build_polynomial_model, (0, 4), "n"), (build_polynomial_model, (-2, 4), "n"),
    (build_suspension_model, (0,), "cutoff"), (build_suspension_model, (-3,), "cutoff"),
])
def test_builders_refuse_a_non_positive_size(build, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer$"):
        build(*args)


@st.composite
def signed_permutations(draw, side):
    block = Matrix.zeros(side, side)
    for j, i in enumerate(draw(st.permutations(range(side)))):
        block[i, j] = draw(st.sampled_from([1, -1]))
    return block


@PROPERTY
@given(st.data())
def test_codifferential_index_rule_matches_the_product(data):
    # any signed permutations as stars and any sparse int or rational d of the
    # right shapes, 0 rows and 0 columns included: the entry-by-entry oracle
    # is the product (-1)^(k+1) star . d . star the constructor forms, entry
    # types included
    top = data.draw(st.integers(1, 4))
    dims = {k: data.draw(SIDE) for k in range(top // 2 + 1)}
    dims.update({top - k: dim for k, dim in dims.items()})
    star = {k: data.draw(signed_permutations(dims[k])) for k in range(top + 1)}
    d = {k: data.draw(matrices(st.just(dims[k + 1]), st.just(dims[k]))) for k in range(top)}
    for k in range(1, top + 1):
        rule = codifferential_by_index_rule(d, star, top, k)
        product = models._signed_star_d_star(d, star, top, k)
        assert rule == product
        assert all(sorted((j, type(v)) for j, v in rule.row_items(i))
                   == sorted((j, type(v)) for j, v in product.row_items(i))
                   for i in range(rule.rows))


BUILDERS = {"torus": build_torus_model, "polynomial": build_polynomial_model,
            "suspension": build_suspension_model}
DL_ORACLE_MODELS = ([("polynomial", (1, c)) for c in (10, 12, 14, 16)] + [("polynomial", (2, 4))]
                    + [("suspension", (c,)) for c in (16, 32, 64)]
                    + [("torus", (n,)) for n in (2, 3)]  # the ten sweep models
                    + [("torus", (1,))] + [("polynomial", (1, c)) for c in (4, 6, 8)]
                    + [("suspension", (c,)) for c in (2, 4, 8)]  # and the suite's
                    + [("polynomial", (3, 3))])


@pytest.mark.parametrize("kind, args", DL_ORACLE_MODELS,
                         ids=["-".join(map(str, (kind, *args))) for kind, args in DL_ORACLE_MODELS])
def test_dl_matches_the_index_rule_and_squares_to_zero(kind, args):
    # in every degree dl, formed as the signed product star . d . star, equals
    # the index rule on the stars' signed permutations, and dl.dl = 0, which
    # the constructor does not form since d.d = 0 and star.star = id imply it
    model = POLY2 if (kind, args) == ("polynomial", (2, 4)) else BUILDERS[kind](*args)
    top = model.top_degree
    for k in range(1, top + 1):
        assert model.d_lambda[k] == codifferential_by_index_rule(model.d, model.star_s, top, k)
        assert (model.dl_block(k - 1) @ model.dl_block(k)).is_zero()
    if args == (3, 3):
        # some star permutation is not its own inverse as an index map, so a
        # rule that reads one the wrong way round gives another dl
        perms = [models._signed_permutation(block)[0] for block in model.star_s.values()]
        assert any(p[p[j]] != j for p in perms for j in range(len(p)))


@pytest.mark.parametrize("kind, args", [("torus", (n,)) for n in (1, 2, 3, 4)]
                         + [("polynomial", a) for a in ((1, 4), (1, 8), (2, 4), (3, 4))]
                         + [("suspension", (cutoff,)) for cutoff in (1, 2, 8, 16, 64)])
def test_kron_assembly_matches_the_index_loops(kind, args):
    # the builders' kron assembly against the entry-by-entry loops: every
    # d, star, dl and d.dl block, the dims, window and meta; one name per
    # basis vector in each degree
    built = BUILDERS[kind](*args)
    oracle = loop_model(kind, *args)
    for field in dataclasses.fields(built):
        assert getattr(built, field.name) == getattr(oracle, field.name), field.name
    assert built.dims == tuple(len(names) for names in basis_names(kind, *args).values())
    if kind == "suspension":
        # the build's premise: on the sector the oracle's pullback is 1 (x) P_ext
        functions = models._fourier_functions([(0, m2) for m2 in range(1, args[0] + 1)])
        one = Matrix.identity(len(functions))
        for k, p_block in fourier_pullback(functions).items():
            e = ext.ext_basis(2, k)
            p_ext = models._rule_matrix(models._PULLBACK_EXT.__getitem__, e, e)
            assert p_block == Matrix.kron(one, p_ext)
