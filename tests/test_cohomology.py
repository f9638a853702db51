import dataclasses
import math
import random
from fractions import Fraction as Q

import pytest

import symplab.cohomology as coh
from symplab.linalg import Matrix, rank_of_rows
from symplab.models import (build_polynomial_model, build_suspension_model,
                            build_torus_model, d_apply, d_lambda_apply,
                            form_vector, poincare_antiderivative, w0_power_form)
from shared_models import POLY_N2  # shared with test_models.py

TORUS1 = build_torus_model(1)
TORUS2 = build_torus_model(2)
POLY6 = build_polynomial_model(1, 6)
SUSP2 = build_suspension_model(2)


def test_torus_reports_all_equal_full_exterior_algebra():
    # d = 0 everywhere, so every theory reports the binomial dimensions
    for fn in (coh.de_rham, coh.d_plus_dlambda_cohomology, coh.dd_lambda_cohomology):
        assert fn(TORUS1).dims == (1, 2, 1)
        assert fn(TORUS2).dims == (1, 4, 6, 4, 1)


def test_suspension_de_rham():
    assert coh.de_rham(SUSP2).dims == (1, 1, 5)
    assert coh.de_rham(build_suspension_model(8)).dims == (1, 1, 17)


def test_suspension_symplectic_theories():
    assert coh.d_plus_dlambda_cohomology(SUSP2).dims == (1, 5, 1)
    assert coh.dd_lambda_cohomology(SUSP2).dims == (5, 1, 5)


def test_suspension_scaling_in_cutoff():
    for cutoff in (1, 2, 3, 4, 5, 6, 7, 8):
        model = build_suspension_model(cutoff)
        width = 2 * cutoff + 1
        assert coh.d_plus_dlambda_cohomology(model).dims == (1, width, 1)
        assert coh.dd_lambda_cohomology(model).dims == (width, 1, width)


def test_polynomial_windowed_dimensions():
    assert coh.d_plus_dlambda_cohomology(POLY6).dims == (1, 0, 1)
    assert coh.dd_lambda_cohomology(POLY6).dims == (0, 1, 0)
    assert coh.de_rham(POLY6).dims == (1, 0, 0)
    # the window decides: the same model without one gives the unwindowed dims
    unwindowed = dataclasses.replace(POLY6, window=None)
    reports = (coh.de_rham(unwindowed), coh.d_plus_dlambda_cohomology(unwindowed),
               coh.dd_lambda_cohomology(unwindowed))
    assert [r.dims for r in reports] == [(1, 8, 7), (1, 15, 1), (7, 9, 7)]
    assert not any(r.windowed for r in reports)


def test_polynomial_n3_windowed_dimensions():
    # R^6 at D = 4 continues the n = 1, 2 pattern: de Rham only in degree 0,
    # (d+dl) in the even degrees, ddl in the odd ones
    model = build_polynomial_model(3, 4)
    assert model.dims() == [210, 1260, 3150, 4200, 3150, 1260, 210]
    assert all(all(per.values()) for per in model.identities.values())
    assert coh.de_rham(model).dims == (1, 0, 0, 0, 0, 0, 0)
    assert coh.d_plus_dlambda_cohomology(model).dims == (1, 0, 1, 0, 1, 0, 1)
    assert coh.dd_lambda_cohomology(model).dims == (0, 1, 0, 1, 0, 1, 0)


def test_polynomial_windowed_stability_across_cutoffs():
    reference = None
    for cutoff in (4, 6, 8):
        model = build_polynomial_model(1, cutoff)
        dims = (coh.de_rham(model).dims,
                coh.d_plus_dlambda_cohomology(model).dims,
                coh.dd_lambda_cohomology(model).dims)
        if reference is None:
            reference = dims
        assert dims == reference


def test_quotient_sanity_all_models():
    for model in (TORUS1, TORUS2, POLY6, SUSP2):
        assert coh.quotient_sanity(model)


def test_representatives_are_independent_mod_denominator():
    rep = coh.d_plus_dlambda_cohomology(SUSP2)
    for k, vectors in rep.representatives.items():
        assert len(vectors) == rep.dims[k]
        den = coh._ddl(SUSP2, k).columns()
        assert rank_of_rows(den + vectors) == rank_of_rows(den) + len(vectors)


def test_windowed_numerators_stay_in_window():
    model = build_polynomial_model(1, 4)
    rep = coh.dd_lambda_cohomology(model)
    for k, vectors in rep.representatives.items():
        allowed = set(model.window[k])
        for v in vectors:
            assert all(i in allowed for i, x in enumerate(v) if x != 0)


# -- reduction constants ---------------------------------------------------------

def test_reduction_constant_w0():
    assert coh.reduction_constant(w0_power_form(POLY6, 1)) == Q(-1)


def test_reduction_constant_degree0_convention():
    assert coh.reduction_constant(w0_power_form(POLY6, 0)) == Q(1)
    zero = form_vector(POLY6, 0, [Q(0)] * POLY6.dim(0))
    assert coh.reduction_constant(zero) == Q(0)


def test_reduction_constant_top_power_n2():
    # exact value for w0^2 on R^4: the factorial factor makes it +2; by
    # linearity the Liouville volume w0^2/2! reduces to +1
    top = w0_power_form(POLY_N2, 2)
    assert coh.reduction_constant(top) == Q(2)
    vol = form_vector(POLY_N2, 4, [c / 2 for c in top.coords])
    assert coh.reduction_constant(vol) == Q(1)


def test_reduction_constant_kills_exact_cocycles():
    rng = random.Random(51)
    for _ in range(10):
        z = form_vector(POLY6, 2, [Q(rng.randint(-9, 9)) for _ in range(POLY6.dim(2))])
        x = d_apply(d_lambda_apply(z))
        assert coh.reduction_constant(x) == Q(0)


def test_reduction_constant_independent_of_antiderivative_choice():
    # another first antiderivative y = (the radial one) + d f, with f a random
    # 0-form for w0 on R^2 and a random 2-form for w0^2 on R^4: the walk from
    # dl(y) ends on the same constant as the walk from x
    rng = random.Random(52)
    for model, n in ((POLY6, 1), (POLY_N2, 2)):
        k = 2 * n - 2
        f = form_vector(model, k, [Q(rng.randint(-5, 5)) for _ in range(model.dim(k))])
        perturbation = d_apply(f)
        assert not perturbation.is_zero()
        x = w0_power_form(model, n)
        radial = poincare_antiderivative(x, "d")
        y = form_vector(model, radial.degree,
                        [a + b for a, b in zip(radial.coords, perturbation.coords)])
        assert d_apply(y).coords == x.coords
        assert coh.reduction_constant(x) == coh.reduction_constant(d_lambda_apply(y))


def test_reduction_constant_preconditions():
    a = form_vector(POLY6, 1, [Q(0)] * POLY6.dim(1))
    with pytest.raises(ValueError):
        coh.reduction_constant(a)  # odd degree
    # non-cocycle: x * w0 is closed (top degree) but not coclosed
    x_i = POLY6.meta["mono_index"][(1, 0)]
    coords = [Q(0)] * POLY6.dim(2)
    coords[x_i] = Q(1)
    with pytest.raises(ValueError):
        coh.reduction_constant(form_vector(POLY6, 2, coords))
    with pytest.raises(ValueError):
        coh.reduction_constant(form_vector(TORUS1, 2, [Q(1)]))


def test_reduction_monomorphism_on_windowed_even_cocycles():
    # c(x) = 0 iff x is exact, over a basis of windowed even cocycles
    model = POLY6
    for k in (0, 2):
        constraint = Matrix.vstack([model.d_block(k), model.dl_block(k)])
        num = coh._kernel(constraint, model, k).columns()
        den = coh._ddl(model, k).columns()
        den_rank = rank_of_rows(den)
        for v in num:
            exact = rank_of_rows(den + [v]) == den_rank
            c = coh.reduction_constant(form_vector(model, k, v))
            assert (c == 0) == exact


# -- independent symbolic oracle ------------------------------------------------
# symbolic_forms rebuilds star, dl and the radial homotopy from the README
# conventions with sympy alone; only the comparison test touches symplab.

@pytest.fixture(scope="module")
def symbolic():
    pytest.importorskip("sympy")
    import symbolic_forms
    return symbolic_forms


def test_symbolic_star_is_an_involution(symbolic):
    for n in (1, 2, 3):
        forms = symbolic.Forms(n)
        for k in range(2 * n + 1):
            for mono in forms.basis(k):
                assert forms.star(forms.star({mono: 1})) == {mono: 1}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symbolic_reduction_constants(symbolic, n):
    # c(w0^n) = (-1)^n n! and c(w0^n / n!) = (-1)^n; at every step the
    # signed star.d.star equals the bracket form d.Lambda - Lambda.d
    forms = symbolic.Forms(n)
    for x, expected in ((forms.w0_power(n), (-1) ** n * math.factorial(n)),
                        (forms.vol, (-1) ** n)):
        antiderivatives, c = forms.reduction(x)
        assert len(antiderivatives) == n
        for y in antiderivatives:
            assert forms.codifferential(y) == forms.bracket_codifferential(y)
        assert c == expected


def test_reduction_constant_matches_symbolic_oracle(symbolic):
    for model in (POLY6, POLY_N2):
        n = model.meta["n"]
        forms = symbolic.Forms(n)
        _, oracle = forms.reduction(forms.w0_power(n))
        assert coh.reduction_constant(w0_power_form(model, n)) == Q(int(oracle.p), int(oracle.q))


# -- hodge ------------------------------------------------------------------------

def test_hodge_suspension_and_torus():
    for model, expected in ((SUSP2, (1, 5, 1)), (TORUS1, (1, 2, 1))):
        report = coh.hodge_check(model)
        assert report.kernel_dims() == expected
        assert report.all_ok()
        for deg in report.degrees:
            assert deg.dim_ker_d + deg.rank_ddl + deg.rank_adjoint == deg.dim_total


def test_hodge_requires_inner_product():
    with pytest.raises(ValueError, match="requires a model with an inner product"):
        coh.hodge_check(POLY6)


def _hodge_oracle(model):
    """The finite Hodge check as first written: adjoints solved from the
    identity Gram, zero matrices at the boundaries, a six-term sum D and
    its ranks."""
    top = model.top_degree

    def adjoint(m):
        return Matrix.identity(m.cols).solve_matrix(m.transpose())

    def d(k):
        return model.d[k] if 0 <= k < top else Matrix.zeros(model.dim(k + 1), model.dim(k))

    def dl(k):
        return model.d_lambda[k] if 1 <= k <= top else Matrix.zeros(model.dim(k - 1), model.dim(k))

    dpl = coh.d_plus_dlambda_cohomology(model)
    degrees = []
    for k in range(top + 1):
        nk = model.dim(k)
        s = d(k - 1) @ dl(k)
        big = (s @ adjoint(s) + adjoint(s) @ s + adjoint(d(k)) @ d(k)
               + adjoint(dl(k)) @ dl(k)
               + adjoint(d(k)) @ dl(k + 2) @ adjoint(dl(k + 2)) @ d(k)
               + adjoint(dl(k)) @ d(k - 2) @ adjoint(d(k - 2)) @ dl(k))
        dim_ker = nk - big.rank()
        adjoint_cols = [adjoint(d(k)).columns(), adjoint(dl(k)).columns()]
        adjoint_vectors = [v for vs in adjoint_cols for v in vs]
        rank_adj = rank_of_rows(adjoint_vectors)
        spanning = big.nullspace() + s.columns() + adjoint_vectors
        degrees.append(coh.HodgeDegree(
            dim_total=nk, dim_ker_d=dim_ker, dim_h=dpl.dims[k], rank_ddl=s.rank(),
            rank_adjoint=rank_adj,
            decomposition_ok=(dim_ker + s.rank() + rank_adj == nk
                              and rank_of_rows(spanning) == nk),
            kernel_matches_cohomology=dim_ker == dpl.dims[k]))
    return tuple(degrees)


# d.dl vanishes on the suspension and torus models; the polynomial models,
# their monomial bases read as orthonormal, give it rank and use every term of D
@pytest.mark.parametrize("model", [build_suspension_model(n) for n in (2, 4, 8)]
                         + [build_torus_model(n) for n in (1, 2, 3)]
                         + [dataclasses.replace(build_polynomial_model(n, d),
                                                kind="monomial-orthonormal", window=None)
                            for n, d in ((1, 4), (2, 3))],
                         ids=lambda m: m.name)
def test_hodge_matches_solved_adjoint_oracle(model):
    assert coh.hodge_check(model).degrees == _hodge_oracle(model)


# -- inequality --------------------------------------------------------------------

def test_inequality_examples():
    dr = coh.de_rham(SUSP2)
    dpl = coh.d_plus_dlambda_cohomology(SUSP2)
    ddl = coh.dd_lambda_cohomology(SUSP2)
    checks = coh.inequality_check(dr, dpl, ddl)
    assert checks == {0: True, 1: True, 2: True}
    assert dr.dims[2] == 5 and dpl.dims[2] + ddl.dims[2] == 6  # 5 <= 1 + 5
    # torus: equality in every degree
    t_checks = coh.inequality_check(coh.de_rham(TORUS1),
                                    coh.d_plus_dlambda_cohomology(TORUS1),
                                    coh.dd_lambda_cohomology(TORUS1))
    assert all(t_checks.values())
    # polynomial windowed, degree 0: 1 <= 1 + 0
    p_checks = coh.inequality_check(coh.de_rham(POLY6),
                                    coh.d_plus_dlambda_cohomology(POLY6),
                                    coh.dd_lambda_cohomology(POLY6))
    assert all(p_checks.values())


def test_inequality_rejects_mismatched_reports():
    with pytest.raises(ValueError):
        coh.inequality_check(coh.de_rham(TORUS1),
                             coh.d_plus_dlambda_cohomology(SUSP2),
                             coh.dd_lambda_cohomology(SUSP2))


# -- emission -----------------------------------------------------------------------

def test_csv_schema_and_determinism():
    reports = [coh.de_rham(SUSP2), coh.d_plus_dlambda_cohomology(SUSP2)]
    hodge = [coh.hodge_check(SUSP2)]
    text = coh.reports_to_csv(reports, hodge)
    lines = text.strip().split("\n")
    assert lines[0] == "model,theory,degree,dimension,windowed"
    assert "suspension-N2,dr,2,5,false" in lines
    assert "suspension-N2,dpl,1,5,false" in lines
    assert "suspension-N2,hodge,1,5,false" in lines
    assert text == coh.reports_to_csv(reports, hodge)


def test_report_json_dict():
    rep = coh.de_rham(SUSP2)
    obj = coh.report_to_json_dict(rep)
    assert obj == {"model": "suspension-N2", "theory": "deRham",
                   "dims": [1, 1, 5], "windowed": False}
