import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import symplab.algebra_forms as forms
import symplab.lie_core as lie
from symplab.linalg import Matrix, echelon_rows
from strategies import (PROPERTY, RATIONALS, SPARSE_INTS,  # shared with other modules
                        element_pairs, sympy_oracle)

CTX1 = lie.standard_basis(1)
CTX2 = lie.standard_basis(2)
CTX3 = lie.standard_basis(3)

H = CTX1.element([1, 0, 0])
E = CTX1.element([0, 1, 0])
F = CTX1.element([0, 0, 1])
J1 = CTX1.element([0, -1, 1])


def test_omega_from_H():
    omega = forms.omega_from_element(H)
    # single nonzero pair: omega(E, F) = B(H, [E, F]) = B(H, H) = 8
    expected = Matrix.zeros(3, 3)
    expected[1, 2] = Q(8)
    expected[2, 1] = Q(-8)
    assert omega.gram == expected


def test_omega_zero_and_rank_J():
    assert forms.omega_from_element(CTX1.zero()).gram.is_zero()
    assert forms.form_rank(forms.omega_from_element(J1)) == 2


def test_omega_gram_antisymmetric_validated():
    with pytest.raises(ValueError):
        forms.AlgebraTwoForm(CTX1, Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))


def test_ce_d1_examples():
    # theta dual to H: gram entry -1 at the (E, F) slot since [E,F] = H
    theta = forms.one_form(CTX1, [1, 0, 0])
    gram = forms.ce_d1(theta).gram
    assert gram.data[1][2] == Q(-1) and gram.data[2][1] == Q(1)
    assert gram.data[0][1] == 0 and gram.data[0][2] == 0
    assert forms.ce_d1(forms.one_form(CTX1, [0, 0, 0])).gram.is_zero()


def test_ce_d1_of_killing_dual_is_minus_omega():
    rng = random.Random(21)
    for ctx in (CTX1, CTX2):
        for _ in range(10):
            a = lie.random_element(ctx, rng)
            lhs = forms.ce_d1(forms.killing_dual(a)).gram
            rhs = forms.omega_from_element(a).gram.scale(-1)
            assert lhs == rhs


def test_omega_is_closed_for_random_elements():
    rng = random.Random(22)
    for ctx in (CTX1, CTX2):
        for _ in range(10):
            a = lie.random_element(ctx, rng)
            assert forms.is_closed_2form(forms.omega_from_element(a))


def test_every_antisymmetric_gram_closed_for_n1():
    rng = random.Random(23)
    for _ in range(10):
        gram = Matrix.zeros(3, 3)
        for i in range(3):
            for j in range(i + 1, 3):
                val = Q(rng.randint(-9, 9))
                gram[i, j] = val
                gram[j, i] = -val
        assert not gram.is_zero()
        assert forms.is_closed_2form(forms.AlgebraTwoForm(CTX1, gram))


def test_generic_2form_not_closed_for_n2():
    rng = random.Random(24)
    found_non_closed = False
    for _ in range(10):
        gram = Matrix.zeros(10, 10)
        for i in range(10):
            for j in range(i + 1, 10):
                val = Q(rng.randint(-9, 9))
                gram[i, j] = val
                gram[j, i] = -val
        if not forms.is_closed_2form(forms.AlgebraTwoForm(CTX2, gram)):
            found_non_closed = True
            break
    assert found_non_closed


def test_potential_examples():
    omega_h = forms.omega_from_element(H)
    assert forms.potential_element(omega_h).coords == H.coords
    assert forms.potential_element(forms.omega_from_element(CTX1.zero())).is_zero()
    # inverse of the A=H example: gram with only omega(E,F) = 8 recovers H
    gram = Matrix.zeros(3, 3)
    gram[1, 2] = Q(8)
    gram[2, 1] = Q(-8)
    assert forms.potential_element(forms.AlgebraTwoForm(CTX1, gram)).coords == H.coords


def test_potential_roundtrip_random():
    rng = random.Random(25)
    for ctx in (CTX1, CTX2):
        for _ in range(15):
            a = lie.random_element(ctx, rng)
            assert forms.potential_element(forms.omega_from_element(a)).coords == a.coords


def test_potential_rejects_non_closed():
    rng = random.Random(26)
    for _ in range(10):
        gram = Matrix.zeros(10, 10)
        for i in range(10):
            for j in range(i + 1, 10):
                val = Q(rng.randint(-9, 9))
                gram[i, j] = val
                gram[j, i] = -val
        omega = forms.AlgebraTwoForm(CTX2, gram)
        if not forms.is_closed_2form(omega):
            break
    else:
        pytest.fail("no non-closed 2-form in 10 draws")
    with pytest.raises(ValueError, match="requires a closed 2-form"):
        forms.potential_element(omega)


def test_form_kernel_examples():
    assert forms.form_kernel(forms.omega_from_element(H)) == lie.Subspace(CTX1, [H.coords])
    assert forms.form_kernel(forms.omega_from_element(CTX1.zero())).dim == 3
    kj = forms.form_kernel(forms.omega_from_element(J1))
    assert kj.dim == 1 and kj.contains(J1.coords)


def test_form_rank_examples():
    assert forms.form_rank(forms.omega_from_element(H)) == 2
    rng = random.Random(27)
    a = lie.random_regular_element(CTX2, rng)
    assert forms.form_rank(forms.omega_from_element(a)) == 8
    # nilpotent E still has rank 2 (kernel dimension 1)
    omega_e = forms.omega_from_element(E)
    assert forms.form_rank(omega_e) == 2
    assert forms.form_kernel(omega_e).dim == 1


def test_kernel_equals_centralizer_random():
    rng = random.Random(28)
    for ctx in (CTX1, CTX2):
        for _ in range(10):
            a = lie.random_regular_element(ctx, rng)
            assert forms.form_kernel(forms.omega_from_element(a)) == lie.centralizer(a)


def test_quotient_form_H():
    qf = forms.quotient_form(H)
    assert qf.reduced_gram == Matrix([[0, 8], [-8, 0]])
    assert qf.reduced_det == Q(64)
    # complement basis together with the kernel spans the algebra
    rows = [list(e.coords) for e in qf.complement] + [[Q(1), Q(0), Q(0)]]
    assert Matrix(rows).rank() == 3


def test_quotient_form_J_and_random_n2():
    qj = forms.quotient_form(J1)
    assert (qj.reduced_gram.rows, qj.reduced_gram.cols) == (2, 2)
    assert qj.reduced_det != 0
    rng = random.Random(29)
    a = lie.random_regular_element(CTX2, rng)
    qa = forms.quotient_form(a)
    assert (qa.reduced_gram.rows, qa.reduced_gram.cols) == (8, 8)
    assert qa.reduced_det != 0
    assert qa.reduced_gram.is_antisymmetric()


def test_quotient_form_rejects_non_regular():
    with pytest.raises(ValueError):
        forms.quotient_form(E)


def test_quotient_nondegeneracy_independent_of_complement():
    # alternate complement: greedily extend the kernel from the top index down
    rng = random.Random(30)
    for ctx in (CTX1, CTX2):
        a = lie.random_regular_element(ctx, rng)
        omega = forms.omega_from_element(a)
        kernel_rows = [list(r) for r in forms.form_kernel(omega).rows]
        chosen = []
        rows = [r[:] for r in kernel_rows]
        for j in reversed(range(ctx.dim)):
            unit = [Q(0)] * ctx.dim
            unit[j] = Q(1)
            if Matrix(rows + [unit]).rank() > Matrix(rows).rank():
                chosen.append(j)
                rows.append(unit)
        assert len(chosen) == ctx.dim - len(kernel_rows)
        reduced = omega.gram.submatrix(chosen, chosen)
        assert reduced.det() != 0


def fraction_omega(a) -> Matrix:
    """The Gram of omega_a from the Killing row K a, in Fraction arithmetic."""
    ctx = a.context
    ka = ctx.killing_gram.apply(list(a.coords))
    gram = Matrix.zeros(ctx.dim, ctx.dim)
    for (i, j), entry in ctx._table.items():
        val = sum((c * ka[k] for k, c in entry.items()), Q(0))
        gram[i, j] = val
        gram[j, i] = -val
    return gram


def test_integer_omega_and_kernel_match_fraction_formulas():
    seen = set()

    @PROPERTY
    @given(element_pairs([CTX1, CTX2, CTX3]))
    def check(pair):
        for a in pair:
            gram = fraction_omega(a)
            omega = forms.omega_from_element(a)
            assert omega.gram == gram
            kernel = forms.form_kernel(omega)
            assert kernel.rows == tuple(tuple(r) for r in echelon_rows(gram.nullspace()))
            assert kernel.pivots == tuple(next(i for i, x in enumerate(r) if x)
                                          for r in kernel.rows)
            seen.add((a.context.n, any(c.denominator != 1 for c in a.coords)))

    check()
    assert seen == {(n, rational) for n in (1, 2, 3) for rational in (False, True)}


def test_closed_two_form_dimension():
    assert forms.closed_two_form_dimension(CTX1) == 3
    assert forms.closed_two_form_dimension(CTX2) == 10


def test_ce_d2_matrix_annihilates_invariant_forms():
    # columns of omega_a coordinates lie in the d2 kernel
    d2 = forms.ce_d2_matrix(CTX2)
    rng = random.Random(31)
    a = lie.random_element(CTX2, rng)
    gram = forms.omega_from_element(a).gram
    coords = [gram.data[i][j] for i, j in combinations(range(CTX2.dim), 2)]
    assert all(x == 0 for x in d2.apply(coords))


def test_omega_report_schema():
    rep = forms.omega_report(H)
    assert rep["rank"] == 2
    assert rep["kernel_dim"] == 1
    assert rep["closed"] is True
    assert rep["potential"] == ["1", "0", "0"]
    assert rep["potential_roundtrip"] is True
    assert rep["kernel_basis"] == [["1", "0", "0"]]


# -- closedness against the Chevalley-Eilenberg d2 matrix --------------------------
# An independent construction: omega is closed iff ce_d2_matrix applied to its
# upper triangle vanishes.  The product is taken in sympy's DomainMatrix.

CONTEXTS = {1: CTX1, 2: CTX2, 3: CTX3}


@pytest.fixture(scope="module")
def d2_oracle():
    oracle = sympy_oracle()
    d2 = {n: oracle.of(forms.ce_d2_matrix(ctx)).to_sparse() for n, ctx in CONTEXTS.items()}

    def closed(n: int, gram: Matrix) -> bool:
        upper = Matrix([[gram[i, j]] for i, j in combinations(range(gram.rows), 2)])
        return (d2[n] * oracle.of(upper).to_sparse()).is_zero_matrix

    return closed


@st.composite
def two_forms(draw):
    """(n, gram) for n = 1, 2, 3: a random antisymmetric Gram with sparse integer or
    rational entries, the Gram of omega_a for a random integer or rational a,
    or such a Gram with one entry pair changed."""
    n = draw(st.sampled_from(sorted(CONTEXTS)))
    ctx = CONTEXTS[n]
    pairs = list(combinations(range(ctx.dim), 2))
    kind = draw(st.sampled_from(["integer", "rational", "omega", "omega changed"]))
    if kind in ("integer", "rational"):
        entries = SPARSE_INTS if kind == "integer" else RATIONALS
        gram = Matrix.zeros(ctx.dim, ctx.dim)
        for i, j in pairs:
            v = draw(entries)
            gram[i, j], gram[j, i] = v, -v
        return n, gram
    entries = draw(st.sampled_from([SPARSE_INTS, RATIONALS]))
    a = ctx.element(draw(st.lists(entries, min_size=ctx.dim, max_size=ctx.dim)))
    gram = forms.omega_from_element(a).gram
    if kind == "omega changed":
        i, j = draw(st.sampled_from(pairs))
        delta = draw(st.sampled_from([1, -3, Q(1, 2)]))
        gram[i, j], gram[j, i] = gram[i, j] + delta, gram[j, i] - delta
    return n, gram


def test_is_closed_2form_matches_ce_d2_oracle(d2_oracle):
    verdicts = set()

    def agree(n: int, gram: Matrix) -> None:
        closed = forms.is_closed_2form(forms.AlgebraTwoForm(CONTEXTS[n], gram))
        assert closed == d2_oracle(n, gram)
        verdicts.add((n, closed))

    @PROPERTY
    @given(two_forms())
    def random_forms(case):
        agree(*case)

    random_forms()
    # every e^i ^ e^j: its differential is nonzero on as few as two basis triples,
    # so a check that skips some triples misses one of these
    for n, ctx in CONTEXTS.items():
        for i, j in combinations(range(ctx.dim), 2):
            gram = Matrix.zeros(ctx.dim, ctx.dim)
            gram[i, j], gram[j, i] = 1, -1
            agree(n, gram)
    assert {(n, v) for n in (2, 3) for v in (True, False)} <= verdicts  # both verdicts occur
