import copy
import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import symplab.algebra_forms as forms
import symplab.lie_core as lie
import symplab.suite as suite
from symplab.linalg import Matrix, echelon_rows
from oracles import (ce_d1, kernel_pivot_complement, killing_dual, nilpotent_unit,
                     one_form, potential_system, rank_kernel_by_elimination, span,
                     unit_element)
from strategies import (COORDINATES, PROPERTY, RATIONALS, SPARSE_INTS,  # shared with other modules
                        element_pairs, matrices, sympy_oracle)

CTX1 = lie.standard_basis(1)
CTX2 = lie.standard_basis(2)
CTX3 = lie.standard_basis(3)
CONTEXTS = {1: CTX1, 2: CTX2, 3: CTX3}

H = CTX1.element([1, 0, 0])
E = CTX1.element([0, 1, 0])
F = CTX1.element([0, 0, 1])
J1 = CTX1.element([0, -1, 1])
ZERO1 = CTX1.element([0] * CTX1.dim)


def test_omega_from_H():
    omega = forms.omega_from_element(H)
    # single nonzero pair: omega(E, F) = B(H, [E, F]) = B(H, H) = 8
    expected = Matrix.zeros(3, 3)
    expected[1, 2] = Q(8)
    expected[2, 1] = Q(-8)
    assert omega.gram == expected


def test_omega_zero_and_rank_J():
    assert forms.omega_from_element(ZERO1).gram.is_zero()
    assert forms.form_rank(forms.omega_from_element(J1)) == 2


def test_omega_gram_antisymmetric_validated():
    with pytest.raises(ValueError):
        forms.AlgebraTwoForm(CTX1, Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))


def test_gram_of_the_wrong_shape_refused():
    # sp(2) has dimension 3, so a 2 x 2 or a 3 x 2 Gram is refused before the
    # antisymmetry test
    for rows, cols in ((2, 2), (3, 2)):
        with pytest.raises(ValueError, match="^gram shape mismatch$"):
            forms.AlgebraTwoForm(CTX1, Matrix.zeros(rows, cols))


def test_ce_d1_examples():
    # theta dual to H: gram entry -1 at the (E, F) slot since [E,F] = H
    theta = one_form(CTX1, [1, 0, 0])
    gram = ce_d1(theta).gram
    assert gram.data[1][2] == Q(-1) and gram.data[2][1] == Q(1)
    assert gram.data[0][1] == 0 and gram.data[0][2] == 0
    assert ce_d1(one_form(CTX1, [0, 0, 0])).gram.is_zero()


def test_ce_d1_of_killing_dual_is_minus_omega():
    rng = random.Random(21)
    for ctx in (CTX1, CTX2):
        for _ in range(10):
            a = lie.random_element(ctx, rng)
            lhs = ce_d1(killing_dual(a)).gram
            rhs = forms.omega_from_element(a).gram.scale(-1)
            assert lhs == rhs


def test_omega_is_closed_for_random_elements(d2_oracle):
    # judged by the d2 oracle, as is_closed_2form shares the potential's code
    rng = random.Random(22)
    for ctx in (CTX1, CTX2):
        for _ in range(10):
            omega = forms.omega_from_element(lie.random_element(ctx, rng))
            assert d2_oracle(ctx.n, omega.gram)
            assert forms.is_closed_2form(omega)


def random_gram(dim: int, rng: random.Random) -> Matrix:
    """An antisymmetric Gram, its upper triangle drawn row by row from [-9, 9]."""
    gram = Matrix.zeros(dim, dim)
    for i, j in combinations(range(dim), 2):
        gram[i, j] = rng.randint(-9, 9)
        gram[j, i] = -gram[i, j]
    return gram


def test_every_antisymmetric_gram_closed_for_n1():
    rng = random.Random(23)
    for _ in range(10):
        gram = random_gram(3, rng)
        assert not gram.is_zero()
        assert forms.is_closed_2form(forms.AlgebraTwoForm(CTX1, gram))


def test_generic_2form_not_closed_for_n2():
    rng = random.Random(24)
    assert any(not forms.is_closed_2form(forms.AlgebraTwoForm(CTX2, random_gram(10, rng)))
               for _ in range(10))


def test_potential_examples():
    omega_h = forms.omega_from_element(H)
    assert forms.potential_element(omega_h).coords == H.coords
    assert not any(forms.potential_element(forms.omega_from_element(ZERO1)).coords)
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


def test_potential_rejects_non_closed(d2_oracle):
    # picked by the d2 oracle, as is_closed_2form shares the potential's code
    rng = random.Random(26)
    draws = (forms.AlgebraTwoForm(CTX2, random_gram(10, rng)) for _ in range(10))
    omega = next((w for w in draws if not d2_oracle(2, w.gram)), None)
    assert omega is not None, "no non-closed 2-form in 10 draws"
    assert not forms.is_closed_2form(omega)
    with pytest.raises(ValueError, match="requires a closed 2-form"):
        forms.potential_element(omega)


@pytest.fixture(scope="module")
def potential_oracle():
    """The potential of a closed Gram for n = 1, 2, 3, solved in sympy's
    DomainMatrix from the linear system a -> (B(a, [e_i, e_j]))_(i<j)."""
    oracle = sympy_oracle()
    systems = {}
    for n, ctx in CONTEXTS.items():
        m, pairs = potential_system(ctx)
        systems[n] = oracle.of(m), pairs

    def solve(n: int, gram: Matrix) -> tuple:
        system, pairs = systems[n]
        dim = CONTEXTS[n].dim
        rhs = Matrix([[gram[i, j]] for i, j in pairs])
        red, pivots = system.hstack(oracle.of(rhs)).rref()
        assert pivots == tuple(range(dim))  # one solution, and consistent
        return tuple(row[dim] for row in oracle.entries(red)[:dim])

    return solve


def test_potential_matches_sympy_solve(potential_oracle):
    seen = set()

    @PROPERTY
    @given(element_pairs([CTX1, CTX2, CTX3]))
    def check(pair):
        for a in pair:
            omega = forms.omega_from_element(a)
            potential = forms.potential_element(omega)
            assert potential.coords == potential_oracle(a.context.n, omega.gram) == a.coords
            seen.add((a.context.n, any(c.denominator != 1 for c in a.coords)))

    check()
    assert seen == {(n, rational) for n in (1, 2, 3) for rational in (False, True)}


@st.composite
def kernel_cases(draw):
    """(kind, ctx, m): a sparse integer or rational matrix with CTX1 or CTX2
    columns, the zero matrix, a matrix of full column rank (a unit upper
    triangle under random rows), or ad(a) or the Gram of omega_a for n <= 3."""
    kind = draw(st.sampled_from(["random", "zero", "full rank", "ad", "omega"]))
    if kind in ("ad", "omega"):
        ctx = draw(st.sampled_from([CTX1, CTX2, CTX3]))
        a = ctx.element(draw(st.lists(draw(COORDINATES), min_size=ctx.dim, max_size=ctx.dim)))
        return kind, ctx, ctx.ad_matrix(a.coords) if kind == "ad" else forms.omega_from_element(a).gram
    ctx = draw(st.sampled_from([CTX1, CTX2]))
    if kind == "zero":
        return kind, ctx, Matrix.zeros(draw(st.integers(0, 12)), ctx.dim)
    m = draw(matrices(rows=st.integers(0, 12), cols=st.just(ctx.dim)))
    if kind == "full rank":
        upper = draw(matrices(rows=st.just(ctx.dim), cols=st.just(ctx.dim)))
        for i in range(ctx.dim):
            upper[i, i] = 1
            for j in range(i):
                upper[i, j] = 0
        m = Matrix.vstack([m, upper])
    return kind, ctx, m


def leading_indices(rows) -> tuple[int, ...]:
    return tuple(next(j for j, x in enumerate(row) if x) for row in rows)


def test_kernel_rows_matches_sympy_rref_of_nullspace():
    oracle = sympy_oracle()
    seen = set()

    @PROPERTY
    @given(kernel_cases())
    def check(case):
        kind, _, m = case
        kernel = m.kernel_rows()
        red, pivots = oracle.of(m).nullspace().rref()
        assert kernel == tuple(map(tuple, oracle.entries(red)[:len(pivots)]))
        assert all(type(x) is Q for row in kernel for x in row)
        assert leading_indices(kernel) == pivots
        assert len(kernel) == m.cols - m.rank()
        seen.add((kind, len(kernel) == 0, len(kernel) == m.cols))

    check()
    assert {("zero", False, True), ("full rank", True, False)} <= seen
    assert {kind for kind, _, _ in seen} == {"random", "zero", "full rank", "ad", "omega"}


def test_form_kernel_examples():
    assert forms.form_kernel(forms.omega_from_element(H)) == span([H.coords])
    assert len(forms.form_kernel(forms.omega_from_element(ZERO1))) == 3
    kj = forms.form_kernel(forms.omega_from_element(J1))
    assert len(kj) == 1 and kj == span([J1.coords])


def test_form_rank_examples():
    assert forms.form_rank(forms.omega_from_element(H)) == 2
    rng = random.Random(27)
    a = lie.random_regular_element(CTX2, rng)
    assert forms.form_rank(forms.omega_from_element(a)) == 8
    # nilpotent E still has rank 2 (kernel dimension 1)
    omega_e = forms.omega_from_element(E)
    assert forms.form_rank(omega_e) == 2
    assert len(forms.form_kernel(omega_e)) == 1


def test_kernel_equals_centralizer_random():
    # the two kernels from two eliminations, at every n the suite samples;
    # rank_kernel_record runs neither: it certifies the odd powers' span and
    # checks Omega = -G ad(a)
    rng = random.Random(28)
    for ctx in (CTX1, CTX2, CTX3):
        for _ in range(10):
            a = lie.random_regular_element(ctx, rng)
            kernel = forms.form_kernel(forms.omega_from_element(a))
            assert kernel == lie.centralizer(a)
            record = forms.rank_kernel_record(a)
            assert (record["rank"], record["kernel_dim"]) == (ctx.dim - len(kernel), len(kernel))
            assert record["kernel_equals_centralizer"] is True


def test_rank_kernel_record_matches_the_elimination_oracle_on_the_suite_samples():
    for n, ctx in CONTEXTS.items():
        samples = suite._sample_regular(ctx, suite.DEFAULT_SEED + n)
        assert len(samples) == suite.SAMPLES
        assert all(forms.rank_kernel_record(a) == rank_kernel_by_elimination(a) for a in samples)


def test_rank_kernel_record_matches_the_elimination_oracle():
    """The record equals the centralizer's on every regular draw and refuses
    every other one, as quotient_form does."""
    seen = set()

    @PROPERTY
    @given(element_pairs([CTX1, CTX2, CTX3]))
    def check(pair):
        for a in pair:
            regular = lie.is_regular(a)
            if regular:
                assert forms.rank_kernel_record(a) == rank_kernel_by_elimination(a)
            else:
                with pytest.raises(ValueError, match="not regular"):
                    forms.rank_kernel_record(a)
            seen.add((a.context.n, regular, any(c.denominator != 1 for c in a.coords)))

    check()
    assert {(n, regular, rational) for n in (1, 2, 3) for regular in (False, True)
            for rational in (False, True)} <= seen


def test_rank_kernel_record_refuses_non_regular_elements():
    # the elimination still answers for them; E at n = 1 even has an n-dimensional
    # kernel, so only the regularity test tells it apart
    for ctx in CONTEXTS.values():
        for a in (ctx.element([0] * ctx.dim), nilpotent_unit(ctx)):
            with pytest.raises(ValueError, match="not regular"):
                forms.rank_kernel_record(a)
            assert rank_kernel_by_elimination(a)["kernel_dim"] >= ctx.n


def test_rank_kernel_record_brackets_the_odd_powers(monkeypatch):
    """kernel_abelian is computed: under a bracket that never vanishes the
    record and the oracle both report a kernel that is not abelian, and
    criterion 1 fails on every n = 2 sample."""
    broken = copy.copy(CTX2)
    broken._bracket = lambda x, y: [1] * broken.dim
    a = lie.AlgebraElement(broken, lie.random_regular_element(CTX2, random.Random(36)).coords)
    record = forms.rank_kernel_record(a)
    assert record["kernel_abelian"] is False
    assert record == rank_kernel_by_elimination(a)
    monkeypatch.setattr(lie, "standard_basis", lambda n: broken if n == 2 else CONTEXTS[n])
    result = suite.check_rank_kernel()
    assert not result["passed"]
    assert result["computed"] == f"{suite.SAMPLES} failures"


def broken_contexts() -> dict[str, lie.AlgebraContext]:
    """Copies of CTX2 that break Omega = -G ad(a): one with a Killing partner's
    sign flipped, one with an entry of the adjoint of e_0 changed (the
    structure constants that build Omega are left as they are)."""
    flipped = copy.copy(CTX2)
    flipped.killing_partners = list(CTX2.killing_partners)
    p, g = flipped.killing_partners[3]
    flipped.killing_partners[3] = (p, -g)
    changed = copy.copy(CTX2)
    changed._ad = list(CTX2._ad)
    column, entry = next(iter(CTX2._ad[0].items()))
    row, c = next(iter(entry.items()))
    changed._ad[0] = {**CTX2._ad[0], column: {**entry, row: c + 1}}
    return {"partner sign": flipped, "ad entry": changed}


@pytest.mark.parametrize("fault", ["partner sign", "ad entry"])
def test_rank_kernel_record_raises_on_a_broken_identity(fault, monkeypatch):
    broken = broken_contexts()[fault]
    a = lie.AlgebraElement(broken, lie.random_regular_element(CTX2, random.Random(32)).coords)
    assert a.coords[0]  # so the changed adjoint entry of e_0 reaches ad(a)
    with pytest.raises(AssertionError, match="omega_a != -G ad"):
        forms.rank_kernel_record(a)
    monkeypatch.setattr(lie, "standard_basis", lambda n: broken if n == 2 else CONTEXTS[n])
    result = suite.check_rank_kernel()
    assert not result["passed"]
    assert result["computed"].startswith("error: omega_a != -G ad(a)")


def test_quotient_form_H():
    qf = forms.quotient_form(H)
    assert qf.keys() == {"complement", "reduced_gram", "reduced_det"}
    assert qf["reduced_gram"] == Matrix([[0, 8], [-8, 0]])
    assert qf["reduced_det"] == Q(64)
    # complement basis together with the kernel spans the algebra
    assert qf["complement"] == (1, 2)
    rows = [unit_element(CTX1, j).coords for j in qf["complement"]] + [[Q(1), Q(0), Q(0)]]
    assert Matrix(rows).rank() == 3


def test_quotient_form_J_and_random_n2():
    qj = forms.quotient_form(J1)
    assert (qj["reduced_gram"].rows, qj["reduced_gram"].cols) == (2, 2)
    assert qj["reduced_det"] != 0
    rng = random.Random(29)
    a = lie.random_regular_element(CTX2, rng)
    qa = forms.quotient_form(a)
    assert (qa["reduced_gram"].rows, qa["reduced_gram"].cols) == (8, 8)
    assert qa["reduced_det"] != 0
    assert qa["reduced_gram"].is_antisymmetric()


def certificate_agrees(a: lie.AlgebraElement, oracle) -> bool:
    """quotient_form against the oracles: the complement read off the Gram's
    eliminated kernel, sympy's det, and the odd powers' span against that
    kernel; a non-regular element is refused.  Returns whether a is regular."""
    omega = forms.omega_from_element(a)
    complement = kernel_pivot_complement(omega)
    reduced = omega.gram.submatrix(complement, complement)
    det = oracle.rational(oracle.of(reduced).det())
    assert det != 0  # omega is nondegenerate on any complement of its kernel
    if not lie.is_regular(a):
        with pytest.raises(ValueError, match="not regular"):
            forms.quotient_form(a)
        assert reduced.det() == det
        return False
    q = forms.quotient_form(a)
    assert q["complement"] == tuple(complement)
    assert q["reduced_gram"] == reduced and q["reduced_det"] == det
    assert span(lie.odd_powers(a)) == forms.form_kernel(omega)
    return True


def test_kernel_complement_matches_kernel_pivot_oracle():
    oracle = sympy_oracle()
    seen = set()

    @PROPERTY
    @given(element_pairs([CTX1, CTX2, CTX3]))
    def check(pair):
        for a in pair:
            regular = certificate_agrees(a, oracle)
            seen.add((a.context.n, regular, any(c.denominator != 1 for c in a.coords)))

    check()
    for ctx in CONTEXTS.values():
        assert not certificate_agrees(ctx.element([0] * ctx.dim), oracle)
        assert not certificate_agrees(nilpotent_unit(ctx), oracle)
    assert {(n, regular, rational) for n in (1, 2, 3) for regular in (False, True)
            for rational in (False, True)} <= seen


def test_quotient_form_certificate_on_the_suite_samples():
    oracle = sympy_oracle()
    for n, ctx in CONTEXTS.items():
        samples = suite._sample_regular(ctx, suite.DEFAULT_SEED + n)
        assert len(samples) == suite.SAMPLES
        assert all(certificate_agrees(a, oracle) for a in samples)


def quotient_with(monkeypatch, a: lie.AlgebraElement, **patches):
    """quotient_form(a) with names in algebra_forms replaced for the call."""
    with monkeypatch.context() as patched:
        for name, value in patches.items():
            patched.setattr(forms, name, value)
        return forms.quotient_form(a)


def test_quotient_form_raises_on_each_failed_certificate_check(monkeypatch):
    a = lie.random_regular_element(CTX2, random.Random(33))
    b = lie.random_regular_element(CTX2, random.Random(34))
    powers, omega_b = lie.odd_powers(a), forms.omega_from_element(b)
    # a form whose kernel the odd powers of a are not in
    with pytest.raises(AssertionError, match="not in ker omega_a"):
        quotient_with(monkeypatch, a, omega_from_element=lambda _: omega_b)
    # n copies of a: in the kernel, but one pivot where n are needed
    with pytest.raises(AssertionError, match="not independent"):
        quotient_with(monkeypatch, a, odd_powers=lambda _: [powers[0]] * CTX2.n)
    # a membership test that fails every odd power
    with monkeypatch.context() as patched, pytest.raises(AssertionError, match="not in sp"):
        patched.setattr(lie, "is_in_algebra", lambda x, n: False)
        forms.quotient_form(a)
    # independent vectors in the kernel of the zero form, which is everything:
    # only the det shows that the kernel is larger than their span
    zero = object.__new__(lie.RegularElement)  # forged, not made through is_regular
    object.__setattr__(zero, "context", CTX2)
    object.__setattr__(zero, "coords", tuple(Q(0) for _ in range(CTX2.dim)))
    units = [[int(j == i) for j in range(CTX2.dim)] for i in range(CTX2.n)]
    with pytest.raises(AssertionError, match="degenerate"):
        quotient_with(monkeypatch, zero, odd_powers=lambda _: units)
    # criterion 3 reports a failed certificate as a FAIL with its error line
    omega = forms.omega_from_element
    shifted = lambda x: omega(lie.AlgebraElement(x.context, (x.coords[0] + 1,) + x.coords[1:]))
    monkeypatch.setattr(forms, "omega_from_element", shifted)
    result = suite.check_quotient_nondegeneracy()
    assert not result["passed"]
    assert result["computed"] == "error: an odd power of a is not in ker omega_a"


def test_quotient_form_rejects_non_regular():
    with pytest.raises(ValueError):
        forms.quotient_form(E)


def test_quotient_nondegeneracy_independent_of_complement():
    # alternate complement: greedily extend the kernel from the top index down
    rng = random.Random(30)
    for ctx in (CTX1, CTX2):
        a = lie.random_regular_element(ctx, rng)
        omega = forms.omega_from_element(a)
        kernel_rows = [list(r) for r in forms.form_kernel(omega)]
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
            assert kernel == tuple(tuple(r) for r in echelon_rows(gram.nullspace()))
            leads = leading_indices(kernel)  # reduced echelon: increasing pivots, unit columns
            assert list(leads) == sorted(set(leads))
            assert all(row[p] == (r == t) for r, row in enumerate(kernel) for t, p in enumerate(leads))
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

@pytest.fixture(scope="module")
def d2_oracle():
    oracle = sympy_oracle()
    d2 = {n: oracle.of(forms.ce_d2_matrix(ctx)).to_sparse() for n, ctx in CONTEXTS.items()}

    def closed(n: int, gram: Matrix) -> bool:
        upper = Matrix([[gram[i, j]] for i, j in combinations(range(gram.rows), 2)])
        return (d2[n] * oracle.of(upper).to_sparse()).is_zero_matrix

    return closed


# the strategies two_forms draws from, built once: per n, the index pairs i < j,
# a strategy picking one of them, and a coordinate list for each kind of entry
FORM_NS = st.sampled_from(sorted(CONTEXTS))
FORM_KINDS = st.sampled_from(["integer", "rational", "omega", "omega changed"])
FORM_ENTRIES = st.sampled_from([SPARSE_INTS, RATIONALS])
FORM_DELTAS = st.sampled_from([1, -3, Q(1, 2)])
FORM_PAIRS = {n: list(combinations(range(ctx.dim), 2)) for n, ctx in CONTEXTS.items()}
FORM_PAIR_DRAWS = {n: st.sampled_from(pairs) for n, pairs in FORM_PAIRS.items()}
FORM_COORDS = {(n, entries): st.lists(entries, min_size=ctx.dim, max_size=ctx.dim)
               for n, ctx in CONTEXTS.items() for entries in (SPARSE_INTS, RATIONALS)}


@st.composite
def two_forms(draw):
    """(n, gram) for n = 1, 2, 3: a random antisymmetric Gram with sparse integer or
    rational entries, the Gram of omega_a for a random integer or rational a,
    or such a Gram with one entry pair changed."""
    n = draw(FORM_NS)
    ctx = CONTEXTS[n]
    kind = draw(FORM_KINDS)
    if kind in ("integer", "rational"):
        entries = SPARSE_INTS if kind == "integer" else RATIONALS
        gram = Matrix.zeros(ctx.dim, ctx.dim)
        for i, j in FORM_PAIRS[n]:
            v = draw(entries)
            gram[i, j], gram[j, i] = v, -v
        return n, gram
    entries = draw(FORM_ENTRIES)
    a = ctx.element(draw(FORM_COORDS[n, entries]))
    gram = forms.omega_from_element(a).gram
    if kind == "omega changed":
        i, j = draw(FORM_PAIR_DRAWS[n])
        delta = draw(FORM_DELTAS)
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
