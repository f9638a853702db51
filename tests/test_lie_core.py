import copy
import dataclasses
import random
from fractions import Fraction as Q
from itertools import combinations
from math import lcm

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import symplab.lie_core as lie
import symplab.polynomials as polys
from symplab.linalg import Matrix, echelon_rows
from oracles import (add, basis_matrices, bracket, bracket_coords, context_mismatches,
                     coords_by_j_products, is_maximal_abelian, j_matrix, j_product_is_zero,
                     killing_form, killing_trace_constant, nilpotent_unit, scale, span,
                     sub, unit_element)
from strategies import (PROPERTY, RATIONALS, SPARSE_INTS,  # shared with other modules
                        element_pairs)

CTX1 = lie.standard_basis(1)
CTX2 = lie.standard_basis(2)
CTX3 = lie.standard_basis(3)

# sp(2,R) basis order is H = diag(1,-1), E = [[0,1],[0,0]], F = [[0,0],[1,0]]
H = CTX1.element([1, 0, 0])
E = CTX1.element([0, 1, 0])
F = CTX1.element([0, 0, 1])
J1 = CTX1.element([0, -1, 1])


def test_dimensions():
    assert CTX1.dim == 3
    assert CTX2.dim == 10
    assert CTX3.dim == 21
    assert [len(lie._slots(ctx.n)) for ctx in (CTX1, CTX2, CTX3)] == [3, 10, 21]


def test_basis_order_n1():
    assert H.to_matrix() == Matrix([[1, 0], [0, -1]])
    assert E.to_matrix() == Matrix([[0, 1], [0, 0]])
    assert F.to_matrix() == Matrix([[0, 0], [1, 0]])


@pytest.mark.parametrize("ctx", [CTX1, CTX2, CTX3], ids=["n1", "n2", "n3"])
def test_basis_matches_block_formulas(ctx):
    """The member with each unit coordinate is the block-formula basis matrix,
    which lies in the algebra by J products and by the entrywise test."""
    basis = basis_matrices(ctx.n)
    for k, m in enumerate(basis):
        unit = [Q(int(k == t)) for t in range(ctx.dim)]
        assert ctx.matrix_of_coords(unit) == m
        assert j_product_is_zero(m, ctx.n) and lie.is_in_algebra(m, ctx.n)
        assert ctx.coords_of_matrix(m) == unit


def test_membership_examples():
    assert lie.is_in_algebra(Matrix([[0, 1], [0, 0]]), 1)
    assert not lie.is_in_algebra(Matrix.identity(2), 1)
    # direct evaluation oracle: J X + X^t J = 0 for X = [[1,1],[0,-1]]
    x = Matrix([[1, 1], [0, -1]])
    j = j_matrix(1)
    assert ((j @ x) + (x.transpose() @ j)).is_zero()
    assert lie.is_in_algebra(x, 1)
    assert lie.is_in_algebra(j_matrix(1), 1)  # J J = -J^t J


def test_membership_shape_error():
    with pytest.raises(ValueError):
        lie.is_in_algebra(Matrix([[1, 0], [0, 1]]), 2)
    with pytest.raises(ValueError):
        lie.is_in_algebra(Matrix.zeros(6, 5), 3)  # not square


def test_bracket_examples():
    assert bracket(H, E).coords == (Q(0), Q(2), Q(0))  # [H,E] = 2E
    assert bracket(E, F).coords == (Q(1), Q(0), Q(0))  # [E,F] = H
    rng = random.Random(11)
    for _ in range(5):
        x, y = lie.random_element(CTX2, rng), lie.random_element(CTX2, rng)
        assert not any(bracket(x, x).coords)
        # antisymmetric and bilinear: [x, y] = -[y, x] and [2x - y, y] = 2[x, y]
        assert not any(add(bracket(x, y), bracket(y, x)).coords)
        assert not any(sub(bracket(sub(scale(x, 2), y), y), scale(bracket(x, y), 2)).coords)


def test_bracket_matches_matrix_commutator():
    rng = random.Random(12)
    for ctx in (CTX1, CTX2):
        for _ in range(10):
            x = lie.random_element(ctx, rng)
            y = lie.random_element(ctx, rng)
            xm, ym = x.to_matrix(), y.to_matrix()
            comm = (xm @ ym) - (ym @ xm)
            assert bracket(x, y).to_matrix() == comm
            assert lie.is_in_algebra(comm, ctx.n)


def test_bracket_context_mismatch():
    with pytest.raises(ValueError):
        bracket(H, CTX2.element([1] + [0] * 9))


def test_killing_form_examples():
    # oracle: ad H acts with eigenvalues 2, -2, 0 on E, F, H
    assert killing_form(H, H) == Q(8)
    assert killing_form(H, E) == Q(0)
    rng = random.Random(13)
    for _ in range(10):
        x = lie.random_element(CTX1, rng)
        y = lie.random_element(CTX1, rng)
        assert killing_form(x, y) == killing_form(y, x)


def test_killing_form_agrees_with_gram():
    rng = random.Random(14)
    for ctx in (CTX1, CTX2):
        for _ in range(10):
            x = lie.random_element(ctx, rng)
            y = lie.random_element(ctx, rng)
            via_gram = sum(a * b for a, b in
                           zip(x.coords, ctx.killing_gram.apply(list(y.coords))))
            assert killing_form(x, y) == via_gram


def test_killing_gram_nondegenerate_n123():
    for ctx in (CTX1, CTX2, CTX3):
        assert ctx.killing_gram == ctx.killing_gram.transpose()
        assert ctx.killing_gram.det() != 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_killing_partners_are_the_gram_entries(n):
    """Row k of the Killing Gram has its one nonzero g_k at column pi(k); pi is an
    involution and g_k is 2(n + 1) or 4(n + 1)."""
    ctx = lie.standard_basis(n)
    partners = ctx.killing_partners
    gram = Matrix.zeros(ctx.dim, ctx.dim)
    for k, (pk, gk) in enumerate(partners):
        assert partners[pk][0] == k
        assert ctx.killing_gram[k, pk] == gk in (2 * (n + 1), 4 * (n + 1))
        gram[k, pk] = gk
    assert ctx.killing_gram == gram


def test_killing_trace_constant():
    assert killing_trace_constant(CTX1) == Q(4)
    assert killing_trace_constant(CTX2) == Q(6)
    assert killing_trace_constant(CTX3) == Q(8)


def test_jacobi_identity():
    for ctx in (CTX1, CTX2):
        for i, j, k in combinations(range(ctx.dim), 3):
            ei, ej, ek = (unit_element(ctx, t) for t in (i, j, k))
            total = add(add(bracket(bracket(ei, ej), ek), bracket(bracket(ej, ek), ei)),
                        bracket(bracket(ek, ei), ej))
            assert not any(total.coords)
    rng = random.Random(15)
    for _ in range(30):
        i, j, k = (rng.randrange(CTX3.dim) for _ in range(3))
        ei, ej, ek = (unit_element(CTX3, t) for t in (i, j, k))
        total = add(add(bracket(bracket(ei, ej), ek), bracket(bracket(ej, ek), ei)),
                    bracket(bracket(ek, ei), ej))
        assert not any(total.coords)


def test_killing_invariance():
    # B([a,x],y) + B(x,[a,y]) = 0 on all basis triples
    for ctx in (CTX1, CTX2):
        for a in range(ctx.dim):
            ea = unit_element(ctx, a)
            for x in range(ctx.dim):
                ex = unit_element(ctx, x)
                for y in range(ctx.dim):
                    ey = unit_element(ctx, y)
                    val = (killing_form(bracket(ea, ex), ey)
                           + killing_form(ex, bracket(ea, ey)))
                    assert val == 0


def test_is_regular_examples():
    assert lie.is_regular(H)
    assert not lie.is_regular(E)
    assert lie.is_regular(J1)


def test_is_regular_matches_numerical_oracle():
    rng = random.Random(16)
    checked = 0
    for ctx in (CTX1, CTX2, CTX3):
        for _ in range(34):
            a = lie.random_element(ctx, rng)
            arr = np.array([[float(v) for v in row] for row in a.to_matrix().data])
            eigs = np.linalg.eigvals(arr)
            distinct = all(abs(u - v) > 1e-9
                           for i, u in enumerate(eigs) for v in eigs[i + 1:])
            assert lie.is_regular(a) == distinct
            checked += 1
    assert checked >= 100


def test_centralizer_examples():
    zh = lie.centralizer(H)
    assert zh == ((Q(1), Q(0), Q(0)),)
    zj = lie.centralizer(J1)
    assert len(zj) == 1 and zj == span([J1.coords])
    z0 = lie.centralizer(CTX1.element([0] * CTX1.dim))
    assert z0 == span([H.coords, E.coords, F.coords])


def test_centralizer_of_regular_is_abelian_cartan():
    rng = random.Random(17)
    for ctx in (CTX1, CTX2, CTX3):
        for _ in range(10):
            a = lie.random_regular_element(ctx, rng)
            z = lie.centralizer(a)
            assert len(z) == ctx.n and z == span(z)  # n reduced echelon rows
            assert lie.is_abelian(ctx, z)
            assert z == span(lie.odd_powers(a))  # a regular a is cyclic
            # every kernel vector commutes with a (oracle re-check)
            for row in z:
                assert not any(bracket_coords(ctx, a.coords, row))


def test_is_abelian_examples():
    assert lie.is_abelian(CTX1, span([H.coords]))
    assert not lie.is_abelian(CTX1, span([H.coords, E.coords]))
    assert not lie.is_abelian(CTX1, span([E.coords, F.coords]))
    # integer rows, as the rank/kernel record passes them: the odd powers of a
    # regular element commute, and the integer unit rows of E and F do not
    rng = random.Random(45)
    for ctx in (CTX1, CTX2, CTX3):
        powers = lie.odd_powers(lie.random_regular_element(ctx, rng))
        assert all(type(x) is int for row in powers for x in row)
        assert lie.is_abelian(ctx, powers)
    assert not lie.is_abelian(CTX1, [[0, 1, 0], [0, 0, 1]])
    assert lie.is_abelian(CTX1, []) and lie.is_abelian(CTX1, [[0, 2, 0]])


def test_is_maximal_abelian_examples():
    assert is_maximal_abelian(CTX1, span([H.coords]))
    # the ad(E) nullspace is one-dimensional (oracle), so span{E} is its own
    # joint centralizer and therefore maximal abelian
    assert len(CTX1.ad_matrix(E.coords).nullspace()) == 1
    assert lie.centralizer(E) == span([E.coords])
    assert is_maximal_abelian(CTX1, span([E.coords]))
    # diagonal Cartan subalgebra of sp(4,R): A[1,1] and A[2,2]
    cartan = span([unit_element(CTX2, 0).coords, unit_element(CTX2, 3).coords])
    assert len(cartan) == 2
    assert is_maximal_abelian(CTX2, cartan)


def test_is_maximal_abelian_rejects_non_abelian():
    with pytest.raises(ValueError):
        is_maximal_abelian(CTX1, span([H.coords, E.coords]))


def test_is_maximal_abelian_zero_subspace():
    assert not is_maximal_abelian(CTX1, span([]))


def test_spectral_type_examples():
    assert lie.spectral_type(J1)["label"] == "elliptic"
    assert lie.spectral_type(H)["label"] == "hyperbolic"
    assert lie.spectral_type(E)["label"] == "parabolic/defective"
    assert lie.spectral_type(E)["defective"] == 2
    assert lie.spectral_type(J1)["imaginary_pairs"] == 1
    assert lie.spectral_type(H)["real_pairs"] == 1


def test_spectral_type_counts_match_numerical_oracle():
    rng = random.Random(18)
    for ctx in (CTX1, CTX2, CTX3):
        for _ in range(15):
            a = lie.random_regular_element(ctx, rng)
            st = lie.spectral_type(a)
            assert st["defective"] == 0
            assert (2 * st["real_pairs"] + 2 * st["imaginary_pairs"]
                    + 4 * st["complex_quadruples"] == 2 * ctx.n)
            arr = np.array([[float(v) for v in row] for row in a.to_matrix().data])
            eigs = np.linalg.eigvals(arr)
            nreal = sum(1 for z in eigs if abs(z.imag) < 1e-9)
            nimag = sum(1 for z in eigs if abs(z.real) < 1e-9 and abs(z.imag) > 1e-9)
            assert st["real_pairs"] == nreal // 2
            assert st["imaginary_pairs"] == nimag // 2


def test_spectral_type_builds_one_sturm_chain(monkeypatch):
    """One Sturm chain per classification, on charpolys drawn like the omega
    pool: sp(6) coordinates in [-9, 9], every fourth element rational; the
    counts equal two separate half-line counts."""
    calls = []
    chain = polys._sturm_chain
    monkeypatch.setattr(polys, "_sturm_chain", lambda p: calls.append(p) or chain(p))
    rng = random.Random(7)
    for i in range(24):
        if i % 4 == 3:
            a = CTX3.element([Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(CTX3.dim)])
        else:
            a = lie.random_element(CTX3, rng)
        p = polys.charpoly(a.to_matrix())
        calls.clear()
        st = lie.spectral_type_of(p, 3)
        assert len(calls) == 1
        sf = polys.squarefree_part(polys.even_part(p))
        sf = sf[1:] if sf[0] == 0 else sf
        assert st["real_pairs"] == polys.count_real_roots(sf, Q(0), None)
        assert st["imaginary_pairs"] == polys.count_real_roots(sf, None, Q(0))


def test_spectral_type_mixed_label():
    # diag(1,2,-1,-2) union an elliptic pair is mixed for n=2 when families differ
    a = CTX2.element([1, 0, 0, 2, 0, 0, 0, 0, 0, 0])  # diag(1,2,-1,-2)
    st = lie.spectral_type(a)
    assert st["real_pairs"] == 2 and st["label"] == "hyperbolic"
    b = CTX2.element([1, 0, 0, 0, 0, 0, 1, 0, 0, -1])
    stb = lie.spectral_type(b)
    if stb["defective"] == 0 and 0 < stb["real_pairs"] < 2 and stb["complex_quadruples"] == 0:
        assert stb["label"] == "mixed"


def test_random_regular_element_is_regular_and_deterministic():
    a = lie.random_regular_element(CTX2, random.Random(99))
    b = lie.random_regular_element(CTX2, random.Random(99))
    assert a.coords == b.coords
    assert lie.is_regular(a)
    assert all(-9 <= c <= 9 for c in a.coords)


# the first draw at seeds 7..10, as the redraw loop over random_element and
# is_regular gave it before random_regular_element returned RegularElement
FIRST_REGULAR_DRAWS = {
    1: {7: [1, -5, 3], 8: [-2, 2, 3], 9: [5, 2, -1], 10: [9, -8, 4]},
    2: {7: [1, -5, 3, -8, -7, 8, -6, 2, 9, -8], 8: [-2, 2, 3, -5, -3, -8, -7, -5, -2, 7],
        9: [5, 2, -1, -5, -4, -9, 1, 7, 5, -7], 10: [9, -8, 4, 6, 9, -9, -3, 5, 6, -1]},
}


@pytest.mark.parametrize("seed", [7, 8, 9, 10])
def test_random_regular_element_draws_are_unchanged(seed):
    for ctx in (CTX1, CTX2, CTX3):
        rng, loop_rng = random.Random(seed), random.Random(seed)
        for draw in range(5):
            a = lie.random_regular_element(ctx, rng)
            while not lie.is_regular(b := lie.random_element(ctx, loop_rng)):
                pass
            assert type(a) is lie.RegularElement and a.coords == b.coords
            if draw == 0 and ctx.n in FIRST_REGULAR_DRAWS:
                assert list(a.coords) == FIRST_REGULAR_DRAWS[ctx.n][seed]


def test_regular_element_is_made_only_through_is_regular():
    refused = []  # the zero element and a nilpotent (E for n = 1) per n
    for ctx in (CTX1, CTX2, CTX3):
        refused += [ctx.element([0] * ctx.dim), nilpotent_unit(ctx)]
    assert E in refused
    for ctx in (CTX2, CTX3):  # H-like, with a repeated eigenvalue: diag(1, ..., 1, -1, ..., -1)
        refused.append(ctx.element([int(i % (ctx.n + 1) == 0) if i < ctx.n ** 2 else 0
                                    for i in range(ctx.dim)]))
    regular = lie.random_regular_element(CTX2, random.Random(5))
    for x in refused:
        assert not lie.is_regular(x)
        with pytest.raises(ValueError, match="not regular"):
            lie.RegularElement(x.context, x.coords)
        if x.context is CTX2:
            with pytest.raises(ValueError, match="not regular"):
                dataclasses.replace(regular, coords=x.coords)
    with pytest.raises(dataclasses.FrozenInstanceError):
        regular.coords = E.coords
    assert dataclasses.replace(regular).coords == regular.coords
    assert lie.RegularElement(CTX1, H.coords).coords == H.coords


def test_odd_powers_are_the_odd_matrix_powers():
    # (d a)^(2k+1) by products of Fraction matrices, read back through the
    # membership-checked coordinates
    seen = set()

    @PROPERTY
    @given(element_pairs([CTX1, CTX2, CTX3]))
    def check(pair):
        for a in pair:
            ctx = a.context
            d = lcm(1, *(c.denominator for c in a.coords))
            x = a.to_matrix().scale(d)
            expected, power = [], x
            for _ in range(ctx.n):
                expected.append(ctx.coords_of_matrix(power))
                power = power @ x @ x
            assert lie.odd_powers(a) == expected
            seen.add((ctx.n, d > 1))

    check()
    assert {(n, rational) for n in (1, 2, 3) for rational in (False, True)} <= seen


def test_subspace_contains_and_equality():
    s = span([H.coords, E.coords])
    # v lies in s exactly when adding it leaves the dimension unchanged
    assert len(span(s + ((Q(2), Q(3), Q(0)),))) == len(s)
    assert len(span(s + (F.coords,))) != len(s)
    t = span([E.coords, H.coords])
    assert s == t


def test_matrix_coordinate_roundtrip():
    rng = random.Random(19)
    for ctx in (CTX1, CTX2, CTX3):
        a = lie.random_element(ctx, rng)
        assert ctx.element_from_matrix(a.to_matrix()).coords == a.coords


# -- integer structure constants and entrywise membership ---------------------------

@pytest.mark.parametrize("ctx", [CTX1, CTX2, CTX3], ids=["n1", "n2", "n3"])
def test_pair_brackets_are_integer_commutator_coordinates(ctx):
    basis = basis_matrices(ctx.n)
    for i in range(ctx.dim):
        for j in range(ctx.dim):
            entry = ctx.pair_bracket(i, j)
            assert all(type(c) is int and c != 0 for c in entry.values())
            bi, bj = basis[i], basis[j]
            want = coords_by_j_products((bi @ bj) - (bj @ bi), ctx.n)
            assert [entry.get(k, 0) for k in range(ctx.dim)] == want
    assert all(type(v) is int for i in range(ctx.dim) for _, v in ctx.killing_gram.row_items(i))


@st.composite
def members_and_perturbations(draw):
    """(x, n): a random member of sp(2n) with integer or rational coordinates,
    n = 1..3, or such a member with one entry changed."""
    ctx = draw(st.sampled_from([CTX1, CTX2, CTX3]))
    entries = draw(st.sampled_from([SPARSE_INTS, RATIONALS]))
    x = ctx.element(draw(st.lists(entries, min_size=ctx.dim, max_size=ctx.dim))).to_matrix()
    if draw(st.booleans()):
        r, c = draw(st.integers(0, x.rows - 1)), draw(st.integers(0, x.cols - 1))
        x[r, c] = x[r, c] + draw(st.sampled_from([1, -2, Q(1, 3)]))
    return x, ctx.n


def test_entrywise_membership_matches_j_products():
    verdicts = set()

    @PROPERTY
    @given(members_and_perturbations())
    def check(case):
        x, n = case
        member = lie.is_in_algebra(x, n)
        assert member == j_product_is_zero(x, n)
        verdicts.add(member)

    check()
    assert verdicts == {True, False}  # both verdicts were exercised


# -- the integer element layer against the Fraction formulas ------------------------

def fraction_bracket(ctx, x, y) -> list[Q]:
    """[x, y] summed over the structure constants in Fraction arithmetic."""
    out = [Q(0)] * ctx.dim
    for (i, j), entry in ctx._table.items():
        w = x[i] * y[j] - x[j] * y[i]
        for k, c in entry.items():
            out[k] += w * c
    return out


def fraction_ad(ctx, x) -> Matrix:
    """ad(x) accumulated entry by entry in Fraction arithmetic."""
    out = Matrix.zeros(ctx.dim, ctx.dim)
    for i, xi in enumerate(x):
        for a, entry in ctx._ad[i].items():
            for b, c in entry.items():
                out[b, a] += xi * c
    return out


def fraction_matrix(ctx, coords) -> Matrix:
    """The sum of the basis matrices scaled by the coordinates."""
    acc = Matrix.zeros(2 * ctx.n, 2 * ctx.n)
    for c, b in zip(coords, basis_matrices(ctx.n)):
        acc = acc + b.scale(c)
    return acc


def test_integer_element_layer_matches_fraction_formulas():
    seen = set()

    @PROPERTY
    @given(element_pairs([CTX1, CTX2, CTX3]))
    def check(pair):
        x, y = pair
        ctx = x.context
        coords = bracket_coords(ctx, x.coords, y.coords)
        assert coords == fraction_bracket(ctx, x.coords, y.coords)
        assert all(type(v) is Q for v in coords)
        ad = fraction_ad(ctx, x.coords)
        assert ctx.ad_matrix(x.coords) == ad
        assert x.to_matrix() == fraction_matrix(ctx, x.coords)
        assert lie.centralizer(x) == tuple(tuple(r) for r in echelon_rows(ad.nullspace()))
        seen.add((ctx.n, any(c.denominator != 1 for c in x.coords)))

    check()
    assert seen == {(n, rational) for n in (1, 2, 3) for rational in (False, True)}


# -- the context against the matrix-product construction -----------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5], ids=["n1", "n2", "n3", "n4", "n5"])
def test_context_matches_matrix_product_oracle(n, monkeypatch):
    """The structure constants (with their key order), the adjoint columns, the
    Killing Gram and the partner table equal those built from the basis
    matrices' products; the oracle also checks that every commutator lies in
    the algebra and that every Gram row has one nonzero."""
    with monkeypatch.context() as patch:  # the context itself takes no product
        for name in ("__matmul__", "__sub__"):
            patch.setattr(Matrix, name, lambda *args: pytest.fail("a Matrix product was taken"))
        ctx = lie.standard_basis(n)
    assert context_mismatches(ctx) == []


def with_table(ctx: lie.AlgebraContext, table: dict) -> lie.AlgebraContext:
    """A copy of ctx with these structure constants and the adjoint columns the
    construction reads off them."""
    planted = copy.copy(ctx)
    planted._table = table
    planted._ad = [{} for _ in range(ctx.dim)]
    for (i, j), entry in table.items():
        planted._ad[i][j] = entry
        planted._ad[j][i] = {k: -c for k, c in entry.items()}
    return planted


def with_partners(ctx: lie.AlgebraContext, partners: list) -> lie.AlgebraContext:
    """A copy of ctx with this partner table and the Gram the construction builds from it."""
    planted = copy.copy(ctx)
    planted.killing_partners = partners
    planted.killing_gram = Matrix._of(ctx.dim, ctx.dim, [{p: g} for p, g in partners])
    return planted


@pytest.mark.parametrize("fault, caught", [
    ("flipped structure-constant sign", ["_table", "_ad"]),
    ("partner trace 2 at a diagonal B or C slot", ["killing_gram", "killing_partners"]),
    ("two slots swapped in _slots", ["_table", "_ad", "killing_gram", "killing_partners"]),
])
def test_context_oracle_catches_planted_faults(fault, caught, monkeypatch):
    """Each planted fault in the context of sp(4) shows in the comparison with
    the product oracle, in the parts named; the unplanted context shows none."""
    ctx = CTX2
    assert context_mismatches(ctx) == []
    if fault.startswith("flipped"):
        (i, j), entry = next(iter(ctx._table.items()))
        k, c = next(iter(entry.items()))
        planted = with_table(ctx, {**ctx._table, (i, j): {**entry, k: -c}})
    elif fault.startswith("partner"):
        planted = with_partners(ctx, [(p, (2 * ctx.n + 2) * 2) for p, _ in ctx.killing_partners])
    else:
        slots = lie._slots

        def swapped(n):  # the first A slot and the last C slot trade places
            out = slots(n)
            out[0], out[-1] = out[-1], out[0]
            return out
        monkeypatch.setattr(lie, "_slots", swapped)
        planted = lie.AlgebraContext(ctx.n)
    assert context_mismatches(planted) == caught


# -- input checks ---------------------------------------------------------------

@pytest.mark.parametrize("n", [0, -1])
def test_context_refuses_a_non_positive_n(n):
    with pytest.raises(ValueError, match="positive integer"):
        lie.AlgebraContext(n)


@pytest.mark.parametrize("length", [2, 4])
def test_coordinate_length_is_checked(length):
    """sp(2) has three coordinates: an element or a matrix from two or four is refused."""
    coords = (Q(1),) * length
    with pytest.raises(ValueError, match="coordinate length mismatch"):
        lie.AlgebraElement(CTX1, coords)
    with pytest.raises(ValueError, match="coordinate length mismatch"):
        CTX1.matrix_of_coords(coords)
