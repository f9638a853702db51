import random
from fractions import Fraction as Q
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import symplab.lie_core as lie
from symplab.linalg import Matrix, echelon_rows, vec_is_zero
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
    assert len(CTX2.basis) == 10


def test_basis_order_n1():
    assert H.to_matrix() == Matrix([[1, 0], [0, -1]])
    assert E.to_matrix() == Matrix([[0, 1], [0, 0]])
    assert F.to_matrix() == Matrix([[0, 0], [1, 0]])


def block_basis(n: int) -> tuple[list[Matrix], list[str]]:
    """The basis of sp(2n) written out block by block: E_ij - E_(n+j)(n+i)
    for the A block row-major, then E_ij + E_ji on the upper triangles of
    the symmetric B and C blocks."""
    basis, labels = [], []
    for i in range(n):
        for j in range(n):
            m = Matrix.zeros(2 * n, 2 * n)
            m[i, j] = 1
            m[n + j, n + i] = -1
            basis.append(m)
            labels.append(f"A[{i + 1},{j + 1}]")
    for block, row0, col0 in (("B", 0, n), ("C", n, 0)):
        for i in range(n):
            for j in range(i, n):
                m = Matrix.zeros(2 * n, 2 * n)
                m[row0 + i, col0 + j] = 1
                m[row0 + j, col0 + i] = 1
                basis.append(m)
                labels.append(f"{block}[{i + 1},{j + 1}]")
    return basis, labels


@pytest.mark.parametrize("ctx", [CTX1, CTX2, CTX3], ids=["n1", "n2", "n3"])
def test_basis_matches_block_formulas(ctx):
    basis, labels = block_basis(ctx.n)
    assert ctx.basis == basis
    assert ctx.basis_labels == labels
    for k, m in enumerate(basis):
        assert ctx.coords_of_matrix(m) == [Q(int(k == t)) for t in range(ctx.dim)]


def test_membership_examples():
    assert lie.is_in_algebra(Matrix([[0, 1], [0, 0]]), 1)
    assert not lie.is_in_algebra(Matrix.identity(2), 1)
    # direct evaluation oracle: J X + X^t J = 0 for X = [[1,1],[0,-1]]
    x = Matrix([[1, 1], [0, -1]])
    j = lie.j_matrix(1)
    assert ((j @ x) + (x.transpose() @ j)).is_zero()
    assert lie.is_in_algebra(x, 1)
    assert lie.is_in_algebra(lie.j_matrix(1), 1)  # J J = -J^t J


def test_membership_shape_error():
    with pytest.raises(ValueError):
        lie.is_in_algebra(Matrix([[1, 0], [0, 1]]), 2)
    with pytest.raises(ValueError):
        lie.is_in_algebra(Matrix.zeros(6, 5), 3)  # not square
    with pytest.raises(ValueError):
        lie.is_in_group(Matrix([[1]]), 1)


def test_group_membership_examples():
    assert lie.is_in_group(Matrix.identity(2), 1)
    assert lie.is_in_group(lie.j_matrix(1), 1)
    # X^t J X = 2J for X = diag(2,1)
    d = Matrix([[2, 0], [0, 1]])
    j = lie.j_matrix(1)
    assert (d.transpose() @ j @ d) == j.scale(2)
    assert not lie.is_in_group(d, 1)


def test_bracket_examples():
    assert lie.bracket(H, E).coords == (Q(0), Q(2), Q(0))  # [H,E] = 2E
    assert lie.bracket(E, F).coords == (Q(1), Q(0), Q(0))  # [E,F] = H
    rng = random.Random(11)
    for _ in range(5):
        x = lie.random_element(CTX2, rng)
        assert lie.bracket(x, x).is_zero()


def test_bracket_matches_matrix_commutator():
    rng = random.Random(12)
    for ctx in (CTX1, CTX2):
        for _ in range(10):
            x = lie.random_element(ctx, rng)
            y = lie.random_element(ctx, rng)
            xm, ym = x.to_matrix(), y.to_matrix()
            comm = (xm @ ym) - (ym @ xm)
            assert lie.bracket(x, y).to_matrix() == comm
            assert lie.is_in_algebra(comm, ctx.n)


def test_bracket_context_mismatch():
    with pytest.raises(ValueError):
        lie.bracket(H, CTX2.element([1] + [0] * 9))


def test_killing_form_examples():
    # oracle: ad H acts with eigenvalues 2, -2, 0 on E, F, H
    assert lie.killing_form(H, H) == Q(8)
    assert lie.killing_form(H, E) == Q(0)
    rng = random.Random(13)
    for _ in range(10):
        x = lie.random_element(CTX1, rng)
        y = lie.random_element(CTX1, rng)
        assert lie.killing_form(x, y) == lie.killing_form(y, x)


def test_killing_form_agrees_with_gram():
    rng = random.Random(14)
    for ctx in (CTX1, CTX2):
        for _ in range(10):
            x = lie.random_element(ctx, rng)
            y = lie.random_element(ctx, rng)
            via_gram = sum(a * b for a, b in
                           zip(x.coords, ctx.killing_gram.apply(list(y.coords))))
            assert lie.killing_form(x, y) == via_gram


def test_killing_gram_nondegenerate_n123():
    for ctx in (CTX1, CTX2, CTX3):
        assert ctx.killing_gram == ctx.killing_gram.transpose()
        assert ctx.killing_gram.det() != 0


def test_killing_trace_constant():
    assert lie.killing_trace_constant(CTX1) == Q(4)
    assert lie.killing_trace_constant(CTX2) == Q(6)
    assert lie.killing_trace_constant(CTX3) == Q(8)


def test_jacobi_identity():
    for ctx in (CTX1, CTX2):
        for i, j, k in combinations(range(ctx.dim), 3):
            ei, ej, ek = (ctx.basis_element(t) for t in (i, j, k))
            total = (lie.bracket(lie.bracket(ei, ej), ek)
                     + lie.bracket(lie.bracket(ej, ek), ei)
                     + lie.bracket(lie.bracket(ek, ei), ej))
            assert total.is_zero()
    rng = random.Random(15)
    for _ in range(30):
        i, j, k = (rng.randrange(CTX3.dim) for _ in range(3))
        ei, ej, ek = (CTX3.basis_element(t) for t in (i, j, k))
        total = (lie.bracket(lie.bracket(ei, ej), ek)
                 + lie.bracket(lie.bracket(ej, ek), ei)
                 + lie.bracket(lie.bracket(ek, ei), ej))
        assert total.is_zero()


def test_killing_invariance():
    # B([a,x],y) + B(x,[a,y]) = 0 on all basis triples
    for ctx in (CTX1, CTX2):
        for a in range(ctx.dim):
            ea = ctx.basis_element(a)
            for x in range(ctx.dim):
                ex = ctx.basis_element(x)
                for y in range(ctx.dim):
                    ey = ctx.basis_element(y)
                    val = (lie.killing_form(lie.bracket(ea, ex), ey)
                           + lie.killing_form(ex, lie.bracket(ea, ey)))
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
    assert zh.dim == 1 and zh.rows == ((Q(1), Q(0), Q(0)),)
    zj = lie.centralizer(J1)
    assert zj.dim == 1 and zj.contains(J1.coords)
    z0 = lie.centralizer(CTX1.zero())
    assert z0.dim == 3


def test_centralizer_of_regular_is_abelian_cartan():
    rng = random.Random(17)
    for ctx in (CTX1, CTX2, CTX3):
        for _ in range(10):
            a = lie.random_regular_element(ctx, rng)
            z = lie.centralizer(a)
            assert z.dim == ctx.n
            assert lie.is_abelian(z)
            # every kernel vector commutes with a (oracle re-check)
            for row in z.rows:
                assert vec_is_zero(ctx.bracket_coords(a.coords, row))


def test_is_abelian_examples():
    assert lie.is_abelian(lie.Subspace(CTX1, [H.coords]))
    assert not lie.is_abelian(lie.Subspace(CTX1, [H.coords, E.coords]))
    assert not lie.is_abelian(lie.Subspace(CTX1, [E.coords, F.coords]))


def test_is_maximal_abelian_examples():
    assert lie.is_maximal_abelian(lie.Subspace(CTX1, [H.coords]))
    # the ad(E) nullspace is one-dimensional (oracle), so span{E} is its own
    # joint centralizer and therefore maximal abelian
    assert len(CTX1.ad_matrix(E.coords).nullspace()) == 1
    assert lie.centralizer(E) == lie.Subspace(CTX1, [E.coords])
    assert lie.is_maximal_abelian(lie.Subspace(CTX1, [E.coords]))
    # diagonal Cartan subalgebra of sp(4,R): A[1,1] and A[2,2]
    cartan = lie.Subspace(CTX2, [CTX2.basis_element(0).coords, CTX2.basis_element(3).coords])
    assert cartan.dim == 2
    assert lie.is_maximal_abelian(cartan)


def test_is_maximal_abelian_rejects_non_abelian():
    with pytest.raises(ValueError):
        lie.is_maximal_abelian(lie.Subspace(CTX1, [H.coords, E.coords]))


def test_is_maximal_abelian_zero_subspace():
    assert not lie.is_maximal_abelian(lie.Subspace(CTX1, []))


def test_spectral_type_examples():
    assert lie.spectral_type(J1).label == "elliptic"
    assert lie.spectral_type(H).label == "hyperbolic"
    assert lie.spectral_type(E).label == "parabolic/defective"
    assert lie.spectral_type(E).defective == 2
    assert lie.spectral_type(J1).imaginary_pairs == 1
    assert lie.spectral_type(H).real_pairs == 1


def test_spectral_type_counts_match_numerical_oracle():
    rng = random.Random(18)
    for ctx in (CTX1, CTX2, CTX3):
        for _ in range(15):
            a = lie.random_regular_element(ctx, rng)
            st = lie.spectral_type(a)
            assert st.defective == 0
            assert 2 * st.real_pairs + 2 * st.imaginary_pairs + 4 * st.complex_quadruples == 2 * ctx.n
            arr = np.array([[float(v) for v in row] for row in a.to_matrix().data])
            eigs = np.linalg.eigvals(arr)
            nreal = sum(1 for z in eigs if abs(z.imag) < 1e-9)
            nimag = sum(1 for z in eigs if abs(z.real) < 1e-9 and abs(z.imag) > 1e-9)
            assert st.real_pairs == nreal // 2
            assert st.imaginary_pairs == nimag // 2


def test_spectral_type_mixed_label():
    # diag(1,2,-1,-2) union an elliptic pair is mixed for n=2 when families differ
    a = CTX2.element([1, 0, 0, 2, 0, 0, 0, 0, 0, 0])  # diag(1,2,-1,-2)
    st = lie.spectral_type(a)
    assert st.real_pairs == 2 and st.label == "hyperbolic"
    b = CTX2.element([1, 0, 0, 0, 0, 0, 1, 0, 0, -1])
    stb = lie.spectral_type(b)
    if stb.defective == 0 and 0 < stb.real_pairs < 2 and stb.complex_quadruples == 0:
        assert stb.label == "mixed"


def test_random_regular_element_is_regular_and_deterministic():
    a = lie.random_regular_element(CTX2, random.Random(99))
    b = lie.random_regular_element(CTX2, random.Random(99))
    assert a.coords == b.coords
    assert lie.is_regular(a)
    assert all(-9 <= c <= 9 for c in a.coords)


def test_subspace_contains_and_equality():
    s = lie.Subspace(CTX1, [H.coords, E.coords])
    assert s.contains((Q(2), Q(3), Q(0)))
    assert not s.contains(F.coords)
    t = lie.Subspace(CTX1, [E.coords, H.coords])
    assert s == t


def test_matrix_coordinate_roundtrip():
    rng = random.Random(19)
    for ctx in (CTX1, CTX2, CTX3):
        a = lie.random_element(ctx, rng)
        assert ctx.element_from_matrix(a.to_matrix()).coords == a.coords


# -- integer structure constants and entrywise membership ---------------------------

def j_product_is_zero(x: Matrix, n: int) -> bool:
    """Membership as the definition states it: J x + x^t J = 0."""
    j = lie.j_matrix(n)
    return ((j @ x) + (x.transpose() @ j)).is_zero()


def coords_by_j_products(x: Matrix, n: int) -> list[Q]:
    """Coordinates of a member, checked by J products and read block by block:
    A row-major, then the upper triangles of B and of C."""
    assert j_product_is_zero(x, n)
    coords = [Q(x[i, j]) for i in range(n) for j in range(n)]
    coords += [Q(x[i, n + j]) for i in range(n) for j in range(i, n)]
    coords += [Q(x[n + i, j]) for i in range(n) for j in range(i, n)]
    return coords


@pytest.mark.parametrize("ctx", [CTX1, CTX2, CTX3], ids=["n1", "n2", "n3"])
def test_pair_brackets_are_integer_commutator_coordinates(ctx):
    for i in range(ctx.dim):
        for j in range(ctx.dim):
            entry = ctx.pair_bracket(i, j)
            assert all(type(c) is int and c != 0 for c in entry.values())
            bi, bj = ctx.basis[i], ctx.basis[j]
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
    for c, b in zip(coords, ctx.basis):
        acc = acc + b.scale(c)
    return acc


def test_integer_element_layer_matches_fraction_formulas():
    seen = set()

    @PROPERTY
    @given(element_pairs([CTX1, CTX2, CTX3]))
    def check(pair):
        x, y = pair
        ctx = x.context
        bracket = ctx.bracket_coords(x.coords, y.coords)
        assert bracket == fraction_bracket(ctx, x.coords, y.coords)
        assert all(type(v) is Q for v in bracket)
        ad = fraction_ad(ctx, x.coords)
        assert ctx.ad_matrix(x.coords) == ad
        assert x.to_matrix() == fraction_matrix(ctx, x.coords)
        assert lie.centralizer(x).rows == tuple(tuple(r) for r in echelon_rows(ad.nullspace()))
        seen.add((ctx.n, any(c.denominator != 1 for c in x.coords)))

    check()
    assert seen == {(n, rational) for n in (1, 2, 3) for rational in (False, True)}


# -- the context against the matrix-product construction -----------------------------

def product_oracle(ctx):
    """The structure constants read at the slots of b_i @ b_j - b_j @ b_i,
    the adjoint columns they give, and the Killing Gram summed pair by pair
    as sum over a, b of ad_i[b][a] * ad_j[a][b]."""
    slot_of = {rc: k for k, rc in enumerate(lie._slots(ctx.n))}
    table = {}
    for i, j in combinations(range(ctx.dim), 2):
        comm = (ctx.basis[i] @ ctx.basis[j]) - (ctx.basis[j] @ ctx.basis[i])
        entry = sorted((slot_of[r, c], v) for r in range(comm.rows)
                       for c, v in comm.row_items(r) if (r, c) in slot_of)
        if entry:
            table[i, j] = dict(entry)
    ad = [{} for _ in range(ctx.dim)]
    for (i, j), entry in table.items():
        ad[i][j] = entry
        ad[j][i] = {k: -c for k, c in entry.items()}
    gram = Matrix.zeros(ctx.dim, ctx.dim)
    for i in range(ctx.dim):
        for j in range(ctx.dim):
            gram[i, j] = sum(c * ad[j].get(b, {}).get(a, 0)
                             for a, column in ad[i].items() for b, c in column.items())
    return table, ad, gram


@pytest.mark.parametrize("n", [1, 2, 3, 4], ids=["n1", "n2", "n3", "n4"])
def test_context_matches_matrix_product_oracle(n, monkeypatch):
    with monkeypatch.context() as patch:  # the context itself takes no product
        for name in ("__matmul__", "__sub__"):
            patch.setattr(Matrix, name, lambda *args: pytest.fail("a Matrix product was taken"))
        ctx = lie.standard_basis(n)
    table, ad, gram = product_oracle(ctx)
    assert ctx._table == table and list(ctx._table) == list(table)
    assert ctx._ad == ad and [list(a) for a in ctx._ad] == [list(a) for a in ad]
    assert ctx.killing_gram == gram


def test_context_membership_checks_raise(monkeypatch):
    """A basis matrix outside the algebra, and a commutator outside it (basis
    matrices with only their slot entry, admitted by a patched basis check),
    each stop the construction."""
    def slot_only(ctx, coords):
        m = Matrix.zeros(2 * ctx.n, 2 * ctx.n)
        for (r, c), x in zip(lie._slots(ctx.n), coords):
            m[r, c] = x
        return m

    monkeypatch.setattr(lie.AlgebraContext, "matrix_of_coords", slot_only)
    with pytest.raises(AssertionError, match="basis matrix"):
        lie.AlgebraContext(2)
    monkeypatch.setattr(lie, "is_in_algebra", lambda x, n: True)
    with pytest.raises(AssertionError, match="commutator"):
        lie.AlgebraContext(2)
