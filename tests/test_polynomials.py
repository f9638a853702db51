import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import symplab.lie_core as lie
from symplab.linalg import Matrix
from symplab.polynomials import (charpoly, count_real_roots, even_part,
                                 is_squarefree, poly_derivative, poly_divmod,
                                 poly_eval, poly_gcd, squarefree_part)
from strategies import (COORDINATES, PROPERTY, SIDE,  # shared with other modules
                        matrices, sympy_oracle)


def from_roots(roots):
    """Coefficients of prod (t - r), lowest degree first."""
    coeffs = [Q(1)]
    for r in roots:
        coeffs = [Q(0)] + coeffs
        coeffs = [c - Q(r) * coeffs[i + 1] if i + 1 < len(coeffs) else c
                  for i, c in enumerate(coeffs)]
    return coeffs


def test_from_roots_helper():
    p = from_roots([1, -2])  # (t-1)(t+2) = t^2 + t - 2
    assert p == [Q(-2), Q(1), Q(1)]


def test_divmod_and_gcd():
    a = from_roots([1, 2, 3])
    b = from_roots([2, 5])
    q, r = poly_divmod(a, b)
    recon = [Q(0)] * (len(q) + len(b) - 1)
    for i, qi in enumerate(q):
        for j, bj in enumerate(b):
            recon[i + j] += qi * bj
    for i, ri in enumerate(r):
        recon[i] += ri
    assert recon == a
    assert poly_gcd(a, b) == from_roots([2])  # monic common factor (t - 2)


def test_squarefree_detection():
    assert is_squarefree(from_roots([1, 2, 3]))
    assert not is_squarefree(from_roots([1, 1, 2]))
    assert squarefree_part(from_roots([1, 1, 2])) == from_roots([1, 2])


def test_charpoly_against_numpy():
    rng = random.Random(4)
    for _ in range(15):
        m = Matrix([[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)])
        p = charpoly(m)
        arr = np.array([[float(x) for x in row] for row in m.data])
        np_coeffs = np.poly(arr)  # highest degree first
        mine = [float(c) for c in reversed(p)] + [0.0] * (5 - len(p))
        assert np.allclose(mine[:5], np_coeffs, atol=1e-6)


def test_charpoly_known():
    h = Matrix([[1, 0], [0, -1]])
    assert charpoly(h) == [Q(-1), Q(0), Q(1)]  # t^2 - 1
    e = Matrix([[0, 1], [0, 0]])
    assert charpoly(e) == [Q(0), Q(0), Q(1)]  # t^2


def test_even_part():
    assert even_part([Q(-1), Q(0), Q(1)]) == [Q(-1), Q(1)]
    with pytest.raises(ValueError):
        even_part([Q(0), Q(1)])


def test_sturm_counts_match_numpy_roots():
    rng = random.Random(5)
    for _ in range(30):
        roots = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
        p = from_roots(sorted(set(roots)))  # squarefree by construction
        total = count_real_roots(p)
        assert total == len(set(roots))
        if 0 not in roots:
            pos = count_real_roots(p, Q(0), None)
            neg = count_real_roots(p, None, Q(0))
            assert pos == len({r for r in roots if r > 0})
            assert neg == len({r for r in roots if r < 0})


def test_sturm_complex_roots():
    # t^2 + 1 has no real roots; (t^2+1)(t-3) has one
    p = [Q(1), Q(0), Q(1)]
    assert count_real_roots(p) == 0
    q = [Q(-3), Q(1), Q(-3), Q(1)]  # (t^2+1)(t-3)
    assert count_real_roots(q) == 1
    assert count_real_roots(q, Q(0), None) == 1


def test_sturm_rejects_non_squarefree_and_root_endpoints():
    with pytest.raises(ValueError):
        count_real_roots(from_roots([1, 1]))
    with pytest.raises(ValueError):
        count_real_roots(from_roots([0, 2]), Q(0), None)


def test_eval_and_derivative():
    p = [Q(1), Q(2), Q(3)]  # 1 + 2t + 3t^2
    assert poly_eval(p, Q(2)) == Q(17)
    assert poly_derivative(p) == [Q(2), Q(6)]


# -- charpoly against sympy's DomainMatrix over QQ ---------------------------------

@pytest.fixture(scope="module")
def oracle():
    return sympy_oracle()


@st.composite
def square_matrices(draw):
    """Sparse integer or rational n x n matrices, n in 0..6; about half are made
    singular by overwriting a row with a multiple of another row (or zero)."""
    n = draw(SIDE)
    m = draw(matrices(st.just(n), st.just(n)))
    if n and draw(st.booleans()):
        target, source = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        factor = draw(st.sampled_from([0, 1, -2, Q(1, 3)])) if target != source else 0
        for j in range(n):
            m[target, j] = factor * m[source, j]
    return m


@PROPERTY
@given(square_matrices())
def test_charpoly_matches_oracle(oracle, m):
    want = [oracle.rational(c) for c in reversed(oracle.of(m).charpoly())]
    got = charpoly(m)
    assert got == want
    assert all(type(c) is Q for c in got)


# -- gcd, squarefree parts, Sturm counts and spectral types against sympy ---------

@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, p):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)]
    return sympy.Poly(coeffs or [0], sympy.Symbol("t"), domain=sympy.QQ)


def from_sympy(poly) -> list:
    return [Q(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()) if poly]


def times(a, b):
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


COEFFICIENTS = st.sampled_from([st.integers(-6, 6),
                                st.fractions(min_value=-6, max_value=6, max_denominator=5)])


@st.composite
def polynomials(draw):
    """A nonzero polynomial with integer or with rational coefficients: linear
    factors, some roots repeated, times a factor with drawn coefficients; or
    such a polynomial in t^2, whose odd terms vanish as in P(t^2)."""
    entries = draw(COEFFICIENTS)
    roots = draw(st.lists(entries, max_size=4))
    if roots:
        roots += draw(st.lists(st.sampled_from(roots), max_size=2))
    p = [Q(c) for c in draw(st.lists(entries, max_size=3))] + [Q(draw(entries.filter(bool)))]
    for r in roots:
        p = times(p, [-Q(r), Q(1)])
    if draw(st.booleans()):
        p = [c for x in p for c in (x, Q(0))][:-1]
    return p


def test_gcd_and_squarefree_match_sympy(sympy):
    seen = set()

    @PROPERTY
    @given(polynomials(), st.one_of(st.just([]), polynomials()))
    def check(a, b):
        sa, sb = to_sympy(sympy, a), to_sympy(sympy, b)
        gcd = poly_gcd(a, b)
        assert gcd == from_sympy(sa.gcd(sb).monic())
        assert is_squarefree(a) == sa.is_sqf
        assert squarefree_part(a) == from_sympy(sa.sqf_part().monic())
        assert all(type(c) is Q for c in gcd + squarefree_part(a))
        seen.add((sa.is_sqf, len(gcd) > 1))

    check()
    assert seen == {(sqf, common) for sqf in (False, True) for common in (False, True)}


ENDPOINTS = st.one_of(st.none(), st.fractions(min_value=-7, max_value=7, max_denominator=4))


def test_sturm_counts_match_sympy(sympy):
    """Open-interval counts equal sympy's closed-interval counts when no
    endpoint is a root; a repeated root or a root endpoint raises."""
    seen = set()

    def rational(x):
        return None if x is None else sympy.Rational(x.numerator, x.denominator)

    @PROPERTY
    @given(polynomials(), ENDPOINTS, ENDPOINTS)
    def check(p, lo, hi):
        sp_poly = to_sympy(sympy, p)
        if not sp_poly.is_sqf:
            with pytest.raises(ValueError, match="squarefree"):
                count_real_roots(p, lo, hi)
            p, sp_poly = squarefree_part(p), sp_poly.sqf_part()
            seen.add("repeated root")
        if any(x is not None and sp_poly.eval(rational(x)) == 0 for x in (lo, hi)):
            with pytest.raises(ValueError, match="endpoint"):
                count_real_roots(p, lo, hi)
            seen.add("root endpoint")
            return
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        count = count_real_roots(p, lo, hi)
        assert count == sp_poly.count_roots(rational(lo), rational(hi))
        seen.add(("count", lo is None, hi is None, count > 0))

    check()
    assert {"repeated root", "root endpoint"} <= seen
    assert {("count", lo, hi, True) for lo in (False, True) for hi in (False, True)} <= seen


CONTEXTS = [lie.standard_basis(2), lie.standard_basis(3)]


@st.composite
def elements(draw):
    """An element of sp(4) or sp(6) with sparse integer or rational coordinates."""
    ctx = draw(st.sampled_from(CONTEXTS))
    return ctx.element(draw(st.lists(draw(COORDINATES), min_size=ctx.dim, max_size=ctx.dim)))


def test_spectral_type_matches_sympy_root_counts(sympy, oracle):
    """On charpolys of random sp(4) and sp(6) elements, computed by sympy: the
    real and imaginary pairs are the positive and negative roots of P(mu),
    counted by sympy on its squarefree part with any mu = 0 root removed."""
    seen = set()

    @PROPERTY
    @given(elements())
    def check(x):
        n = x.context.n
        p = [oracle.rational(c) for c in reversed(oracle.of(x.to_matrix()).charpoly())]
        big = to_sympy(sympy, p[0::2]).sqf_part()
        zero = int(big.eval(0) == 0)
        pos = big.count_roots(0, None) - zero
        neg = big.count_roots(None, 0) - zero
        quads = (big.degree() - zero - pos - neg) // 2
        got = lie.spectral_type_of(p, n)
        assert (got.real_pairs, got.imaginary_pairs, got.complex_quadruples, got.defective) == (
            pos, neg, quads, 2 * n - 2 * pos - 2 * neg - 4 * quads)
        seen.add((n, got.label))

    check()
    assert {(n, label) for n in (2, 3) for label in ("mixed", "parabolic/defective")} <= seen
