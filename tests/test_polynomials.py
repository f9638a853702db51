import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symplab.linalg import Matrix
from symplab.polynomials import (charpoly, count_real_roots, even_part,
                                 is_squarefree, poly_derivative, poly_divmod,
                                 poly_eval, poly_gcd, squarefree_part)
from strategies import PROPERTY, SIDE, matrices, sympy_oracle  # shared with other modules


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
