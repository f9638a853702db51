import json
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symplab.linalg import Matrix, echelon_rows, qstr, rank_of_rows
from strategies import PROPERTY, SIDE, matrices, sympy_oracle  # shared with other modules


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_rref_known_case():
    m = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, pivots = m.rref()
    assert pivots == [0, 1]
    assert red.data == ((Q(1), Q(0), Q(1)), (Q(0), Q(1), Q(1)), (Q(0), Q(0), Q(0)))


def test_rank_of_constructed_products():
    # rank(A @ B) = r when A is m x r and B is r x n with generic entries
    rng = random.Random(0)
    for _ in range(20):
        r = rng.randint(1, 4)
        a = rand_matrix(rng, 6, r)
        b = rand_matrix(rng, r, 5)
        prod = a @ b
        if a.rank() == r and b.rank() == r:
            assert prod.rank() == r


def test_nullspace_vectors_lie_in_kernel():
    rng = random.Random(1)
    for _ in range(20):
        m = rand_matrix(rng, 4, 7)
        basis = m.nullspace()
        assert len(basis) == 7 - m.rank()
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
        assert rank_of_rows(basis) == len(basis)


def test_det_matches_numpy_sign_and_value():
    rng = random.Random(2)
    for _ in range(20):
        m = rand_matrix(rng, 4, 4)
        exact = m.det()
        approx = np.linalg.det(np.array([[float(x) for x in row] for row in m.data]))
        assert abs(float(exact) - approx) < 1e-6


def test_det_triangular_and_singular():
    t = Matrix([[2, 5, 1], [0, 3, 7], [0, 0, "1/2"]])
    assert t.det() == Q(3)
    s = Matrix([[1, 2], [2, 4]])
    assert s.det() == 0


def test_solve_consistent_and_inconsistent():
    m = Matrix([[1, 2], [3, 4], [4, 6]])
    x = m.solve([Q(5), Q(11), Q(16)])
    assert m.apply(x) == [Q(5), Q(11), Q(16)]
    with pytest.raises(ValueError):
        m.solve([Q(1), Q(0), Q(0)])


def test_inverse_roundtrip():
    m = Matrix([[1, 2], [3, 5]])
    inv = m.inverse()
    assert m @ inv == Matrix.identity(2)
    with pytest.raises(ValueError):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_matmul_agrees_with_naive():
    rng = random.Random(3)
    a = rand_matrix(rng, 3, 4)
    b = rand_matrix(rng, 4, 2)
    prod = a @ b
    for i in range(3):
        for j in range(2):
            assert prod.data[i][j] == sum(x * y for x, y in zip(a.data[i], b.column(j)))


def test_kron_shapes_and_values():
    a = Matrix([[1, 2], [0, 3]])
    b = Matrix([[0, 1], [1, 0]])
    k = Matrix.kron(a, b)
    assert (k.rows, k.cols) == (4, 4)
    assert k.data[0][1] == Q(1) and k.data[0][3] == Q(2)
    assert k.data[3][2] == Q(3)


def test_stacking():
    a = Matrix([[1, 2]])
    b = Matrix([[3, 4]])
    assert Matrix.vstack([a, b]).data == ((Q(1), Q(2)), (Q(3), Q(4)))
    assert Matrix.hstack([a, b]).data == ((Q(1), Q(2), Q(3), Q(4)),)


def test_stacking_keeps_the_shared_dimension_of_empty_inputs():
    no_rows, no_cols = Matrix.zeros(0, 3), Matrix.zeros(3, 0)
    assert (Matrix.vstack([no_rows]).rows, Matrix.vstack([no_rows]).cols) == (0, 3)
    assert Matrix.vstack([no_rows]).kernel_matrix() == Matrix.identity(3)
    assert Matrix.vstack([no_rows, Matrix([[1, 0, 0]])]) == Matrix([[1, 0, 0]])
    assert (Matrix.hstack([no_cols]).rows, Matrix.hstack([no_cols]).cols) == (3, 0)
    assert Matrix.hstack([no_cols, Matrix.identity(3)]) == Matrix.identity(3)
    assert Matrix.vstack([]) == Matrix.hstack([]) == Matrix.zeros(0, 0)
    with pytest.raises(ValueError):
        Matrix.vstack([Matrix.zeros(0, 0), Matrix.zeros(2, 3)])
    with pytest.raises(ValueError):
        Matrix.hstack([Matrix.zeros(0, 0), Matrix.zeros(3, 2)])


def test_echelon_rows_canonical_and_row_space_compare():
    rows_a = [[Q(2), Q(4)], [Q(1), Q(2)]]
    rows_b = [[Q(1), Q(2)]]
    assert echelon_rows(rows_a) == [[Q(1), Q(2)]]
    assert echelon_rows(rows_a) == echelon_rows(rows_b)
    assert echelon_rows(rows_a) != echelon_rows([[Q(1), Q(0)]])


def test_json_roundtrip_and_canonical_strings():
    m = Matrix([["2/4", 3], ["-6/4", 0]])
    obj = {"rows": 2, "cols": 2, "entries": [[qstr(m[i, j]) for j in range(2)] for i in range(2)]}
    assert obj["entries"][0][0] == "1/2"
    assert obj["entries"][1][0] == "-3/2"
    assert obj["entries"][0][1] == "3"
    back = Matrix.from_json_dict(json.loads(json.dumps(obj, sort_keys=True)))
    assert back == m
    # canonical form keeps positive denominators and reduced terms
    assert qstr(Q(-2, -4)) == "1/2"


def test_zero_row_matrices_compose():
    z = Matrix.zeros(0, 3)
    m = Matrix([[1, 2], [3, 4], [5, 6]])
    prod = z @ m
    assert (prod.rows, prod.cols) == (0, 2)
    assert prod.is_zero()


# -- properties checked against an independent exact oracle ----------------------
# sympy's DomainMatrix over QQ; the strategies and the oracle live in strategies.py.


@st.composite
def pairs(draw):
    """Matrices a (r x k) and b (k x c) with a shared inner dimension."""
    r, k, c = draw(SIDE), draw(SIDE), draw(SIDE)
    return draw(matrices(st.just(r), st.just(k))), draw(matrices(st.just(k), st.just(c)))


@pytest.fixture(scope="module")
def oracle():
    return sympy_oracle()


@PROPERTY
@given(matrices())
def test_rref_pivots_and_rank_match_oracle(oracle, m):
    red, pivots = m.rref()
    want, want_pivots = oracle.of(m).rref()
    assert pivots == list(want_pivots)
    assert [list(row) for row in red.data] == oracle.entries(want)
    assert m.rank() == len(pivots) == oracle.of(m).rank()


@PROPERTY
@given(matrices())
def test_nullspace_dimension_and_kernel_match_oracle(oracle, m):
    basis = m.nullspace()
    assert len(basis) == oracle.of(m).nullspace().shape[0] == m.cols - m.rank()
    assert rank_of_rows(basis) == len(basis)
    for v in basis:
        product = oracle.of(m) * oracle.of(Matrix([v]).transpose())
        assert all(x == 0 for row in oracle.entries(product) for x in row)


@PROPERTY
@given(SIDE.flatmap(lambda n: matrices(st.just(n), st.just(n))))
def test_det_matches_oracle(oracle, m):
    want = oracle.of(m).det()
    assert m.det() == Q(int(want.numerator), int(want.denominator))


@PROPERTY
@given(pairs())
def test_matmul_matches_oracle(oracle, ab):
    a, b = ab
    assert [list(row) for row in (a @ b).data] == oracle.entries(oracle.of(a) * oracle.of(b))


def _consistent(oracle, a, rhs) -> bool:
    return oracle.of(Matrix.hstack([a, rhs])).rank() == oracle.of(a).rank()


@PROPERTY
@given(pairs(), st.data())
def test_solve_matches_oracle_on_consistent_and_inconsistent_systems(oracle, ab, data):
    a, x0 = ab
    random_rhs = data.draw(matrices(st.just(a.rows), st.just(x0.cols)))
    for rhs in (a @ x0, random_rhs):  # the first is consistent by construction
        if _consistent(oracle, a, rhs):
            x = a.solve_matrix(rhs)
            assert oracle.entries(oracle.of(a) * oracle.of(x)) == oracle.entries(oracle.of(rhs))
        else:
            with pytest.raises(ValueError):
                a.solve_matrix(rhs)
        for b in rhs.columns():
            column = Matrix([b]).transpose()
            if _consistent(oracle, a, column):
                x = Matrix([a.solve(b)]).transpose()
                assert (oracle.entries(oracle.of(a) * oracle.of(x))
                        == oracle.entries(oracle.of(column)))
            else:
                with pytest.raises(ValueError):
                    a.solve(b)
