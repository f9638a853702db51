import json
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symplab.linalg import Matrix, echelon_rows, qstr, rank_of_rows
from oracles import pfaffian_by_expansion
from strategies import (PROPERTY, RATIONALS, SIDE, SPARSE_INTS,  # shared with other modules
                        matrices, sympy_oracle)


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
    assert Matrix.zeros(0, 0).det() == 1 and type(t.det()) is Q
    with pytest.raises(ValueError, match="non-square"):
        Matrix.zeros(2, 3).det()


def test_solve_consistent_and_inconsistent():
    m = Matrix([[1, 2], [3, 4], [4, 6]])
    x = m.solve([Q(5), Q(11), Q(16)])
    assert m.apply(x) == [Q(5), Q(11), Q(16)]
    with pytest.raises(ValueError):
        m.solve([Q(1), Q(0), Q(0)])


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    # a long b was cut to the row count, a short one ran off its end
    m = Matrix([[1, 0], [0, 1]])
    assert m.solve([1, 2]) == [Q(1), Q(2)]
    for b in ([1, 2, 99], [1], []):
        with pytest.raises(ValueError, match="row mismatch"):
            m.solve(b)
    with pytest.raises(ValueError, match="row mismatch"):
        m.solve_matrix(Matrix([[1], [2], [99]]))


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


def test_repr_names_the_shape():
    assert repr(Matrix.zeros(2, 3)) == "Matrix(2x3)"


def test_zero_row_matrices_compose():
    z = Matrix.zeros(0, 3)
    m = Matrix([[1, 2], [3, 4], [5, 6]])
    prod = z @ m
    assert (prod.rows, prod.cols) == (0, 2)
    assert prod.is_zero()


# -- properties checked against an independent exact oracle ----------------------
# sympy's DomainMatrix over QQ; the strategies and the oracle live in strategies.py.


@st.composite
def pairs(draw, side=SIDE):
    """Matrices a (r x k) and b (k x c) with a shared inner dimension."""
    r, k, c = draw(side), draw(side), draw(side)
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
@given(matrices(), st.data())
def test_nested_ranks_match_oracle(oracle, m, data):
    # the rows cut, in any order, into up to three disjoint parts and the rest:
    # the rank after each part, then the matrix's; and the echelon form, one
    # row per pivot with the leading columns increasing, spans the row space
    order = data.draw(st.permutations(range(m.rows)))
    cuts = sorted(data.draw(st.lists(st.integers(0, m.rows), max_size=3)))
    parts = [order[a:b] for a, b in zip([0] + cuts, cuts)]
    cumulative = [[i for part in parts[:t + 1] for i in part] for t in range(len(parts))]
    want = [oracle.of(m.submatrix(rows, range(m.cols))).rank() for rows in cumulative]
    ranks, form = m.nested_ranks(*parts)
    assert ranks == (*want, oracle.of(m).rank()) and form.rows == ranks[-1]
    leads = [min(dict(form.row_items(i))) for i in range(form.rows)]
    assert leads == sorted(set(leads))
    assert oracle.of(Matrix.vstack([form, m])).rank() == form.rows


def test_shape_guards():
    a, b = Matrix([[1, 2, 3], [4, 5, 6]]), Matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="^column mismatch in vstack$"):
        Matrix.vstack([a, b])
    with pytest.raises(ValueError, match="^row mismatch in hstack$"):
        Matrix.hstack([a, Matrix([[1]])])
    with pytest.raises(ValueError, match="^shape mismatch$"):
        a + b
    with pytest.raises(ValueError, match=r"^shape mismatch 2x3 @ 2x2$"):
        a @ b
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        a.apply([Q(1), Q(2)])
    for key in ((2, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(IndexError, match=rf"^entry \({key[0]}, {key[1]}\) outside a 2x3 matrix$"):
            a[key]
        with pytest.raises(IndexError, match="outside a 2x3 matrix"):
            a[key] = 1
    assert a == Matrix([[1, 2, 3], [4, 5, 6]])  # no refused write reached the rows


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


KRON_SIDE = st.integers(0, 4)  # a kron of two is up to 16 x 16


@PROPERTY
@given(matrices(KRON_SIDE, KRON_SIDE), matrices(KRON_SIDE, KRON_SIDE))
def test_kron_entries_match_oracle(oracle, a, b):
    # entry (i * b.rows + p, j * b.cols + q) is a[i, j] * b[p, q], in QQ
    k = Matrix.kron(a, b)
    assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
    ea, eb, ek = (oracle.entries(oracle.of(m)) for m in (a, b, k))
    assert all(ek[i * b.rows + p][j * b.cols + q] == ea[i][j] * eb[p][q]
               for i in range(a.rows) for j in range(a.cols)
               for p in range(b.rows) for q in range(b.cols))


@PROPERTY
@given(pairs(KRON_SIDE), pairs(KRON_SIDE))
def test_kron_mixed_product(oracle, ac, bd):
    # (A (x) B)(C (x) D) = AC (x) BD, and the left side agrees with the oracle's product
    (a, c), (b, d) = ac, bd
    lhs = Matrix.kron(a, b) @ Matrix.kron(c, d)
    assert lhs == Matrix.kron(a @ c, b @ d)
    assert oracle.of(lhs) == oracle.of(Matrix.kron(a, b)) * oracle.of(Matrix.kron(c, d))


@PROPERTY
@given(st.data())
def test_kron_sum_matches_the_sum_of_krons(data):
    # terms that share entries, cancel to zero or add fractions to integers:
    # the one-pass sum equals repeated __add__, entries stored as ints when integral
    ra, ca, rb, cb = (data.draw(KRON_SIDE) for _ in range(4))
    terms = [(data.draw(matrices(st.just(ra), st.just(ca))),
              data.draw(matrices(st.just(rb), st.just(cb))))
             for _ in range(data.draw(st.integers(1, 3)))]
    a, b = terms[0]
    terms += data.draw(st.sampled_from([[], [(a.scale(-1), b)], [(a.scale(Q(1, 2)), b)] * 2]))
    expected = Matrix.zeros(ra * rb, ca * cb)
    for a, b in terms:
        expected = expected + Matrix.kron(a, b)
    total = Matrix.kron_sum((ra * rb, ca * cb), terms)
    assert total == expected
    assert all(type(v) is int or v.denominator > 1
               for i in range(total.rows) for _, v in total.row_items(i))


def test_kron_sum_shapes():
    assert Matrix.kron_sum((2, 3), []) == Matrix.zeros(2, 3)
    with pytest.raises(ValueError, match="shape mismatch in kron_sum"):
        Matrix.kron_sum((2, 2), [(Matrix.identity(2), Matrix.identity(2))])


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


def test_submatrix_takes_distinct_columns():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert m.submatrix([1, 0], [2, 0]) == Matrix([[6, 4], [3, 1]])
    assert m.select_columns([]) == Matrix.zeros(2, 0)
    with pytest.raises(ValueError, match="repeated column"):
        m.submatrix([0], [1, 1])


@st.composite
def antisymmetric(draw):
    """An antisymmetric matrix of order 0 to 10, odd orders included, of sparse
    integers (often singular, with whole rows of zeros) or of rationals."""
    entries = draw(st.sampled_from([SPARSE_INTS, RATIONALS]))
    n = draw(st.integers(0, 10))
    m = Matrix.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = x = draw(entries)
            m[j, i] = -x
    return m


def test_pfaffian_matches_the_oracle_det_and_the_expansion(oracle):
    """Pf^2 = det (sympy), Pf equal to the expansion along the first row, and
    Pf(-A) = (-1)^m Pf(A) at order 2m; swapping two indices flips the sign."""
    seen = set()

    @PROPERTY
    @given(antisymmetric(), st.data())
    def check(m, data):
        pf = m.pfaffian()
        det = oracle.rational(oracle.of(m).det()) if m.rows else Q(1)
        assert pf * pf == det
        assert pf == pfaffian_by_expansion(m)
        assert (-m).pfaffian() == (-1) ** (m.rows // 2) * pf
        if m.rows >= 2:
            i, j = sorted(data.draw(st.lists(st.integers(0, m.rows - 1), min_size=2,
                                             max_size=2, unique=True)))
            order = list(range(m.rows))
            order[i], order[j] = j, i
            assert m.submatrix(order, order).pfaffian() == -pf
        kind = "odd" if m.rows % 2 else "nonzero" if pf else "singular"
        swapped = m.rows > 1 and m[0, 1] == 0  # the first step takes a later partner
        rational = any(type(v) is not int for i in range(m.rows) for _, v in m.row_items(i))
        seen.add((kind, swapped, rational))

    check()
    assert {"odd", "singular", "nonzero"} == {kind for kind, _, _ in seen}
    assert ("nonzero", True) in {(kind, swapped) for kind, swapped, _ in seen}
    assert ("nonzero", True) in {(kind, rational) for kind, _, rational in seen}


def test_pfaffian_known_values():
    for m in range(5):  # the direct sum of m copies of [[0, 1], [-1, 0]]
        blocks = Matrix.zeros(2 * m, 2 * m)
        for i in range(m):
            blocks[2 * i, 2 * i + 1], blocks[2 * i + 1, 2 * i] = 1, -1
        assert blocks.pfaffian() == 1
    rng = random.Random(37)
    for zero in (None, (0, 1), (0, 2), (0, 3)):
        a = {(i, j): rng.randint(-9, 9) or 1 for i in range(4) for j in range(i + 1, 4)}
        if zero:
            a[zero] = 0
        m = Matrix.zeros(4, 4)
        for (i, j), x in a.items():
            m[i, j], m[j, i] = x, -x
        want = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
        assert m.pfaffian() == want and want != 0
    assert Matrix.zeros(2, 2).pfaffian() == 0
    assert Matrix([[0, "1/2"], ["-1/2", 0]]).pfaffian() == Q(1, 2)
    assert Matrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]).pfaffian() == 0
    assert Matrix.zeros(0, 0).pfaffian() == 1


@pytest.mark.parametrize("m", [Matrix([[0, 1], [1, 0]]), Matrix([[1]]),
                               Matrix([[0, 1, 2], [-1, 0, 3]]), Matrix([[0, 1], [-2, 0]])])
def test_pfaffian_refuses_a_matrix_that_is_not_antisymmetric(m):
    with pytest.raises(ValueError, match="non-antisymmetric"):
        m.pfaffian()


# -- row scaling ---------------------------------------------------------------------
# An integer row goes into the elimination as it is, not made primitive, and a
# row holding a Fraction is cleared of its denominators: scaling rows by nonzero
# integers (non-primitive integer rows) or rationals (int and Fraction entries
# in one row) changes no rref, pivot, rank, kernel row or nested rank.

SCALES = st.one_of(st.integers(-60, 60).filter(bool),
                   st.fractions(min_value=-60, max_value=60, max_denominator=12).filter(bool))


def _scaled_rows(m: Matrix, factors) -> Matrix:
    out = Matrix.zeros(m.rows, m.cols)
    for i, c in enumerate(factors):
        for j, v in m.row_items(i):
            out[i, j] = c * v
    return out


def _assert_row_scaling_changes_nothing(oracle, m: Matrix, scaled: Matrix, parts):
    red, pivots = scaled.rref()
    want, want_pivots = oracle.of(m).rref()
    assert (red, pivots) == m.rref()
    assert pivots == list(want_pivots) and [list(row) for row in red.data] == oracle.entries(want)
    assert scaled.rank() == m.rank() == len(pivots)
    kernel = scaled.kernel_rows()
    assert kernel == m.kernel_rows()
    null_red, null_pivots = oracle.of(m).nullspace().rref()
    assert kernel == tuple(map(tuple, oracle.entries(null_red)[:len(null_pivots)]))
    ranks = scaled.nested_ranks(*parts)[0]
    cumulative = [[i for part in parts[:t + 1] for i in part] for t in range(len(parts))]
    want_ranks = [oracle.of(m.submatrix(rows, range(m.cols))).rank() for rows in cumulative]
    assert ranks == m.nested_ranks(*parts)[0] == (*want_ranks, oracle.of(m).rank())


@PROPERTY
@given(matrices(), st.data())
def test_row_scaling_changes_no_elimination_result(oracle, m, data):
    factors = data.draw(st.lists(SCALES, min_size=m.rows, max_size=m.rows))
    cut = data.draw(st.integers(0, m.rows))
    _assert_row_scaling_changes_nothing(oracle, m, _scaled_rows(m, factors),
                                        [list(range(cut))])


def test_each_pivot_is_the_shortest_row_of_its_group():
    # column 0's group is rows 0 and 1: the shorter row 1 is the pivot, made
    # primitive as it eliminates, and row 0 regroups at column 1 behind row 2;
    # of two rows of one length the earlier one is the pivot; row 3, alone at
    # column 3, eliminates nothing and is kept as it is
    m = Matrix([[1, 1, 1, 0], [2, 0, 0, 0], [0, 3, 5, 0], [0, 0, 0, 6]])
    assert m.nested_ranks()[1] == Matrix([[1, 0, 0, 0], [0, 3, 5, 0], [0, 0, -1, 0], [0, 0, 0, 6]])


def test_row_scaling_on_a_wide_matrix_whose_rows_regroup(oracle):
    # leading columns far apart; eliminating at column 0 moves rows 1 and 6 to
    # columns 350 (no row led there: a new group) and 120 (row 4's group), and
    # at column 50 moves row 3 to column 250 (a new group)
    m = Matrix.zeros(8, 400)
    rows = [{0: 2, 300: 1, 399: 5}, {0: 4, 300: 2, 350: 3}, {50: 3, 200: 1},
            {50: 6, 200: 2, 250: 7}, {120: 5, 399: 1}, {380: 1, 399: 1},
            {0: -6, 120: 1, 300: -3}, {}]
    for i, row in enumerate(rows):
        for j, v in row.items():
            m[i, j] = v
    assert m.pivot_columns() == [0, 50, 120, 250, 350, 380, 399]
    for factors in ([1] * 8, [6, -4, 10, 60, -1, 3, 2, 7],
                    [Q(1, 3), Q(-5, 2), 4, Q(7, 6), -9, Q(1, 60), Q(-2, 9), 1]):
        _assert_row_scaling_changes_nothing(oracle, m, _scaled_rows(m, factors),
                                            [[6, 1], [3]])
