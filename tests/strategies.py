"""Hypothesis strategies and the sympy oracle shared by the property tests.

The oracle is sympy's DomainMatrix over QQ, an exact implementation that
shares no code with symplab.  derandomize=True makes every run draw the
same cases, so a failure reproduces.  Shapes include 0 rows and 0 columns.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from symplab.linalg import Matrix

SIDE = st.integers(0, 6)
SPARSE_INTS = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-30, 30))
RATIONALS = st.one_of(st.just(0), st.fractions(min_value=-20, max_value=20,
                                               max_denominator=12))
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
# algebra coordinates: sparse integers, or rationals with denominators up to 9
COORDINATES = st.sampled_from([
    SPARSE_INTS,
    st.one_of(st.just(0), st.fractions(min_value=-20, max_value=20, max_denominator=9)),
])


@st.composite
def matrices(draw, rows=SIDE, cols=SIDE):
    """A matrix of sparse integers or of rationals, with shape drawn from rows, cols."""
    entries = draw(st.sampled_from([SPARSE_INTS, RATIONALS]))
    m = Matrix.zeros(draw(rows), draw(cols))
    for i in range(m.rows):
        for j in range(m.cols):
            m[i, j] = draw(entries)
    return m


def sympy_oracle():
    """Conversions to and from sympy's DomainMatrix; skips the caller without sympy."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    class Oracle:
        @staticmethod
        def of(m: Matrix):
            """m as a dense DomainMatrix, converted entry by nonzero entry."""
            rows = {i: {j: QQ(x.numerator, x.denominator) for j, x in m.row_items(i)}
                    for i in range(m.rows) if m.row_items(i)}
            return DomainMatrix(rows, (m.rows, m.cols), QQ).to_dense()

        @staticmethod
        def entries(dm) -> list[list[Q]]:
            return [[Oracle.rational(x) for x in row] for row in dm.to_list()]

        @staticmethod
        def rational(x) -> Q:
            return Q(int(x.numerator), int(x.denominator))

    return Oracle


@st.composite
def element_pairs(draw, contexts):
    """(x, y): two elements of one of the algebra contexts, each with sparse
    integer or with rational coordinates."""
    ctx = draw(st.sampled_from(contexts))
    return tuple(ctx.element(draw(st.lists(draw(COORDINATES), min_size=ctx.dim,
                                           max_size=ctx.dim)))
                 for _ in range(2))
