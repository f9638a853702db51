"""Exact dense linear algebra over the rationals.

Every entry is a ``fractions.Fraction`` and every operation (elimination,
rank, nullspace, determinant, linear solves) is exact.  Matrices are small
(a few hundred rows at most) but often very sparse, so multiplication and
elimination skip zero entries.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction

QLike = int | str | Fraction


def qf(x: QLike) -> Fraction:
    """Coerce to Fraction; accepts canonical 'p/q' strings."""
    return x if isinstance(x, Fraction) else Fraction(x)


def qstr(x: QLike) -> str:
    """Canonical rational string: 'p' or 'p/q' with gcd(p,q)=1, q>0."""
    return str(qf(x))


def vec(entries: Iterable[QLike]) -> list[Fraction]:
    return [qf(x) for x in entries]


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


def vec_dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Q(0))


class Matrix:
    """Dense rational matrix with exact arithmetic."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[QLike]]):
        self.data = [[qf(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    # -- construction ------------------------------------------------
    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m.data = [[Q(0)] * cols for _ in range(rows)]
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = Q(1)
        return m

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[QLike]], rows: int | None = None) -> "Matrix":
        if not columns:
            return cls.zeros(rows or 0, 0)
        n = len(columns[0])
        m = cls.zeros(n, len(columns))
        for j, col in enumerate(columns):
            for i, x in enumerate(col):
                m.data[i][j] = qf(x)
        return m

    @classmethod
    def vstack(cls, mats: Sequence["Matrix"]) -> "Matrix":
        mats = [m for m in mats if m.rows > 0]
        if not mats:
            return cls.zeros(0, 0)
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column mismatch in vstack")
        out = cls.__new__(cls)
        out.cols = cols
        out.data = [row[:] for m in mats for row in m.data]
        out.rows = len(out.data)
        return out

    @classmethod
    def hstack(cls, mats: Sequence["Matrix"]) -> "Matrix":
        mats = [m for m in mats if m.cols > 0]
        if not mats:
            return cls.zeros(0, 0)
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("row mismatch in hstack")
        out = cls.zeros(rows, sum(m.cols for m in mats))
        for i in range(rows):
            j = 0
            for m in mats:
                out.data[i][j:j + m.cols] = m.data[i]
                j += m.cols
        return out

    @classmethod
    def kron(cls, a: "Matrix", b: "Matrix") -> "Matrix":
        out = cls.zeros(a.rows * b.rows, a.cols * b.cols)
        for i in range(a.rows):
            for j in range(a.cols):
                x = a.data[i][j]
                if x == 0:
                    continue
                for p in range(b.rows):
                    brow = b.data[p]
                    orow = out.data[i * b.rows + p]
                    for q in range(b.cols):
                        if brow[q] != 0:
                            orow[j * b.cols + q] = x * brow[q]
        return out

    # -- basics -------------------------------------------------------
    def copy(self) -> "Matrix":
        out = Matrix.__new__(Matrix)
        out.rows, out.cols = self.rows, self.cols
        out.data = [row[:] for row in self.data]
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_antisymmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.data[i][j] == -self.data[j][i]
                   for i in range(self.rows) for j in range(i, self.cols))

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.data[i][j] == self.data[j][i]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    def transpose(self) -> "Matrix":
        out = Matrix.__new__(Matrix)
        out.rows, out.cols = self.cols, self.rows
        if self.rows:
            out.data = [list(col) for col in zip(*self.data)]
        else:
            out.data = [[] for _ in range(self.cols)]
        return out

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = Matrix.__new__(Matrix)
        out.rows, out.cols = self.rows, self.cols
        out.data = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        return out

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: QLike) -> "Matrix":
        c = qf(c)
        out = Matrix.__new__(Matrix)
        out.rows, out.cols = self.rows, self.cols
        out.data = [[c * x for x in row] for row in self.data]
        return out

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # sparse-aware: walk nonzeros of self, nonzero entries of other's rows
        other_nz = [[(j, x) for j, x in enumerate(row) if x != 0] for row in other.data]
        out = Matrix.zeros(self.rows, other.cols)
        for i, row in enumerate(self.data):
            orow = out.data[i]
            for k, a in enumerate(row):
                if a == 0:
                    continue
                for j, b in other_nz[k]:
                    orow[j] += a * b
        return out

    def apply(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = [Q(0)] * self.rows
        for i, row in enumerate(self.data):
            acc = Q(0)
            for a, x in zip(row, v):
                if a != 0 and x != 0:
                    acc += a * x
            out[i] = acc
        return out

    def column(self, j: int) -> list[Fraction]:
        return [row[j] for row in self.data]

    def columns(self) -> list[list[Fraction]]:
        return [self.column(j) for j in range(self.cols)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        out = Matrix.__new__(Matrix)
        out.rows, out.cols = len(row_idx), len(col_idx)
        out.data = [[self.data[i][j] for j in col_idx] for i in row_idx]
        return out

    def select_columns(self, col_idx: Sequence[int]) -> "Matrix":
        return self.submatrix(range(self.rows), col_idx)

    # -- elimination ---------------------------------------------------
    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and pivot column indices."""
        m = self.copy()
        pivots: list[int] = []
        r = 0
        for c in range(m.cols):
            if r == m.rows:
                break
            pivot = next((i for i in range(r, m.rows) if m.data[i][c] != 0), None)
            if pivot is None:
                continue
            m.data[r], m.data[pivot] = m.data[pivot], m.data[r]
            pv = m.data[r][c]
            if pv != 1:
                inv = 1 / pv
                m.data[r] = [x * inv for x in m.data[r]]
            prow = m.data[r]
            for i in range(m.rows):
                if i == r:
                    continue
                f = m.data[i][c]
                if f == 0:
                    continue
                irow = m.data[i]
                for j in range(c, m.cols):
                    if prow[j] != 0:
                        irow[j] -= f * prow[j]
            pivots.append(c)
            r += 1
        return m, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the right kernel, one vector per free column."""
        red, pivots = self.rref()
        pivset = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivset:
                continue
            v = [Q(0)] * self.cols
            v[free] = Q(1)
            for r, p in enumerate(pivots):
                v[p] = -red.data[r][free]
            basis.append(v)
        return basis

    def solve(self, b: Sequence[Fraction]) -> list[Fraction]:
        """One exact solution of self @ x = b (free variables set to 0).

        Raises ValueError when the system is inconsistent.
        """
        aug = self.copy()
        for i, row in enumerate(aug.data):
            row.append(qf(b[i]))
        aug.cols += 1
        red, pivots = aug.rref()
        if pivots and pivots[-1] == self.cols:
            raise ValueError("inconsistent linear system")
        x = [Q(0)] * self.cols
        for r, p in enumerate(pivots):
            x[p] = red.data[r][self.cols]
        return x

    def solve_matrix(self, rhs: "Matrix") -> "Matrix":
        """Exact X with self @ X = rhs; raises when inconsistent."""
        aug = Matrix.hstack([self, rhs])
        red, pivots = aug.rref()
        if pivots and pivots[-1] >= self.cols:
            raise ValueError("inconsistent linear system")
        out = Matrix.zeros(self.cols, rhs.cols)
        for r, p in enumerate(pivots):
            out.data[p] = red.data[r][self.cols:]
        return out

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        inv = self.solve_matrix(Matrix.identity(self.rows))
        if (self @ inv) != Matrix.identity(self.rows):
            raise ValueError("singular matrix")
        return inv

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        m = self.copy()
        n = m.rows
        sign = 1
        det = Q(1)
        for c in range(n):
            pivot = next((i for i in range(c, n) if m.data[i][c] != 0), None)
            if pivot is None:
                return Q(0)
            if pivot != c:
                m.data[c], m.data[pivot] = m.data[pivot], m.data[c]
                sign = -sign
            pv = m.data[c][c]
            det *= pv
            prow = m.data[c]
            for i in range(c + 1, n):
                f = m.data[i][c]
                if f == 0:
                    continue
                f = f / pv
                irow = m.data[i]
                for j in range(c, n):
                    if prow[j] != 0:
                        irow[j] -= f * prow[j]
        return det * sign

    # -- serialization --------------------------------------------------
    def to_json_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[qstr(x) for x in row] for row in self.data]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Matrix":
        m = cls(obj["entries"]) if obj["entries"] else cls.zeros(obj["rows"], obj["cols"])
        if (m.rows, m.cols) != (obj["rows"], obj["cols"]):
            raise ValueError("matrix shape does not match declared rows/cols")
        return m

    @classmethod
    def from_json(cls, text: str) -> "Matrix":
        return cls.from_json_dict(json.loads(text))


def echelon_rows(vectors: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Canonical reduced-echelon basis of the span of the given row vectors."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return []
    red, pivots = Matrix(vectors).rref()
    return [red.data[r] for r in range(len(pivots))]


def rank_of_rows(vectors: Sequence[Sequence[Fraction]]) -> int:
    if not vectors:
        return 0
    return Matrix(vectors).rank()


def same_row_space(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> bool:
    return echelon_rows(a) == echelon_rows(b)
