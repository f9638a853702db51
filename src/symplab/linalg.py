"""Exact sparse linear algebra over the rationals.

A matrix is a list of sparse rows, one ``{col: value}`` dict of nonzero
entries per row.  A value is an ``int`` when it is integral and a
``fractions.Fraction`` otherwise, so the integer operators of the cochain
models never touch ``Fraction`` arithmetic.  Entries are read and written
as ``m[i, j]`` and ``m[i, j] = x``; ``row_items(i)`` walks the nonzeros of
one row.  ``data`` is a read-only dense ``Fraction`` copy (tuples of
tuples) for numerical oracles and tracing, not for computation.

Elimination is fraction-free: each row is scaled by the lcm of its
denominators and kept primitive (entries coprime) by dividing out their
gcd; only the final scaling of each pivot to 1 makes ``Fraction`` values.
The reduced row echelon form is unique, so ``rref``, pivots, nullspaces
and solves are the canonical ones.  ``det`` is Bareiss's fraction-free
elimination (Math. Comp. 22, 1968) on ``integer_rows``.  Vectors handed out
(``apply``, ``column``, ``nullspace``, ``solve``) are lists of ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Q = Fraction

QLike = int | str | Fraction

_ZERO = Q(0)


def qf(x: QLike) -> Fraction:
    """Coerce to Fraction; accepts canonical 'p/q' strings."""
    return x if isinstance(x, Fraction) else Fraction(x)


def qstr(x: QLike) -> str:
    """Canonical rational string: 'p' or 'p/q' with gcd(p,q)=1, q>0."""
    return str(qf(x))


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


def _num(x: QLike) -> int | Fraction:
    """An entry as stored: int when integral, Fraction otherwise."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _denominator(row: dict) -> int:
    """The lcm of the denominators of a row's entries."""
    den = 1
    for v in row.values():
        if type(v) is not int:
            den = lcm(den, v.denominator)
    return den


def _cleared(row: dict, d: int) -> dict:
    """d * row as ints, d a multiple of every denominator in the row; with
    d == 1 the row is integral and is returned as it is, not copied."""
    if d == 1:
        return row
    return {j: v.numerator * (d // v.denominator) for j, v in row.items()}


def _integral(row: dict) -> dict[int, int]:
    """The row times the lcm of its denominators, divided by its content."""
    return _primitive(_cleared(row, _denominator(row)))


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g <= 1 else {j: v // g for j, v in row.items()}


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """Primitive integer combination of row and prow with no entry at column c."""
    a, b = prow[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = dict(row) if a == 1 else {j: a * v for j, v in row.items()}
    for j, v in prow.items():
        x = out.get(j, 0) - b * v
        if x:
            out[j] = x
        else:
            del out[j]  # x == 0 only where out already held b * v
    return _primitive(out) if out else out


def _echelon(rows: Iterable[dict], cols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Integer echelon rows and their leading columns, in increasing order.

    Rows are grouped by leading column; for each column in turn the
    shortest row of its group is the pivot and is eliminated from the rest
    of the group, which then regroup by their new, later, leading columns.
    """
    groups: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            groups.setdefault(min(row), []).append(_integral(row))
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(cols):
        group = groups.pop(c, None)
        if group is None:
            continue
        pivot = min(group, key=len)
        echelon.append(pivot)
        pivots.append(c)
        for row in group:
            if row is pivot:
                continue
            row = _eliminate(row, pivot, c)
            if row:
                groups.setdefault(min(row), []).append(row)
    return echelon, pivots


def _dense(row: dict, n: int) -> list[Fraction]:
    out = [_ZERO] * n
    for j, v in row.items():
        out[j] = qf(v)  # a Fraction entry is kept, not re-created
    return out


class Matrix:
    """Sparse rational matrix with exact arithmetic."""

    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, data: Sequence[Sequence[QLike]]):
        self.rows = len(data)
        self.cols = len(data[0]) if self.rows else 0
        if any(len(row) != self.cols for row in data):
            raise ValueError("ragged rows")
        self._nz = [{j: v for j, x in enumerate(row) if (v := _num(x))} for row in data]

    @classmethod
    def _of(cls, rows: int, cols: int, nz: list[dict]) -> "Matrix":
        m = cls.__new__(cls)
        m.rows, m.cols, m._nz = rows, cols, nz
        return m

    # -- construction ------------------------------------------------
    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def vstack(cls, mats: Sequence["Matrix"]) -> "Matrix":
        """The rows of every input, which all have the same number of
        columns, 0-row inputs included; no inputs give the 0x0 matrix."""
        cols = {m.cols for m in mats}
        if len(cols) > 1:
            raise ValueError("column mismatch in vstack")
        nz = [dict(row) for m in mats for row in m._nz]
        return cls._of(len(nz), cols.pop() if cols else 0, nz)

    @classmethod
    def hstack(cls, mats: Sequence["Matrix"]) -> "Matrix":
        """The columns of every input, as vstack with rows and columns swapped."""
        rows = {m.rows for m in mats}
        if len(rows) > 1:
            raise ValueError("row mismatch in hstack")
        out = cls.zeros(rows.pop() if rows else 0, sum(m.cols for m in mats))
        offset = 0
        for m in mats:
            for orow, row in zip(out._nz, m._nz):
                if offset:
                    orow.update((j + offset, v) for j, v in row.items())
                else:
                    orow.update(row)
            offset += m.cols
        return out

    @classmethod
    def kron(cls, a: "Matrix", b: "Matrix") -> "Matrix":
        nz = []
        for arow in a._nz:
            for brow in b._nz:
                nz.append({j * b.cols + q: _num(x * y)
                           for j, x in arow.items() for q, y in brow.items()})
        return cls._of(a.rows * b.rows, a.cols * b.cols, nz)

    # -- entries --------------------------------------------------------
    def _check(self, key: tuple[int, int]) -> tuple[int, int]:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {key} outside a {self.rows}x{self.cols} matrix")
        return i, j

    def __getitem__(self, key: tuple[int, int]) -> int | Fraction:
        i, j = self._check(key)
        return self._nz[i].get(j, 0)

    def __setitem__(self, key: tuple[int, int], x: QLike) -> None:
        i, j = self._check(key)
        v = _num(x)
        if v:
            self._nz[i][j] = v
        else:
            self._nz[i].pop(j, None)

    def row_items(self, i: int):
        """The (col, value) pairs of the nonzero entries of row i."""
        return self._nz[i].items()

    def integer_rows(self) -> tuple[int, list[dict[int, int]]]:
        """The lcm d of all the entries' denominators, and the rows of
        d * self as {col: int} dicts of nonzeros, to be read, not written:
        with d == 1 they are the matrix's own rows."""
        d = lcm(1, *(_denominator(row) for row in self._nz))
        return d, [_cleared(row, d) for row in self._nz]

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """Read-only dense copy of the entries as Fractions."""
        return tuple(tuple(_dense(row, self.cols)) for row in self._nz)

    # -- basics -------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._nz == other._nz)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self._nz)

    def is_antisymmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self._nz[j].get(i, 0) == -v
                   for i, row in enumerate(self._nz) for j, v in row.items())

    def transpose(self) -> "Matrix":
        nz: list[dict] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._nz):
            for j, v in row.items():
                nz[j][i] = v
        return Matrix._of(self.cols, self.rows, nz)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        nz = []
        for r1, r2 in zip(self._nz, other._nz):
            row = dict(r1)
            for j, v in r2.items():
                x = _num(row.get(j, 0) + v)
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
            nz.append(row)
        return Matrix._of(self.rows, self.cols, nz)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: QLike) -> "Matrix":
        c = _num(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._of(self.rows, self.cols,
                          [{j: _num(c * v) for j, v in row.items()} for row in self._nz])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        onz = other._nz
        nz = []
        for row in self._nz:
            acc: dict = {}
            for k, a in row.items():
                for j, b in onz[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            nz.append({j: v if type(v) is int else _num(v) for j, v in acc.items() if v})
        return Matrix._of(self.rows, other.cols, nz)

    def apply(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum((a * v[j] for j, a in row.items() if v[j]), _ZERO) for row in self._nz]

    def column(self, j: int) -> list[Fraction]:
        return [Q(row[j]) if j in row else _ZERO for row in self._nz]

    def columns(self) -> list[list[Fraction]]:
        return [self.column(j) for j in range(self.cols)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        where: dict[int, list[int]] = {}
        for t, j in enumerate(col_idx):
            where.setdefault(j, []).append(t)
        nz = [{t: v for j, v in self._nz[i].items() for t in where.get(j, ())}
              for i in row_idx]
        return Matrix._of(len(nz), len(col_idx), nz)

    def select_columns(self, col_idx: Sequence[int]) -> "Matrix":
        return self.submatrix(range(self.rows), col_idx)

    # -- elimination ---------------------------------------------------
    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and pivot column indices."""
        echelon, pivots = _echelon(self._nz, self.cols)
        where = {p: r for r, p in enumerate(pivots)}
        for r in reversed(range(len(echelon))):
            row = echelon[r]
            for c in [c for c in row if c in where and c != pivots[r]]:
                row = _eliminate(row, echelon[where[c]], c)
            echelon[r] = row
        nz = []
        for row, p in zip(echelon, pivots):
            lead = row[p]
            if lead == 1:
                nz.append(dict(row))  # echelon rows may be the input's own
            else:
                nz.append({j: v // lead if v % lead == 0 else Fraction(v, lead)
                           for j, v in row.items()})
        nz += [{} for _ in range(self.rows - len(nz))]
        return Matrix._of(self.rows, self.cols, nz), pivots

    def rank(self) -> int:
        return len(_echelon(self._nz, self.cols)[1])

    def kernel_matrix(self) -> "Matrix":
        """The nullspace basis as the columns of a cols x nullity matrix."""
        red, pivots = self.rref()
        pivset = set(pivots)
        free = {f: t for t, f in enumerate(f for f in range(self.cols) if f not in pivset)}
        nz: list[dict] = [{} for _ in range(self.cols)]
        for f, t in free.items():
            nz[f][t] = 1
        for r, p in enumerate(pivots):
            nz[p] = {free[j]: -v for j, v in red._nz[r].items() if j != p}
        return Matrix._of(self.cols, len(free), nz)

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the right kernel, one vector per free column."""
        return self.kernel_matrix().columns()

    def solve(self, b: Sequence[Fraction]) -> list[Fraction]:
        """One exact solution of self @ x = b (free variables set to 0).

        Raises ValueError when the system is inconsistent.
        """
        aug = Matrix._of(self.rows, self.cols + 1, [dict(row) for row in self._nz])
        for i, row in enumerate(aug._nz):
            x = _num(b[i])
            if x:
                row[self.cols] = x
        red, pivots = aug.rref()
        if pivots and pivots[-1] == self.cols:
            raise ValueError("inconsistent linear system")
        x = [_ZERO] * self.cols
        for r, p in enumerate(pivots):
            x[p] = Q(red._nz[r].get(self.cols, 0))
        return x

    def solve_matrix(self, rhs: "Matrix") -> "Matrix":
        """Exact X with self @ X = rhs; raises when inconsistent."""
        aug = Matrix.hstack([self, rhs])
        red, pivots = aug.rref()
        if pivots and pivots[-1] >= self.cols:
            raise ValueError("inconsistent linear system")
        out = Matrix.zeros(self.cols, rhs.cols)
        for r, p in enumerate(pivots):
            out._nz[p] = {j - self.cols: v for j, v in red._nz[r].items() if j >= self.cols}
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
        n = self.rows
        d, rows = self.integer_rows()  # det(d * self) = d^n det(self)
        sign = prev = 1
        for c in range(n):
            pivot = next((i for i in range(c, n) if c in rows[i]), None)
            if pivot is None:
                return Q(0)
            if pivot != c:
                rows[c], rows[pivot] = rows[pivot], rows[c]
                sign = -sign
            prow = rows[c]
            pv = prow[c]
            for i in range(c + 1, n):
                row = rows[i]
                f = row.get(c, 0)
                out = {j: pv * v for j, v in row.items()}
                if f:
                    for j, v in prow.items():
                        out[j] = out.get(j, 0) - f * v
                rows[i] = {j: v // prev for j, v in out.items() if v}
            prev = pv
        return Q(sign * prev, d ** n)

    # -- serialization --------------------------------------------------
    @classmethod
    def from_json_dict(cls, obj: dict) -> "Matrix":
        m = cls(obj["entries"])
        if (m.rows, m.cols) != (obj["rows"], obj["cols"]):
            raise ValueError("matrix shape does not match declared rows/cols")
        return m


def reduced_basis(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """The nonzero rows of the reduced row echelon form of m, dense, and
    their pivot columns."""
    red, pivots = m.rref()
    return [_dense(red._nz[r], red.cols) for r in range(len(pivots))], pivots


def echelon_rows(vectors: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Canonical reduced-echelon basis of the span of the given row vectors."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return []
    return reduced_basis(Matrix(vectors))[0]


def rank_of_rows(vectors: Sequence[Sequence[Fraction]]) -> int:
    if not vectors:
        return 0
    return Matrix(vectors).rank()
