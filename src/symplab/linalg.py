"""Exact sparse linear algebra over the rationals.

A matrix is a list of sparse rows, one ``{col: value}`` dict of nonzero
entries per row.  A value is an ``int`` when it is integral and a
``fractions.Fraction`` otherwise, so the integer operators of the cochain
models never touch ``Fraction`` arithmetic.  Entries are read and written
as ``m[i, j]`` and ``m[i, j] = x``; ``row_items(i)`` walks the nonzeros of
one row.  ``data`` is a read-only dense ``Fraction`` copy (tuples of
tuples) for numerical oracles and tracing, not for computation.

Elimination is fraction-free: only a row holding a ``Fraction`` is cleared of
its denominators and made primitive (entries coprime) as it goes in, a pivot
is made primitive only when it eliminates, every row an elimination writes is
primitive, and only occupied leading columns are visited; only the final
scaling of each pivot to 1 makes ``Fraction`` values.  The reduced row echelon
form is unique, so ``rref``, pivots, nullspaces, kernel rows and solves are
the canonical ones.  ``pfaffian`` divides each entry exactly by the previous
pivot (Sylvester's identity in Pfaffian form), raising AssertionError on an
inexact division; ``det`` is a Pfaffian of order 2n, so ``_echelon`` and
``pfaffian`` are the only eliminations.  Vectors handed out (``apply``,
``column``, ``nullspace``, ``solve``) are lists of ``Fraction``; kernel rows
are tuples of ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
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


def _num(x: QLike) -> int | Fraction:
    """An entry as stored: int when integral, Fraction otherwise."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def integer_coords(coords: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm d of the coordinates' denominators, and d * coords as ints."""
    d = lcm(1, *(c.denominator for c in coords))
    return d, [c.numerator * (d // c.denominator) for c in coords]


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


def _echelon(rows: Iterable[dict]) -> tuple[list[dict[int, int]], list[int]]:
    """Integer echelon rows and their leading columns, in increasing order.

    Fraction rows are cleared and made primitive; integer rows go in as they
    are, so an echelon row may be an input's own dict.  Each occupied leading
    column, popped from a heap, pivots on its group's shortest row (made
    primitive first if it eliminates, as each row it writes would carry its
    content); the rest regroup by their new, later, leading columns."""
    groups: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            d = _denominator(row)
            groups.setdefault(min(row), []).append(row if d == 1 else _primitive(_cleared(row, d)))
    leads = list(groups)
    heapify(leads)
    echelon, pivots = [], []
    while leads:
        c = heappop(leads)
        group = groups.pop(c)
        shortest = min(group, key=len)
        pivot = shortest if len(group) == 1 else _primitive(shortest)
        echelon.append(pivot)
        pivots.append(c)
        for row in group:
            if row is shortest:
                continue
            row = _eliminate(row, pivot, c)
            if row:
                if (lead := min(row)) not in groups:
                    heappush(leads, lead)
                groups.setdefault(lead, []).append(row)
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
                if row:
                    orow.update({j + offset: v for j, v in row.items()} if offset else row)
            offset += m.cols
        return out

    @classmethod
    def kron(cls, a: "Matrix", b: "Matrix") -> "Matrix":
        return cls.kron_sum((a.rows * b.rows, a.cols * b.cols), [(a, b)])

    @classmethod
    def kron_sum(cls, shape: tuple[int, int],
                 terms: Sequence[tuple["Matrix", "Matrix"]]) -> "Matrix":
        """The sum, of the given shape, of kron(a, b) over the pairs of
        ``terms``, each term's rows written into one set of rows in one pass."""
        if any((a.rows * b.rows, a.cols * b.cols) != shape for a, b in terms):
            raise ValueError("shape mismatch in kron_sum")
        nz: list[dict] = [{} for _ in range(shape[0])]
        for a, b in terms:
            for i, arow in enumerate(a._nz):
                for r, brow in enumerate(b._nz if arow else (), i * b.rows):
                    if not brow:
                        continue
                    part = {j * b.cols + q: v if type(v := x * y) is int else _num(v)
                            for j, x in arow.items() for q, y in brow.items()}
                    row = nz[r]
                    if not row:
                        nz[r] = part
                        continue
                    for j, v in part.items():
                        if s := row.get(j, 0) + v:
                            row[j] = s if type(s) is int else _num(s)
                        else:
                            del row[j]
        return cls._of(*shape, nz)

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
            terms = iter(row.items())
            k, a = next(terms, (0, 0))  # the first term seeds the row; a one-term row is done
            acc = {j: v if type(v := a * b) is int else _num(v)
                   for j, b in onz[k].items()} if a else {}
            for k, a in terms:
                for j, b in onz[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            nz.append({j: v if type(v) is int else _num(v) for j, v in acc.items() if v}
                      if len(row) > 1 else acc)
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
        """The entries at the given rows and the given distinct columns."""
        where = {j: t for t, j in enumerate(col_idx)}
        if len(where) != len(col_idx):
            raise ValueError("repeated column index")
        nz = [{where[j]: v for j, v in self._nz[i].items() if j in where} for i in row_idx]
        return Matrix._of(len(nz), len(col_idx), nz)

    def select_columns(self, col_idx: Sequence[int]) -> "Matrix":
        return self.submatrix(range(self.rows), col_idx)

    # -- elimination ---------------------------------------------------
    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and pivot column indices."""
        echelon, pivots = _echelon(self._nz)
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

    def pivot_columns(self) -> list[int]:
        """The pivot columns of the echelon form, from the forward pass alone."""
        return _echelon(self._nz)[1]

    def rank(self) -> int:
        return len(self.pivot_columns())

    def nested_ranks(self, *parts: Sequence[int]) -> tuple[tuple[int, ...], "Matrix"]:
        """The rank after each disjoint row set of ``parts``, eliminated on from the echelon
        of those before, then after the rows in no part, and the echelon form of the
        matrix (one row per pivot, to be read, not written)."""
        taken = {i for part in parts for i in part}
        echelon, ranks = [], []
        for part in (*parts, [i for i in range(self.rows) if i not in taken]):
            echelon = _echelon(echelon + [self._nz[i] for i in part])[0]
            ranks.append(len(echelon))
        return tuple(ranks), Matrix._of(len(echelon), self.cols, echelon)

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

    def kernel_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The reduced echelon rows of the right kernel, from one elimination.

        self is eliminated with its columns reversed.  Read back in the
        original order, the kernel vector of each free column f has a 1 at
        f, a 0 at every other free column and no entry before f: these
        vectors, by increasing f, are the reduced echelon rows of the
        kernel and the free columns their pivots, so no second rref runs.
        """
        n = self.cols
        basis = self.select_columns(range(n - 1, -1, -1)).kernel_matrix().transpose()
        rows = []
        for t in reversed(range(basis.rows)):  # by increasing free column
            row = [_ZERO] * n
            for j, v in basis.row_items(t):
                row[n - 1 - j] = qf(v)
            rows.append(tuple(row))
        return tuple(rows)

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the right kernel, one vector per free column."""
        return self.kernel_matrix().columns()

    def solve(self, b: Sequence[Fraction]) -> list[Fraction]:
        """One exact solution of self @ x = b (free variables set to 0): the
        one-column case of ``solve_matrix``.

        Raises ValueError when b has not one entry per row, or when the
        system is inconsistent.
        """
        column = [{0: v} if (v := _num(x)) else {} for x in b]
        return self.solve_matrix(Matrix._of(len(b), 1, column)).column(0)

    def solve_matrix(self, rhs: "Matrix") -> "Matrix":
        """Exact X with self @ X = rhs; raises ValueError when rhs has not
        one row per row of self (through hstack), or when the system is
        inconsistent."""
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
        """det A = (-1)^(n(n-1)/2) Pf([[0, A], [-A^t, 0]]) at order n."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n, zero = self.rows, Matrix.zeros(self.rows, self.rows)
        block = Matrix.vstack([Matrix.hstack([zero, self]),
                               Matrix.hstack([-self.transpose(), zero])])
        return (-1) ** (n * (n - 1) // 2) * block.pfaffian()

    def pfaffian(self) -> Fraction:
        """Pf of an antisymmetric matrix (ValueError otherwise), fraction-free on
        dA, as Pf(A) = Pf(dA) / d^m at order 2m.  Each step pairs the first index
        f with its first partner b (swapped into second place, flipping the sign;
        none gives 0), and a_ik becomes (p a_ik - a_fi a_bk + a_fk a_bi) / prev,
        p = a_fb: a sub-Pfaffian (Knuth 1996), so a division that is not exact
        raises AssertionError.  The last pivot is Pf."""
        if not self.is_antisymmetric():
            raise ValueError("Pfaffian of a non-antisymmetric matrix")
        d, sparse = self.integer_rows()
        a = [[row.get(j, 0) for j in range(self.cols)] for row in sparse]
        sign = prev = 1
        while a:
            first = a[0]
            b = next((j for j in range(1, len(a)) if first[j]), None)
            if b is None:  # a zero first row, or one index left at odd order
                return Q(0)
            if b != 1:
                a[1], a[b], sign = a[b], a[1], -sign
                for row in a:
                    row[1], row[b] = row[b], row[1]
            p, second, m = first[1], a[1], len(a)
            out = [[0] * (m - 2) for _ in range(m - 2)]
            for i in range(2, m):
                for k in range(i + 1, m):
                    q, r = divmod(p * a[i][k] - first[i] * second[k] + first[k] * second[i], prev)
                    if r:
                        raise AssertionError("inexact division in the Pfaffian")
                    out[i - 2][k - 2], out[k - 2][i - 2] = q, -q
            a, prev = out, p
        return Q(sign * prev, d ** (self.rows // 2))

    # -- serialization --------------------------------------------------
    @classmethod
    def from_json_dict(cls, obj: dict) -> "Matrix":
        m = cls(obj["entries"])
        if (m.rows, m.cols) != (obj["rows"], obj["cols"]):
            raise ValueError("matrix shape does not match declared rows/cols")
        return m


def echelon_rows(vectors: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Canonical reduced-echelon basis of the span of the given row vectors."""
    if not vectors:
        return []
    red, pivots = Matrix([list(v) for v in vectors]).rref()
    return [_dense(red._nz[r], red.cols) for r in range(len(pivots))]


def rank_of_rows(vectors: Sequence[Sequence[Fraction]]) -> int:
    if not vectors:
        return 0
    return Matrix(vectors).rank()
