"""Exact rational linear algebra: matrices, rank, kernels, quotient dimensions.

Everything works over Q with ``fractions.Fraction`` scalars, so ranks and
kernels are exact -- no floating point anywhere.  Elimination is
deterministic: the pivot is always the first row with a nonzero entry in the
current column, scanning top-down, which makes every output bit-reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import CompositionNotZero, DimMismatch, InvalidInput, SingularMatrix

# The ground field at desk scale.  Fraction keeps numerator/denominator
# reduced with a positive denominator, which is exactly the Scalar contract.
Scalar = Fraction

Vector = tuple[Fraction, ...]

# Fractions are immutable, so constant entries can share these two objects
# instead of constructing one Fraction per entry.
_ZERO = Fraction(0)
_ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal ``p`` or ``p/q`` (decimal digits, optional
    leading minus on p only).  Rejects q = 0 and anything else."""
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    """Inverse of :func:`parse_rational`; ``str`` of Fraction already fits."""
    return str(x)


@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix, row-major flat storage.

    Acts on column vectors: ``(m @ v)[i] = sum_j m[i, j] v[j]``.  Zero-row
    and zero-column matrices are legal and show up as empty differentials.
    """

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InvalidInput("negative matrix shape")
        if len(self.entries) != self.rows * self.cols:
            raise DimMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows_data, cols: int | None = None) -> "Matrix":
        rows_data = [list(r) for r in rows_data]
        nrows = len(rows_data)
        if cols is None:
            if nrows == 0:
                raise InvalidInput("cannot infer column count of an empty matrix")
            cols = len(rows_data[0])
        for r in rows_data:
            if len(r) != cols:
                raise DimMismatch("ragged rows")
        flat = tuple(Fraction(x) for row in rows_data for x in row)
        return cls(nrows, cols, flat)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(
            _ONE if i == j else _ZERO for i in range(n) for j in range(n)
        ))

    @classmethod
    def from_columns(cls, columns, rows: int) -> "Matrix":
        columns = [list(c) for c in columns]
        for c in columns:
            if len(c) != rows:
                raise DimMismatch("ragged columns")
        flat = tuple(Fraction(columns[j][i]) for i in range(rows) for j in range(len(columns)))
        return cls(rows, len(columns), flat)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols) for i in range(self.rows)
        ))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimMismatch("matrix addition shape mismatch")
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimMismatch("matrix subtraction shape mismatch")
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                s = Fraction(0)
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        s += a * other.entries[k * other.cols + j]
                out.append(s)
        return Matrix(self.rows, other.cols, tuple(out))

    def apply(self, v) -> Vector:
        """Matrix times column vector."""
        v = list(v)
        if len(v) != self.cols:
            raise DimMismatch(f"vector of length {len(v)} for {self.rows}x{self.cols} matrix")
        out = []
        for i in range(self.rows):
            s = Fraction(0)
            ri = self.row(i)
            for k in range(self.cols):
                a = ri[k]
                if a:
                    s += a * v[k]
            out.append(s)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


@dataclass(frozen=True)
class SubspaceBasis:
    """A basis of a subspace of Q^ambient_dim, one coordinate vector per row."""

    ambient_dim: int
    vectors: tuple[Vector, ...]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise DimMismatch("basis vector of wrong length")
        if self.vectors:
            m = Matrix.from_rows(self.vectors, self.ambient_dim)
            if rank(m) != len(self.vectors):
                raise InvalidInput("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _rref(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (rows, pivot column indices).

    Pivot choice: first row with a nonzero entry in the current column,
    scanning top-down.  No magnitude heuristics, so reruns are identical.
    """
    a = m.to_rows()
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        src = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                src = i
                break
        if src is None:
            continue
        if src != r:
            a[r], a[src] = a[src], a[r]
        p = a[r][c]
        if p != 1:
            a[r] = [x / p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def pivot_columns(m: Matrix) -> list[int]:
    """Pivot columns of the RREF: the columns not in the span of the ones
    before them, in increasing order."""
    return _rref(m)[1]


def rank(m: Matrix) -> int:
    """Exact rank over Q."""
    return len(pivot_columns(m))


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Basis of the right kernel {v : m v = 0}.

    One vector per free column of the RREF, in increasing free-column order,
    via the standard parametrization (free variable set to 1).
    """
    a, pivots = _rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        vectors.append(tuple(v))
    return SubspaceBasis(m.cols, tuple(vectors))


def quotient_dim(outgoing: Matrix, incoming: Matrix) -> int:
    """dim ker(outgoing) - rank(incoming), re-verifying outgoing . incoming = 0.

    This is the Betti number at the middle spot of incoming -> . -> outgoing.
    """
    if outgoing.cols != incoming.rows:
        raise DimMismatch("outgoing/incoming shapes do not chain")
    if not (outgoing @ incoming).is_zero():
        raise CompositionNotZero("outgoing . incoming != 0: the complex is broken")
    return (outgoing.cols - rank(outgoing)) - rank(incoming)


def solve(m: Matrix, b) -> Vector | None:
    """One solution of m x = b with free variables set to 0, or None."""
    b = list(b)
    if len(b) != m.rows:
        raise DimMismatch("right-hand side length mismatch")
    aug = Matrix(m.rows, m.cols + 1,
                 tuple(x for i in range(m.rows)
                       for x in (*m.row(i), Fraction(b[i]))))
    a, pivots = _rref(aug)
    if m.cols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][m.cols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrix if rank deficient."""
    if m.rows != m.cols:
        raise DimMismatch("only square matrices invert")
    n = m.rows
    aug = Matrix(n, 2 * n, tuple(
        x for i in range(n)
        for x in (*m.row(i), *(Fraction(1 if j == i else 0) for j in range(n)))
    ))
    a, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix(f"matrix of rank {len([p for p in pivots if p < n])} < {n}")
    return Matrix.from_rows([row[n:] for row in a[:n]], n)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, blocks of b scaled by entries of a."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [Fraction(0)] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            c = a.entries[i * a.cols + j]
            if not c:
                continue
            for k in range(b.rows):
                base = (i * b.rows + k) * cols + j * b.cols
                brow = b.entries[k * b.cols:(k + 1) * b.cols]
                for l, x in enumerate(brow):
                    if x:
                        out[base + l] = c * x
    return Matrix(rows, cols, tuple(out))


def block_diag(mats) -> Matrix:
    """Square-or-not block diagonal stack of matrices."""
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [Fraction(0)] * (rows * cols)
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                x = m.entries[i * m.cols + j]
                if x:
                    out[(r0 + i) * cols + (c0 + j)] = x
        r0 += m.rows
        c0 += m.cols
    return Matrix(rows, cols, tuple(out))


def lincomb(coeffs, mats, zero: Matrix) -> Matrix:
    """sum_k coeffs[k] mats[k] in one pass over the entries.

    Terms with a zero coefficient are skipped; ``zero`` (the zero matrix of
    the common shape) is the value of an empty sum.
    """
    terms = [(c, m.entries) for c, m in zip(coeffs, mats) if c]
    if not terms:
        return zero
    out = list(zero.entries)
    for c, entries in terms:
        for idx, a in enumerate(entries):
            if a:
                out[idx] += c * a
    return Matrix(zero.rows, zero.cols, tuple(out))


def vec_add(u, v) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u, v) -> Vector:
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(c, v) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in v)

def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n

def unit_vector(n: int, pos: int) -> Vector:
    return tuple(_ONE if t == pos else _ZERO for t in range(n))

def is_zero_vector(v) -> bool:
    return all(a == 0 for a in v)
