"""Exact rational linear algebra: matrices, rank, kernels, quotient dimensions.

Everything works over Q with ``fractions.Fraction`` scalars, so ranks and
kernels are exact -- no floating point anywhere.  Matrices are stored
densely, but the kernels that cost -- products and elimination -- walk the
nonzero entries only: both read a matrix as one {column: entry} dict per row
(:func:`sparse_rows`), and sparse-built matrices come back through
:meth:`Matrix.from_sparse_rows`.  Elimination is a Gauss-Jordan pass over
those row dicts and is deterministic: the pivot is always the first row with
a nonzero entry in the current column, scanning top-down, which makes every
output bit-reproducible.
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
    def from_sparse_rows(cls, rows_data, cols: int) -> "Matrix":
        """Matrix from one {column: entry} dict per row; absent entries are
        zero.  Entries must already be Fractions."""
        out = [_ZERO] * (len(rows_data) * cols)
        for i, row in enumerate(rows_data):
            base = i * cols
            for j, x in row.items():
                if not 0 <= j < cols:
                    raise DimMismatch(f"column {j} outside a matrix of {cols} columns")
                out[base + j] = x
        return cls(len(rows_data), cols, tuple(out))

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
        """Product over the nonzero entries of both factors."""
        if self.cols != other.rows:
            raise DimMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = sparse_rows(other)
        cols = other.cols
        out = [_ZERO] * (self.rows * cols)
        for i, row in enumerate(sparse_rows(self)):
            base = i * cols
            for k, a in row.items():
                for j, b in right[k].items():
                    out[base + j] += a * b
        return Matrix(self.rows, cols, tuple(out))

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


def sparse_rows(m: Matrix) -> list[dict[int, Fraction]]:
    """The nonzero entries of m, one {column: entry} dict per row."""
    c, e = m.cols, m.entries
    return [{j: x for j, x in enumerate(e[i * c:(i + 1) * c]) if x}
            for i in range(m.rows)]


def add_scaled(acc: dict, c, leaf) -> None:
    """Add c * leaf into the ``{index: value}`` dict ``acc``, for a sparse
    ``(index, value)`` sequence ``leaf``.  The factors 0, 1 and -1 cost no
    product, and the product is written v * c, so that a Fraction v takes
    an int or Fraction c through its own method rather than the slower
    reflected one."""
    if not c:
        return
    get = acc.get
    for idx, v in leaf:
        if c != 1:
            v = -v if c == -1 else v * c
        old = get(idx)
        acc[idx] = v if old is None else old + v


def add_rows(acc: list[dict], c, rows) -> None:
    """acc += c * rows, both as one {column: entry} dict per row."""
    for out, row in zip(acc, rows):
        add_scaled(out, c, row.items())


def add_product(acc: list[dict], c, a, b) -> None:
    """acc += c * (a @ b) over the nonzero entries of a and b, all three as
    one {column: entry} dict per row."""
    if not c:
        return
    for out, row in zip(acc, a):
        for k, x in row.items():
            add_scaled(out, x if c == 1 else -x if c == -1 else x * c, b[k].items())


def _rref(m: Matrix) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination on row dicts.

    Returns (rows, pivots): rows[r] holds the nonzero entries of the r-th
    nonzero row of the RREF, whose leading 1 sits in column pivots[r]; the
    zero rows below them are dropped.  Only nonzero entries are stored,
    updated or scanned.  Pivot choice: first row with a nonzero entry in the
    current column, scanning top-down.  No magnitude heuristics, so reruns
    are identical.
    """
    a = sparse_rows(m)
    nrows = m.rows
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r >= nrows:
            break
        src = next((i for i in range(r, nrows) if c in a[i]), None)
        if src is None:
            continue
        a[r], a[src] = a[src], a[r]
        p = a[r][c]
        if p != 1:
            a[r] = {j: x / p for j, x in a[r].items()}
        pivot_row = list(a[r].items())
        for i in range(nrows):
            row = a[i]
            if i != r and c in row:
                f = row[c]
                for j, x in pivot_row:
                    y = row.get(j, _ZERO) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        pivots.append(c)
        r += 1
    return a[:r], pivots


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
    rows, pivots = _rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vectors = {fc: [_ZERO] * m.cols for fc in free}
    for fc in free:
        vectors[fc][fc] = _ONE
    for row, pc in zip(rows, pivots):
        # an RREF row is zero at the other pivot columns: the rest are free
        for j, x in row.items():
            if j != pc:
                vectors[j][pc] = -x
    return SubspaceBasis(m.cols, tuple(tuple(vectors[fc]) for fc in free))


def require_complex(outgoing: Matrix, incoming: Matrix) -> None:
    """Raise unless outgoing . incoming is defined and zero."""
    if outgoing.cols != incoming.rows:
        raise DimMismatch("outgoing/incoming shapes do not chain")
    if not (outgoing @ incoming).is_zero():
        raise CompositionNotZero("outgoing . incoming != 0: the complex is broken")


def quotient_dim(outgoing: Matrix, incoming: Matrix) -> int:
    """dim ker(outgoing) - rank(incoming), re-verifying outgoing . incoming = 0.

    This is the Betti number at the middle spot of incoming -> . -> outgoing.
    """
    require_complex(outgoing, incoming)
    return (outgoing.cols - rank(outgoing)) - rank(incoming)


def solve(m: Matrix, b) -> Vector | None:
    """One solution of m x = b with free variables set to 0, or None."""
    b = list(b)
    if len(b) != m.rows:
        raise DimMismatch("right-hand side length mismatch")
    aug = Matrix(m.rows, m.cols + 1,
                 tuple(x for i in range(m.rows)
                       for x in (*m.row(i), Fraction(b[i]))))
    rows, pivots = _rref(aug)
    if m.cols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [_ZERO] * m.cols
    for row, pc in zip(rows, pivots):
        x[pc] = row.get(m.cols, _ZERO)
    return tuple(x)


def right_inverse(m: Matrix) -> Matrix:
    """The matrix whose column i is ``solve(m, e_i)``, free variables zero,
    from one elimination of [m | I]; raises SingularMatrix unless m has full
    row rank.  Pivot row k of the RREF [R | E] gives x[pivot k] = E[k, i]."""
    r, c = m.rows, m.cols
    rows, pivots = _rref(Matrix(r, c + r, tuple(
        x for i in range(r) for x in (*m.row(i), *unit_vector(r, i)))))
    found = len([p for p in pivots if p < c])
    if found < r:
        raise SingularMatrix(f"matrix of rank {found} < {r}")
    out = [{} for _ in range(c)]
    for row, pc in zip(rows, pivots):
        out[pc] = {j - c: x for j, x in row.items() if j >= c}
    return Matrix.from_sparse_rows(out, r)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrix if rank deficient."""
    if m.rows != m.cols:
        raise DimMismatch("only square matrices invert")
    return right_inverse(m)


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
