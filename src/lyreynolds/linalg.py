"""Exact rational linear algebra: matrices, rank, kernels, quotient dimensions.

Everything works over Q with ``fractions.Fraction`` scalars, so ranks and
kernels are exact -- no floating point anywhere.  A matrix stores its
nonzero entries only, as one tuple of ``(column, entry)`` pairs per row with
columns increasing (:attr:`Matrix.sparse`): the leaf format of the sparse
structure tables in :mod:`lyreynolds.algebra`.  Sums, products, transposes
and elimination walk those rows; sums and products that build a matrix
accumulate one {column: entry} dict per row, finished by
:meth:`Matrix.from_sparse_rows`.  Elimination is a Gauss-Jordan pass over
row dicts and is deterministic: the pivot is always the first row with a
nonzero entry in the current column, scanning top-down, which makes every
output bit-reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import prod

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


@dataclass(frozen=True, init=False)
class Matrix:
    """Rational matrix stored by its nonzero entries: ``sparse[i]`` holds
    the ``(column, entry)`` pairs of row i whose entry is nonzero, columns
    increasing.  The form is canonical, so ``==`` and ``hash`` are exact and
    cost the nonzeros, not rows x cols.

    ``Matrix(rows, cols, entries)`` reads row-major dense entries; the dense
    ``entries``, ``row``, ``column``, ``[i, j]`` and ``to_rows`` are views
    built on access.  Acts on column vectors: ``(m @ v)[i] = sum_j m[i, j]
    v[j]``.  Zero-row and zero-column matrices are legal and show up as
    empty differentials.
    """

    rows: int
    cols: int
    sparse: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise InvalidInput("negative matrix shape")
        if len(entries) != rows * cols:
            raise DimMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.__dict__.update(rows=rows, cols=cols, sparse=tuple(
            tuple((j, x) for j, x in enumerate(entries[i * cols:(i + 1) * cols]) if x)
            for i in range(rows)))

    @classmethod
    def _of(cls, rows: int, cols: int, sparse) -> "Matrix":
        """The matrix whose stored rows are ``sparse``, taken as they are:
        nonzero pairs, columns increasing and in range."""
        if rows < 0 or cols < 0:
            raise InvalidInput("negative matrix shape")
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, sparse=sparse)
        return m

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
        return cls._of(nrows, cols, tuple(
            tuple((j, x) for j, x in enumerate(map(Fraction, r)) if x) for r in rows_data))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, ((),) * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, tuple(((i, _ONE),) for i in range(n)))

    @classmethod
    def from_sparse_rows(cls, rows_data, cols: int) -> "Matrix":
        """Matrix from one {column: entry} accumulator per row: entries that
        cancelled to zero are dropped, the rest sorted by column.  Entries
        must already be Fractions."""
        out = []
        for row in rows_data:
            pairs = tuple(sorted(p for p in row.items() if p[1]))
            if pairs and not (pairs[0][0] >= 0 and pairs[-1][0] < cols):
                bad = pairs[0][0] if pairs[0][0] < 0 else pairs[-1][0]
                raise DimMismatch(f"column {bad} outside a matrix of {cols} columns")
            out.append(pairs)
        return cls._of(len(out), cols, tuple(out))

    @classmethod
    def from_columns(cls, columns, rows: int) -> "Matrix":
        columns = [list(c) for c in columns]
        if any(len(c) != rows for c in columns):
            raise DimMismatch("ragged columns")
        return cls.from_rows(columns, rows).transpose()

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The row-major dense entries."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return dict(self.sparse[i]).get(j, _ZERO)

    def row(self, i: int) -> Vector:
        out = [_ZERO] * self.cols
        for j, x in self.sparse[i]:
            out[j] = x
        return tuple(out)

    def column(self, j: int) -> Vector:
        return self.transpose().row(j)

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, x in row:
                out[j].append((i, x))
        return Matrix._of(self.cols, self.rows, tuple(map(tuple, out)))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimMismatch("matrix addition shape mismatch")
        return lincomb((1, 1), (self, other), Matrix.zero(self.rows, self.cols))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimMismatch("matrix subtraction shape mismatch")
        return lincomb((1, -1), (self, other), Matrix.zero(self.rows, self.cols))

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        if not c:
            return Matrix.zero(self.rows, self.cols)
        return Matrix._of(self.rows, self.cols, tuple(
            tuple((j, x * c) for j, x in row) for row in self.sparse))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Product over the nonzero entries of both factors."""
        if self.cols != other.rows:
            raise DimMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        acc = [{} for _ in range(self.rows)]
        add_product(acc, 1, self.sparse, other.sparse)
        return Matrix.from_sparse_rows(acc, other.cols)

    def apply(self, v) -> Vector:
        """Matrix times column vector, over the nonzero entries."""
        v = tuple(v)
        if len(v) != self.cols:
            raise DimMismatch(f"vector of length {len(v)} for {self.rows}x{self.cols} matrix")
        return tuple(sum((x * v[j] for j, x in row), _ZERO) for row in self.sparse)

    def is_zero(self) -> bool:
        return not any(self.sparse)


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
    """acc += c * rows, for ``rows`` given as ``(column, entry)`` pairs per
    row (:attr:`Matrix.sparse`) and ``acc`` as one {column: entry} dict per
    row."""
    for out, row in zip(acc, rows):
        add_scaled(out, c, row)


def add_product(acc: list[dict], c, a, b) -> None:
    """acc += c * (a @ b) over the nonzero entries of a and b, both given as
    ``(column, entry)`` pairs per row, into one {column: entry} dict per
    row."""
    if not c:
        return
    for out, row in zip(acc, a):
        for k, x in row:
            add_scaled(out, x if c == 1 else -x if c == -1 else x * c, b[k])


def _rref(m: Matrix) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination on row dicts.

    Returns (rows, pivots): rows[r] holds the nonzero entries of the r-th
    nonzero row of the RREF, whose leading 1 sits in column pivots[r]; the
    zero rows below them are dropped.  Only nonzero entries are stored,
    updated or scanned.  Pivot choice: first row with a nonzero entry in the
    current column, scanning top-down.  No magnitude heuristics, so reruns
    are identical.
    """
    a = [dict(row) for row in m.sparse]
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
    c = m.cols
    rows, pivots = _rref(Matrix._of(m.rows, c + 1, tuple(
        row + ((c, y),) if y else row for row, y in zip(m.sparse, map(Fraction, b)))))
    if c in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [_ZERO] * c
    for row, pc in zip(rows, pivots):
        x[pc] = row.get(c, _ZERO)
    return tuple(x)


def right_inverse(m: Matrix) -> Matrix:
    """The matrix whose column i is ``solve(m, e_i)``, free variables zero,
    from one elimination of [m | I]; raises SingularMatrix unless m has full
    row rank.  Pivot row k of the RREF [R | E] gives x[pivot k] = E[k, i]."""
    r, c = m.rows, m.cols
    rows, pivots = _rref(Matrix._of(r, c + r, tuple(
        row + ((c + i, _ONE),) for i, row in enumerate(m.sparse))))
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
    out, c0 = [], 0
    for m in mats:
        out += [tuple((c0 + j, x) for j, x in row) for row in m.sparse]
        c0 += m.cols
    return Matrix._of(len(out), c0, tuple(out))


def lincomb(coeffs, mats, zero: Matrix) -> Matrix:
    """sum_k coeffs[k] mats[k] in one pass over the nonzero entries.

    Terms with a zero coefficient are skipped; ``zero`` (the zero matrix of
    the common shape) is the value of an empty sum.
    """
    terms = [(c, m.sparse) for c, m in zip(coeffs, mats) if c]
    if not terms:
        return zero
    acc = [{} for _ in range(zero.rows)]
    for c, rows in terms:
        add_rows(acc, c, rows)
    return Matrix.from_sparse_rows(acc, zero.cols)


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


def from_cells(cells: dict, dims: tuple, matrices: bool = False):
    """Dense nested tuples over the axes ``dims`` with entry v at each index
    tuple of ``cells`` and zero elsewhere, in one pass over the cells; with
    ``matrices`` the last two axes form one :class:`Matrix` per index of
    the others.  The indices must be in range and the values Fractions."""
    depth = len(dims) - 1 - matrices  # levels above the leaves

    def empty(level):
        if level < depth:
            return [empty(level + 1) for _ in range(dims[level])]
        return [{} for _ in range(dims[-2])] if matrices else [_ZERO] * dims[-1]

    def finish(node, level):
        if level < depth:
            return tuple(finish(x, level + 1) for x in node)
        return Matrix.from_sparse_rows(node, dims[-1]) if matrices else tuple(node)

    root = empty(0)
    for idx, v in cells.items():
        node = root
        for t in idx[:-1]:
            node = node[t]
        node[idx[-1]] = v
    return finish(root, 0)


def _view(flat: tuple, shape: tuple[int, ...]) -> tuple:
    """``flat`` as nested tuples of ``shape``, the last axis fastest."""
    if len(shape) == 1:
        return flat
    step = prod(shape[1:])
    return tuple(_view(flat[k * step:(k + 1) * step], shape[1:]) for k in range(shape[0]))
