"""Exact rational linear algebra: matrices, rank, kernels, quotient dimensions.

Everything is exact over Q -- no floating point anywhere.  A matrix stores
its nonzero entries only, in two forms, each built from the other on first
use and then kept: the ``Fraction`` view :attr:`Matrix.sparse` (one tuple
of ``(column, entry)`` pairs per row, columns increasing: the leaf format
of the sparse structure tables in :mod:`lyreynolds.algebra`) and the
canonical integer form :attr:`Matrix.integer` (the least common
denominator, and the same pairs holding it times each entry as ints).
Products, matrix-vector products and elimination run on the integer form,
sums and scalings on the view; a transpose is built from the integer form
when the matrix has it, and kept, as is the hash.  :func:`eliminate` is the
one elimination routine, fraction-free in the sense of Bareiss; rows are
taken sparsest first and each is reduced against the pivot row of its
lowest column.  The reduced
echelon form is unique, so that pivot rule decides the cost, never the
result, and every output is bit-reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

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


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Matrix:
    """Rational matrix stored by its nonzero entries, in two forms (see the
    module docstring): ``sparse[i]`` holds the ``(column, entry)`` pairs of
    row i whose entry is nonzero, columns increasing, and ``integer`` is
    ``(den, rows)`` with the same pairs holding den times each entry.  A
    matrix is built from one form and derives the other on first use.  The
    integer form is canonical (den is the least common denominator), so
    ``==`` and ``hash`` are exact and cost the nonzeros, not rows x cols;
    the hash is computed once and kept.

    ``Matrix(rows, cols, entries)`` reads row-major dense entries; the dense
    ``entries``, ``row``, ``column``, ``[i, j]`` and ``to_rows`` are views
    built on access.  Acts on column vectors: ``(m @ v)[i] = sum_j m[i, j]
    v[j]``.  Zero-row and zero-column matrices are legal and show up as
    empty differentials.
    """

    rows: int
    cols: int

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
    def _of_integer(cls, rows: int, cols: int, den: int, int_rows) -> "Matrix":
        """The matrix of ``int_rows`` over ``den`` > 0: rows of nonzero
        ``(column, int)`` pairs, columns increasing and in range.  The
        common factor of den and every entry is divided out."""
        g = gcd(den, *(v for row in int_rows for _, v in row))
        if g != 1:
            den //= g
            int_rows = tuple(tuple((j, v // g) for j, v in row) for row in int_rows)
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, integer=(den, int_rows))
        return m

    @cached_property
    def sparse(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """The nonzero ``(column, entry)`` pairs of each row, as Fractions."""
        den, rows = self.integer
        return tuple(tuple((j, Fraction(v, den)) for j, v in row) for row in rows)

    @cached_property
    def integer(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """``(den, rows)``: the least common denominator of the entries, and
        the nonzero ``(column, den * entry)`` pairs of each row as ints."""
        den = lcm(*{x.denominator for row in self.sparse for _, x in row})
        return den, tuple(tuple((j, x.numerator * (den // x.denominator)) for j, x in row)
                          for row in self.sparse)

    @cached_property
    def _tables(self) -> dict:
        """Integer rows over multiples of den, keyed by the multiple, kept
        and read-only (see :func:`lyreynolds.algebra._scaled_rows`)."""
        return {}

    @cached_property
    def _hash(self) -> int:
        return hash((self.rows, self.cols, self.integer))

    @cached_property
    def _transposed(self) -> "Matrix":
        """The transpose, from the integer form if the matrix has it (the
        least common denominator is the same), else from the view."""
        m = object.__new__(Matrix)
        m.__dict__.update(rows=self.cols, cols=self.rows)
        if "integer" in self.__dict__:
            den, rows = self.integer
            m.__dict__["integer"] = (den, _transpose_rows(rows, self.cols))
        else:
            m.__dict__["sparse"] = _transpose_rows(self.sparse, self.cols)
        return m

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self.integer) == (other.rows, other.cols, other.integer)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Matrix(rows={self.rows!r}, cols={self.cols!r}, sparse={self.sparse!r})"

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
    def from_integer_rows(cls, rows_data, cols: int, den: int) -> "Matrix":
        """Matrix from one {column: int} accumulator per row holding den
        times its entries: entries that cancelled to zero are dropped, the
        rest sorted by column; each entry is divided by den once, when the
        Fraction view is first read."""
        return cls._of_integer(len(rows_data), cols, den, tuple(
            tuple(sorted(p for p in row.items() if p[1])) for row in rows_data))

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
        """The transpose, built on first use and then kept."""
        return self._transposed

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
        """Product over the nonzero entries of both factors, on their
        integer forms: integer rows over the product of the denominators."""
        if self.cols != other.rows:
            raise DimMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        (da, a), (db, b) = self.integer, other.integer
        acc = [{} for _ in range(self.rows)]
        add_product(acc, 1, a, b)
        return Matrix.from_integer_rows(acc, other.cols, da * db)

    def apply(self, v) -> Vector:
        """Matrix times column vector, over the nonzero entries of the
        integer form: the vector is brought to ints over the least common
        denominator of its entries, and each output entry is divided once."""
        v = tuple(v)
        if len(v) != self.cols:
            raise DimMismatch(f"vector of length {len(v)} for {self.rows}x{self.cols} matrix")
        den, rows = self.integer
        vden = lcm(*{x.denominator for x in v})
        iv = [x.numerator * (vden // x.denominator) for x in v]
        den *= vden
        out = []
        for row in rows:
            total = sum([x * iv[j] for j, x in row])
            out.append(Fraction(total, den) if total else _ZERO)
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self.integer[1])


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

    @classmethod
    def _of(cls, ambient_dim: int, vectors) -> "SubspaceBasis":
        """The basis of ``vectors``, taken as they are: of length
        ambient_dim and independent by construction."""
        basis = object.__new__(cls)
        basis.__dict__.update(ambient_dim=ambient_dim, vectors=vectors)
        return basis

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


def _transpose_rows(rows, cols: int):
    """The stored rows of the transpose of a matrix with ``cols`` columns
    given by its stored rows (of Fractions or of ints)."""
    out = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row:
            out[j].append((i, x))
    return tuple(map(tuple, out))


def _primitive(row: dict) -> dict:
    """An integer row divided by its content, the gcd of its entries."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _clear(row: dict, pivot: dict, c: int) -> dict:
    """a row - b pivot, primitive, for the coprime a, b that clear column c
    (the pivot row has a nonzero entry there)."""
    a, b = pivot[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = row if a == 1 else {j: a * x for j, x in row.items()}
    for j, y in pivot.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out)


def eliminate(m: Matrix, reduced: bool = False) -> tuple[list[dict], list[int]]:
    """Row echelon form of m by fraction-free elimination on its integer
    form: ``(rows, pivots)``, the nonzero rows in increasing order of their
    pivot columns ``pivots``.

    Each row, sparsest first, is divided by its content (the gcd of its
    entries) and reduced against the pivot row of its lowest column until
    that column has none; then it becomes that column's pivot row.  Without
    ``reduced`` that forward pass is all, and rows[r] is a primitive
    integer row whose lowest column is pivots[r]: every echelon form has
    the pivot columns of the reduced one, so this gives rank and pivots.
    With ``reduced``, each pivot row, highest pivot first, is cleared at the
    other pivot columns by the rows already reduced and divided by its
    pivot once: rows[r] holds the nonzero entries (Fractions) of row r of
    the reduced row echelon form, whose leading 1 is in column pivots[r].
    """
    echelon: dict[int, dict] = {}
    for pairs in sorted(m.integer[1], key=len):
        row = _primitive(dict(pairs))
        while row:
            c = min(row)
            pivot = echelon.get(c)
            if pivot is None:
                echelon[c] = row
                break
            row = _clear(row, pivot, c)
    pivots = sorted(echelon)
    if not reduced:
        return [echelon[c] for c in pivots], pivots
    for c in reversed(pivots):
        row = echelon[c]
        for c2 in [j for j in row if j != c and j in echelon]:
            row = _clear(row, echelon[c2], c2)
        echelon[c] = row
    rows = [echelon[c] for c in pivots]
    return [{j: Fraction(x, row[c]) for j, x in row.items()}
            for row, c in zip(rows, pivots)], pivots


def pivot_columns(m: Matrix) -> list[int]:
    """Pivot columns of the RREF: the columns not in the span of the ones
    before them, in increasing order (from the forward pass)."""
    return eliminate(m)[1]


def rank(m: Matrix) -> int:
    """Exact rank over Q: the pivot count of the forward pass, run over the
    side with fewer rows, so a tall matrix is eliminated as its (kept)
    transpose and only min(rows, cols) rows get reduced."""
    return len(eliminate(m.transpose() if m.rows > m.cols else m)[1])


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Basis of the right kernel {v : m v = 0}.

    One vector per free column of the RREF, in increasing free-column order,
    via the standard parametrization (free variable set to 1).  Each vector
    is 1 at its own free column and 0 at the others, so they are
    independent and are not ranked again.
    """
    rows, pivots = eliminate(m, reduced=True)
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
    return SubspaceBasis._of(m.cols, tuple(tuple(vectors[fc]) for fc in free))


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
    """One solution of m x = b with free variables set to 0, or None, from
    one elimination of [m | b] on integers."""
    b = [Fraction(y) for y in b]
    if len(b) != m.rows:
        raise DimMismatch("right-hand side length mismatch")
    c = m.cols
    den, int_rows = m.integer
    big = lcm(den, *(y.denominator for y in b))
    k = big // den
    rows, pivots = eliminate(Matrix._of_integer(m.rows, c + 1, big, tuple(
        tuple((j, k * x) for j, x in row)
        + (((c, y.numerator * (big // y.denominator)),) if y else ())
        for row, y in zip(int_rows, b))), reduced=True)
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
    den, int_rows = m.integer
    rows, pivots = eliminate(Matrix._of_integer(r, c + r, den, tuple(
        row + ((c + i, den),) for i, row in enumerate(int_rows))), reduced=True)
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


def unit_vector(n: int, pos: int) -> Vector:
    return tuple(_ONE if t == pos else _ZERO for t in range(n))


def from_cells(cells: dict, dims: tuple):
    """One :class:`Matrix` per index of the leading axes of ``dims``,
    nested over them, whose rows and columns are the last two axes, with
    entry v at each index tuple of ``cells``: one pass over the cells, each
    matrix stored by its nonzero entries.  The indices must be in range and
    the values Fractions."""
    *lead, rows, cols = dims
    acc = [[{} for _ in range(rows)] for _ in range(prod(lead))]
    for (*idx, r, c), v in cells.items():
        acc[position(idx, lead)][r][c] = v
    mats = tuple(Matrix.from_sparse_rows(mat, cols) for mat in acc)
    return _view(mats, tuple(lead)) if lead else mats[0]


def position(idx, shape) -> int:
    """The place of the index tuple ``idx`` in product order over ``shape``,
    the last axis fastest."""
    t = 0
    for i, base in zip(idx, shape):
        t = t * base + i
    return t


def digits(p: int, shape) -> tuple:
    """The index tuple at place ``p`` in product order over ``shape``, the
    inverse of :func:`position`."""
    idx = []
    for base in reversed(shape):
        p, r = divmod(p, base)
        idx.append(r)
    return tuple(idx[::-1])


def _view(flat: tuple, shape: tuple[int, ...]) -> tuple:
    """``flat`` as nested tuples of ``shape``, the last axis fastest."""
    if len(shape) == 1:
        return flat
    step = prod(shape[1:])
    return tuple(_view(flat[k * step:(k + 1) * step], shape[1:]) for k in range(shape[0]))
