"""Finite-dimensional Lie-Yamaguti algebras from structure constants.

An algebra is a pair of tensors over a basis e_0..e_{n-1}:

    binary[i][j][k]     with  [e_i, e_j]      = sum_k binary[i][j][k] e_k
    ternary[i][j][k][l] with  {e_i, e_j, e_k} = sum_l ternary[i][j][k][l] e_l

Construction enforces the two antisymmetries (binary in both slots, ternary
in its first two); the four compatibility axioms are checked on demand by
:func:`verify_ly_axioms`.  Checking on basis tuples is complete because every
axiom is multilinear.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm, prod

from .errors import (
    DimMismatch,
    InvalidStructure,
    NotLeibniz,
    NotLieAlgebra,
    NotReductive,
)
from .linalg import (
    _ZERO,
    Matrix,
    Vector,
    _view,
    add_scaled,
    digits,
    position,
    unit_vector,
)
from .reporting import AxiomReport, Check

class Tensor:
    """A frozen tensor: ``depth`` levels of basis indices, each of ``dim``
    values, above vectors of length ``width``.  It stores its nonzero
    Fraction entries only, ``cells``, keyed by position in the mixed radix
    ``shape`` = (dim,)*depth + (width,), positions increasing.  ``den`` is
    their least common denominator, and ``scaled(L)``, for a multiple L of
    den, the integer table that :class:`IntegerRead` takes: L times each
    cell, as ``{position: int}`` keyed as ``cells``.  Both are built on
    first use and kept; no consumer writes into a table.

    ``t[i][j]..``, iteration and ``repr`` read the nested tuple of
    Fractions, a view built on first access; ``len`` is ``dim``.  ``==``
    with another Tensor compares shapes and cells; ``==`` with anything
    else, and ``hash``, are those of the nested tuple.

    ``antisymmetric`` is a certificate kept from construction: True when
    the writer of the cells filled in both antisymmetric images of each in
    the leading index pair itself, and rejected a pair that contradicts
    (the loader, :func:`binary_from_sparse` and
    :func:`ternary_from_sparse`; the semidirect total of the representation
    verifiers and the extension assembly, whose cells are written once
    each), and for the coefficients that
    :func:`lyreynolds.deformation.apply_equivalence` transports, whose
    leading slots one series moves alike.  :func:`_require_antisymmetric`
    takes a certified tensor without a scan.  Every other tensor, nested
    input and descendants among them, is uncertified and is scanned where
    it is required to be antisymmetric.
    """

    def __init__(self, cells: dict, dim: int, depth: int, width: int,
                 antisymmetric: bool = False):
        self.cells = dict(sorted(cells.items()))
        self.dim, self.depth, self.width, self._tables = dim, depth, width, {}
        self.shape = (dim,) * depth + (width,)
        self.antisymmetric = antisymmetric

    @classmethod
    def of_indices(cls, cells: dict, dim: int, depth: int, width: int,
                   antisymmetric: bool = False) -> "Tensor":
        """The tensor with entry v at each index tuple (i, j, .., coordinate)
        of ``cells``, in range, v a Fraction; zero values are dropped."""
        shape = (dim,) * depth + (width,)
        return cls({position(idx, shape): v for idx, v in cells.items() if v},
                   dim, depth, width, antisymmetric)

    def entries(self):
        """The ``(index tuple, value)`` pair of every nonzero entry, in
        lexicographic order of the index tuples."""
        for p, v in self.cells.items():
            yield digits(p, self.shape), v

    @cached_property
    def den(self) -> int:
        return lcm(*{v.denominator for v in self.cells.values()})

    def scaled(self, den: int) -> dict:
        if den not in self._tables:
            self._tables[den] = {p: v.numerator * (den // v.denominator)
                                 for p, v in self.cells.items()}
        return self._tables[den]

    @cached_property
    def _nested(self) -> tuple:
        flat = [_ZERO] * prod(self.shape)
        for p, v in self.cells.items():
            flat[p] = v
        return _view(tuple(flat), self.shape)

    def __getitem__(self, i):
        return self._nested[i]

    def __iter__(self):
        return iter(self._nested)

    def __len__(self):
        return self.dim

    def __repr__(self):
        return repr(self._nested)

    def __eq__(self, other):
        if isinstance(other, Tensor):
            return (self.shape, self.cells) == (other.shape, other.cells)
        return self._nested == other

    def __hash__(self):
        return hash(self._nested)


def _freeze(data, dim: int, depth: int, width: int | None = None,
            wrong_width=DimMismatch) -> Tensor:
    """``data`` as a :class:`Tensor`: ``depth`` levels of basis indices (2
    for a binary tensor, 3 for a ternary one), each of length ``dim``
    (DimMismatch otherwise), above entries that must be vectors of length
    ``width``, ``dim`` by default (``wrong_width`` otherwise).  A Tensor of
    that shape is returned as it is, with what it has read; otherwise the
    nested input is walked once, in product order, and its nonzero entries
    written as cells: those that are Fractions already are kept as they
    are, and only the others are converted."""
    width = dim if width is None else width
    if isinstance(data, Tensor) and data.shape == (dim,) * depth + (width,):
        return data
    kind = ("binary", "ternary")[depth - 2]
    cells = {}

    def walk(node, level, pos):
        if level == depth:
            if len(node) != width:
                raise wrong_width(f"{kind} tensor entry of length {len(node)}, not {width}")
            for k, x in enumerate(node):
                x = x if type(x) is Fraction else Fraction(x)
                if x:
                    cells[pos * width + k] = x
            return
        if len(node) != dim:
            raise DimMismatch(
                f"{kind} tensor index level {level + 1} of length {len(node)}, not {dim}")
        for i, child in enumerate(node):
            walk(child, level + 1, pos * dim + i)

    walk(data, 0, 0)
    return Tensor(cells, dim, depth, width)


def _antisymmetry_failure(tensor: Tensor):
    """First basis tuple (i, j, ...) of length ``tensor.depth`` (2 or 3),
    i <= j, in product order, at which ``tensor`` is not antisymmetric in
    its leading index pair, or None.  Only the nonzero cells are read: every
    failing pair has a nonzero member, and the witness is the least (min,
    max, rest) of them.  Entries are Fractions, so x == -y compares
    numerators and denominators, and no negated entry is built."""
    dim, width, cells = tensor.dim, tensor.width, tensor.cells
    inner = dim ** (tensor.depth - 2) * width
    bad = None
    for p, x in cells.items():
        i, r = divmod(p, dim * inner)
        j, r = divmod(r, inner)
        y = cells.get((j * dim + i) * inner + r)
        if y is None or x.numerator != -y.numerator or x.denominator != y.denominator:
            key = (min(i, j), max(i, j), r // width)
            bad = key if bad is None else min(bad, key)
    return None if bad is None else bad[:tensor.depth]


def _require_antisymmetric(tensor: Tensor, text: str, error=InvalidStructure) -> None:
    """Raise ``error`` with ``text`` and the witness of
    :func:`_antisymmetry_failure`, written "(i,j,..)", if there is one.  A
    tensor certified antisymmetric by its writer (``Tensor.antisymmetric``)
    is taken without a scan."""
    if tensor.antisymmetric:
        return
    bad = _antisymmetry_failure(tensor)
    if bad is not None:
        raise error(f"{text} at ({','.join(map(str, bad))})")


def zero_binary(dim: int) -> Tensor:
    return Tensor({}, dim, 2, dim)


def zero_ternary(dim: int) -> Tensor:
    return Tensor({}, dim, 3, dim)


def _from_sparse(dim: int, entries, arity: int) -> Tensor:
    """The :class:`Tensor` with ``arity`` indices whose cells are
    {index tuple: coefficient}, filled in antisymmetrically in the first two
    indices, and certified so (``Tensor.antisymmetric``)."""
    cells: dict[tuple[int, ...], Fraction] = {}
    for idx, c in dict(entries).items():
        idx = tuple(idx)
        if len(idx) != arity:
            raise DimMismatch(f"index {idx} needs {arity} entries")
        c = Fraction(c)
        swapped = (idx[1], idx[0]) + idx[2:]
        for key in (idx, swapped):
            if not all(0 <= t < dim for t in key):
                raise DimMismatch(f"index {key} out of range for dim {dim}")
        for key, val in ((idx, c), (swapped, -c)):
            if key in cells and cells[key] != val:
                raise InvalidStructure(
                    f"inconsistent antisymmetric pair at {key}: "
                    f"{cells[key]} vs {val}")
            cells[key] = val
    return Tensor.of_indices(cells, dim, arity - 1, dim, antisymmetric=True)


def binary_from_sparse(dim: int, entries) -> Tensor:
    """Build b[i][j][k] from {(i, j, k): coefficient}.

    Unspecified entries are zero.  The antisymmetric image of every entry is
    filled in automatically; supplying both (i,j,k) and (j,i,k) with values
    that are not negatives of each other is rejected.
    """
    return _from_sparse(dim, entries, 3)


def ternary_from_sparse(dim: int, entries) -> Tensor:
    """Build t[i][j][k][l] from {(i, j, k, l): coefficient}; antisymmetric in
    the first two indices, same consistency rule as :func:`binary_from_sparse`."""
    return _from_sparse(dim, entries, 4)


def _apply(tensor, *args) -> Vector:
    """The multilinear extension of a structure tensor with one basis index
    per argument, read from its cells at the nonzero coordinates of the
    arguments."""
    tensor = _freeze(tensor, len(tensor), len(args))
    dim, cells = tensor.dim, tensor.cells
    terms = [(0, 1)]  # (position of the basis tuple so far, coefficient)
    for x in args:
        terms = [(p * dim + i, c * xi) for p, c in terms for i, xi in enumerate(x) if xi]
    out = [_ZERO] * dim
    for p, c in terms:
        for k in range(dim):
            v = cells.get(p * dim + k)
            if v is not None:
                out[k] += c * v
    return tuple(out)


def apply_binary(tensor: Tensor, x, y) -> Vector:
    """Bilinear extension of a binary structure tensor."""
    return _apply(tensor, x, y)


def apply_ternary(tensor: Tensor, x, y, z) -> Vector:
    """Trilinear extension of a ternary structure tensor."""
    return _apply(tensor, x, y, z)


def _matrices(node) -> tuple:
    """The matrices of a nesting of tuples of matrices, in order."""
    if isinstance(node, Matrix):
        return (node,)
    return tuple(chain.from_iterable(map(_matrices, node)))


def _scaled_rows(mat: Matrix, den: int):
    """den times the rows of mat, from its integer form, whose denominator
    divides den: built once per den and kept on the matrix, read-only, as
    :meth:`Tensor.scaled` keeps its tables."""
    d, rows = mat.integer
    if den == d:
        return rows
    if den not in mat._tables:
        k = den // d
        mat._tables[den] = tuple(tuple((j, k * v) for j, v in row) for row in rows)
    return mat._tables[den]


def _nested_rows(node, den: int):
    """A nesting of tuples of matrices, each matrix as den times its rows."""
    if isinstance(node, Matrix):
        return _scaled_rows(node, den)
    return tuple(_nested_rows(child, den) for child in node)


class IntegerRead:
    """Structure data as integers over one common denominator L.

    ``F`` and ``G`` are series of binary and ternary tensors (a single
    structure is a series of length 1), ``Tt`` a series of maps (operator
    coefficients, or a derivation) or two maps T and T_V, and ``rows`` a
    nesting of tuples of matrices (a representation's rho and theta).  L =
    ``den`` is the least common multiple of the weight's denominator and of
    the denominators that each tensor (:class:`Tensor`) and each matrix
    (its integer form) keep; then ``f[i]`` and ``g[i]`` are L F_i and L
    G_i as ``{position: int}`` tables keyed as the tensor's cells (its kept
    ``scaled(L)``, read-only), ``dim`` is the tensors' dimension (None
    without any), ``t_col[i][x]`` is L T_i e_x (from T_i's kept transpose),
    ``t_row[i][y]`` the row y of L T_i, ``lw`` is L times the weight, and
    ``rows`` keeps its nesting with each matrix as L times its stored rows.
    A tensor given as plain nested tuples is frozen first.  Each battery
    and builder brings its terms to one power of L and divides an output
    entry back once; a deformation is read once for all its orders.
    """

    __slots__ = ("den", "dim", "f", "g", "t_col", "t_row", "lw", "rows")

    def __init__(self, F=(), G=(), Tt=(), weight=0, rows=()):
        weight = Fraction(weight)
        F = [_freeze(t, len(t), 2) for t in F]
        G = [_freeze(t, len(t), 3) for t in G]
        self.den = den = lcm(weight.denominator, *{t.den for t in (*F, *G)},
                             *{mat.integer[0] for mat in (*Tt, *_matrices(rows))})
        self.dim = next((t.dim for t in (*F, *G)), None)
        self.f = tuple(t.scaled(den) for t in F)
        self.g = tuple(t.scaled(den) for t in G)
        self.t_col = tuple(_scaled_rows(t.transpose(), den) for t in Tt)
        self.t_row = tuple(_scaled_rows(t, den) for t in Tt)
        self.lw = (weight * den).numerator
        self.rows = _nested_rows(rows, den)


def dense_vector(acc: dict, dim: int, den: int = 1, start: int = 0) -> Vector:
    """The coordinate vector of a ``{coordinate: value}`` dict holding den
    times it at the coordinates from ``start`` on, as Fractions: one
    division per nonzero entry."""
    return tuple(Fraction(acc[start + k], den) if acc.get(start + k) else _ZERO
                 for k in range(dim))


def flat_table(table, shape) -> dict:
    """Integer matrix rows (nested tuples above sparse ``(index, value)``
    rows, as :class:`IntegerRead` keeps them) as one ``{position: value}``
    dict, a tensor's format, a position being the place in product order
    over ``shape``: a mixed radix, e.g. (n, n, n) for a binary bracket and
    (n,)*k + (m, m) for a k-linear map into operators on a module."""
    size, leaves = shape[-1], table
    for _ in range(len(shape) - 2):
        leaves = chain.from_iterable(leaves)
    return {t * size + k: v for t, leaf in enumerate(leaves) for k, v in leaf}


def slot_product(series, maps, stride: int, dim: int) -> list:
    """The truncated product of two series, order by order: order s is
    sum_{b+c=s} series_b with one index of its entries moved by maps_c.
    An order is a ``{position: int}`` dict (see :func:`flat_table`).  The
    moved index is the digit of weight ``stride`` and base ``dim``, and
    ``maps[c][y]`` lists the ``(x, value)`` pairs that send y to x: the rows
    of a map T (``IntegerRead.t_row``) precompose an argument with T, and
    its columns (``t_col``) compose T after the output (or an operator).
    Orders past the end of ``maps`` are zero maps, and so is an order with
    no moves, which is skipped (each T_k, k >= 1, of a scalar operator)."""
    live = [(c, moves) for c, moves in enumerate(maps) if any(moves)]
    out = []
    for s in range(len(series)):
        acc = defaultdict(int)
        for c, moves in live:
            if c > s:
                break
            for key, v in series[s - c].items():
                y = key // stride % dim
                base = key - y * stride
                for x, p in moves[y]:
                    acc[base + x * stride] += v * p
        out.append(acc)
    return out


def transport(series, arity: int, dim: int, pre, post) -> list:
    """A series X of ``{position: int}`` tables of ``arity`` arguments
    moved to post o X o (pre x .. x pre) order by order: ``pre`` is a
    series of maps for every argument slot, ``post`` one for the output."""
    for slot in range(arity):
        series = slot_product(series, pre, dim ** (arity - slot), dim)
    return slot_product(series, post, 1, dim)


def twist(series, shape, slots):
    """The two parts of every structure a map T induces from a multilinear
    map X: A = X with T in every argument slot of ``slots``, and B = sum_s
    X with T in every one of them but s, where a ``left`` map stands, as
    series of ``shape`` (see :func:`slot_product`).  Each slot is a triple
    ``(digit, maps, left)``: the digit of ``shape`` it moves, the series of
    T's moves there, and the moves of its left map, None for the identity.
    The descendant brackets and the induced representation move their
    argument digits by T's rows, with the identity left; the comparison map
    phi moves the column digits of an identity matrix by T's images (see
    :func:`lyreynolds.cohomology.phi_matrix`).  Callers form inner = L^2 B
    + (k - 1) L w A, for k arguments a module argument included (k - 1 = 1
    for [,] and rho, 2 for {,,}, theta and D), and X_T = L^2 A - T o inner.
    One pass, B <- B o_s T + A o_s left and A <- A o_s T: 2k - 1 slot
    products for k slots, and one more per left map."""
    a, b = series, None
    for slot, maps, left in slots:
        stride, base = prod(shape[slot + 1:]), shape[slot]
        moved = a if left is None else slot_product(a, (left,), stride, base)
        b = moved if b is None else series_lincomb(
            (1, slot_product(b, maps, stride, base)), (1, moved))
        a = slot_product(a, maps, stride, base)
    return a, b


def series_lincomb(*terms) -> list:
    """sum c * series over the ``(c, series)`` pairs of ``terms``, order by
    order, for series of ``{position: int}`` dicts of one length."""
    out = [{} for _ in terms[0][1]]
    for c, series in terms:
        for acc, order in zip(out, series):
            add_scaled(acc, c, order.items())
    return out


def dense_tensor(acc: dict, depth: int, dim: int, den: int,
                 antisymmetric: bool = False) -> Tensor:
    """The :class:`Tensor` with ``depth`` levels of basis indices whose flat
    ``{position: value}`` dict (see :func:`flat_table`) holds den times it:
    one division per nonzero cell.  ``antisymmetric`` is the writer's
    certificate (``Tensor.antisymmetric``)."""
    return Tensor({p: Fraction(v, den) for p, v in acc.items() if v}, dim, depth, dim,
                  antisymmetric)


def tuple_residual(acc: dict, shape):
    """The one by-tuple reader of a flat ``{position: value}`` dict of
    ``shape`` (see :func:`flat_table`), a read's tensor or a residual: the
    map from the digits above a leaf (a basis tuple, or one and a row) to
    its nonzero entries, as a ``{coordinate: value}`` dict."""
    leaf = shape[-1]
    rows = defaultdict(dict)
    for p, v in acc.items():
        if v:
            rows[p // leaf][p % leaf] = v
    # keyed by the digits themselves, so that a read hashes the tuple only
    vectors = {digits(r, shape[:-1]): vector for r, vector in rows.items()}

    def residual(*idx):
        return vectors.get(idx, {})

    return residual


@dataclass(frozen=True)
class LyAlgebra:
    """Structure constants of a Lie-Yamaguti algebra plus optional labels.

    ``binary`` and ``ternary`` are tensors (:class:`Tensor`) that keep
    their integer read.  The hash is computed once, from the cells of each
    tensor (equal tensors have equal cells), and kept."""

    dim: int
    binary: Tensor
    ternary: Tensor
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = self.dim
        object.__setattr__(self, "binary", _freeze(self.binary, n, 2))
        object.__setattr__(self, "ternary", _freeze(self.ternary, n, 3))
        if self.labels is not None and len(self.labels) != n:
            raise DimMismatch("label count != dim")
        _require_antisymmetric(self.binary, "binary constants not antisymmetric")
        _require_antisymmetric(self.ternary,
                               "ternary constants not antisymmetric in first two slots")

    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, tuple(self.binary.cells.items()),
                     tuple(self.ternary.cells.items()), self.labels))

    def __hash__(self):
        return self._hash

    def basis(self, i: int) -> Vector:
        return unit_vector(self.dim, i)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i + 1}"


def bracket2(algebra: LyAlgebra, x, y) -> Vector:
    """[x, y] by bilinear extension of the structure constants."""
    if len(x) != algebra.dim or len(y) != algebra.dim:
        raise DimMismatch("element coordinates do not match algebra dim")
    return apply_binary(algebra.binary, x, y)


def bracket3(algebra: LyAlgebra, x, y, z) -> Vector:
    """{x, y, z} by trilinear extension of the structure constants."""
    if any(len(v) != algebra.dim for v in (x, y, z)):
        raise DimMismatch("element coordinates do not match algebra dim")
    return apply_ternary(algebra.ternary, x, y, z)


def _cells(table: dict, d: int, depth: int) -> list:
    """The ``(i, j, .., coordinate, value)`` tuple of every entry of the
    ``{position: int}`` table of a binary (``depth`` 2) or ternary (3)
    tensor of dimension ``d`` (see :class:`IntegerRead`), in the table's
    order, product order for a read's: decoded from the positions."""
    out = []
    if depth == 2:
        for p, v in table.items():
            p, k = divmod(p, d)
            i, j = divmod(p, d)
            out.append((i, j, k, v))
    else:
        for p, v in table.items():
            p, k = divmod(p, d)
            p, l = divmod(p, d)
            i, j = divmod(p, d)
            out.append((i, j, l, k, v))
    return out


def _ly_identities(read: IntegerRead) -> list:
    """LY1-LY6 at every order of the coefficient series F_0, F_1, ... (binary
    tensors) and G_0, G_1, ... (ternary tensors) of ``read``: for each order
    n, six ``(depth, acc, den)`` triples (see :func:`_axiom_report`), acc
    holding den times the order-n coefficient of LHS - RHS at each basis
    tuple, each product summed over the splittings i + (n - i).  Order 0 of
    the read of one algebra is its own battery, and a deformation's order n
    is the same identity at higher order.

    Only nonzero cell pairs are multiplied: each cell of an inner bracket
    with its first two indices increasing, joined to the cells of an outer
    bracket that hold its output coordinate in the contracted slot.  LY3-LY6
    are antisymmetric within the groups of their slots (3), (3, 1), (2, 2)
    and (2, 2, 1), because F_i and G_i are in their first two
    (:class:`LyAlgebra` and TruncatedDeformation enforce or certify it): each
    residual is zero on a tuple that repeats an index within a group and
    changes sign under a swap within a group.  So the failing tuples are a
    union of orbits of those swaps, and the tuple increasing within each
    group is the lexicographic minimum of its orbit, because the groups are
    consecutive slots.  Each product is written on that tuple with the sign
    of the swap that takes it there, and dropped on a repeated index, where
    the residual is 0; the least nonzero position is then the first failure
    in product order over every tuple (see :func:`first_failing_tuple`),
    with its residual.  LY3 and LY4
    take the parity of the sorted triple, and a derivation term with x > y
    is written on (.., y, x, ..), negated.  The three cyclic terms of LY3
    and LY4 at a triple are its pairs a < b with the third index, and the
    two middle terms of LY5 and LY6 one term at (x, y) and at (y, x); so
    each increasing tuple gets its exact residual, and no other tuple is
    written.  LY1 and LY2 are written on every tuple.
    """
    # the read is L times every coefficient: LY1 and LY2 are then L times,
    # and LY3-LY6 L^2 times the exact residual (the lone G_n term of LY3 is
    # multiplied by L)
    den, d = read.den, read.dim
    d2 = d * d
    fc, gc = [_cells(t, d, 2) for t in read.f], [_cells(t, d, 3) for t in read.g]
    # the inner cells, with the increasing pair (a, b) also as one digit
    # ab = a d + b of base d^2
    f_up = [[(a, b, a * d + b, w, u) for a, b, w, u in cells if a < b] for cells in fc]
    g_up = [[(a * d + b, x, w, u) for a, b, x, w, u in cells if a < b] for cells in gc]
    # the outer cells by their contracted slot w: F_i(w, y) along o as (y,
    # o, t) and G_i(w, y, z) along o as (y, z d + o, t) by their first
    # argument, G_i(p, q, w) along o with p < q as (p d + q, o, t) by its third
    f_first, g_first, g_third = ([[[] for _ in range(d)] for _ in fc] for _ in range(3))
    for i, (fi, gi) in enumerate(zip(fc, gc)):
        for w, y, o, t in fi:
            f_first[i][w].append((y, o, t))
        for p, q, w, o, t in gi:
            g_first[i][p].append((q, w * d + o, t))
            if p < q:
                g_third[i][w].append((p * d + q, o, t))

    def sort3(acc, terms, tail_base):
        # v at (a, b, c, tail), a < b, onto the sorted triple with its parity
        for a, b, c, tail, v in terms:
            if c > b:
                acc[((a * d + b) * d + c) * tail_base + tail] += v
            elif a < c < b:
                acc[((a * d + c) * d + b) * tail_base + tail] -= v
            elif c < a:
                acc[((c * d + a) * d + b) * tail_base + tail] += v

    def sort2(acc, terms, tail_base):
        # v at (ab, x, y, tail) onto (ab, min, max, tail), negated if x > y
        for ab, x, y, tail, v in terms:
            if x < y:
                acc[((ab * d + x) * d + y) * tail_base + tail] += v
            elif y < x:
                acc[((ab * d + y) * d + x) * tail_base + tail] -= v

    square = den * den
    out = []
    for n in range(len(fc)):
        ly1, ly2, ly3, ly4, ly5, ly6 = (defaultdict(int) for _ in range(6))
        for a, b, o, v in fc[n]:
            ly1[(a * d + b) * d + o] += v
            ly1[(b * d + a) * d + o] += v
        for a, b, c, o, v in gc[n]:
            ly2[((a * d + b) * d + c) * d + o] += v
            ly2[((b * d + a) * d + c) * d + o] += v
        sort3(ly3, [(a, b, c, o, den * v) for a, b, c, o, v in gc[n] if a < b], d)
        for i in range(n + 1):
            fo, go, g3 = f_first[i], g_first[i], g_third[i]
            inner_f, inner_g = f_up[n - i], g_up[n - i]
            # [[a, b], c] and {[a, b], c, z}
            sort3(ly3, [(a, b, c, o, u * t) for a, b, _, w, u in inner_f
                        for c, o, t in fo[w]], d)
            sort3(ly4, [(a, b, c, tail, u * t) for a, b, _, w, u in inner_f
                        for c, tail, t in go[w]], d2)
            # -[{a, b, x}, y] and -{{a, b, x}, y, z}
            sort2(ly5, [(ab, x, y, o, -u * t) for ab, x, w, u in inner_g
                        for y, o, t in fo[w]], d)
            sort2(ly6, [(ab, x, y, tail, -u * t) for ab, x, w, u in inner_g
                        for y, tail, t in go[w]], d2)
            # {p, q, [a, b]}
            for _, _, ab, w, u in inner_f:
                for pq, o, t in g3[w]:
                    ly5[(pq * d2 + ab) * d + o] += u * t
            # {p, q, {a, b, x}}, in the first and the last term of LY6
            for ab, x, w, u in inner_g:
                for pq, o, t in g3[w]:
                    v, tail = u * t, x * d + o
                    ly6[(pq * d2 + ab) * d2 + tail] += v
                    ly6[(ab * d2 + pq) * d2 + tail] -= v
        out.append(((2, ly1, den), (3, ly2, den), (3, ly3, square), (4, ly4, square),
                    (4, ly5, square), (5, ly6, square)))
    return out


def first_failing_tuple(acc: dict, shape):
    """The digits above the last axis of the least nonzero position of a
    flat residual of ``shape``, or None: the first failing tuple in product
    order, also of a residual written only on the least tuple of each orbit
    of the swaps within its antisymmetric groups (see
    :func:`_ly_identities`)."""
    bad = min((p for p, v in acc.items() if v), default=None)
    return None if bad is None else digits(bad // shape[-1], shape[:-1])


def _axiom_report(names, identities, dim: int) -> AxiomReport:
    """One check per named ``(depth, acc, den)`` identity: ``acc`` is a flat
    ``{position: int}`` dict (see :func:`flat_table`) over ``depth`` basis
    indices and an output coordinate, holding den times the residual.  The
    witness is its :func:`first_failing_tuple`, and the residual that
    tuple's row of exact values.  An identity antisymmetric within groups
    of slots written on every tuple fails first on a tuple increasing
    within each group, as one written on those tuples only."""
    checks = []
    for name, (depth, acc, den) in zip(names, identities):
        shape = (dim,) * (depth + 1)
        bad = first_failing_tuple(acc, shape)
        checks.append(Check(name, True) if bad is None else Check(
            name, False, bad, dense_vector(acc, dim, den, position(bad, shape) * dim)))
    return AxiomReport(tuple(checks))


def verify_ly_axioms(algebra: LyAlgebra) -> AxiomReport:
    """Evaluate the six defining axioms on basis tuples.

    The first two are antisymmetries (re-checked here, on all basis tuples,
    even though construction enforces them); the remaining four are the
    compatibility identities between the two brackets, written over the
    nonzero structure constants onto one tuple per orbit (see
    :func:`_ly_identities`).  Each check reports at most one witness: the
    lexicographically first failing tuple, its least nonzero position.
    """
    read = IntegerRead((algebra.binary,), (algebra.ternary,))
    return _axiom_report(("LY1", "LY2", "LY3", "LY4", "LY5", "LY6"),
                         _ly_identities(read)[0], algebra.dim)


def _morphism_failure(phi, source: LyAlgebra, target: LyAlgebra):
    """First basis tuple at which the linear map ``phi`` of one space fails
    to carry a bracket of ``source`` to the same bracket of ``target``: the
    pairs (i, j) of the binary bracket come before the triples (i, j, k) of
    the ternary one.  None when ``phi`` is a morphism of both brackets.
    Both conditions are antisymmetric in i, j, so the witness has i < j
    (see :func:`first_failing_tuple`).

    Over one integer read of both algebras and phi, L phi o F_src and
    F_tgt o1 phi o2 phi are whole-tensor slot products at L^3, L^2 phi o
    G_src and G_tgt o1 phi o2 phi o3 phi at L^4, compared whole."""
    n = source.dim
    read = IntegerRead((source.binary, target.binary), (source.ternary, target.ternary),
                       (phi,))
    for depth, (src, tgt) in ((2, read.f), (3, read.g)):
        pulled = [tgt]
        for slot in range(depth):
            pulled = slot_product(pulled, read.t_row, n ** (depth - slot), n)
        pushed = slot_product([src], read.t_col, 1, n)
        bad = first_failing_tuple(
            series_lincomb((read.den ** (depth - 1), pushed), (-1, pulled))[0],
            (n,) * (depth + 1))
        if bad is not None:
            return bad
    return None


def _check_jacobi(binary: Tensor, dim: int):
    _require_antisymmetric(binary, "bracket not antisymmetric", NotLieAlgebra)
    # Jacobi is LY3 of the algebra with the zero ternary bracket
    check, = _axiom_report(("Jacobi",), _ly_identities(
        IntegerRead((binary,), (zero_ternary(dim),)))[0][2:3], dim).checks
    if not check.passed:
        i, j, k = check.witness
        raise NotLieAlgebra(f"Jacobi fails at basis triple ({i},{j},{k}): {check.residual}")


def _bracket_of_bracket(cells: dict, through) -> defaultdict:
    """The cells {(i, j, k, l): value} of [[e_i, e_j], e_k]_l from the cells
    {(i, j, k): value} of a bracket, the inner bracket cut to its
    coordinates in ``through``: each cell (i, j, p) times each (p, k, l)."""
    after = defaultdict(list)
    for (p, k, l), v in cells.items():
        after[p].append((k, l, v))
    out = defaultdict(int)
    for (i, j, p), u in cells.items():
        if p in through:
            for k, l, v in after[p]:
                out[i, j, k, l] += u * v
    return out


def from_lie_algebra(binary, labels=None) -> LyAlgebra:
    """Lie algebra as a Lie-Yamaguti algebra: {x,y,z} = [[x,y],z].

    The binary constants must satisfy antisymmetry and Jacobi (verified on
    basis triples); otherwise NotLieAlgebra is raised with the witness.
    """
    dim = len(binary)
    binary = _freeze(binary, dim, 2)
    _check_jacobi(binary, dim)
    ternary = _bracket_of_bracket(dict(binary.entries()), range(dim))
    return LyAlgebra(dim, binary, Tensor.of_indices(ternary, dim, 3, dim), labels)


def from_leibniz(star, labels=None) -> LyAlgebra:
    """Left Leibniz algebra as a Lie-Yamaguti algebra.

    Brackets: [x,y] = x*y - y*x and {x,y,z} = -(x*y)*z.  The left Leibniz
    identity x*(y*z) = (x*y)*z + y*(x*z) is verified over the cells first,
    naming the first failing basis triple; it is what makes the ternary
    bracket antisymmetric in its first slots.
    """
    dim = len(star)
    cells = dict(_freeze(star, dim, 2).entries())
    # (e_i * e_j) * e_k, and e_i * (e_j * e_k) as (e_k o e_j) o e_i for the
    # opposite product x o y = y * x, keyed (k, j, i, l)
    outer = _bracket_of_bracket(cells, range(dim))
    opposite = {(j, i, k): v for (i, j, k), v in cells.items()}
    residual = defaultdict(int)
    for (k, j, i, l), v in _bracket_of_bracket(opposite, range(dim)).items():
        residual[i, j, k, l] += v
        residual[j, i, k, l] -= v
    for idx, v in outer.items():
        residual[idx] -= v
    bad = min((idx[:3] for idx, v in residual.items() if v), default=None)
    if bad is not None:
        raise NotLeibniz(
            f"left Leibniz identity fails at basis triple ({','.join(map(str, bad))})")
    binary = defaultdict(int)
    for (i, j, k), v in cells.items():
        binary[i, j, k] += v
        binary[j, i, k] -= v
    ternary = {idx: -v for idx, v in outer.items()}
    return LyAlgebra(dim, Tensor.of_indices(binary, dim, 2, dim),
                     Tensor.of_indices(ternary, dim, 3, dim), labels)


def from_reductive_pair(lie_binary, n_indices, m_indices, labels=None) -> LyAlgebra:
    """Lie-Yamaguti algebra on the complement M of a reductive splitting.

    Requires lie_binary to be a Lie algebra split as L = N (+) M with
    [N,N] in N and [N,M] in M (both verified on basis pairs).  Brackets on M:
    [x,y]_M = pi_M([x,y]) and {x,y,z}_M = [pi_N([x,y]), z].
    """
    dim = len(lie_binary)
    lie_binary = _freeze(lie_binary, dim, 2)
    _check_jacobi(lie_binary, dim)
    n_indices = list(n_indices)
    m_indices = list(m_indices)
    if sorted(n_indices + m_indices) != list(range(dim)):
        raise DimMismatch("N and M indices must partition the basis")
    n_set = set(n_indices)
    cells = dict(lie_binary.entries())
    for i in n_indices:
        for j in n_indices:
            if any((i, j, k) in cells for k in range(dim) if k not in n_set):
                raise NotReductive(f"[N,N] not in N at basis pair ({i},{j})")
        for j in m_indices:
            if any((i, j, k) in cells for k in n_set):
                raise NotReductive(f"[N,M] not in M at basis pair ({i},{j})")

    # the index on M of each basis vector of M, in the order of m_indices
    m, on_m = len(m_indices), {old: a for a, old in enumerate(m_indices)}

    def on_m_only(cells):
        return {tuple(map(on_m.get, idx)): v for idx, v in cells.items()
                if all(t in on_m for t in idx)}

    binary = on_m_only(cells)
    ternary = on_m_only(_bracket_of_bracket(cells, n_set))
    if labels is None and m:
        labels = tuple(f"e{i + 1}" for i in m_indices)
    return LyAlgebra(m, Tensor.of_indices(binary, m, 2, m),
                     Tensor.of_indices(ternary, m, 3, m), labels)


def abelian(dim: int, labels=None) -> LyAlgebra:
    """Both brackets identically zero."""
    return LyAlgebra(dim, zero_binary(dim), zero_ternary(dim), labels)


def two_dim_example(labels=("e1", "e2")) -> LyAlgebra:
    """The 2-dimensional algebra with [e1,e2] = e1 and {e1,e2,e2} = e1.

    The smallest Lie-Yamaguti algebra with both brackets nonzero; used as
    the canonical fixture throughout the tests and sample files.
    """
    binary = binary_from_sparse(2, {(0, 1, 0): 1})
    ternary = ternary_from_sparse(2, {(0, 1, 1, 0): 1})
    return LyAlgebra(2, binary, ternary, tuple(labels))
