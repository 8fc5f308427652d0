"""The three cochain complexes of a Reynolds Lie-Yamaguti algebra.

Degree-1 cochains are linear maps L -> V.  A degree-p cochain for p >= 2 is
a pair (f, g) of multilinear maps

    f : (wedge^2 L)^{x(p-1)} -> V          g : (wedge^2 L)^{x(p-1)} x L -> V

stored as their coordinates over the wedge basis {e_i ^ e_j : i < j,
lexicographic}; see :class:`Cochain`.

Three coboundaries act on these spaces:

  * ``delta``  -- the Yamaguti coboundary of L with coefficients in a
    representation (the "ly" complex);
  * ``partial``-- the same coboundary taken over the descendant algebra L_T
    with the induced representation (the "ro" complex, grading shifted);
  * ``d_rly``  -- the negative-shift mapping cone of the degree-preserving
    comparison map ``phi``, acting on pairs (top, tail) with
    d(top, tail) = (delta top, -partial tail - phi top)  (the "rly" complex).

All differentials are materialized as matrices in the standard cochain
basis (unit tensors, lexicographic; the f block before the g block, the top
block before the tail block) and cached per input, so ranks, kernels and
membership tests reuse them.  The ``ly`` matrix is assembled directly from
the structure constants, rho/theta and the D table: one pass over the
output slots emits every nonzero entry as a sparse linear form in the
input coordinates, so assembly costs about the number of nonzeros, not
dim_in x dim_out.  ``phi`` is the twist kernel that builds the descendant
brackets (``algebra.twist``), run on identity matrices.  The arithmetic is
on Python ints: one integer read (:class:`lyreynolds.algebra.IntegerRead`)
scales the inputs of a differential by their common denominator L, every
term of ``delta`` is linear in exactly one of them, so the ``ly`` matrix
is (1/L) times an integer matrix, and ``phi`` is brought to one power of L
the same way.  The result is a :class:`Matrix` built from its integer
form, whose ``Fraction`` view is made only if a caller reads it.  The cone
stacks the integer forms of its blocks by row and column offsets over one
denominator.  Ranks, the d o d = 0 check and the chain-map square run on
the integer forms; the coboundaries of single cochains are products with
these matrices.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm, prod

from .algebra import (
    IntegerRead,
    LyAlgebra,
    Tensor,
    _freeze,
    _require_antisymmetric,
    series_lincomb,
    tuple_residual,
    twist,
)
from .errors import (
    DegreeOutOfRange,
    InvalidInput,
    ShapeMismatch,
)
from .linalg import (
    _ZERO,
    Matrix,
    _view,
    kernel_basis,
    rank,
    require_complex,
    solve,
)
from .reporting import ComplexReport, DegreeRow
from .representation import (
    Representation,
    check_inputs,
    d_table,
    induced_rep,
)
from .reynolds import ReynoldsOperator, descendant_algebra

COMPLEXES = ("ly", "ro", "rly")


# ---------------------------------------------------------------------------
# wedge basis bookkeeping

@cache
def wedge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def wedge_dim(n: int) -> int:
    return n * (n - 1) // 2


@cache
def _wedge_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(wedge_pairs(n))}


def _wedge(n: int, *pairs) -> list[tuple[int, int]]:
    """The nonzero ``(index, value)`` coordinates over the wedge basis of the
    sum of u ^ v over the ``(u, v)`` pairs of sparse vectors, given as
    ``(index, value)`` pairs."""
    index = _wedge_index(n)
    acc = defaultdict(int)
    for u, v in pairs:
        for i, x in u:
            for j, y in v:
                if i < j:
                    acc[index[i, j]] += x * y
                elif i > j:
                    acc[index[j, i]] -= x * y
    return [(k, v) for k, v in acc.items() if v]


# ---------------------------------------------------------------------------
# cochains

def _f_len(degree: int, alg_dim: int, mod_dim: int) -> int:
    """Length of the f block; degree-1 cochains have none."""
    return 0 if degree == 1 else wedge_dim(alg_dim) ** (degree - 1) * mod_dim


def cochain_dim(degree: int, alg_dim: int, mod_dim: int) -> int:
    if degree < 1:
        raise DegreeOutOfRange(f"degree {degree} < 1")
    g_len = wedge_dim(alg_dim) ** (degree - 1) * alg_dim * mod_dim
    return _f_len(degree, alg_dim, mod_dim) + g_len


@dataclass(frozen=True)
class Cochain:
    """One element of the degree-p cochain space over (L, V), stored as its
    coordinates in the standard basis: the f block, then the g block, each
    row-major with the V coordinate fastest.

    For p = 1 only the g block is present (the map L -> V, g[z][a]).  For
    p >= 2, f has p-1 wedge indices and g has p-1 wedge indices plus one
    algebra index.  ``f`` and ``g`` are read-only nested views of ``coords``,
    built on access; the engine itself works on ``coords``.
    """

    degree: int
    alg_dim: int
    mod_dim: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in self.coords)
        if len(coords) != cochain_dim(self.degree, self.alg_dim, self.mod_dim):
            raise ShapeMismatch("coordinate vector has the wrong length")
        object.__setattr__(self, "coords", coords)

    @property
    def f(self) -> tuple | None:
        """f[w_1]..[w_{p-1}][a]; None at degree 1."""
        if self.degree == 1:
            return None
        split = _f_len(self.degree, self.alg_dim, self.mod_dim)
        return _view(self.coords[:split], self._wedges() + (self.mod_dim,))

    @property
    def g(self) -> tuple:
        """g[w_1]..[w_{p-1}][z][a]."""
        split = _f_len(self.degree, self.alg_dim, self.mod_dim)
        return _view(self.coords[split:], self._wedges() + (self.alg_dim, self.mod_dim))

    def _wedges(self) -> tuple[int, ...]:
        return (wedge_dim(self.alg_dim),) * (self.degree - 1)

    @classmethod
    def zero(cls, degree: int, alg_dim: int, mod_dim: int) -> "Cochain":
        return cls(degree, alg_dim, mod_dim, (_ZERO,) * cochain_dim(degree, alg_dim, mod_dim))

    def _like(self, coords) -> "Cochain":
        return Cochain(self.degree, self.alg_dim, self.mod_dim, coords)

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return self._like(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c) -> "Cochain":
        c = Fraction(c)
        return self._like(tuple(c * x for x in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _compatible(self, other: "Cochain"):
        if (self.degree, self.alg_dim, self.mod_dim) != \
                (other.degree, other.alg_dim, other.mod_dim):
            raise ShapeMismatch("cochains of different shapes")


def flatten(c: Cochain) -> tuple[Fraction, ...]:
    """Coordinates in the standard basis: f block then g block, each in
    row-major order with the V coordinate fastest."""
    return c.coords


def unflatten(degree: int, alg_dim: int, mod_dim: int, coords) -> Cochain:
    return Cochain(degree, alg_dim, mod_dim, tuple(coords))


def cochain_from_matrix(mat: Matrix) -> Cochain:
    """A linear map V <- L given as an m x n matrix, as a degree-1 cochain."""
    return Cochain(1, mat.cols, mat.rows, mat.transpose().entries)


def matrix_from_cochain(c: Cochain) -> Matrix:
    if c.degree != 1:
        raise ShapeMismatch("only degree-1 cochains are plain linear maps")
    return Matrix(c.alg_dim, c.mod_dim, c.coords).transpose()


def cochain2_from_tensors(alg_dim: int, mod_dim: int, binary_vals, ternary_vals) -> Cochain:
    """Degree-2 cochain from full V-valued tensors nu[i][j] and psi[i][j][k]
    (antisymmetric in the leading index pair, each entry of length
    ``mod_dim``; both verified), read from their nonzero cells."""
    n, m = alg_dim, mod_dim
    # raw entries of any type Fraction takes; the antisymmetry check reads
    # numerators and denominators.  An index level of the wrong length is a
    # DimMismatch, a V-valued entry of the wrong length a ShapeMismatch.
    binary_vals = _freeze(binary_vals, n, 2, m, ShapeMismatch)
    ternary_vals = _freeze(ternary_vals, n, 3, m, ShapeMismatch)
    _require_antisymmetric(binary_vals, "binary part not antisymmetric")
    _require_antisymmetric(ternary_vals, "ternary part not antisymmetric")
    w, wedge = wedge_dim(n), _wedge_index(n)
    coords = [_ZERO] * cochain_dim(2, n, m)
    for (i, j, a), x in binary_vals.entries():
        if i < j:
            coords[wedge[i, j] * m + a] = x
    for (i, j, k, a), x in ternary_vals.entries():
        if i < j:
            coords[(w + wedge[i, j] * n + k) * m + a] = x
    return Cochain(2, n, m, tuple(coords))


def tensors_from_cochain2(c: Cochain) -> tuple[Tensor, Tensor]:
    """Inverse of :func:`cochain2_from_tensors`: the full antisymmetric
    tensors, written from the nonzero coordinates."""
    if c.degree != 2:
        raise ShapeMismatch("expected a degree-2 cochain")
    n, m = c.alg_dim, c.mod_dim
    pairs, w = wedge_pairs(n), wedge_dim(n)
    nu, psi = {}, {}
    for pos, x in enumerate(c.coords):
        if x:
            p, a = divmod(pos, m)
            if p < w:
                (i, j), cells, rest = pairs[p], nu, ()
            else:
                p, k = divmod(p - w, n)
                (i, j), cells, rest = pairs[p], psi, (k,)
            cells[(i, j, *rest, a)], cells[(j, i, *rest, a)] = x, -x
    return Tensor.of_indices(nu, n, 2, m), Tensor.of_indices(psi, n, 3, m)


@dataclass(frozen=True)
class RlyCochain:
    """Mapping-cone cochain: a top part plus (from degree 2 on) a tail of
    one degree lower living in the operator complex."""

    top: Cochain
    tail: Cochain | None

    def __post_init__(self):
        if self.top.degree == 1:
            if self.tail is not None:
                raise ShapeMismatch("degree-1 cone cochains carry no tail")
        else:
            if self.tail is None:
                raise ShapeMismatch("degree >= 2 cone cochains need a tail")
            if self.tail.degree != self.top.degree - 1:
                raise ShapeMismatch("tail degree must be top degree - 1")
            if (self.tail.alg_dim, self.tail.mod_dim) != (self.top.alg_dim, self.top.mod_dim):
                raise ShapeMismatch("top and tail over different spaces")

    @property
    def degree(self) -> int:
        return self.top.degree

    @classmethod
    def zero(cls, degree: int, alg_dim: int, mod_dim: int) -> "RlyCochain":
        tail = None if degree == 1 else Cochain.zero(degree - 1, alg_dim, mod_dim)
        return cls(Cochain.zero(degree, alg_dim, mod_dim), tail)

    def __add__(self, other: "RlyCochain") -> "RlyCochain":
        tail = None if self.tail is None else self.tail + other.tail
        return RlyCochain(self.top + other.top, tail)

    def __sub__(self, other: "RlyCochain") -> "RlyCochain":
        return self + other.scale(-1)

    def scale(self, c) -> "RlyCochain":
        return RlyCochain(self.top.scale(c),
                          None if self.tail is None else self.tail.scale(c))

    def is_zero(self) -> bool:
        return self.top.is_zero() and (self.tail is None or self.tail.is_zero())


def rly_dim(degree: int, alg_dim: int, mod_dim: int) -> int:
    base = cochain_dim(degree, alg_dim, mod_dim)
    if degree == 1:
        return base
    return base + cochain_dim(degree - 1, alg_dim, mod_dim)


def flatten_rly(c: RlyCochain) -> tuple[Fraction, ...]:
    return c.top.coords if c.tail is None else c.top.coords + c.tail.coords


def unflatten_rly(degree: int, alg_dim: int, mod_dim: int, coords) -> RlyCochain:
    coords = tuple(coords)
    top_len = cochain_dim(degree, alg_dim, mod_dim)
    if degree == 1 and len(coords) != top_len:
        raise ShapeMismatch("coordinate vector has the wrong length")
    tail = None if degree == 1 else Cochain(degree - 1, alg_dim, mod_dim, coords[top_len:])
    return RlyCochain(Cochain(degree, alg_dim, mod_dim, coords[:top_len]), tail)


# ---------------------------------------------------------------------------
# the Yamaguti coboundary

def _check_cochain(algebra: LyAlgebra, rep: Representation, c: Cochain) -> None:
    n = algebra.dim
    if c.alg_dim != n or rep.algebra_dim != n:
        raise ShapeMismatch("cochain/representation/algebra dimensions disagree")
    if c.mod_dim != rep.module_dim:
        raise ShapeMismatch("cochain module dimension != representation module dimension")


def delta(algebra: LyAlgebra, rep: Representation, c: Cochain) -> Cochain:
    """Coboundary of the Lie-Yamaguti complex with coefficients in rep.

    Degree 1 input (a map h):

        f'(x,y)   = rho(x) h(y) - rho(y) h(x) - h([x,y])
        g'(x,y,z) = D(x,y) h(z) + theta(y,z) h(x) - theta(x,z) h(y) - h({x,y,z})

    Degree p >= 2 input (f, g) with q = p - 1 wedge slots: alternating sums
    in which the last wedge unpacks through rho/theta/brackets, interior
    wedges act through D, and every pair k < l contributes the slot
    substitution {x_k,y_k,x_l} ^ y_l + x_l ^ {x_k,y_k,y_l} at l after
    omitting slot k.  :func:`_ly_matrix` writes these sums out term by term;
    a cochain is mapped by that cached matrix.
    """
    return _apply(algebra, None, rep, "ly", c)


def partial(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
            c: Cochain) -> Cochain:
    """Coboundary of the operator complex: exactly the Yamaguti coboundary of
    the descendant algebra with coefficients in the induced representation."""
    return _apply(algebra, op, rep, "ro", c)


@cache
def _ly_matrix(algebra: LyAlgebra, rep: Representation, degree: int) -> Matrix:
    """Matrix of :func:`delta` at ``degree``, assembled one output slot at a
    time on integers.

    One :class:`IntegerRead` scales the brackets, rho, theta and D by their
    common denominator L; every term of the formula is linear in exactly one
    of them, so the rows accumulate L times the matrix in ints.  Each output
    coordinate is a linear form in the input coordinates: a term M c(slots),
    with M one of rho, theta, D or the identity, adds M's nonzero entries at
    the columns of the input slot, and a general vector in the last argument
    (a bracket) or in a wedge slot (the substitution) expands over its
    nonzero coordinates.  So the cost follows the number of nonzero
    entries, not dim_in x dim_out.  The degree-1 formulas are the sums with
    no wedge slot in the input.
    """
    n, m = algebra.dim, rep.module_dim
    pairs = wedge_pairs(n)
    w = len(pairs)
    read = IntegerRead((algebra.binary,), (algebra.ternary,),
                       rows=(rep.rho, rep.theta, d_table(algebra, rep)))
    b, t = tuple_residual(read.f[0], (n,) * 3), tuple_residual(read.g[0], (n,) * 4)
    # the leaves at each wedge pair (x, y): [x, y], and {x, y, z} for each z
    b_at = [b(*pair).items() for pair in pairs]
    t_at = [[t(*pair, z).items() for z in range(n)] for pair in pairs]
    rho, theta, dd = read.rows
    eye = [((a, 1),) for a in range(m)]
    rows = [{} for _ in range(cochain_dim(degree + 1, n, m))]

    def add(out, coef, op_rows, col):
        """Output coordinates out.. gain coef * op applied to the input
        coordinates col..; op is given by its sparse rows."""
        for a, op_row in enumerate(op_rows):
            row = rows[out + a]
            for a2, v in op_row:
                row[col + a2] = row.get(col + a2, 0) + coef * v

    def add_vec(out, coef, vec, col):
        """The term coef * c(..., vec) with a general vector vec (sparse
        pairs) in the last argument, whose basis values start at col, m
        apart."""
        for s, v in vec:
            add(out, coef * v, eye, col + s * m)

    # q wedge slots in the input; a degree-1 input (q = 0) is a g block alone
    q = degree - 1
    sign_q = 1 if q % 2 == 0 else -1
    alt = [1 if kk % 2 == 0 else -1 for kk in range(q + 1)]
    g_in = 0 if q == 0 else w ** q * m
    g_out = w ** (q + 1) * m
    unit = [((z, 1),) for z in range(n)]
    # nonzero wedge coordinates of {x_k,y_k,x_l} ^ y_l + x_l ^ {x_k,y_k,y_l}
    subst = [[_wedge(n, (tk[xl], unit[yl]), (unit[xl], tk[yl])) for (xl, yl) in pairs]
             for tk in t_at]

    def flat(slots):
        idx = 0
        for s in slots:
            idx = idx * w + s
        return idx

    def f_col(slots):
        return flat(slots) * m

    def g_col(slots, z):
        return g_in + (flat(slots) * n + z) * m

    for idx, ks in enumerate(product(range(w), repeat=q + 1)):
        xs = [pairs[k] for k in ks]
        head = ks[:q]
        xq, yq = xs[q]
        rest = [ks[:kk] + ks[kk + 1:] for kk in range(q + 1)]
        # omit slot kk, put the substitution of the pair (kk, ll) at ll
        substituted = [
            (-alt[kk] * v, rest[kk][:ll - 1] + (s,) + rest[kk][ll:])
            for kk in range(q + 1) for ll in range(kk + 1, q + 1)
            for s, v in subst[ks[kk]][ks[ll]]]

        out = idx * m
        add(out, sign_q, rho[xq], g_col(head, yq))
        add(out, -sign_q, rho[yq], g_col(head, xq))
        add_vec(out, -sign_q, b_at[ks[q]], g_col(head, 0))
        for kk in range(q):
            add(out, alt[kk], dd[xs[kk][0]][xs[kk][1]], f_col(rest[kk]))
        for coef, slots in substituted:
            add(out, coef, eye, f_col(slots))

        for z in range(n):
            out = g_out + (idx * n + z) * m
            add(out, sign_q, theta[yq][z], g_col(head, xq))
            add(out, -sign_q, theta[xq][z], g_col(head, yq))
            for kk in range(q + 1):
                add(out, alt[kk], dd[xs[kk][0]][xs[kk][1]], g_col(rest[kk], z))
            for coef, slots in substituted:
                add(out, coef, eye, g_col(slots, z))
            for kk in range(q + 1):
                add_vec(out, -alt[kk], t_at[ks[kk]][z], g_col(rest[kk], 0))
    return Matrix.from_integer_rows(rows, cochain_dim(degree, n, m), read.den)


# ---------------------------------------------------------------------------
# the comparison map phi

@cache
def phi_matrix(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
               degree: int) -> Matrix:
    """Matrix of the degree-preserving comparison map into the operator
    complex: a cochain c with k vector arguments goes to

        c(Tx..) - T_V ((k - 1) w c(Tx..) + sum_s c(Tx.. x_s ..Tx)),

    k = 1 at degree 1 (h -> h o T - T_V o h), and for degree p >= 2 with q
    = p - 1 wedge slots k = 2q in the f block and k = 2q + 1 in the g block.

    Each block is :func:`lyreynolds.algebra.twist` of the identity matrix
    of its slot indices, keyed row * size + column, with the column digits
    moved: a wedge slot moves e_i ^ e_j to L^2 Te_i ^ Te_j (:func:`_wedge`)
    with the left map L (e_i ^ Te_j + Te_i ^ e_j), and the L slot of the g
    block moves e_z to L Te_z with the identity left.  The module index
    stays out of the twisted tables: L^2 A sits on the diagonal of each
    m x m block and T_V o inner, inner = L^2 B + (k - 1) L w A, fills it
    through the rows of L T_V.  One :class:`IntegerRead` scales T, T_V and
    w by their common denominator L, so a block accumulates L^(k+2) times
    its entries in ints; the f block is multiplied by L once more, so both
    reach L^(2q+3)."""
    if degree < 1:
        raise DegreeOutOfRange(f"degree {degree} < 1")
    check_inputs(algebra, op, rep)
    if rep.module_op is None:
        raise InvalidInput("phi needs a module operator")
    n, m = algebra.dim, rep.module_dim
    read = IntegerRead(Tt=(op.matrix, rep.module_op), weight=op.weight)
    s = read.den
    # t_cols[z]: the nonzero coordinates of L T e_z; tv: the rows of L T_V
    t_cols, tv = read.t_col[0], read.t_row[1]
    pairs = wedge_pairs(n)
    unit = [((z, 1),) for z in range(n)]
    wedge = [_wedge(n, (t_cols[i], t_cols[j])) for i, j in pairs]
    mixed = [_wedge(n, (unit[i], t_cols[j]), (t_cols[i], unit[j])) for i, j in pairs]
    q, w = degree - 1, len(pairs)
    f_slots = [(1 + slot, (wedge,), mixed) for slot in range(q)]
    rows = [defaultdict(int) for _ in range(cochain_dim(degree, n, m))]
    # (first coordinate, slot bases, slots, factor up to L^(2q+3)); degree 1
    # has no f block
    blocks = [(0, (w,) * q, f_slots, s)] if q else []
    blocks.append((_f_len(degree, n, m), (w,) * q + (n,),
                   f_slots + [(q + 1, (t_cols,), None)], 1))
    for off, bases, slots, factor in blocks:
        size = prod(bases)
        a, b = twist([{r * size + r: 1 for r in range(size)}], (size,) + bases, slots)
        lift, k = factor * s * s, q + len(bases)
        inner, = series_lincomb((lift, b), (factor * (k - 1) * read.lw, a))
        for key, v in a[0].items():
            r, c = divmod(key, size)
            for x in range(m):
                rows[off + r * m + x][off + c * m + x] += lift * v
        for key, u in inner.items():
            r, c = divmod(key, size)
            for x in range(m):
                row = rows[off + r * m + x]
                for x2, t in tv[x]:
                    row[off + c * m + x2] -= t * u
    return Matrix.from_integer_rows(rows, cochain_dim(degree, n, m), s ** (2 * q + 3))


def phi(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
        c: Cochain) -> Cochain:
    """Apply the comparison map; degree-preserving."""
    _check_kind("ly", c)
    if c.alg_dim != algebra.dim or c.mod_dim != rep.module_dim:
        raise ShapeMismatch("cochain does not match algebra/representation")
    return c._like(phi_matrix(algebra, op, rep, c.degree).apply(c.coords))


def d_rly(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
          c: RlyCochain) -> RlyCochain:
    """Mapping-cone coboundary:

        degree 1:  top -> (delta top, -phi top)
        degree p:  (top, tail) -> (delta top, -partial tail - phi top)
    """
    return _apply(algebra, op, rep, "rly", c)


# ---------------------------------------------------------------------------
# differentials as matrices, cohomology dimensions

def differential_matrix(algebra: LyAlgebra, op: ReynoldsOperator,
                        rep: Representation, which: str, degree: int) -> Matrix:
    """Matrix of the degree-p coboundary of the chosen complex, columns
    indexed by the standard degree-p basis, rows by the degree-(p+1) basis.
    The cone's blocks [[delta, 0], [-phi, -partial]] are stacked by row and
    column offsets, on their integer forms over one denominator."""
    if which not in COMPLEXES:
        raise InvalidInput(f"unknown complex {which!r}; pick one of {COMPLEXES}")
    if degree < 1:
        raise DegreeOutOfRange(f"degree {degree} < 1")
    # the ly complex does not read T
    check_inputs(algebra, None if which == "ly" else op, rep)
    if which == "ly":
        return _ly_matrix(algebra, rep, degree)
    if which == "ro":
        # induced_rep verifies the descendant pair itself
        return _ly_matrix(descendant_algebra(algebra, op),
                          induced_rep(algebra, op, rep), degree)
    dlt = differential_matrix(algebra, op, rep, "ly", degree)
    ph = phi_matrix(algebra, op, rep, degree)
    prt = None if degree == 1 else differential_matrix(algebra, op, rep, "ro", degree - 1)
    den = lcm(*(mat.integer[0] for mat in (dlt, ph, prt) if mat is not None))

    def block(mat, sign, off):
        """The integer rows of sign * mat over den, shifted by off columns."""
        d, rows = mat.integer
        k = sign * (den // d)
        return [tuple((off + j, k * x) for j, x in row) for row in rows]

    below, cols = block(ph, -1, 0), dlt.cols
    if prt is not None:
        below = [left + right for left, right in zip(below, block(prt, -1, cols))]
        cols += prt.cols
    return Matrix._of_integer(dlt.rows + ph.rows, cols, den, tuple(block(dlt, 1, 0) + below))


def space_dim(algebra: LyAlgebra, rep: Representation, which: str, degree: int) -> int:
    if which == "rly":
        return rly_dim(degree, algebra.dim, rep.module_dim)
    return cochain_dim(degree, algebra.dim, rep.module_dim)


def cohomology_dims(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                    which: str, max_degree: int = 3) -> ComplexReport:
    """Betti numbers through max_degree.

    betti(p) = dim ker(d at p) - rank(d at p-1); degree 1 has no incoming
    differential, so betti(1) = dim ker(d at 1).  Each differential is
    eliminated once and its rank reused at the next degree.  d(p) . d(p-1)
    = 0 is re-verified by an integer sparse product, so a broken complex
    cannot slip through.
    """
    if max_degree < 1:
        raise DegreeOutOfRange("max_degree must be >= 1")
    rows = []
    prev = None
    prev_rank = 0
    for p in range(1, max_degree + 1):
        out = differential_matrix(algebra, op, rep, which, p)
        if prev is not None:
            require_complex(out, prev)
        dim_p = space_dim(algebra, rep, which, p)
        out_rank = rank(out)
        dim_ker = dim_p - out_rank
        rows.append(DegreeRow(p, dim_p, dim_ker, prev_rank, dim_ker - prev_rank))
        prev, prev_rank = out, out_rank
    return ComplexReport(which, tuple(rows))


# ---------------------------------------------------------------------------
# membership tests

def _check_kind(which: str, *cochains) -> None:
    """``which`` names a complex and each cochain is of its kind: an
    RlyCochain for ``rly``, a Cochain for ``ly`` and ``ro``."""
    if which not in COMPLEXES:
        raise InvalidInput(f"unknown complex {which!r}")
    kind = RlyCochain if which == "rly" else Cochain
    for c in cochains:
        if not isinstance(c, kind):
            raise ShapeMismatch(
                f"the {which} complex takes a {kind.__name__}, not a {type(c).__name__}")


def _flatten_any(which: str, c) -> tuple:
    return flatten_rly(c) if which == "rly" else flatten(c)


def _unflatten_any(which: str, degree: int, alg_dim: int, mod_dim: int, coords):
    return (unflatten_rly if which == "rly" else unflatten)(degree, alg_dim, mod_dim, coords)


def _apply(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation, which: str, c):
    """The coboundary of the ``which`` complex applied to c: the cached
    matrix of its degree times c's coordinates.  The cone is applied block
    by block, (top, tail) -> (delta top, -partial tail - phi top), with no
    stacked matrix."""
    _check_kind(which, c)
    n, m, p = algebra.dim, rep.module_dim, c.degree
    if which != "rly":
        _check_cochain(algebra, rep, c)
        mat = differential_matrix(algebra, op, rep, which, p)
        return Cochain(p + 1, n, m, mat.apply(c.coords))
    top, tail = c.top, c.tail
    _check_cochain(algebra, rep, top)
    check_inputs(algebra, op, rep)
    image = differential_matrix(algebra, op, rep, "ly", p).apply(top.coords)
    below = phi_matrix(algebra, op, rep, p).apply(top.coords)
    if tail is not None:
        partial = differential_matrix(algebra, op, rep, "ro", p - 1).apply(tail.coords)
        below = [x + y if y else x for x, y in zip(below, partial)]
    # zeros, the common case, are kept as they are
    return RlyCochain(Cochain(p + 1, n, m, image),
                      Cochain(p, n, m, [-x if x else x for x in below]))


def is_cocycle(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
               which: str, c) -> bool:
    """Does the complex's coboundary kill c?"""
    return _apply(algebra, op, rep, which, c).is_zero()


def coboundary_preimage(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                        which: str, c):
    """A degree-(p-1) cochain x with d(x) = c, or None; needs degree >= 2."""
    _check_kind(which, c)
    degree = c.degree
    if degree < 2:
        raise DegreeOutOfRange("nothing maps into degree 1")
    n, m = algebra.dim, rep.module_dim
    target = _flatten_any(which, c)
    mat = differential_matrix(algebra, op, rep, which, degree - 1)
    sol = solve(mat, target)
    return None if sol is None else _unflatten_any(which, degree - 1, n, m, sol)


def is_coboundary(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                  which: str, c) -> bool:
    """Membership in the image of the incoming differential.  At degree 1
    the image is the zero space, so only the zero cochain bounds."""
    _check_kind(which, c)
    if c.degree < 2:
        return c.is_zero()
    return coboundary_preimage(algebra, op, rep, which, c) is not None


def cohomologous(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                 which: str, c, c_other) -> bool:
    _check_kind(which, c, c_other)
    return is_coboundary(algebra, op, rep, which, c - c_other)


def cocycle_space(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                  which: str, degree: int):
    """Kernel basis of the degree-p differential, as flat coordinate vectors."""
    mat = differential_matrix(algebra, op, rep, which, degree)
    return kernel_basis(mat)
