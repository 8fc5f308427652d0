"""The three cochain complexes of a Reynolds Lie-Yamaguti algebra.

Degree-1 cochains are linear maps L -> V.  A degree-p cochain for p >= 2 is
a pair (f, g) of multilinear maps

    f : (wedge^2 L)^{x(p-1)} -> V          g : (wedge^2 L)^{x(p-1)} x L -> V

stored densely over the wedge basis {e_i ^ e_j : i < j, lexicographic}.

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
membership tests reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product

from .algebra import LyAlgebra, _antisymmetry_failure
from .errors import (
    DegreeOutOfRange,
    InvalidInput,
    InvalidStructure,
    ShapeMismatch,
)
from .linalg import (
    Matrix,
    Vector,
    block_diag,
    kernel_basis,
    kron,
    quotient_dim,
    rank,
    solve,
    unit_vector,
    vec_add,
    vec_scale,
    zero_vector,
)
from .reporting import ComplexReport, DegreeRow
from .representation import (
    Representation,
    _require_reynolds_rep,
    _require_valid_rep,
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


def wedge_vector(n: int, u, v) -> Vector:
    """Coordinates of u ^ v over the wedge basis."""
    return tuple(u[i] * v[j] - u[j] * v[i] for (i, j) in wedge_pairs(n))


# ---------------------------------------------------------------------------
# dense nested-tuple tensors

def _tensor_zero(shape: tuple[int, ...]):
    if len(shape) == 1:
        return zero_vector(shape[0])
    return tuple(_tensor_zero(shape[1:]) for _ in range(shape[0]))


def _tensor_map2(fn, a, b, depth: int):
    if depth == 0:
        return tuple(fn(x, y) for x, y in zip(a, b))
    return tuple(_tensor_map2(fn, x, y, depth - 1) for x, y in zip(a, b))


def _tensor_scale(c: Fraction, a, depth: int):
    if depth == 0:
        return tuple(c * x for x in a)
    return tuple(_tensor_scale(c, x, depth - 1) for x in a)


def _tensor_flat(a, depth: int):
    if depth == 0:
        yield from a
        return
    for x in a:
        yield from _tensor_flat(x, depth - 1)


def _tensor_build(shape: tuple[int, ...], it):
    if len(shape) == 1:
        return tuple(next(it) for _ in range(shape[0]))
    return tuple(_tensor_build(shape[1:], it) for _ in range(shape[0]))


def _check_shape(a, shape: tuple[int, ...], what: str):
    if len(a) != shape[0]:
        raise ShapeMismatch(f"{what}: expected axis of length {shape[0]}, got {len(a)}")
    if len(shape) > 1:
        for x in a:
            _check_shape(x, shape[1:], what)


def _eval_slots(tensor, slots, leaf_len: int) -> Vector:
    """Multilinear evaluation: contract nested tensor against one coefficient
    vector per slot, returning the leaf vector."""
    out = [Fraction(0)] * leaf_len

    def rec(node, si: int, coeff: Fraction):
        if si == len(slots):
            for a, v in enumerate(node):
                if v:
                    out[a] += coeff * v
            return
        for idx, c in enumerate(slots[si]):
            if c:
                rec(node[idx], si + 1, coeff * c)

    rec(tensor, 0, Fraction(1))
    return tuple(out)


# ---------------------------------------------------------------------------
# cochains

def _f_shape(degree: int, n: int, m: int) -> tuple[int, ...]:
    return (wedge_dim(n),) * (degree - 1) + (m,)


def _g_shape(degree: int, n: int, m: int) -> tuple[int, ...]:
    if degree == 1:
        return (n, m)
    return (wedge_dim(n),) * (degree - 1) + (n, m)


@dataclass(frozen=True)
class Cochain:
    """One element of the degree-p cochain space over (L, V).

    For p = 1 only ``g`` is present (the map L -> V, indexed g[z][a]).
    For p >= 2, ``f`` has p-1 wedge indices and ``g`` has p-1 wedge indices
    plus one algebra index; the last axis is always the V coordinate.
    """

    degree: int
    alg_dim: int
    mod_dim: int
    f: tuple | None
    g: tuple

    def __post_init__(self):
        if self.degree < 1:
            raise DegreeOutOfRange(f"degree {self.degree} < 1")
        if self.degree == 1:
            if self.f is not None:
                raise ShapeMismatch("degree-1 cochains carry no f part")
        else:
            if self.f is None:
                raise ShapeMismatch("degree >= 2 cochains need an f part")
            _check_shape(self.f, _f_shape(self.degree, self.alg_dim, self.mod_dim), "f")
        _check_shape(self.g, _g_shape(self.degree, self.alg_dim, self.mod_dim), "g")

    @classmethod
    def zero(cls, degree: int, alg_dim: int, mod_dim: int) -> "Cochain":
        f = None if degree == 1 else _tensor_zero(_f_shape(degree, alg_dim, mod_dim))
        return cls(degree, alg_dim, mod_dim, f, _tensor_zero(_g_shape(degree, alg_dim, mod_dim)))

    def _like(self, f, g) -> "Cochain":
        return Cochain(self.degree, self.alg_dim, self.mod_dim, f, g)

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        d = self.degree - 1
        f = None if self.f is None else _tensor_map2(lambda x, y: x + y, self.f, other.f, d)
        g = _tensor_map2(lambda x, y: x + y, self.g, other.g, 1 if self.degree == 1 else d + 1)
        return self._like(f, g)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c) -> "Cochain":
        c = Fraction(c)
        d = self.degree - 1
        f = None if self.f is None else _tensor_scale(c, self.f, d)
        g = _tensor_scale(c, self.g, 1 if self.degree == 1 else d + 1)
        return self._like(f, g)

    def is_zero(self) -> bool:
        return all(x == 0 for x in flatten(self))

    def _compatible(self, other: "Cochain"):
        if (self.degree, self.alg_dim, self.mod_dim) != \
                (other.degree, other.alg_dim, other.mod_dim):
            raise ShapeMismatch("cochains of different shapes")


def cochain_dim(degree: int, alg_dim: int, mod_dim: int) -> int:
    if degree < 1:
        raise DegreeOutOfRange(f"degree {degree} < 1")
    if degree == 1:
        return alg_dim * mod_dim
    blocks = wedge_dim(alg_dim) ** (degree - 1) * mod_dim
    return blocks + blocks * alg_dim


def flatten(c: Cochain) -> tuple[Fraction, ...]:
    """Coordinates in the standard basis: f block then g block, each in
    row-major order with the V coordinate fastest."""
    if c.degree == 1:
        return tuple(_tensor_flat(c.g, 1))
    d = c.degree - 1
    return tuple(_tensor_flat(c.f, d)) + tuple(_tensor_flat(c.g, d + 1))


def unflatten(degree: int, alg_dim: int, mod_dim: int, coords) -> Cochain:
    coords = list(coords)
    if len(coords) != cochain_dim(degree, alg_dim, mod_dim):
        raise ShapeMismatch("coordinate vector has the wrong length")
    it = iter(Fraction(x) for x in coords)
    if degree == 1:
        return Cochain(degree, alg_dim, mod_dim, None,
                       _tensor_build(_g_shape(1, alg_dim, mod_dim), it))
    f = _tensor_build(_f_shape(degree, alg_dim, mod_dim), it)
    g = _tensor_build(_g_shape(degree, alg_dim, mod_dim), it)
    return Cochain(degree, alg_dim, mod_dim, f, g)


def cochain_from_matrix(mat: Matrix) -> Cochain:
    """A linear map V <- L given as an m x n matrix, as a degree-1 cochain."""
    g = tuple(mat.column(z) for z in range(mat.cols))
    return Cochain(1, mat.cols, mat.rows, None, g)


def matrix_from_cochain(c: Cochain) -> Matrix:
    if c.degree != 1:
        raise ShapeMismatch("only degree-1 cochains are plain linear maps")
    return Matrix.from_columns(list(c.g), c.mod_dim)


def cochain2_from_tensors(alg_dim: int, mod_dim: int, binary_vals, ternary_vals) -> Cochain:
    """Degree-2 cochain from full V-valued tensors nu[i][j] and psi[i][j][k]
    (antisymmetric in the leading index pair; verified)."""
    n, m = alg_dim, mod_dim
    bad = _antisymmetry_failure(binary_vals, n, 2)
    if bad is not None:
        i, j = bad
        raise InvalidStructure(f"binary part not antisymmetric at ({i},{j})")
    bad = _antisymmetry_failure(ternary_vals, n, 3)
    if bad is not None:
        i, j, k = bad
        raise InvalidStructure(f"ternary part not antisymmetric at ({i},{j},{k})")
    f = tuple(tuple(Fraction(x) for x in binary_vals[i][j]) for (i, j) in wedge_pairs(n))
    g = tuple(
        tuple(tuple(Fraction(x) for x in ternary_vals[i][j][k]) for k in range(n))
        for (i, j) in wedge_pairs(n))
    return Cochain(2, n, m, f, g)


def tensors_from_cochain2(c: Cochain):
    """Inverse of :func:`cochain2_from_tensors`: full antisymmetric tensors."""
    if c.degree != 2:
        raise ShapeMismatch("expected a degree-2 cochain")
    n, m = c.alg_dim, c.mod_dim
    idx = _wedge_index(n)
    zero = zero_vector(m)

    def nu(i, j):
        if i == j:
            return zero
        return c.f[idx[(i, j)]] if i < j else vec_scale(-1, c.f[idx[(j, i)]])

    def psi(i, j, k):
        if i == j:
            return zero
        return c.g[idx[(i, j)]][k] if i < j else vec_scale(-1, c.g[idx[(j, i)]][k])

    binary_vals = tuple(tuple(nu(i, j) for j in range(n)) for i in range(n))
    ternary_vals = tuple(
        tuple(tuple(psi(i, j, k) for k in range(n)) for j in range(n)) for i in range(n))
    return binary_vals, ternary_vals


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
    out = flatten(c.top)
    if c.tail is not None:
        out = out + flatten(c.tail)
    return out


def unflatten_rly(degree: int, alg_dim: int, mod_dim: int, coords) -> RlyCochain:
    coords = list(coords)
    top_len = cochain_dim(degree, alg_dim, mod_dim)
    top = unflatten(degree, alg_dim, mod_dim, coords[:top_len])
    if degree == 1:
        if len(coords) != top_len:
            raise ShapeMismatch("coordinate vector has the wrong length")
        return RlyCochain(top, None)
    tail = unflatten(degree - 1, alg_dim, mod_dim, coords[top_len:])
    return RlyCochain(top, tail)


# ---------------------------------------------------------------------------
# the Yamaguti coboundary

def delta(algebra: LyAlgebra, rep: Representation, c: Cochain) -> Cochain:
    """Coboundary of the Lie-Yamaguti complex with coefficients in rep.

    Degree 1 input (a map h):

        f'(x,y)   = rho(x) h(y) - rho(y) h(x) - h([x,y])
        g'(x,y,z) = D(x,y) h(z) + theta(y,z) h(x) - theta(x,z) h(y) - h({x,y,z})

    Degree p >= 2 input (f, g) with q = p - 1 wedge slots: alternating sums
    in which the last wedge unpacks through rho/theta/brackets, interior
    wedges act through D, and every pair k < l contributes the slot
    substitution {x_k,y_k,x_l} ^ y_l + x_l ^ {x_k,y_k,y_l} at l after
    omitting slot k.  All evaluation is explicit index bookkeeping over the
    wedge basis; inputs with a repeated vector evaluate to zero by the
    antisymmetric expansion rules.
    """
    n, m = algebra.dim, rep.module_dim
    if c.alg_dim != n or rep.algebra_dim != n:
        raise ShapeMismatch("cochain/representation/algebra dimensions disagree")
    if c.mod_dim != m:
        raise ShapeMismatch("cochain module dimension != representation module dimension")
    _require_valid_rep(algebra, rep)

    pairs = wedge_pairs(n)
    w = len(pairs)
    dd = d_table(algebra, rep)
    rho, theta = rep.rho, rep.theta
    b, t = algebra.binary, algebra.ternary

    def h_of(vec):  # degree-1 cochain applied to a general element
        acc = zero_vector(m)
        for k, coef in enumerate(vec):
            if coef:
                acc = vec_add(acc, vec_scale(coef, c.g[k]))
        return acc

    if c.degree == 1:
        f_out = []
        for (i, j) in pairs:
            val = vec_add(rho[i].apply(c.g[j]),
                          vec_scale(-1, rho[j].apply(c.g[i])))
            val = vec_add(val, vec_scale(-1, h_of(b[i][j])))
            f_out.append(val)
        g_out = []
        for (i, j) in pairs:
            row = []
            for z in range(n):
                val = dd[i][j].apply(c.g[z])
                val = vec_add(val, theta[j][z].apply(c.g[i]))
                val = vec_add(val, vec_scale(-1, theta[i][z].apply(c.g[j])))
                val = vec_add(val, vec_scale(-1, h_of(t[i][j][z])))
                row.append(val)
            g_out.append(tuple(row))
        return Cochain(2, n, m, tuple(f_out), tuple(g_out))

    q = c.degree - 1  # wedge slots of the input
    sign_q = Fraction(-1) ** q
    unit_w = [unit_vector(w, k) for k in range(w)]
    unit_l = [unit_vector(n, z) for z in range(n)]

    def eval_f(slots):
        return _eval_slots(c.f, slots, m)

    def eval_g(slots, zvec):
        return _eval_slots(c.g, list(slots) + [zvec], m)

    def substituted(ks, kk, ll):
        """Slot list for the pair-substitution term: omit slot kk, replace
        the slot of ll by {x_k,y_k,x_l} ^ y_l + x_l ^ {x_k,y_k,y_l}."""
        xk, yk = pairs[ks[kk]]
        xl, yl = pairs[ks[ll]]
        s = vec_add(wedge_vector(n, t[xk][yk][xl], unit_l[yl]),
                    wedge_vector(n, unit_l[xl], t[xk][yk][yl]))
        slots = []
        for pos in range(len(ks)):
            if pos == kk:
                continue
            slots.append(s if pos == ll else unit_w[ks[pos]])
        return slots

    f_shape = _f_shape(c.degree + 1, n, m)
    g_shape = _g_shape(c.degree + 1, n, m)
    f_vals = []
    g_vals = []
    for ks in product(range(w), repeat=q + 1):
        xs = [pairs[k] for k in ks]
        head = [unit_w[k] for k in ks[:q]]
        xq, yq = xs[q]

        acc = rho[xq].apply(eval_g(head, unit_l[yq]))
        acc = vec_add(acc, vec_scale(-1, rho[yq].apply(eval_g(head, unit_l[xq]))))
        acc = vec_add(acc, vec_scale(-1, eval_g(head, b[xq][yq])))
        acc = vec_scale(sign_q, acc)
        for kk in range(q):
            rest = [unit_w[ks[pos]] for pos in range(q + 1) if pos != kk]
            term = dd[xs[kk][0]][xs[kk][1]].apply(eval_f(rest))
            acc = vec_add(acc, term if kk % 2 == 0 else vec_scale(-1, term))
        for kk in range(q + 1):
            for ll in range(kk + 1, q + 1):
                term = eval_f(substituted(ks, kk, ll))
                acc = vec_add(acc, vec_scale(-1, term) if kk % 2 == 0 else term)
        f_vals.append(acc)

        for z in range(n):
            acc = theta[yq][z].apply(eval_g(head, unit_l[xq]))
            acc = vec_add(acc, vec_scale(-1, theta[xq][z].apply(eval_g(head, unit_l[yq]))))
            acc = vec_scale(sign_q, acc)
            for kk in range(q + 1):
                rest = [unit_w[ks[pos]] for pos in range(q + 1) if pos != kk]
                term = dd[xs[kk][0]][xs[kk][1]].apply(eval_g(rest, unit_l[z]))
                acc = vec_add(acc, term if kk % 2 == 0 else vec_scale(-1, term))
            for kk in range(q + 1):
                for ll in range(kk + 1, q + 1):
                    term = eval_g(substituted(ks, kk, ll), unit_l[z])
                    acc = vec_add(acc, vec_scale(-1, term) if kk % 2 == 0 else term)
            for kk in range(q + 1):
                rest = [unit_w[ks[pos]] for pos in range(q + 1) if pos != kk]
                term = eval_g(rest, t[xs[kk][0]][xs[kk][1]][z])
                acc = vec_add(acc, vec_scale(-1, term) if kk % 2 == 0 else term)
            g_vals.append(acc)

    f_out = _tensor_build(f_shape, iter(x for vec in f_vals for x in vec))
    g_out = _tensor_build(g_shape, iter(x for vec in g_vals for x in vec))
    return Cochain(c.degree + 1, n, m, f_out, g_out)


def partial(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
            c: Cochain) -> Cochain:
    """Coboundary of the operator complex: exactly the Yamaguti coboundary of
    the descendant algebra with coefficients in the induced representation."""
    _require_reynolds_rep(algebra, op, rep)
    return delta(descendant_algebra(algebra, op), induced_rep(algebra, op, rep), c)


# ---------------------------------------------------------------------------
# the comparison map phi

def _wedge_square_matrix(n: int, p: Matrix) -> Matrix:
    """Matrix on wedge^2 of x ^ y -> P x ^ P y."""
    cols = [wedge_vector(n, p.column(i), p.column(j)) for (i, j) in wedge_pairs(n)]
    return Matrix.from_columns(cols, wedge_dim(n))


def _wedge_mixed_matrix(n: int, p: Matrix, q: Matrix) -> Matrix:
    """Matrix on wedge^2 of x ^ y -> P x ^ Q y + Q x ^ P y."""
    cols = [
        vec_add(wedge_vector(n, p.column(i), q.column(j)),
                wedge_vector(n, q.column(i), p.column(j)))
        for (i, j) in wedge_pairs(n)
    ]
    return Matrix.from_columns(cols, wedge_dim(n))


@cache
def phi_matrix(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
               degree: int) -> Matrix:
    """Matrix of the degree-preserving comparison map into the operator
    complex.

    Degree 1: h -> h o T - T_V o h.  Degree p >= 2 with q = p - 1 wedge
    slots: apply T to every vector argument, minus T_V applied to (the sum
    over single slots left untransformed, plus (2q-1) w times the all-T term
    for the f part and 2q w times it for the g part)."""
    if degree < 1:
        raise DegreeOutOfRange(f"degree {degree} < 1")
    if rep.module_op is None:
        raise InvalidInput("phi needs a module operator")
    n, m = algebra.dim, rep.module_dim
    tmat = op.matrix
    tv = rep.module_op
    weight = op.weight
    im = Matrix.identity(m)
    if degree == 1:
        return kron(tmat.transpose(), im) - kron(Matrix.identity(n), tv)

    q = degree - 1
    a_w = _wedge_square_matrix(n, tmat).transpose()
    b_w = _wedge_mixed_matrix(n, Matrix.identity(n), tmat).transpose()

    def kron_chain(mats):
        acc = mats[0]
        for mm in mats[1:]:
            acc = kron(acc, mm)
        return acc

    all_t_f = kron_chain([a_w] * q)
    mixed_f = [kron_chain([b_w if t == s else a_w for s in range(q)]) for t in range(q)]
    post_f = kron(Matrix.identity(all_t_f.rows), tv)
    inner_f = mixed_f[0]
    for mm in mixed_f[1:]:
        inner_f = inner_f + mm
    inner_f = inner_f + all_t_f.scale((2 * q - 1) * weight)
    f_block = kron(all_t_f, im) - post_f @ kron(inner_f, im)

    tt = tmat.transpose()
    all_t_g = kron(all_t_f, tt)
    mixed_g = [kron(mixed_f[t], tt) for t in range(q)]
    id_slot_g = kron(all_t_f, Matrix.identity(n))
    inner_g = id_slot_g
    for mm in mixed_g:
        inner_g = inner_g + mm
    inner_g = inner_g + all_t_g.scale(2 * q * weight)
    post_g = kron(Matrix.identity(all_t_g.rows), tv)
    g_block = kron(all_t_g, im) - post_g @ kron(inner_g, im)

    return block_diag([f_block, g_block])


def phi(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
        c: Cochain) -> Cochain:
    """Apply the comparison map; degree-preserving."""
    if c.alg_dim != algebra.dim or c.mod_dim != rep.module_dim:
        raise ShapeMismatch("cochain does not match algebra/representation")
    mat = phi_matrix(algebra, op, rep, c.degree)
    return unflatten(c.degree, c.alg_dim, c.mod_dim, mat.apply(flatten(c)))


def d_rly(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
          c: RlyCochain) -> RlyCochain:
    """Mapping-cone coboundary:

        degree 1:  top -> (delta top, -phi top)
        degree p:  (top, tail) -> (delta top, -partial tail - phi top)
    """
    top_out = delta(algebra, rep, c.top)
    tail_out = phi(algebra, op, rep, c.top).scale(-1)
    if c.tail is not None:
        tail_out = tail_out - partial(algebra, op, rep, c.tail)
    return RlyCochain(top_out, tail_out)


# ---------------------------------------------------------------------------
# differentials as matrices, cohomology dimensions

def _columns_by_units(apply_fn, degree: int, n: int, m: int) -> Matrix:
    dim_in = cochain_dim(degree, n, m)
    dim_out = cochain_dim(degree + 1, n, m)
    cols = []
    for pos in range(dim_in):
        unit = unflatten(degree, n, m, unit_vector(dim_in, pos))
        cols.append(flatten(apply_fn(unit)))
    return Matrix.from_columns(cols, dim_out)


@cache
def _ly_matrix(algebra: LyAlgebra, rep: Representation, degree: int) -> Matrix:
    return _columns_by_units(lambda c: delta(algebra, rep, c),
                             degree, algebra.dim, rep.module_dim)


def differential_matrix(algebra: LyAlgebra, op: ReynoldsOperator,
                        rep: Representation, which: str, degree: int) -> Matrix:
    """Matrix of the degree-p coboundary of the chosen complex, columns
    indexed by the standard degree-p basis, rows by the degree-(p+1) basis."""
    if which not in COMPLEXES:
        raise InvalidInput(f"unknown complex {which!r}; pick one of {COMPLEXES}")
    if degree < 1:
        raise DegreeOutOfRange(f"degree {degree} < 1")
    n, m = algebra.dim, rep.module_dim
    if which == "ly":
        return _ly_matrix(algebra, rep, degree)
    if which == "ro":
        _require_reynolds_rep(algebra, op, rep)
        return _ly_matrix(descendant_algebra(algebra, op),
                          induced_rep(algebra, op, rep), degree)
    dlt = differential_matrix(algebra, op, rep, "ly", degree)
    ph = phi_matrix(algebra, op, rep, degree)
    if degree == 1:
        rows = dlt.to_rows() + ph.scale(-1).to_rows()
        return Matrix.from_rows(rows, dlt.cols)
    prt = differential_matrix(algebra, op, rep, "ro", degree - 1)
    top_dim = cochain_dim(degree, n, m)
    tail_dim = cochain_dim(degree - 1, n, m)
    out_top = cochain_dim(degree + 1, n, m)
    out_tail = cochain_dim(degree, n, m)
    rows = []
    for i in range(out_top):
        rows.append(list(dlt.row(i)) + [Fraction(0)] * tail_dim)
    for i in range(out_tail):
        rows.append([-x for x in ph.row(i)] + [-x for x in prt.row(i)])
    return Matrix.from_rows(rows, top_dim + tail_dim)


def space_dim(algebra: LyAlgebra, rep: Representation, which: str, degree: int) -> int:
    if which == "rly":
        return rly_dim(degree, algebra.dim, rep.module_dim)
    return cochain_dim(degree, algebra.dim, rep.module_dim)


def cohomology_dims(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                    which: str, max_degree: int = 3) -> ComplexReport:
    """Betti numbers through max_degree.

    betti(p) = dim ker(d at p) - rank(d at p-1); degree 1 has no incoming
    differential, so betti(1) = dim ker(d at 1).  The quotient computation
    re-verifies d(p) . d(p-1) = 0, so a broken complex cannot slip through.
    """
    if max_degree < 1:
        raise DegreeOutOfRange("max_degree must be >= 1")
    rows = []
    prev = None
    for p in range(1, max_degree + 1):
        out = differential_matrix(algebra, op, rep, which, p)
        dim_p = space_dim(algebra, rep, which, p)
        incoming = prev if prev is not None else Matrix.zero(dim_p, 0)
        betti = quotient_dim(out, incoming)
        dim_ker = dim_p - rank(out)
        dim_im = rank(incoming)
        rows.append(DegreeRow(p, dim_p, dim_ker, dim_im, betti))
        prev = out
    return ComplexReport(which, tuple(rows))


# ---------------------------------------------------------------------------
# membership tests

def _flatten_any(which: str, c) -> tuple:
    return flatten_rly(c) if which == "rly" else flatten(c)


def _apply_any(algebra, op, rep, which, c):
    if which == "ly":
        return delta(algebra, rep, c)
    if which == "ro":
        return partial(algebra, op, rep, c)
    return d_rly(algebra, op, rep, c)


def is_cocycle(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
               which: str, c) -> bool:
    """Does the complex's coboundary kill c?"""
    if which not in COMPLEXES:
        raise InvalidInput(f"unknown complex {which!r}")
    return _apply_any(algebra, op, rep, which, c).is_zero()


def coboundary_preimage(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                        which: str, c):
    """A degree-(p-1) cochain x with d(x) = c, or None; needs degree >= 2."""
    if which not in COMPLEXES:
        raise InvalidInput(f"unknown complex {which!r}")
    degree = c.degree
    if degree < 2:
        raise DegreeOutOfRange("nothing maps into degree 1")
    n, m = algebra.dim, rep.module_dim
    target = _flatten_any(which, c)
    mat = differential_matrix(algebra, op, rep, which, degree - 1)
    sol = solve(mat, target)
    if sol is None:
        return None
    if which == "rly":
        return unflatten_rly(degree - 1, n, m, sol)
    return unflatten(degree - 1, n, m, sol)


def is_coboundary(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                  which: str, c) -> bool:
    """Membership in the image of the incoming differential.  At degree 1
    the image is the zero space, so only the zero cochain bounds."""
    if which not in COMPLEXES:
        raise InvalidInput(f"unknown complex {which!r}")
    if c.degree < 2:
        return c.is_zero()
    return coboundary_preimage(algebra, op, rep, which, c) is not None


def cohomologous(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                 which: str, c, c_other) -> bool:
    return is_coboundary(algebra, op, rep, which, c - c_other)


def cocycle_space(algebra: LyAlgebra, op: ReynoldsOperator, rep: Representation,
                  which: str, degree: int):
    """Kernel basis of the degree-p differential, as flat coordinate vectors."""
    mat = differential_matrix(algebra, op, rep, which, degree)
    return kernel_basis(mat)
